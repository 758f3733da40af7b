"""
Exact arithmetic and dense linear algebra over prime fields GF(q).

Matrices are plain numpy integer arrays with entries reduced to [0, q).
_row_basis reduces rows one by one into a reduced row echelon basis that
rank, independent rows, solve and inverse all read; gf_full_rank is the
batched full-rank test of the CF leg.  Arithmetic is on Python ints, or on
int64 where every product fits: exact for every prime q < 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GfError(Exception):
    """Base class for finite-field errors."""


class ZeroInversionError(GfError):
    """Attempted multiplicative inverse of 0."""


class RankDeficientError(GfError):
    """Linear system has no unique solution (column-rank deficiency)."""


class InconsistentSystemError(GfError):
    """Redundant equations disagree with the unique solution."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin: the first 12 prime bases are exact for
    every q < 3.3e24, so for every 64-bit integer."""
    if q in _MR_BASES:
        return True
    if q < 2 or any(q % p == 0 for p in _MR_BASES):
        return False
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x == 1:
            continue
        for _ in range(s):
            if x == q - 1:
                break
            x = x * x % q
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Prime field GF(q); primality is verified at construction."""

    q: int

    def __post_init__(self):
        if self.q >= 2**63:
            raise ValueError(f"field size must be below 2^63 to fit int64, got {self.q}")
        if not _is_prime(self.q):
            raise ValueError(f"field size must be prime, got {self.q}")

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroInversionError("0 has no multiplicative inverse")
        return pow(int(a), -1, self.q)

    def reduce(self, m) -> np.ndarray:
        """Return *m* as an int64 array with entries reduced mod q."""
        return np.asarray(m, dtype=np.int64) % self.q


def _row_basis(m, field: PrimeField):
    """Reduce the rows of *m* mod q in ascending order; return (kept, basis).

    A row that stays nonzero against the basis so far is kept, scaled to a
    leading 1, and its pivot column cleared from the earlier rows, so basis
    (pivot column -> row, as Python int lists) is the RREF of the kept rows.
    """
    q = field.q
    kept: list[int] = []
    basis: dict[int, list[int]] = {}
    for i, v in enumerate(field.reduce(m).tolist()):
        for c, b in basis.items():
            f = v[c]
            if f:
                v = [(x - f * y) % q for x, y in zip(v, b)]
        p = next((j for j, x in enumerate(v) if x), -1)
        if p == -1:
            continue
        inv = pow(v[p], -1, q)
        v = [x * inv % q for x in v]
        for b in basis.values():
            f = b[p]
            if f:
                b[:] = [(x - f * y) % q for x, y in zip(b, v)]
        basis[p] = v
        kept.append(i)
    return kept, basis


def gf_rank(m, field: PrimeField) -> int:
    """Rank of *m* over GF(q)."""
    return len(_row_basis(m, field)[0])


def gf_full_rank(mats, field: PrimeField) -> np.ndarray:
    """Whether each matrix of a (B, K, K) integer stack is invertible mod q.

    Batched fraction-free elimination: each row below the pivot becomes
    pivot * row - lead * pivot_row, which scales it by a nonzero field
    element and so keeps the rank, with no inverses needed.  The products
    stay below q^2, so int64 is exact for q < 2^31; larger fields reduce
    Python ints.  Later steps read only the rows below the pivot, so the
    pivot row is taken from its copy and not written back.  gf_rank is the
    reference.
    """
    q = field.q
    a = field.reduce(mats)
    if q >= 2**31:
        a = a.astype(object)
    B, K, _ = a.shape
    full = np.ones(B, dtype=bool)
    idx = np.arange(B)
    for c in range(K - 1):
        nz = a[:, c:, c] != 0
        full &= nz.any(axis=1)
        piv = c + np.argmax(nz, axis=1)
        top = a[idx, piv]
        a[idx, piv] = a[:, c]
        below = a[:, c + 1:]
        a[:, c + 1:] = (top[:, c, None, None] * below
                        - below[:, :, c, None] * top[:, None, :]) % q
    return full & (a[:, -1, -1] != 0)


def gf_select_independent_rows(m, field: PrimeField) -> list[int]:
    """Indices of a maximal independent row set, chosen greedily.

    Rows are scanned in ascending order; a row is kept iff it increases
    the rank of the set kept so far.  The result has length gf_rank(m).
    """
    return _row_basis(m, field)[0]


def gf_solve(a, rhs, field: PrimeField) -> np.ndarray:
    """Solve a @ x = rhs (mod q) for the unique x, by row-reducing [a | rhs].

    Raises RankDeficientError unless *a* has full column rank over GF(q), and
    InconsistentSystemError when a pivot lands in the rhs column: redundant
    rows disagree (upstream this signals a demodulation error).
    """
    a = field.reduce(a)
    rhs = field.reduce(rhs).ravel()
    rows, cols = a.shape
    if rhs.shape[0] != rows:
        raise ValueError("rhs length must equal the number of rows")
    _, basis = _row_basis(np.hstack([a, rhs[:, None]]), field)
    rank = len(basis) - (cols in basis)
    if rank < cols:
        raise RankDeficientError(
            f"column rank {rank} < {cols}; system has no unique solution"
        )
    if cols in basis:
        raise InconsistentSystemError("redundant rows disagree with solution")
    return np.array([basis[c][cols] for c in range(cols)], dtype=np.int64)


def gf_inv(a, field: PrimeField) -> np.ndarray:
    """Inverse of the square matrix *a* over GF(q), by row-reducing [a | I].

    Raises RankDeficientError when *a* is singular mod q.
    """
    a = field.reduce(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("only square matrices have an inverse")
    n = a.shape[0]
    _, basis = _row_basis(np.hstack([a, np.eye(n, dtype=np.int64)]), field)
    if any(c not in basis for c in range(n)):
        raise RankDeficientError("matrix is singular over the field")
    return np.array([basis[c][n:] for c in range(n)], dtype=np.int64).reshape(n, n)
