"""
Exact arithmetic and dense linear algebra over prime fields GF(q).

Matrices are plain numpy integer arrays with entries reduced to [0, q).
Elimination runs on Python integers, or on int64 where every product fits,
so results are exact for any prime q that fits in int64.
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


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """Prime field GF(q); primality is verified at construction."""

    q: int

    def __post_init__(self):
        if not _is_prime(self.q):
            raise ValueError(f"field size must be prime, got {self.q}")

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroInversionError("0 has no multiplicative inverse")
        return pow(int(a), -1, self.q)

    def reduce(self, m) -> np.ndarray:
        """Return *m* as an int64 array with entries reduced mod q."""
        return np.asarray(m, dtype=np.int64) % self.q


def _eliminate(m: np.ndarray, field: PrimeField):
    """Row-reduce a copy of *m* mod q.

    Returns (reduced matrix, pivot column list, row permutation applied).
    The rows are Python int lists while reducing: exact, and far cheaper
    than numpy element access on the small systems solved here.
    """
    q = field.q
    a = field.reduce(m)
    rows, cols = a.shape
    a = a.tolist()
    pivot_cols: list[int] = []
    perm = list(range(rows))
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c]), -1)
        if pivot == -1:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            perm[r], perm[pivot] = perm[pivot], perm[r]
        inv = field.inv(a[r][c])
        lead = a[r] = [x * inv % q for x in a[r]]
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i] = [(x - f * y) % q for x, y in zip(a[i], lead)]
        pivot_cols.append(c)
        r += 1
    return np.array(a, dtype=np.int64).reshape(rows, cols), pivot_cols, perm


def gf_rank(m, field: PrimeField) -> int:
    """Rank of *m* over GF(q) via Gaussian elimination."""
    a = field.reduce(m)
    if a.size == 0:
        return 0
    _, pivots, _ = _eliminate(a, field)
    return len(pivots)


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
    q = field.q
    basis: list[tuple[int, list[int]]] = []  # (leading column, row with leading 1)
    kept: list[int] = []
    for i, v in enumerate(field.reduce(m).tolist()):
        for c, b in basis:
            f = v[c]
            if f:
                v = [(x - f * y) % q for x, y in zip(v, b)]
        c = next((j for j, x in enumerate(v) if x), -1)
        if c == -1:
            continue
        inv = field.inv(v[c])
        basis.append((c, [x * inv % q for x in v]))
        kept.append(i)
    return kept


def gf_solve(a, rhs, field: PrimeField) -> np.ndarray:
    """Solve a @ x = rhs (mod q) for the unique x.

    *a* must have full column rank over GF(q).  The solution is computed
    from an independent-row subsystem; every redundant row is then checked
    against it and a mismatch raises InconsistentSystemError (upstream this
    signals a demodulation error).
    """
    a = field.reduce(a)
    rhs = field.reduce(rhs).ravel()
    rows, cols = a.shape
    if rhs.shape[0] != rows:
        raise ValueError("rhs length must equal the number of rows")
    idx = gf_select_independent_rows(a, field)
    if len(idx) < cols:
        raise RankDeficientError(
            f"column rank {len(idx)} < {cols}; system has no unique solution"
        )
    sub = a[idx]
    red, pivots, perm = _eliminate(
        np.hstack([sub, rhs[idx].reshape(-1, 1)]), field
    )
    if len(pivots) != cols or pivots != list(range(cols)):
        raise RankDeficientError("independent-row subsystem is singular")
    x = red[:cols, cols].copy()
    residual = (a @ x - rhs) % field.q
    if np.any(residual != 0):
        raise InconsistentSystemError("redundant rows disagree with solution")
    return x


def gf_inv(a, field: PrimeField) -> np.ndarray:
    """Inverse of the square matrix *a* over GF(q), by row-reducing [a | I].

    Raises RankDeficientError when *a* is singular mod q.
    """
    a = field.reduce(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("only square matrices have an inverse")
    n = a.shape[0]
    red, pivots, _ = _eliminate(np.hstack([a, np.eye(n, dtype=np.int64)]), field)
    if pivots[:n] != list(range(n)):
        raise RankDeficientError("matrix is singular over the field")
    return red[:, n:]

