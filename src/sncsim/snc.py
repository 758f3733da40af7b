"""
Signal-aligned network coding: precoders, filters, effective system, recovery.

Transmitter 1 sends N streams and every other transmitter sends N' streams
over an N symbol extension.  Precoding columns are products of the ratio
matrices G[i,j] = H[i,1]^-1 H[i,j] applied to a common seed vector, chosen
so that at every receiver each interfering column coincides with a column
of the desired signal space.  Inverting the desired signal space then
leaves a 0/1 effective matrix linking original messages to the
network-coded messages collected by the central processor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gf import (
    PrimeField,
    find_valid_field_size,
    gf_inv,
    gf_select_independent_rows,
)
from .channel import ChannelRealization

ALIGNMENT_RTOL = 1e-9
BINARY_ATOL = 1e-6
RANK_SV_RTOL = 1e-9
MAX_CONDITION = 1e12
MAX_EXTENSION = 10**6


class SncError(Exception):
    """Base class for scheme-construction errors."""


class CapacityError(SncError):
    """Extension dimensions overflow the supported size."""


class DegenerateChannelError(SncError):
    """Channel realization unusable (singular desired channel)."""


class AlignmentDegenerateError(SncError):
    """A precoder lost rank (measure-zero channel draw)."""


class AlignmentViolationError(SncError):
    """Effective matrix entries are not 0/1 within tolerance."""


class IllConditionedError(SncError):
    """Filter inversion numerically unreliable."""


def _compositions(total: int, slots: int) -> list[tuple[int, ...]]:
    """All nonnegative integer tuples of length *slots* summing to *total*,
    in descending lexicographic order (matches the two-user column layout:
    highest power of the first ratio matrix first)."""
    if slots == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class ExtensionPlan:
    """Dimensions and per-transmitter column exponent tuples.

    Exponent slots are ordered (i, j) for receiver i in 1..K and
    transmitter j in 2..K, so there are K(K-1) slots.  Transmitter 1 has
    N columns (exponent sums n); every other transmitter has N' columns
    (exponent sums n-1), identical across those transmitters.
    """

    K: int
    n: int
    N: int
    N_prime: int
    tx1_exponents: tuple[tuple[int, ...], ...]
    other_exponents: tuple[tuple[int, ...], ...]

    @property
    def total_streams(self) -> int:
        return self.N + (self.K - 1) * self.N_prime

    def streams(self, k: int) -> int:
        """Number of streams sent by transmitter k (0-based)."""
        return self.N if k == 0 else self.N_prime


def extension_dims(K: int, n: int) -> ExtensionPlan:
    """Extension plan for K users and extension parameter n."""
    if K < 2:
        raise ValueError("need at least two users")
    if n < 1:
        raise ValueError("extension parameter must be >= 1")
    slots = K * (K - 1)
    N = math.comb(n + slots - 1, n)
    N_prime = math.comb(n + slots - 2, n - 1)
    if N > MAX_EXTENSION:
        raise CapacityError(f"extension length {N} exceeds cap {MAX_EXTENSION}")
    tx1 = tuple(_compositions(n, slots))
    other = tuple(_compositions(n - 1, slots))
    assert len(tx1) == N and len(other) == N_prime
    return ExtensionPlan(K=K, n=n, N=N, N_prime=N_prime,
                         tx1_exponents=tx1, other_exponents=other)


@dataclass(frozen=True)
class PrecoderSet:
    """Per-transmitter precoding matrices (N x streams_k), a common seed
    column, and the single global power scale applied to every column."""

    v: dict[int, np.ndarray] = field(repr=False)
    w: np.ndarray = field(repr=False)
    power_scale: float = 1.0


def _ratio_diagonals(h: ChannelRealization, K: int) -> dict[tuple[int, int], np.ndarray]:
    """Diagonals of G[i,j] = H[i,1]^-1 H[i,j] for i in 1..K, j in 2..K."""
    g = {}
    for i in range(K):
        base = h.diag[i, 0]
        if np.any(base == 0):
            raise DegenerateChannelError(f"singular desired channel at receiver {i}")
        for j in range(1, K):
            g[i, j] = h.diag[i, j] / base
    return g


def build_precoders(h: ChannelRealization, plan: ExtensionPlan,
                    p_max: float = 1.0) -> PrecoderSet:
    """Construct the precoding matrices from the channel ratio products.

    Each column is (prod over slots of G[i,j]^exponent) applied to the
    all-ones seed vector.  One global scalar scales all transmitters so
    the maximum column squared-norm equals p_max (per-column scaling would
    break column-equality alignment).
    """
    K, N = plan.K, plan.N
    if h.n_ext != N or h.n_tx < K or h.n_rx < K:
        raise ValueError("channel realization does not match the plan")
    g = _ratio_diagonals(h, K)
    slots = [(i, j) for i in range(K) for j in range(1, K)]
    w = np.ones(N, dtype=complex if h.model == "complex" else float)

    def column(exponents):
        col = w.copy()
        for (i, j), e in zip(slots, exponents):
            if e:
                col = col * g[i, j] ** e
        return col

    v = {0: np.column_stack([column(e) for e in plan.tx1_exponents])}
    v_other = np.column_stack([column(e) for e in plan.other_exponents])
    for k in range(1, K):
        v[k] = v_other.copy()

    max_norm2 = max(float(np.max(np.sum(np.abs(m) ** 2, axis=0))) for m in v.values())
    scale = math.sqrt(p_max / max_norm2)
    v = {k: m * scale for k, m in v.items()}
    return PrecoderSet(v=v, w=w, power_scale=scale)


@dataclass(frozen=True)
class RankReport:
    ranks: dict[int, int]
    expected: dict[int, int]

    @property
    def passed(self) -> bool:
        return self.ranks == self.expected

    def raise_if_deficient(self):
        for k, r in self.ranks.items():
            if r != self.expected[k]:
                raise AlignmentDegenerateError(
                    f"precoder of transmitter {k + 1} has rank {r}, "
                    f"expected {self.expected[k]}"
                )


def check_precoder_ranks(p: PrecoderSet, plan: ExtensionPlan) -> RankReport:
    """Numerical ranks of all precoders (singular values above
    RANK_SV_RTOL times the largest)."""
    ranks, expected = {}, {}
    for k, m in p.v.items():
        sv = np.linalg.svd(m, compute_uv=False)
        ranks[k] = int(np.sum(sv > RANK_SV_RTOL * sv[0]))
        expected[k] = plan.streams(k)
    return RankReport(ranks=ranks, expected=expected)


@dataclass(frozen=True)
class AlignmentResult:
    aligned: bool
    # (receiver, transmitter, column) -> matching column index of H_{l,1} V_1
    witness: dict[tuple[int, int, int], int]
    first_failure: tuple[int, int, int] | None = None

    def __bool__(self):
        return self.aligned


def verify_alignment(h: ChannelRealization, p: PrecoderSet,
                     rtol: float = ALIGNMENT_RTOL) -> AlignmentResult:
    """Check that every interfering column coincides with a desired column.

    True iff for every receiver l and transmitter k >= 2, each column of
    H_{l,k} V_k equals (within relative tolerance) some column of
    H_{l,1} V_1.  The witness map records the matching column indices.
    """
    K = len(p.v)
    witness = {}
    for l in range(K):
        desired = h.diag[l, 0][:, None] * p.v[0]
        norms = np.linalg.norm(desired, axis=0)
        for k in range(1, K):
            cross = h.diag[l, k][:, None] * p.v[k]
            for c in range(cross.shape[1]):
                dist = np.linalg.norm(desired - cross[:, c][:, None], axis=0)
                match = np.where(dist <= rtol * np.maximum(norms, 1e-300))[0]
                if match.size == 0:
                    return AlignmentResult(False, witness, (l, k, c))
                witness[l, k, c] = int(match[0])
    return AlignmentResult(True, witness)


@dataclass(frozen=True)
class FilterSet:
    """Per-receiver filtering matrices, stored as applied: x' = u[l] @ y,
    so u[l] @ (H_{l,1} V_1) is the identity."""

    u: dict[int, np.ndarray] = field(repr=False)


def build_filters(h: ChannelRealization, p: PrecoderSet) -> FilterSet:
    """Invert the desired signal space at every receiver."""
    K = len(p.v)
    u = {}
    for l in range(K):
        prod = h.diag[l, 0][:, None] * p.v[0]
        if np.linalg.cond(prod) > MAX_CONDITION:
            raise IllConditionedError(f"desired signal space at receiver {l} "
                                      "is nearly singular")
        u[l] = np.linalg.inv(prod)
    return FilterSet(u=u)


@dataclass(frozen=True)
class EffectiveSystem:
    """Stacked relation between original and network-coded messages.

    Row r belongs to receiver r // N, component r % N.  ``row_support``
    lists, per row, the (transmitter, stream) pairs with coefficient 1.
    ``col_offset`` maps a transmitter to its first column in f_int.
    ``indep_rows`` is the greedy independent row set of f_int over the
    working field and ``indep_inv`` the inverse of that square subsystem,
    so recovery needs no elimination.
    """

    f_real: np.ndarray = field(repr=False)
    f_int: np.ndarray = field(repr=False)
    field_q: PrimeField
    row_support: tuple[tuple[tuple[int, int], ...], ...]
    plan: ExtensionPlan
    col_offset: tuple[int, ...]
    indep_rows: np.ndarray = field(repr=False)
    indep_inv: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self.f_int.shape[0]


def build_effective_system(h: ChannelRealization, p: PrecoderSet,
                           filters: FilterSet, plan: ExtensionPlan,
                           q_default: int = 2) -> EffectiveSystem:
    """Stack the filtered blocks u[l] (H_{l,k} V_k) into one 0/1 system.

    Every entry must be within BINARY_ATOL of 0 or 1; the working field is
    GF(q_default) when the system keeps full rank there, otherwise the
    smallest prime that preserves the rank.
    """
    K, N = plan.K, plan.N
    blocks = []
    for l in range(K):
        row = [filters.u[l] @ (h.diag[l, k][:, None] * p.v[k]) for k in range(K)]
        blocks.append(np.hstack(row))
    f_real = np.vstack(blocks)
    f_int = np.round(f_real.real).astype(np.int64)
    err = np.abs(f_real - f_int)
    if np.max(err) > BINARY_ATOL or f_int.min() < 0 or f_int.max() > 1:
        r, c = np.unravel_index(int(np.argmax(err)), err.shape)
        raise AlignmentViolationError(
            f"effective entry ({r},{c}) = {f_real[r, c]} is not binary"
        )
    total = plan.total_streams
    field_q = PrimeField(q_default)
    rows = gf_select_independent_rows(f_int, field_q)
    if len(rows) != total:
        field_q = find_valid_field_size(f_int, total)
        rows = gf_select_independent_rows(f_int, field_q)
    rows = np.array(rows, dtype=np.int64)
    offsets = [0]
    for k in range(K - 1):
        offsets.append(offsets[-1] + plan.streams(k))
    support = []
    for r in range(f_int.shape[0]):
        cols = np.nonzero(f_int[r])[0]
        entry = []
        for c in cols:
            k = 0 if c < N else 1 + (int(c) - N) // plan.N_prime
            entry.append((k, int(c) - offsets[k]))
        support.append(tuple(entry))
    return EffectiveSystem(f_real=f_real, f_int=f_int, field_q=field_q,
                           row_support=tuple(support), plan=plan,
                           col_offset=tuple(offsets), indep_rows=rows,
                           indep_inv=gf_inv(f_int[rows], field_q))


@dataclass(frozen=True)
class RecoveryResult:
    """Per-transmitter recovered message vectors plus a detected-error flag
    (redundant forwarded rows disagreed with the solved subsystem)."""

    messages: tuple[np.ndarray, ...]
    detected_error: bool


def cp_recover(eff: EffectiveSystem, forwarded) -> RecoveryResult:
    """Central-processor recovery from the stacked forwarded messages.

    Solves the independent-row subsystem of f_int mod q with its stored
    inverse and reports (not silently ignores) inconsistency of the
    redundant rows.
    """
    field_q = eff.field_q
    forwarded = field_q.reduce(forwarded).ravel()
    x = (eff.indep_inv @ forwarded[eff.indep_rows]) % field_q.q
    detected = bool(np.any((eff.f_int @ x - forwarded) % field_q.q != 0))
    plan = eff.plan
    split = []
    for k in range(plan.K):
        o = eff.col_offset[k]
        split.append(x[o:o + plan.streams(k)])
    return RecoveryResult(messages=tuple(split), detected_error=detected)


def theoretical_dof(plan: ExtensionPlan):
    """(per-user DoF tuple, total DoF per channel use, stream count)."""
    per_user = (1.0,) + (plan.N_prime / plan.N,) * (plan.K - 1)
    return per_user, plan.total_streams / plan.N, plan.total_streams
