"""
Signal-aligned network coding: precoders, filters, effective system, recovery.

Transmitter 1 sends N streams and every other transmitter sends N' streams
over an N symbol extension.  Precoding columns are products of the ratio
matrices G[i,j] = H[i,1]^-1 H[i,j] applied to a common seed vector, chosen
so that at every receiver each interfering column coincides with a column
of the desired signal space; transmitters 2..K share one precoding matrix.
Inverting the desired signal space then leaves a 0/1 effective matrix F
linking original messages to the network-coded messages collected by the
central processor.

The alignment holds by construction, so F, its GF(2) parity masks and the
stream-to-receiver links depend only on (K, n): effective_system builds
them once per plan from the exponents, and phy.stream_gains reduces each
stream's links to its weakest receiver once per channel draw.  Per
channel draw only the precoders, V_1's inverse and V_1's rank test
remain, all on arrays with a leading trial axis: every trial's numbers
are those of a stack holding that trial alone.  Every receiver inverts
its desired space D_l V_1, D_l = diag(h[l, 0]), as V_1^-1 D_l^-1, so all
K receivers share the one inverse w = V_1^-1 per trial and the phy layer
applies D_l^-1 to the received vector.  V_1's rank is the only check a
draw must pass: diag(g_s) V_other = V_1 P_s for every ratio slot s, with
P_s a selection of distinct columns (_plan_matrix), so V_other has full
column rank whenever V_1 does, and the error of w is bounded through
cond(V_1) alone.  The rank test reads its verdict from w, with an SVD
only where a bound leaves it open.  The K N network-coded bits of a
(trial, SNR point) travel packed into uint64 words in row order of F
(pack_bits), and every recovered message and every redundancy check is
the parity of popcount(words & mask) against one of the plan's masks, so
cp_recover solves every SNR point of a chunk of trials in one call with
no arithmetic mod 2.  Each stage returns plain arrays, only
those the next stage reads: build_precoders (v1, v_other), build_filters
(w), check_precoder_ranks (passed) and cp_recover (x, detected).
verify_alignment, on one trial's (M, M, N) channel, is the numerical
reference the tests hold the construction to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .gf import PrimeField, RankDeficientError, gf_inv, gf_select_independent_rows

GF2 = PrimeField(2)
ALIGNMENT_RTOL = 1e-9
RANK_SV_RTOL = 1e-9
RANK_MARGIN = 1e-3
MAX_EXTENSION = 10**6


class CapacityError(Exception):
    """Extension dimensions overflow the supported size."""


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


@functools.lru_cache(maxsize=None)
def extension_dims(K: int, n: int) -> ExtensionPlan:
    """Extension plan for K users and extension parameter n (cached)."""
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


@np.errstate(over="ignore", invalid="ignore")
def build_precoders(h: np.ndarray, plan: ExtensionPlan) -> tuple[np.ndarray, np.ndarray]:
    """Construct the precoding matrices from the channel ratio products:
    ``(v1, v_other)``, transmitter 1's (..., N, N) and the (..., N, N')
    one that transmitters 2..K share, with the leading (trial) axes of the
    channel *h*.

    Each column is (prod over slots of G[i,j]^exponent) applied to the
    all-ones seed vector, multiplied in slot order from a table of the
    powers G[i,j]^e, e = 0..n (a zero exponent multiplies by exactly 1).
    One global scalar scales all transmitters so the maximum column
    squared-norm equals 1 (per-column scaling would break
    column-equality alignment).  Where the powers overflow, V_1 holds inf
    or NaN, which check_precoder_ranks rejects, so this warns of nothing.
    """
    K, N = plan.K, plan.N
    if h.shape[-1] != N or min(h.shape[-3:-1]) < K:
        raise ValueError("channel realization does not match the plan")
    base = h[..., :K, 0, :]  # nonzero: sample_extended_channel redraws exact zeros
    # diagonals of G[i,j] = H[i,1]^-1 H[i,j], in slot order (i, j), j >= 2
    g = h[..., :K, 1:K, :] / base[..., None, :]
    g = g.reshape(*g.shape[:-3], K * (K - 1), N)
    powers = np.stack([g ** e for e in range(plan.n + 1)], axis=-2)  # [slot, e]
    v = []
    for exponents in (plan.tx1_exponents, plan.other_exponents):
        e = np.array(exponents)
        cols = np.ones(N, dtype=h.dtype)  # the common seed column
        for slot in range(K * (K - 1)):
            cols = cols * powers[..., slot, e[:, slot], :]
        # C order fixes matvec rounding
        v.append(np.ascontiguousarray(np.swapaxes(cols, -1, -2)))
    max_norm2 = np.maximum(*(np.max(np.sum(np.abs(m) ** 2, axis=-2), axis=-1) for m in v))
    scale = np.sqrt(1.0 / max_norm2)[..., None, None]
    return v[0] * scale, v[1] * scale


def check_precoder_ranks(v1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mask, over the leading (trial) axes of transmitter 1's precoders
    *v1*, of the trials where V_1 has full rank: N singular values above
    RANK_SV_RTOL times the largest, that is cond_2(V_1) < 1 / RANK_SV_RTOL.
    With *w* = build_filters(v1) and kappa = ||V_1||_F ||w||_F, cond_2 lies
    in [kappa / N, kappa] and w errs by about N eps cond_2 relative (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 14):
    - pass where kappa (1 + RANK_MARGIN) < 1 / RANK_SV_RTOL: |w V_1 - I| <=
      N eps kappa << RANK_MARGIN, so ||V_1^-1||_F < (1 + RANK_MARGIN) ||w||_F;
    - fail where kappa / N > (1 + RANK_MARGIN) / RANK_SV_RTOL: a full-rank V_1
      has w accurate far within RANK_MARGIN, so kappa < (1 + RANK_MARGIN) N cond_2.
    Only a finite kappa is open, and only open draws take the SVD, so the
    mask is the SVD test's verdict on every finite draw; an overflowing or
    NaN kappa (an exactly singular V_1, or V_1 holding inf or NaN) fails."""
    n = v1.shape[-1]
    v, u = (m.reshape(*m.shape[:-2], -1).view(m.real.dtype) for m in (v1, w))
    kappa = np.sqrt(np.einsum("...i,...i", v, v)) * np.sqrt(np.einsum("...i,...i", u, u))
    passed = np.asarray(kappa * (1 + RANK_MARGIN) < 1 / RANK_SV_RTOL)
    open_ = ~passed & (kappa / n <= (1 + RANK_MARGIN) / RANK_SV_RTOL)
    if open_.any():
        sv = np.linalg.svd(v1[open_], compute_uv=False)
        passed[open_] = np.count_nonzero(sv > RANK_SV_RTOL * sv[..., :1], axis=-1) == n
    return passed


@dataclass(frozen=True)
class AlignmentResult:
    aligned: bool
    # (receiver, transmitter, column) -> matching column index of H_{l,1} V_1
    witness: dict[tuple[int, int, int], int]

    def __bool__(self):
        return self.aligned


def verify_alignment(h: np.ndarray, v1: np.ndarray, v_other: np.ndarray,
                     rtol: float = ALIGNMENT_RTOL) -> AlignmentResult:
    """Check that every interfering column of one trial's channel *h*
    (M, M, N) and precoders coincides with a desired column.

    True iff for every receiver l and transmitter k >= 2, each column of
    H_{l,k} V_k equals (within relative tolerance) some column of
    H_{l,1} V_1.  The witness map records the matching column indices.
    """
    witness = {}
    K = len(h)
    for l in range(K):
        desired = h[l, 0][:, None] * v1
        norms = np.linalg.norm(desired, axis=0)
        for k in range(1, K):
            cross = h[l, k][:, None] * v_other
            for c in range(cross.shape[1]):
                dist = np.linalg.norm(desired - cross[:, c][:, None], axis=0)
                match = np.where(dist <= rtol * np.maximum(norms, 1e-300))[0]
                if match.size == 0:
                    return AlignmentResult(False, witness)
                witness[l, k, c] = int(match[0])
    return AlignmentResult(True, witness)


def build_filters(v1: np.ndarray) -> np.ndarray:
    """The inverse w = V_1^-1 of transmitter 1's precoders *v1* (..., N, N),
    the factor that every receiver's filter shares: (D_l V_1)^-1 =
    V_1^-1 D_l^-1 = w / d_l, w with its columns divided by the diagonal
    d_l = h[l, 0] of D_l.  An exactly singular V_1 gets a NaN w instead of
    raising, and every other trial's w keeps its bits."""
    try:
        return np.linalg.inv(v1)
    except np.linalg.LinAlgError:
        return (np.stack([build_filters(m) for m in v1]) if v1.ndim > 2
                else np.full_like(v1, np.nan))


def pack_bits(bits) -> np.ndarray:
    """The 0/1 entries of *bits* (..., n) packed into (..., ceil(n / 64))
    uint64 words: entry r goes to word r // 64, in the byte and bit order
    of np.packbits(..., bitorder="little"), and a nonzero entry counts as
    1.  Every row is padded to whole 64-bit lanes first, so one packbits
    pass over the contiguous lanes packs every row.  The demodulated words
    and the masks of effective_system are both built here, so they share
    one layout whatever the host's byte order, and
    np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[..., :n]
    returns the bits."""
    bits = np.asarray(bits)
    n = bits.shape[-1]
    words = -(-n // 64)
    lanes = np.zeros(bits.shape[:-1] + (64 * words,), dtype=bool)
    lanes[..., :n] = bits
    packed = np.packbits(lanes, bitorder="little").view(np.uint64)
    return packed.reshape(bits.shape[:-1] + (words,))


@dataclass(frozen=True)
class EffectiveSystem:
    """The 0/1 matrix F relating original and network-coded messages, with
    everything recovery, demodulation and rate accounting read from it.

    Row r of ``f_int`` belongs to receiver r // N, component r % N;
    ``col_offset`` maps a transmitter to its first column.  ``indep_rows``
    is the greedy independent row set of F over GF(2).  ``masks`` holds
    one row of pack_bits words per row of F, so recovery needs no
    elimination: row i < total_streams selects the independent rows whose
    sum mod 2 is message i (row i of the inverse of F[indep_rows], placed
    at indep_rows), and each further row checks one redundant row r of F,
    in ascending order: bit r plus the independent rows that predict it,
    (F[r] F[indep_rows]^-1 mod 2) placed at indep_rows, so its parity is
    zero on every codeword.  ``weights[l, i]`` is the support size of row
    (l, i).
    ``link_rows`` lists the rows of the nonzero entries of F, column by
    column, so the receiver rows that decode stream column c start at
    ``link_rows[stream_start[c]]``.
    """

    plan: ExtensionPlan
    col_offset: tuple[int, ...]
    f_int: np.ndarray = field(repr=False)
    indep_rows: np.ndarray = field(repr=False)
    masks: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    link_rows: np.ndarray = field(repr=False)
    stream_start: np.ndarray = field(repr=False)


def _plan_matrix(plan: ExtensionPlan) -> tuple[np.ndarray, tuple[int, ...]]:
    """F of *plan* by the exponent shift rule, and the first column of
    every transmitter.

    At receiver l, H_{l,k} = H_{l,1} G[l,k], so column s of transmitter
    k >= 2 arrives along the transmitter-1 column whose exponents are
    other_exponents[s] plus one in slot (l, k), and the filter maps that
    column to a unit vector.  Block (l, 1) of F is the identity.
    """
    K, N = plan.K, plan.N
    tx1 = {e: j for j, e in enumerate(plan.tx1_exponents)}
    offsets = (0,) + tuple(N + k * plan.N_prime for k in range(K - 1))
    f = np.zeros((K * N, plan.total_streams), dtype=np.int64)
    for l in range(K):
        f[l * N:(l + 1) * N, :N] = np.eye(N, dtype=np.int64)
        for k in range(1, K):
            slot = l * (K - 1) + k - 1
            for s, e in enumerate(plan.other_exponents):
                shifted = e[:slot] + (e[slot] + 1,) + e[slot + 1:]
                f[l * N + tx1[shifted], offsets[k] + s] = 1
    return f, offsets


@functools.lru_cache(maxsize=None)
def effective_system(plan: ExtensionPlan) -> EffectiveSystem:
    """The effective system of *plan*, derived from its exponents alone.

    Built once per plan; the arrays are shared, so they are read-only.
    Raises RankDeficientError when F is singular over GF(2), which covers
    a stream column that no receiver decodes.
    """
    f, offsets = _plan_matrix(plan)
    total = plan.total_streams
    rows = gf_select_independent_rows(f, GF2)
    if len(rows) != total:
        raise RankDeficientError(f"the K={plan.K}, n={plan.n} effective system has "
                                 f"GF(2) rank {len(rows)} < {total} streams")
    links_per_stream = f.sum(axis=0)
    inv = gf_inv(f[rows], GF2)
    redundant = sorted(set(range(len(f))).difference(rows))
    bits = np.zeros((len(f), len(f)), dtype=np.uint8)
    bits[:total, rows] = inv
    bits[total:, rows] = (f[redundant] @ inv) % 2
    bits[np.arange(total, len(f)), redundant] = 1
    arrays = dict(f_int=f, indep_rows=np.array(rows), masks=pack_bits(bits),
                  weights=f.sum(axis=1).reshape(plan.K, plan.N),
                  link_rows=np.nonzero(f.T)[1],
                  stream_start=np.cumsum(links_per_stream) - links_per_stream)
    for a in arrays.values():
        a.flags.writeable = False
    return EffectiveSystem(plan=plan, col_offset=offsets, **arrays)


def cp_recover(eff: EffectiveSystem, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-processor recovery from the forwarded messages, the K N bits
    of each (trial, SNR point) packed by pack_bits in row order of F into
    *words* (..., ceil(K N / 64)), with any leading (trial, SNR) axes.

    Returns ``(x, detected)``: the recovered messages, 0/1 uint8
    (..., total_streams) in column order of F, solved from the
    independent-row subsystem of F, and the flag (...) that reports (not
    silently ignores) redundant rows disagreeing with that solution.
    Message i is the parity of popcount(words & eff.masks[i]), and the flag
    is set where any further row of ``eff.masks`` has parity 1.  The parity
    of a sum of per-word popcounts is the parity of the popcount of the
    words' XOR, so the words of a mask fold into one first.
    """
    total = eff.plan.total_streams
    folded = np.bitwise_xor.reduce(words[..., None, :] & eff.masks, axis=-1)
    parity = np.bitwise_count(folded) & 1
    return parity[..., :total], np.any(parity[..., total:], axis=-1)


def theoretical_dof(plan: ExtensionPlan):
    """(per-user DoF tuple, total DoF per channel use, stream count)."""
    per_user = (1.0,) + (plan.N_prime / plan.N,) * (plan.K - 1)
    return per_user, plan.total_streams / plan.N, plan.total_streams
