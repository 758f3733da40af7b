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

The alignment holds by construction, so F, its GF(2) parity masks, F
transposed as floats and the table of stream-to-receiver links depend
only on (K, n): effective_system builds them once per plan from the
exponents.  So does _factor_rows, the rows of build_precoders' power
table that hold each precoding column's nonzero-exponent factors, the
only ones it multiplies (a zero exponent's factor is an exact 1).  Per
channel draw only the ratio table, the precoders, V_1's
inverse and V_1's rank test remain, all on arrays with a leading trial
axis: every trial's numbers are those of a stack holding that trial
alone.  Every receiver inverts its desired space D_l V_1, D_l =
diag(h[l, 0]), as V_1^-1 D_l^-1, so all K receivers share the one
inverse w = V_1^-1 per trial.  By construction that filter outputs the
aligned signals as F s, s the messages' BPSK symbols, so the phy layer
filters only the noise, applying D_l^-1 and w to it once per trial.
V_1's rank is the only check a draw must pass: diag(g_s) V_other = V_1
P_s for every ratio slot s, with P_s a selection of distinct columns
(_plan_matrix), so V_other has full column rank whenever V_1 does, and
the error of w is bounded through cond(V_1) alone.  The rank test reads
its verdict from the norms of V_1 and w, with an SVD only where they
leave it open.  A matrix's sigma_max is at least each of its row and
column norms, so cond_2(V_1) is at least kappa_lo, the largest row norm
of V_1 times the largest column norm of w = V_1^-1, and at most
kappa_F = ||V_1||_F ||w||_F.  A draw passes where kappa_F, and fails
where kappa_lo, clears the threshold 1 / RANK_SV_RTOL by the factor
1 + RANK_MARGIN, which is far above the rounding of w for every N up to
MAX_EXTENSION (check_precoder_ranks).  Of the draws a K=2, n=10, complex
sweep builds, 1.4 % reach the SVD.
Before any of that, ratio_bound_rejects fails the draws whose ratio
magnitudes alone prove V_1 rank-deficient.  Each entry of row t of V_1
is a product of n of the ratios g[s, t], and one column puts all n on
the largest, u_t = max_s |g[s, t]|, so row t's norm lies in [u_t^n,
sqrt(N) u_t^n].  With sigma_max at least the largest row norm and
sigma_min at most the smallest, cond_2(V_1) >= (max u / min u)^n /
sqrt(N).  Of 2,000 first draws per plan, the bound settles 58 % at K=2,
n=10, complex (70 % of those that fail), 97 % at K=2, n=10, real and all
at K=2, n=20; at K=3 and at K=2, n <= 3 it settles next to none, since
there the rank test fails next to no draw.  The K N network-coded bits
of a (trial, SNR point) travel packed into uint64 words in row order of
F (pack_bits), and every recovered message and every redundancy check is
the parity of popcount(words & mask) against one of the plan's masks, so
cp_recover solves every SNR point of a chunk of trials in one call with
no arithmetic mod 2.  Each stage returns plain arrays, only those the
next stage reads: channel_ratios (g), ratio_bound_rejects (the mask of
doomed draws), build_precoders (v1, v_other), build_filters (w),
check_precoder_ranks (passed) and cp_recover (x, detected).
draw_round runs the first five, in order, on a stack of draws, and
usable_channels decides which draw a trial keeps: it redraws only the
trials whose last draw failed, up to MAX_RESAMPLES times, and aborts a
trial whose last draw still fails.
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
# check_precoder_ranks' bounds on kappa^2: it passes a draw below the
# first and fails it above the second
RANK_PASS2 = (RANK_SV_RTOL * (1 + RANK_MARGIN)) ** -2
RANK_FAIL2 = ((1 + RANK_MARGIN) / RANK_SV_RTOL) ** 2
# The largest N for which N eps / RANK_SV_RTOL <= RANK_MARGIN / 4 (1,125):
# the rounding of w then stays inside the margin of every rank rule
MAX_EXTENSION = int(RANK_MARGIN / 4 * RANK_SV_RTOL / np.finfo(float).eps)
MAX_RESAMPLES = 3


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

    @functools.cached_property
    def ratio_bound(self) -> float:
        """c = ((1 + RANK_MARGIN) / RANK_SV_RTOL)^(1/n) N^(1/(2n)): a draw
        with max u / min u > c fails (ratio_bound_rejects)."""
        return ((1 + RANK_MARGIN) / RANK_SV_RTOL) ** (1 / self.n) * self.N ** (0.5 / self.n)


@functools.lru_cache(maxsize=None)
def extension_dims(K: int, n: int) -> ExtensionPlan:
    """Extension plan for K users and extension parameter n (cached)."""
    if K < 2:
        raise ValueError("need at least two users")
    if n < 1:
        raise ValueError("extension parameter must be >= 1")
    slots = K * (K - 1)
    # N = C(n + slots - 1, n) over its smaller side: each partial product is a
    # binomial at least twice the last, so past the cap it stops in ~20 steps
    k, N = min(n, slots - 1), 1
    for i in range(1, k + 1):
        N = N * (n + slots - 1 - k + i) // i
        if N > MAX_EXTENSION:
            raise CapacityError(f"extension length exceeds cap {MAX_EXTENSION}")
    N_prime = math.comb(n + slots - 2, n - 1)
    tx1 = tuple(_compositions(n, slots))
    other = tuple(_compositions(n - 1, slots))
    assert len(tx1) == N and len(other) == N_prime
    return ExtensionPlan(K=K, n=n, N=N, N_prime=N_prime,
                         tx1_exponents=tx1, other_exponents=other)


@np.errstate(over="ignore", invalid="ignore")
def channel_ratios(h: np.ndarray, plan: ExtensionPlan) -> np.ndarray:
    """The ratio table g (..., K(K-1), N) of the channel *h*: row s holds
    the diagonal of G[i,j] = H[i,1]^-1 H[i,j] for slot s = (i, j), j >= 2,
    in slot order, with the leading (trial) axes of *h*.  A quotient that
    overflows is inf, which ratio_bound_rejects rejects, so this warns of
    nothing."""
    K, N = plan.K, plan.N
    if h.shape[-1] != N or min(h.shape[-3:-1]) < K:
        raise ValueError("channel realization does not match the plan")
    base = h[..., :K, 0, :]  # nonzero: sample_extended_channel redraws exact zeros
    g = h[..., :K, 1:K, :] / base[..., None, :]
    return g.reshape(*g.shape[:-3], K * (K - 1), N)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def ratio_bound_rejects(g: np.ndarray, plan: ExtensionPlan) -> np.ndarray:
    """The mask, over the leading (trial) axes of the ratio table *g*, of
    the draws whose V_1 the magnitudes |g| alone prove rank-deficient.

    It is set where max u / min u > plan.ratio_bound, u_t = max_s |g[s, t]|,
    that is where the lower bound cond_2(V_1) >= (max u / min u)^n /
    sqrt(N) (module docstring; Golub and Van Loan, Matrix Computations,
    4th ed., 2.4) exceeds (1 + RANK_MARGIN) / RANK_SV_RTOL.  The margin is
    far above the rounding of u and of the computed V_1, so
    check_precoder_ranks fails every draw it sets.  A u that is zero, inf
    or NaN sets it, with no warning."""
    u = np.abs(g).max(axis=-2)
    # a zero, inf or NaN u makes the quotient inf or NaN, which rejects
    return ~(u.max(axis=-1) / u.min(axis=-1) <= plan.ratio_bound)


@functools.lru_cache(maxsize=None)
def _factor_rows(plan: ExtensionPlan) -> tuple[np.ndarray, tuple]:
    """``(first, later)``: where build_precoders' power table holds the
    nonzero-exponent factors of every precoding column, transmitter 1's N
    then the N' shared ones, in slot order.  Power G[i,j]^e of slot s sits
    at row 1 + (e - 1) K(K-1) + s, after row 0 of ones.  ``first`` holds
    each column's first factor, row 0 where it has none, and ``later``
    holds for d = 1, 2, ... the columns with a factor d and that factor's
    row.  Built once per plan; the arrays are shared, so read-only."""
    slots = plan.K * (plan.K - 1)
    factors = [[1 + (e - 1) * slots + s for s, e in enumerate(col) if e]
               for col in plan.tx1_exponents + plan.other_exponents]
    first = np.array([f[0] if f else 0 for f in factors])
    later = tuple((np.array([c for c, f in enumerate(factors) if len(f) > d]),
                   np.array([f[d] for f in factors if len(f) > d]))
                  for d in range(1, max(map(len, factors))))
    for a in (first, *(a for pair in later for a in pair)):
        a.flags.writeable = False
    return first, later


@np.errstate(over="ignore", invalid="ignore")
def build_precoders(g: np.ndarray, plan: ExtensionPlan) -> tuple[np.ndarray, np.ndarray]:
    """Construct the precoding matrices from the ratio table *g* of
    channel_ratios: ``(v1, v_other)``, transmitter 1's (..., N, N) and the
    (..., N, N') one that transmitters 2..K share, with the leading (trial)
    axes of *g*.

    Each column is (prod over slots of G[i,j]^exponent) applied to the
    all-ones seed vector: the product, in slot order, of its
    nonzero-exponent factors, read from a table of the powers G[i,j]^e,
    e = 1..n, at the rows _factor_rows lists, and all ones where every
    exponent is zero.  A zero exponent's factor is an exact 1, so it is
    skipped: at K=3, n=2 a column takes at most one multiply, and at n=1
    none.  That leaves every bit of a real table's precoders as the fold
    over all K(K-1) slots gives them, and of a complex table's wherever
    no product has a zero or infinite part: (1 + 0j) x can flip the sign
    of a zero part of x, and has a NaN part where x has an infinite one.
    One global scalar scales all transmitters so the maximum column
    squared-norm equals 1 (per-column scaling would break column-equality
    alignment).  Where the powers overflow, V_1 holds inf or NaN, which
    check_precoder_ranks rejects, so this warns of nothing.
    """
    first, later = _factor_rows(plan)
    powers = np.concatenate([np.ones_like(g[..., :1, :]),
                             *(g ** e for e in range(1, plan.n + 1))], axis=-2)
    powers = np.swapaxes(powers, -1, -2)  # [..., row, factor]
    v = np.take(powers, first, axis=-1)  # C order fixes matvec rounding
    for cols, rows in later:
        v[..., cols] *= powers[..., rows]
    scale = np.sqrt(1.0 / np.max(np.sum(np.abs(v) ** 2, axis=-2), axis=-1))[..., None, None]
    return v[..., :plan.N] * scale, v[..., plan.N:] * scale


def check_precoder_ranks(v1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The mask, over the leading (trial) axes of transmitter 1's precoders
    *v1*, of the trials where V_1 has full rank: N singular values above
    RANK_SV_RTOL times the largest, that is cond_2(V_1) < 1 / RANK_SV_RTOL.
    With *w* = build_filters(v1), two bounds on cond_2 settle almost every
    draw from one pass over |V_1|^2 and one over |w|^2.  A matrix's
    sigma_max is at least each of its row and column norms (Golub and Van
    Loan, Matrix Computations, 4th ed., 2.3), so cond_2 = ||V_1||_2
    ||V_1^-1||_2 lies in [kappa_lo, kappa_F]: kappa_lo is the largest row
    norm of V_1 times the largest column norm of w, at least kappa_F / N,
    and kappa_F = ||V_1||_F ||w||_F, from the same row and column sums.  w
    errs by about N eps cond_2 relative (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 14):
    - pass where kappa_F (1 + RANK_MARGIN) < 1 / RANK_SV_RTOL: |w V_1 - I|
      <= N eps kappa_F << RANK_MARGIN, so ||V_1^-1||_F < (1 + RANK_MARGIN)
      ||w||_F;
    - fail where kappa_lo > (1 + RANK_MARGIN) / RANK_SV_RTOL: a full-rank
      V_1 has w accurate to N eps / RANK_SV_RTOL <= RANK_MARGIN / 4, which
      MAX_EXTENSION ensures, so kappa_lo < (1 + RANK_MARGIN / 4) cond_2.
    Both are tested on squares.  Only a finite kappa_lo is open, and only
    open draws take the SVD, so the mask is the SVD test's verdict on every
    finite draw; an overflowing or NaN kappa_lo (an exactly singular V_1,
    or V_1 or w holding inf or NaN) fails, with no warning."""
    n = v1.shape[-1]
    v, u = (np.ascontiguousarray(m).view(m.real.dtype) for m in (v1, w))
    rows = np.einsum("...ij,...ij->...i", v, v)  # |V_1|^2 summed along each row
    cols = np.einsum("...ij,...ij->...j", u, u)  # |w|^2 down each column of u
    if cols.shape[-1] > n:  # complex: add each column's real and imaginary sums
        cols = cols[..., 0::2] + cols[..., 1::2]
    passed = np.asarray(rows.sum(axis=-1) * cols.sum(axis=-1) < RANK_PASS2)
    if not passed.all():
        open_ = ~passed & (rows.max(axis=-1) * cols.max(axis=-1) <= RANK_FAIL2)
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


def verify_alignment(h: np.ndarray, v1: np.ndarray, v_other: np.ndarray) -> AlignmentResult:
    """Check that every interfering column of one trial's channel *h*
    (M, M, N) and precoders coincides with a desired column.

    True iff for every receiver l and transmitter k >= 2, each column of
    H_{l,k} V_k equals, within relative tolerance ALIGNMENT_RTOL, some
    column of H_{l,1} V_1.  The witness map records the matching column
    indices.
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
                match = np.where(dist <= ALIGNMENT_RTOL * np.maximum(norms, 1e-300))[0]
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


def draw_round(h: np.ndarray, plan: ExtensionPlan):
    """One round of V_1's rank test over the channel stack *h*: the mask of
    the draws that pass, and their precoders v1 and v_other and inverses w
    in index order.  The ratio table is built once; ratio_bound_rejects
    fails most doomed draws from it, and only the draws it leaves open are
    built, inverted and checked."""
    g = channel_ratios(h, plan)
    passed = ~ratio_bound_rejects(g, plan)
    v1, v_other = build_precoders(g if passed.all() else g[passed], plan)
    w = build_filters(v1)
    ok = check_precoder_ranks(v1, w)
    passed[passed] = ok
    if not ok.all():
        v1, v_other, w = v1[ok], v_other[ok], w[ok]
    return passed, v1, v_other, w


def usable_channels(h: np.ndarray, plan: ExtensionPlan, redraw):
    """Resample the draws of the chunk's channel *h* whose V_1 loses rank
    up to MAX_RESAMPLES times.  The first round tests the whole chunk; each
    later round redraws and tests only the trials still pending (one
    draw_round each), so a kept trial keeps the inverse w that its rank
    test read.  Returns the kept trials' channel, precoders v1 and v_other,
    and filter inverses w, and the kept mask; the rounds' arrays are joined
    only when the first round did not keep every trial."""
    pending = np.arange(len(h))
    rounds = []  # (trials that passed, their v1, v_other and w) per round
    for resample in range(MAX_RESAMPLES + 1):
        if resample:
            h[pending] = redraw(pending)
        passed, *arrays = draw_round(h[pending] if resample else h, plan)
        rounds.append((pending[passed], arrays))
        pending = pending[~passed]
        if not pending.size:
            break
    kept = np.ones(len(h), dtype=bool)
    kept[pending] = False
    if len(rounds) == 1:  # every trial passed the first round
        return h, *rounds[0][1], kept
    order = np.argsort(np.concatenate([done for done, _ in rounds]))
    v1, v_other, w = (np.concatenate(parts)[order]
                      for parts in zip(*(arrays for _, arrays in rounds)))
    return (h[kept] if pending.size else h), v1, v_other, w, kept


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

    Row r of ``f_int`` belongs to receiver r // N, component r % N, and
    column c to stream c: transmitter 1's N streams, then N' streams for
    each further transmitter in order.  ``indep_rows``
    is the greedy independent row set of F over GF(2).  ``masks`` holds
    one row of pack_bits words per row of F, so recovery needs no
    elimination: row i < total_streams selects the independent rows whose
    sum mod 2 is message i (row i of the inverse of F[indep_rows], placed
    at indep_rows), and each further row checks one redundant row r of F,
    in ascending order: bit r plus the independent rows that predict it,
    (F[r] F[indep_rows]^-1 mod 2) placed at indep_rows, so its parity is
    zero on every codeword.  ``weights[l, i]`` is the support size of row
    (l, i).  ``f_t`` is F transposed as floats, the matrix that maps the
    streams' BPSK symbols to the aligned signals.  ``links`` (depth,
    streams) lists in column c the receiver rows that decode stream c,
    the rows of column c's nonzero entries in ascending order, its last
    row repeated below them where the stream has fewer than depth links;
    depth is the most links any stream has, at most K.
    """

    plan: ExtensionPlan
    f_int: np.ndarray = field(repr=False)
    indep_rows: np.ndarray = field(repr=False)
    masks: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    f_t: np.ndarray = field(repr=False)
    links: np.ndarray = field(repr=False)


def _plan_matrix(plan: ExtensionPlan) -> np.ndarray:
    """F of *plan* by the exponent shift rule.

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
    return f


@functools.lru_cache(maxsize=None)
def effective_system(plan: ExtensionPlan) -> EffectiveSystem:
    """The effective system of *plan*, derived from its exponents alone.

    Built once per plan; the arrays are shared, so they are read-only.
    Raises RankDeficientError when F is singular over GF(2), which covers
    a stream column that no receiver decodes.
    """
    f = _plan_matrix(plan)
    total = plan.total_streams
    rows = gf_select_independent_rows(f, GF2)
    if len(rows) != total:
        raise RankDeficientError(f"the K={plan.K}, n={plan.n} effective system has "
                                 f"GF(2) rank {len(rows)} < {total} streams")
    per_stream = f.sum(axis=0)
    start = np.cumsum(per_stream) - per_stream
    depth = np.arange(per_stream.max())[:, None]  # a link's place in its column
    inv = gf_inv(f[rows], GF2)
    redundant = sorted(set(range(len(f))).difference(rows))
    bits = np.zeros((len(f), len(f)), dtype=np.uint8)
    bits[:total, rows] = inv
    bits[total:, rows] = (f[redundant] @ inv) % 2
    bits[np.arange(total, len(f)), redundant] = 1
    arrays = dict(f_int=f, indep_rows=np.array(rows), masks=pack_bits(bits),
                  weights=f.sum(axis=1).reshape(plan.K, plan.N),
                  f_t=np.ascontiguousarray(f.T, dtype=float),
                  links=np.nonzero(f.T)[1][start + np.minimum(depth, per_stream - 1)])
    for a in arrays.values():
        a.flags.writeable = False
    return EffectiveSystem(plan=plan, **arrays)


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

