"""
Compute-and-forward baseline over real channels.

Each receiver decodes one integer linear equation of the messages per
channel slot; its coefficient vector is picked by exhaustive bounded
search on the computation-rate formula.  The central processor needs the
stacked coefficient matrix to be invertible mod q; a rank-deficient slot
is an outage and contributes zero rate.

cf_trial_sum_rate runs once per chunk of trials over the whole SNR grid,
on the bare (T, K, K, N) channel array, in (point, row) tiles of at most
PASS_ELEMENTS (leader, point, row) values each, so that the search bounds
its own memory whatever the chunk's length.  Every (point, row) bounds one
leader per orbit of the candidates under coordinate permutations and sign
flips, all points of a tile in one array pass.  The bounds are kept as rate
denominators, laid out (leader, point, row) so that every minimum over
the leaders is an elementwise reduction over the leading axis, whose
slices hold every (point, row) of the tile, and the rate map (_rate_of)
turns them into rates monotonically, so only the winner, the first
smallest, and the largest remaining bound are rated.
No member is projected but the winner's: its orbit's best member is
gathered once per (point, row), the gather the pick needs anyway, and
projected with the operations of the exhaustive search, so its rate is
exact, bit for bit (_member_projections).  A certificate proves that
member the exhaustive search's pick (see _search), and the (point, row)
pairs it leaves open take the exhaustive search, in groups of at most
PASS_ELEMENTS // (candidate count) pairs.  The exact integer determinant
of every (trial, point, slot) decides its outage (_integer_det), in
closed form for K <= 3.  It returns (T, S) arrays, each slot's worst
receiver rate capped at the caps it is given, which the harness builds
once per grid.  cf_select_coeffs evaluates the same rate function on one
row.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# Most integer vectors, (2 radius + 1)^K, the coefficient search may
# enumerate: radius 127 at K=2, 19 at K=3 and 7 at K=4.  At the bound the
# candidate table takes about 1 MB and 0.1 s to build (2-vCPU Xeon).
MAX_SEARCH_GRID = 2**16
# Most (leader, point, row) values one _search call holds, and most
# (pair, candidate) rates one group of its exhaustive fallback holds: 2 MB
# per float array.  MAX_SEARCH_GRID keeps every leader and candidate table
# below it, so one row or one pair always fits.
PASS_ELEMENTS = 2**18


def search_grid_size(K: int, radius: int) -> int:
    """Integer vectors of length K with max-norm <= radius, (2 radius + 1)^K,
    multiplied out only until it passes MAX_SEARCH_GRID, so that a huge K
    or radius never builds a huge integer."""
    size = 1
    for _ in range(K):
        size *= 2 * radius + 1
        if size > MAX_SEARCH_GRID:
            break
    return size


@functools.lru_cache(maxsize=None)
def _candidates(K: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer vectors with max-norm <= radius and a positive leading
    nonzero entry, ordered by squared norm then descending lexicographic
    order, and their squared norms as floats.  Both arrays are shared, so
    they are read-only.

    -a has the rate of a and a rank-equivalent coefficient row, and in the
    full signed order a comes first, so sign-flip ties resolve to a and -a
    never needs evaluating."""
    grid = np.array(
        [a for a in itertools.product(range(-radius, radius + 1), repeat=K)
         if next((x for x in a if x), 0) > 0],
        dtype=np.int64,
    )
    order = np.lexsort(tuple(-grid[:, c] for c in range(K - 1, -1, -1)))
    grid = grid[order]
    grid = grid[np.argsort(np.sum(grid * grid, axis=1), kind="stable")]
    norm2 = np.sum(grid * grid, axis=1).astype(float)
    grid.flags.writeable = norm2.flags.writeable = False
    return grid, norm2


@functools.lru_cache(maxsize=None)
def _orbits(K: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The leaders of the candidates' orbits under coordinate permutations
    and sign flips, radius >= b_1 >= ... >= b_K >= 0 with b != 0, and their
    squared norms, as floats.  Both arrays are shared, so read-only."""
    leaders = np.array(list(itertools.combinations_with_replacement(
        range(radius, -1, -1), K))[:-1], dtype=float)
    norm2 = np.sum(leaders * leaders, axis=1)
    leaders.flags.writeable = norm2.flags.writeable = False
    return leaders, norm2


def _projections(H, cand):
    """proj[..., c] = (h . cand[..., c, :])^2 for the channel rows h of H,
    shape (..., K).  The dot products are summed term by term into one
    array, so a row's values do not depend on the batch shape."""
    proj = H[..., 0, None] * cand[..., 0]
    term = np.empty_like(proj)
    for k in range(1, cand.shape[-1]):
        proj += np.multiply(H[..., k, None], cand[..., k], out=term)
    return np.square(proj, out=proj)


def _denominators(proj, hh, norm2, rho) -> np.ndarray:
    """Denominators ||a||^2 - rho (h.a)^2 / (1 + rho ||h||^2) of the
    computation rates of every candidate a at SNR rho, one operation at a
    time in one new array."""
    out = np.multiply(rho, proj)
    np.divide(out, 1.0 + rho * hh, out=out)
    return np.subtract(norm2, out, out=out)


def _rate_of(den) -> np.ndarray:
    """The rates (1/2) log2(1 / den) of the denominators *den*, computed
    in place: den clamped to the smallest normal float, R to 0 from below.
    Every operation is monotone, given a monotone log2, so a smaller
    denominator never rates lower."""
    np.maximum(den, np.finfo(float).tiny, out=den)
    np.divide(1.0, den, out=den)
    np.log2(den, out=den)
    np.multiply(0.5, den, out=den)
    return np.maximum(0.0, den, out=den)


def _rates(proj, hh, norm2, rho) -> np.ndarray:
    """Computation rates R = (1/2) log2(1 / (||a||^2 - rho (h.a)^2 /
    (1 + rho ||h||^2))) of every candidate a at SNR rho: _rate_of of
    _denominators, one operation at a time in one new array, so that every
    caller rounds alike."""
    return _rate_of(_denominators(proj, hh, norm2, rho))


def _member_projections(mag, members):
    """(h.a)^2 (S, R) of one member a (S, R, K) per point of each row h of
    H (R, K), from their magnitudes: *mag* |H| and *members* |a|.
    _projections sums sum_k |h_k| |a_k| in its term order, and h_k a_k =
    |h_k| |a_k| exactly, sign flips being exact, so each entry is bit for
    bit the exhaustive search's (h.a)^2 for that member."""
    return _projections(mag, members[..., None, :])[..., 0]


def _winner(den) -> np.ndarray:
    """The first leader, along axis 0 of the denominators *den* (L, S, R),
    whose denominator equals the smallest of its (point, row): np.argmin's
    pick.  Every leader l at the minimum scores L - l, and the largest
    score marks the first of them, in elementwise passes over the leading
    axis; np.argmin would copy den to put that axis last, and take each
    (point, row) on its own.  den holds no NaN, the search's inputs being
    finite."""
    L = len(den)
    low = np.minimum.reduce(den, axis=0)
    score = (L - np.arange(L)).astype(np.min_scalar_type(L))[:, None, None]
    return np.subtract(L, np.maximum.reduce((den == low) * score, axis=0),
                       dtype=np.intp)


def _search(H, hh, rho, radius: int):
    """(picks, rates), (S, R, K) and (S, R): the first maximiser, up to
    sign, of the rate of every row of H (R, K) at every SNR of rho
    (S, 1), and that rate, bit for bit those of the exhaustive search.
    hh (R,) holds the rows' squared norms.

    The members of the orbit of a leader b share its norm.  With s = |h|
    sorted in descending order, the best one on h is b placed in |h|'s
    order with h's signs, and |h.a| = s.b (rearrangement inequality).  A
    member with a misplaced magnitude loses at least Delta, the smallest
    gap of s; one with mixed signs is bounded by the orbit of b with the
    entries on the lighter side of the flip zeroed, which has a smaller
    norm.  So when every other orbit's bound (s.b)^2 and the winning
    orbit's (s.b - Delta)^2 rate strictly below its best member, that
    member is the unique maximiser.  Denominators fall as (h.a)^2 grows,
    and _rate_of is monotone, so the bounds are held as denominators, laid
    out (L, S, R), leader, point, row, so that both minima over the
    leaders are elementwise reductions over the leading axis, each slice
    holding all S R (point, row) values, however few rows the tile has.
    The winner is the first smallest one (_winner), and after the
    runner-up bound (s.b - Delta)^2 is written into its slot, the rate of
    the smallest one left is the largest bound rate, bit for bit.  Any
    smallest denominator may win: a certified row has a unique maximiser,
    and a row where two orbits tie in rate fails the certificate whichever
    of them wins.  The winner's leader is gathered in |h|'s order once per
    (point, row), and only that member is projected (_member_projections),
    exactly, so the winner's rate is the exhaustive search's, bit for bit;
    no other orbit's member is projected.  The pick is that gather with
    h's signs.  The pairs the certificate leaves open take the exhaustive
    search in groups of at most PASS_ELEMENTS // len(cand) pairs; each
    pair's rates are computed from its own row alone, so the grouping
    changes no bit."""
    K = H.shape[-1]
    cand, norm2 = _candidates(K, radius)
    leaders, lead_norm2 = _orbits(K, radius)
    points, rows = np.arange(len(rho))[:, None], np.arange(len(H))
    mag = np.abs(H)
    order = np.argsort(-mag, axis=-1)
    rank = np.argsort(order, axis=-1)  # |h_k| is entry rank[k] of s
    s = mag[rows[:, None], order]
    # (s . b)(1 + 2^-40) bounds the computed |h . a| of every member: both
    # sums err by about K eps relative, and MAX_SEARCH_GRID keeps K <= 10
    m = np.ascontiguousarray((s @ leaders.T).T) * (1 + 2.0 ** -40)  # (L, R)
    den = _denominators((m * m)[:, None], hh, lead_norm2[:, None, None], rho)
    win = _winner(den)
    # at K = 1 there is no gap, and an orbit holds one candidate
    delta = np.minimum.reduce(s[:, :-1] - s[:, 1:], axis=-1, initial=np.inf)
    runner = np.maximum(m[win, rows] - delta, 0.0)
    n2 = lead_norm2[win]
    member = leaders.take(win[..., None] * K + rank)  # the winner in |h|'s order
    best = _rates(_member_projections(mag, member), hh, n2, rho)
    den[win, points, rows] = _denominators(runner * runner, hh, n2, rho)
    a = member * np.where(H < 0, -1.0, 1.0)
    open_i, open_j = np.nonzero(~(_rate_of(np.minimum.reduce(den, axis=0)) < best))
    group = max(1, PASS_ELEMENTS // len(cand))
    for g in range(0, open_i.size, group):  # not certified: the exhaustive search
        i, j = open_i[g:g + group], open_j[g:g + group]
        r = _rates(_projections(H[j], cand), hh[j, None], norm2, rho[i])
        k = np.argmax(r, axis=-1)  # first maximizer: the tie-break order
        a[i, j], best[i, j] = cand[k], r[np.arange(len(k)), k]
    return a, best


def _integer_det(A) -> np.ndarray:
    """The determinants, as int64, of the integer matrices of the float
    stack A (..., K, K), exact for every search that SimConfig admits.
    A slot's outage test is det A % q != 0: det A = det(A mod q) (mod q),
    the determinant being an integer polynomial in the entries, so the
    prime q divides det A exactly when A is singular over GF(q).

    For K <= 3 it is the explicit polynomial, a00 a11 - a01 a10 and the
    3 x 3 cofactor expansion along the first row.  Every product and
    partial sum is an integer of magnitude at most 6 r^K, far below 2^53
    at the largest radius r that MAX_SEARCH_GRID admits (32767, 127, 19),
    so each operation is exact.  For K >= 4 it is rint(np.linalg.det(A)),
    which is exact because
    - Hadamard's bound (r sqrt K)^K on |det A| is at most 1.0e5 at every K
      and largest radius r that MAX_SEARCH_GRID admits (3^11 > 2^16 keeps
      K <= 10; K=10, r=1 is the worst case);
    - LU with partial pivoting has growth at most 2^(K-1), which bounds its
      backward error, and numpy forms the determinant as
      sign * exp(sum log|u_ii|): the computed value is within about 1e-5
      of the true integer, which rint recovers.
    The rule is chosen from K alone.
    """
    K = A.shape[-1]
    if K == 1:
        det = A[..., 0, 0]
    elif K == 2:
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    elif K == 3:
        (a, b, c), (d, e, f), (g, h, i) = (
            (A[..., r, 0], A[..., r, 1], A[..., r, 2]) for r in range(3))
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    else:
        det = np.rint(np.linalg.det(A))
    return det.astype(np.int64)


def cf_select_coeffs(h_row, rho: float, radius: int = 3) -> np.ndarray:
    """Best coefficient vector by exhaustive search with max-norm <= radius.

    Ties break toward the smallest squared norm, then lexicographic order.
    """
    if radius < 1:
        raise ValueError("search radius must be >= 1")
    h = np.asarray(h_row, dtype=float)
    cand, norm2 = _candidates(len(h), radius)
    rates = _rates(_projections(h, cand), np.sum(h * h)[None], norm2, rho)
    # candidates are pre-sorted by the tie-break order, so the first
    # maximizer is the preferred one
    return cand[int(np.argmax(rates))].copy()


def cf_trial_sum_rate(h: np.ndarray, rhos, q: int, radius: int, caps):
    """Sum-rate of the compute-and-forward trials of the real channel *h*
    (..., K, K, N) at every SNR in *rhos*.

    Per slot, each receiver picks its best coefficient vector (the search
    of cf_select_coeffs); if the stacked K x K coefficient matrix is full
    rank mod q, the slot carries K times the worst receiver rate, capped
    per stream at its point's entry of *caps* (S,), or at a scalar cap
    (np.inf caps nothing, bit for bit); otherwise the slot is an outage.
    Its inputs obey SimConfig's rules, unchecked here: a real K = L
    channel, *radius* >= 1 and a prime *q*.

    The search runs in (point, row) tiles of at most PASS_ELEMENTS
    (leader, point, row) values, L leaders per row.  A tile holds every
    point and as many rows as fit; only when not one row of every point
    fits does it hold one point and as many rows as fit, at least one.  A
    row's pick and rate are computed from that row alone, in a fixed term
    order, so the tiling changes no bit.

    Returns ``(totals, outages)``, each of shape (..., S): the total rate
    over the N slots and the outage fraction of every trial and SNR point.
    """
    K, N = h.shape[-2:]
    H = h.swapaxes(-1, -2).swapaxes(-2, -3)  # H[..., slot, receiver, transmitter]
    hh = np.sum(H * H, axis=-1).reshape(-1)
    H = H.reshape(-1, K)  # one row per (trial, slot, receiver)
    rhos = np.asarray(rhos, dtype=float)[:, None]
    S, L = len(rhos), len(_orbits(K, radius)[0])
    points, rows = S, PASS_ELEMENTS // (S * L)
    if rows < 1:  # not one row of every point fits: one point per tile
        points, rows = 1, max(1, PASS_ELEMENTS // L)
    tiles = [_search(H[j:j + rows], hh[j:j + rows], rhos[i:i + points], radius)
             for i in range(0, S, points) for j in range(0, max(len(H), 1), rows)]
    # joined along the rows, point-major, the tiles reshape to [point, row]
    picks, rates = (np.concatenate(x, axis=1) for x in zip(*tiles))
    rates = rates.reshape(S, *h.shape[:-3], N, K)
    r = rates[..., 0]  # then the worst receiver rate of every [point, ..., slot]
    for k in range(1, K):
        r = np.minimum(r, rates[..., k])
    r = np.minimum(r, np.reshape(caps, (-1,) + (1,) * (r.ndim - 1)))
    # a coefficient matrix has the rank of its rows up to sign
    full = _integer_det(picks.reshape(*rates.shape, K)) % q != 0
    totals = np.sum(np.where(full, K * r, 0.0), axis=-1)
    outages = np.count_nonzero(~full, axis=-1) / N
    return np.moveaxis(totals, 0, -1), np.moveaxis(outages, 0, -1)
