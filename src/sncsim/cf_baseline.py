"""
Compute-and-forward baseline over real channels.

Each receiver decodes one integer linear equation of the messages per
channel slot; its coefficient vector is picked by exhaustive bounded
search on the computation-rate formula.  The central processor needs the
stacked coefficient matrix to be invertible mod q; a rank-deficient slot
is an outage and contributes zero rate.

cf_trial_sum_rate runs once per chunk of trials over the whole SNR grid,
on the bare (T, K, K, N) channel array: the projections of every (trial,
slot, receiver) channel row on every candidate are computed once into one
array, each SNR point is one array pass over them into one rate buffer that
every point of the chunk reuses, and one batched GF(q) test decides the
outage of every (trial, point, slot).  It returns (T, S) arrays.
cf_select_coeffs evaluates the same rate function on one row; it and
cf_computation_rate are the per-row references.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .gf import PrimeField, gf_full_rank

# Most integer vectors, (2 radius + 1)^K, the coefficient search may
# enumerate: radius 127 at K=2, 19 at K=3 and 7 at K=4.  At the bound the
# candidate table takes about 1 MB and 0.1 s to build (2-vCPU Xeon).
MAX_SEARCH_GRID = 2**16


def search_grid_size(K: int, radius: int) -> int:
    """Integer vectors of length K with max-norm <= radius, (2 radius + 1)^K."""
    return (2 * radius + 1) ** K


def cf_computation_rate(h_row, a, rho: float) -> float:
    """Computation rate for equation coefficients *a* on channel row *h*.

    R = (1/2) log2( 1 / (||a||^2 - rho (h.a)^2 / (1 + rho ||h||^2)) ),
    clamped at 0 from below.
    """
    h = np.asarray(h_row, dtype=float)
    a = np.asarray(a, dtype=float)
    if not np.any(a):
        raise ValueError("coefficient vector must be nonzero")
    denom = float(a @ a) - rho * float(h @ a) ** 2 / (1.0 + rho * float(h @ h))
    if denom <= 0:  # cannot happen mathematically; guard fp noise
        denom = np.finfo(float).tiny
    return max(0.0, 0.5 * math.log2(1.0 / denom))


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


def _projections(H, cand):
    """(proj, hh) for the channel rows h of H, shape (..., K):
    proj[..., c] = (h . cand[c])^2 and hh[..., 0] = ||h||^2.  The dot
    products are summed term by term into one array, so a row's values do
    not depend on the batch shape."""
    proj = H[..., 0, None] * cand[:, 0]
    term = np.empty_like(proj)
    for k in range(1, cand.shape[1]):
        proj += np.multiply(H[..., k, None], cand[:, k], out=term)
    return np.square(proj, out=proj), np.sum(H * H, axis=-1)[..., None]


def _rates(proj, hh, norm2, rho: float, out=None) -> np.ndarray:
    """Computation rates of every candidate at SNR rho (the formula of
    cf_computation_rate, clamped the same way), written into *out* (shaped
    like proj; a new array when None) one operation at a time, so a caller
    that evaluates many SNR points reuses one buffer."""
    out = np.multiply(rho, proj, out=out)
    np.divide(out, 1.0 + rho * hh, out=out)
    np.subtract(norm2, out, out=out)
    np.maximum(out, np.finfo(float).tiny, out=out)
    np.divide(1.0, out, out=out)
    np.log2(out, out=out)
    np.multiply(0.5, out, out=out)
    return np.maximum(0.0, out, out=out)


def cf_select_coeffs(h_row, rho: float, radius: int = 3) -> np.ndarray:
    """Best coefficient vector by exhaustive search with max-norm <= radius.

    Ties break toward the smallest squared norm, then lexicographic order.
    """
    if radius < 1:
        raise ValueError("search radius must be >= 1")
    h = np.asarray(h_row, dtype=float)
    cand, norm2 = _candidates(len(h), radius)
    rates = _rates(*_projections(h, cand), norm2, rho)
    # candidates are pre-sorted by the tie-break order, so the first
    # maximizer is the preferred one
    return cand[int(np.argmax(rates))].copy()


def cf_trial_sum_rate(h: np.ndarray, rhos, field: PrimeField,
                      radius: int = 3, cap_enabled: bool = True):
    """Sum-rate of the compute-and-forward trials of the real channel *h*
    (..., K, K, N) at every SNR in *rhos*.

    Per slot, each receiver picks its best coefficient vector (the search
    of cf_select_coeffs); if the stacked K x K coefficient matrix is full
    rank mod q, the slot carries K times the worst receiver rate, capped
    per stream at log2(1 + rho) when *cap_enabled*; otherwise the slot is
    an outage.

    Returns ``(totals, outages)``, each of shape (..., S): the total rate
    over the N slots and the outage fraction of every trial and SNR point.
    """
    if np.iscomplexobj(h):
        raise ValueError("compute-and-forward baseline runs on real channels")
    if h.shape[-3] != h.shape[-2]:
        raise ValueError("one equation per receiver requires K = L")
    if radius < 1:
        raise ValueError("search radius must be >= 1")
    K, N = h.shape[-2:]
    cand, norm2 = _candidates(K, radius)
    H = np.moveaxis(h, -1, -3)  # H[..., slot, receiver, transmitter]
    proj, hh = _projections(H, cand)
    rates = np.empty_like(proj)  # every point's rates, one at a time
    slot_rates, picks = [], []
    for rho in rhos:
        _rates(proj, hh, norm2, rho, out=rates)
        best = np.argmax(rates, axis=-1)  # first maximizer: the tie-break order
        picks.append(best)
        r = np.take_along_axis(rates, best[..., None], -1)[..., 0].min(axis=-1)
        slot_rates.append(np.minimum(r, math.log2(1.0 + rho)) if cap_enabled else r)
    slot_rates = np.stack(slot_rates, axis=-2)  # [..., point, slot]
    full = gf_full_rank(cand[np.stack(picks, axis=-3)].reshape(-1, K, K), field)
    full = full.reshape(slot_rates.shape)
    totals = np.sum(np.where(full, K * slot_rates, 0.0), axis=-1)
    return totals, np.count_nonzero(~full, axis=-1) / N
