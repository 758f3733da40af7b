"""
Modulation, noisy transmission, PNC demodulation, and rate accounting.

Filtering with the exact inverse of the desired signal space leaves each
filtered component equal to a sum of m BPSK symbols (m = row support size)
plus filtered noise, so demodulation reduces to nearest-level detection on
the sum constellation {m, m-2, ..., -m}; the network-coded bit is the
parity of the detected number of -1 symbols.  The K N bits of a (trial,
SNR point) leave packed into uint64 words (snc.pack_bits), which the
central processor reads against its parity masks.  Every receiver
applies the same computed w = V_1^-1, whose residual w V_1 - I is
bounded through cond(V_1) alone (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 14), so a draw that passes V_1's rank test
needs no further conditioning check.

Everything after the channel is evaluated for a chunk of trials and the
whole SNR grid at once: transmit, filter_and_demodulate, stream_gains,
per_link_rates and end_to_end_sum_rate take the leading trial axis of the
bare channel, precoder and filter arrays, followed by an SNR axis where
the noise enters.  The filters come factored: receiver l's zero-forcing
filter is w / d_l, the one inverse w = V_1^-1 of a trial with its columns
divided by the receiver's channel diagonal d_l = h[l, 0], so
filter_and_demodulate divides y_l by d_l and applies w in one batched
matmul, and stream_gains reads the filter row norms from |w|^2 and
1/|d_l|^2 in one real matmul.  A stream runs at the rate of the weakest
receiver that decodes it, and the rate is monotone in the gain, so
stream_gains takes that minimum once per channel draw: rates are arrays
over the streams, in column order of F.  link_rate and
_demod_sum_constellation are the per-link and per-value references.
"""

from __future__ import annotations

import math

import numpy as np

from .snc import EffectiveSystem, pack_bits

DOF_WINDOW_DB = (40.0, 60.0)  # the SNR window of the DoF slope fit


class UnsupportedModulationError(Exception):
    """Demodulation paths support GF(2)/BPSK only."""


def modulate_bpsk(b) -> np.ndarray:
    """Map GF(2) symbols to antipodal samples: 0 -> +1, 1 -> -1."""
    b = np.asarray(b)
    if b.size and (b.min() < 0 or b.max() > 1):
        raise UnsupportedModulationError("symbols must be in {0, 1}")
    return 1.0 - 2.0 * b


def transmit(h: np.ndarray, v1: np.ndarray, v_other: np.ndarray,
             x: list[np.ndarray], noise: np.ndarray) -> np.ndarray:
    """Received vectors y_l = sum_k H_{l,k} V_k x_k + n_l, shaped like the
    noise (..., K, N); *x* holds the K transmitters' symbol vectors, sent
    through transmitter 1's precoder *v1* and the shared *v_other*.  The
    leading (trial) axes of the channel h, the precoders and x lead the
    noise too, and any further noise axes (SNR points) follow them."""
    y = np.asarray(noise, dtype=h.dtype)
    lead = h.ndim - 3
    for k, xk in enumerate(x):
        vx = ((v_other if k else v1) @ np.asarray(xk)[..., None])[..., 0]
        sig = h[..., k, :] * vx[..., None, :]
        y = y + sig.reshape(sig.shape[:lead] + (1,) * (y.ndim - sig.ndim)
                            + sig.shape[lead:])
    return y


def _demod_sum_constellation(value: float, m: int) -> int:
    """Nearest-level detection on {m-2j : j=0..m}; returns parity of j.

    Ties at exact midpoints break toward smaller j.
    """
    best_j, best_d = 0, abs(value - m)
    for j in range(1, m + 1):
        d = abs(value - (m - 2 * j))
        if d < best_d:
            best_j, best_d = j, d
    return best_j % 2


def filter_and_demodulate(y: np.ndarray, h: np.ndarray, w: np.ndarray,
                          eff: EffectiveSystem) -> np.ndarray:
    """Filter the received vectors y (..., K, N) and demodulate them to the
    network-coded bits, the K N bits of each (trial, SNR point) stacked in
    row order of F and packed by pack_bits into uint64 words
    (..., ceil(K N / 64)), the form snc.cp_recover reads.  Receiver l's
    filter is w / d_l, the inverse *w* of build_filters with its columns
    divided by the diagonal d_l = h[l, 0] of the channel *h*, so its output
    is z_l = w (y_l / d_l).  The trial axes of h and w lead y's axes.

    Rows with support size 1 reduce to conventional BPSK demodulation;
    aligned rows (m >= 2) use sum-constellation detection with the parity
    of the detected level index as the network-coded bit.  The level index
    j = clip(ceil((m - z)/2 - 0.5), 0, m) is the rule of
    _demod_sum_constellation, ties included, for every row at once.
    """
    lead = w.ndim - 2
    d = h[..., 0, :]
    y = y / d.reshape(d.shape[:lead] + (1,) * (y.ndim - d.ndim) + d.shape[lead:])
    # every (SNR point, receiver) row of a trial through w in one matmul
    rows = y.reshape(y.shape[:lead] + (-1, y.shape[-1]))
    z = np.real(rows @ np.swapaxes(w, -1, -2)).reshape(y.shape)
    m = eff.weights
    j = np.clip(np.ceil((m - z) / 2 - 0.5), 0, m)
    return pack_bits((j.astype(np.int64) & 1).reshape(*z.shape[:-2], -1))


def link_rate(u, v, h_diag, sigma2: float) -> float:
    """Achievable rate of one stream through decoding vector u.

    R = log2(1 + |u^H H v|^2 / (sigma2 ||u||^2)) with H = diag(h_diag);
    u is the decoding vector applied as u^H y.
    """
    u = np.asarray(u)
    nu = float(np.sum(np.abs(u) ** 2))
    if nu == 0:
        raise ValueError("decoding vector must be nonzero")
    sig = abs(np.vdot(u, np.asarray(h_diag) * np.asarray(v))) ** 2
    return math.log2(1.0 + sig / (sigma2 * nu))


def stream_gains(h: np.ndarray, v1: np.ndarray, v_other: np.ndarray, w: np.ndarray,
                 eff: EffectiveSystem) -> np.ndarray:
    """Noise-free SNR of every stream of *eff* at its weakest receiver,
    computed once per channel: the rate of stream c at noise power sigma2
    is log2(1 + gains[c] / sigma2).

    The decoding vector for row (l, i) is the conjugate of row i of
    receiver l's applied filter w / d_l (see filter_and_demodulate), so it
    acts as u^H y.  Rate accounting gives every signal the full per-signal
    power budget (SNR is defined as per-signal transmit power over noise
    power), so each precoding column is rescaled to the budget: the
    largest column's power, which build_precoders pins to 1.  The
    filter maps every linked column to a unit vector (u^H H v = 1), so the
    gain of the link from column c to row (l, i) is the closed form
    p_budget / (||u_{l,i}||^2 ||v_c||^2), with ||u_{l,i}||^2 =
    sum_j |w_ij|^2 / |d_lj|^2, and the weakest link of column c is the row
    linked to it with the largest ||u||^2.  Rounded products and quotients
    are monotone, so this is the smallest link gain to the last bit.  The
    channel *h*, the inverses *w* of build_filters and the precoders of
    those trials give a (T, streams) array.
    """
    v1_norm2, other_norm2 = (np.sum(np.abs(v) ** 2, axis=-2) for v in (v1, v_other))
    v_norm2 = np.concatenate([v1_norm2] + [other_norm2] * (eff.plan.K - 1), axis=-1)
    # ||u_{l,i}||^2 for every receiver l and row i in one real matmul
    u_norm2 = (1.0 / np.abs(h[..., 0, :]) ** 2) @ np.swapaxes(np.abs(w) ** 2, -1, -2)
    u_norm2 = u_norm2.reshape(*u_norm2.shape[:-2], -1)
    worst = np.maximum.reduceat(u_norm2[..., eff.link_rows], eff.stream_start, axis=-1)
    return v_norm2.max(axis=-1, keepdims=True) / (worst * v_norm2)


def per_link_rates(gains: np.ndarray, sigma2) -> np.ndarray:
    """Rates log2(1 + gain / sigma2) of every stream at each noise power in
    *sigma2* (S,), from stream_gains (..., streams): an (..., S, streams)
    array."""
    return np.log2(1.0 + gains[..., None, :] / np.asarray(sigma2, dtype=float)[:, None])


def end_to_end_sum_rate(per_signal: np.ndarray, rhos,
                        cap_enabled: bool = True) -> np.ndarray:
    """The block sum rate (..., S) of the stream rates *per_signal*
    (..., S, streams), each stream capped at the cooperation-link rate
    log2(1 + rho) of its SNR in *rhos* when *cap_enabled*."""
    if cap_enabled:
        caps = np.array([math.log2(1.0 + rho) for rho in rhos])
        per_signal = np.minimum(per_signal, caps[:, None])
    return np.sum(per_signal, axis=-1)


def estimate_dof_slope(snr_db, mean_sum_rates, n_ext: int) -> float:
    """Least-squares slope of block sum-rate vs log2(SNR) over the points
    in DOF_WINDOW_DB, divided by N.

    The result is the empirical total DoF per channel use.  Sum rates must
    be uncapped (the backhaul cap flattens the slope).
    """
    snr_db = np.asarray(snr_db, dtype=float)
    rates = np.asarray(mean_sum_rates, dtype=float)
    lo, hi = DOF_WINDOW_DB
    sel = (snr_db >= lo) & (snr_db <= hi)
    if int(sel.sum()) < 2:
        raise ValueError("need at least 2 points inside the fit window")
    log2_rho = snr_db[sel] * (math.log(10.0) / (10.0 * math.log(2.0)))
    slope = np.polyfit(log2_rho, rates[sel], 1)[0]
    return float(slope) / n_ext
