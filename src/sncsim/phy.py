"""
Modulation, PNC demodulation, and rate accounting.

Filtering with the exact inverse of the desired signal space leaves each
filtered component equal to a sum of m BPSK symbols (m = row support size),
row (l, i) of F s, plus filtered noise, so demodulation reduces to
nearest-level detection on the sum constellation {m, m-2, ..., -m}; the
network-coded bit is the parity of the detected number of -1 symbols.
The K N bits of a (trial, SNR point) leave packed into uint64 words
(snc.pack_bits), which the central processor reads against its parity
masks.  Every receiver applies the same computed w = V_1^-1, whose
residual w V_1 - I is bounded through cond(V_1) alone (Higham, Accuracy
and Stability of Numerical Algorithms, ch. 14), so a draw that passes
V_1's rank test needs no further conditioning check.

Everything after the channel is evaluated for a chunk of trials and the
whole SNR grid at once: filter_and_demodulate, stream_gains,
per_link_rates and end_to_end_sum_rate take the leading trial axis of the
bare channel, precoder and filter arrays, followed by an SNR axis where
the noise power enters.  The filters come factored: receiver l's
zero-forcing filter is w / d_l, w with its columns divided by the
receiver's channel diagonal d_l = h[l, 0], so filter_and_demodulate
filters a trial's unit noise in one batched matmul and scales it by
sqrt(sigma2) per point, and stream_gains reads the filter row norms from
|w|^2 and 1/|d_l|^2 in one real matmul.  A stream runs at the rate of the
weakest receiver that decodes it, and the rate is monotone in the gain,
so stream_gains takes that minimum once per channel draw: rates are
arrays over the streams, in column order of F.  cooperation_caps is the
one formula of the cap, which harness.grid_levels builds once per grid.
"""

from __future__ import annotations

import math

import numpy as np

from .snc import EffectiveSystem, pack_bits

DOF_WINDOW_DB = (40.0, 60.0)  # the SNR window of the DoF slope fit


def modulate_bpsk(b) -> np.ndarray:
    """Map GF(2) symbols to antipodal samples: 0 -> +1, 1 -> -1.  The
    symbols are not checked: the messages of channel.sample_message_bits
    are single bits by construction."""
    return 1.0 - 2.0 * np.asarray(b)


def filter_and_demodulate(s: np.ndarray, noise: np.ndarray, h: np.ndarray,
                          w: np.ndarray, sigma2, eff: EffectiveSystem) -> np.ndarray:
    """Demodulate the filter outputs of the BPSK symbols *s* (..., streams),
    in column order of F, and the unit noise *noise* (..., K, N) at each
    noise power in *sigma2* (S,) to the network-coded bits, the K N bits of
    each (trial, SNR point) in row order of F packed by pack_bits into
    uint64 words (..., S, ceil(K N / 64)), the form snc.cp_recover reads.
    Receiver l's filter is w / d_l, the inverse *w* of build_filters with
    its columns divided by the diagonal d_l = h[l, 0] of the channel *h*.
    The alignment makes its real output
    z_l = (F s)_l + sqrt(sigma2) Re(w (n_l / d_l)), of which only the noise
    is filtered, once per trial.

    F s comes from the plan's float F^T (eff.f_t), exact on +-1 symbols.

    Rows with support size 1 reduce to conventional BPSK demodulation;
    aligned rows (m >= 2) use sum-constellation detection with the parity
    of the detected level index as the network-coded bit.  The level index
    j = min(max(ceil((m - z)/2 - 0.5), 0), m) is the nearest level m - 2j
    of {m, m-2, ..., -m}, an exact midpoint breaking toward the smaller j,
    for every row at once.
    """
    m = eff.weights
    signal = (s @ eff.f_t).reshape(s.shape[:-1] + m.shape)
    filtered = np.real((noise / h[..., 0, :]) @ np.swapaxes(w, -1, -2))
    scale = np.sqrt(np.asarray(sigma2, dtype=float))[:, None, None]
    z = signal[..., None, :, :] + scale * filtered[..., None, :, :]
    j = np.ceil((m - z) / 2 - 0.5)
    j = np.minimum(np.maximum(j, 0, out=j), m, out=j)
    return pack_bits((j.astype(np.int64) & 1).reshape(*z.shape[:-2], m.size))


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
    linked to it with the largest ||u||^2: one gather of the (depth,
    streams) link table eff.links and a maximum over its depth axis.  A
    maximum is exact, and padding repeats one of the stream's own links.
    Rounded products and quotients are monotone, so this is the smallest
    link gain to the last bit.  The channel *h*, the inverses *w* of
    build_filters and the precoders of those trials give a (T, streams)
    array.
    """
    v1_norm2, other_norm2 = (np.sum(np.abs(v) ** 2, axis=-2) for v in (v1, v_other))
    v_norm2 = np.concatenate([v1_norm2] + [other_norm2] * (eff.plan.K - 1), axis=-1)
    # ||u_{l,i}||^2 for every receiver l and row i in one real matmul
    u_norm2 = (1.0 / np.abs(h[..., 0, :]) ** 2) @ np.swapaxes(np.abs(w) ** 2, -1, -2)
    u_norm2 = u_norm2.reshape(*u_norm2.shape[:-2], eff.weights.size)
    worst = np.maximum.reduce(u_norm2[..., eff.links], axis=-2)
    return v_norm2.max(axis=-1, keepdims=True) / (worst * v_norm2)


def per_link_rates(gains: np.ndarray, sigma2) -> np.ndarray:
    """Rates log2(1 + gain / sigma2) of every stream at each noise power in
    *sigma2* (S,), from stream_gains (..., streams): an (..., S, streams)
    array."""
    return np.log2(1.0 + gains[..., None, :] / np.asarray(sigma2, dtype=float)[:, None])


def cooperation_caps(rhos) -> np.ndarray:
    """The cooperation-link rate log2(1 + rho) (S,) at each SNR in *rhos*,
    the cap on every stream of both schemes."""
    return np.array([math.log2(1.0 + rho) for rho in rhos])


def end_to_end_sum_rate(per_signal: np.ndarray, caps) -> np.ndarray:
    """The block sum rate (..., S) of the stream rates *per_signal*
    (..., S, streams), each stream capped at its point's entry of *caps*
    (S,), or at a scalar cap; np.inf caps nothing, bit for bit."""
    return np.sum(np.minimum(per_signal, np.asarray(caps)[..., None]), axis=-1)


def estimate_dof_slope(snr_db, rates) -> float:
    """Least-squares slope of the sum rates *rates*, in bits per channel
    use, against log2(SNR) over the points in DOF_WINDOW_DB: the empirical
    total DoF per channel use.  The rates must be uncapped (the backhaul
    cap flattens the slope).
    """
    snr_db = np.asarray(snr_db, dtype=float)
    rates = np.asarray(rates, dtype=float)
    lo, hi = DOF_WINDOW_DB
    sel = (snr_db >= lo) & (snr_db <= hi)
    if int(sel.sum()) < 2:
        raise ValueError("need at least 2 points inside the fit window")
    log2_rho = snr_db[sel] * (math.log(10.0) / (10.0 * math.log(2.0)))
    return float(np.polyfit(log2_rho, rates[sel], 1)[0])
