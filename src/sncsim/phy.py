"""
Modulation, noisy transmission, PNC demodulation, and rate accounting.

Filtering with the exact inverse of the desired signal space leaves each
filtered component equal to a sum of m BPSK symbols (m = row support size)
plus filtered noise, so demodulation reduces to nearest-level detection on
the sum constellation {m, m-2, ..., -m}; the network-coded bit is the
parity of the detected number of -1 symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .snc import EffectiveSystem, FilterSet, PrecoderSet


class UnsupportedModulationError(Exception):
    """Demodulation paths support GF(2)/BPSK only."""


class CoverageError(Exception):
    """A stream is decoded at no receiver (impossible for full-rank F)."""


def modulate_bpsk(b, q: int = 2) -> np.ndarray:
    """Map GF(2) symbols to antipodal samples: 0 -> +1, 1 -> -1."""
    if q != 2:
        raise UnsupportedModulationError(f"BPSK requires q=2, got q={q}")
    b = np.asarray(b)
    if b.size and (b.min() < 0 or b.max() > 1):
        raise UnsupportedModulationError("symbols must be in {0, 1}")
    return 1.0 - 2.0 * b


def transmit(h: ChannelRealization, p: PrecoderSet,
             x: dict[int, np.ndarray] | list[np.ndarray],
             noise: dict[int, np.ndarray] | list[np.ndarray]) -> list[np.ndarray]:
    """Received vector per receiver: y_l = sum_k H_{l,k} V_k x_k + n_l."""
    K = len(p.v)
    out = []
    for l in range(K):
        y = np.asarray(noise[l], dtype=complex if h.model == "complex" else float).copy()
        for k in range(K):
            y = y + h.diag[l, k] * (p.v[k] @ np.asarray(x[k]))
        out.append(y)
    return out


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


def filter_and_demodulate(y: list[np.ndarray], filters: FilterSet,
                          eff: EffectiveSystem) -> list[np.ndarray]:
    """Filter each received vector and demodulate to network-coded bits.

    Rows with support size 1 reduce to conventional BPSK demodulation;
    aligned rows (m >= 2) use sum-constellation detection with the parity
    of the detected level index as the network-coded bit.  The level index
    j = clip(ceil((m - z)/2 - 0.5), 0, m) is the rule of
    _demod_sum_constellation, ties included, for every row at once.
    """
    if eff.field_q.q != 2:
        raise UnsupportedModulationError("noisy demodulation supports q=2 only")
    weights = eff.f_int.sum(axis=1).reshape(len(y), eff.plan.N)
    out = []
    for l in range(len(y)):
        z = np.real(filters.u[l] @ y[l])
        m = weights[l]
        j = np.clip(np.ceil((m - z) / 2 - 0.5), 0, m)
        out.append(j.astype(np.int64) % 2)
    return out


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


def link_gains(h: ChannelRealization, p: PrecoderSet, filters: FilterSet,
               eff: EffectiveSystem) -> dict:
    """Noise-free terms of the rate of every stream decoded at receiver l:
    G[(l, k, stream)] = (|u^H H v|^2, ||u||^2), computed once per channel.

    The decoding vector for row (l, i) is the conjugate of row i of the
    applied filter (so it acts as u^H y).  Rate accounting gives every
    signal the full per-signal power budget (SNR is defined as per-signal
    transmit power over noise power), so each precoding column is rescaled
    to the budget -- the largest column's power, which build_precoders
    pins to p_max.
    """
    N = eff.plan.N
    p_budget = max(
        float(np.max(np.sum(np.abs(v) ** 2, axis=0))) for v in p.v.values()
    )
    gains = {}
    for r, support in enumerate(eff.row_support):
        l, i = divmod(r, N)
        u = np.conj(filters.u[l][i, :])
        nu = float(np.sum(np.abs(u) ** 2))
        for k, s in support:
            col = p.v[k][:, s]
            col = col * math.sqrt(p_budget) / float(np.linalg.norm(col))
            gains[l, k, s] = (float(abs(np.vdot(u, h.diag[l, k] * col)) ** 2), nu)
    return gains


def per_link_rates(gains: dict, sigma2: float) -> dict:
    """Rates R[(l, k, stream)] = log2(1 + |u^H H v|^2 / (sigma2 ||u||^2)) at
    noise power sigma2 from link_gains: the float operations of link_rate."""
    return {key: math.log2(1.0 + sig / (sigma2 * nu))
            for key, (sig, nu) in gains.items()}


def stream_links(links, eff: EffectiveSystem) -> dict:
    """Group link keys (l, k, stream) by stream: {(k, stream): [(l, k, stream),
    ...]}, streams in order of first appearance.  Depends on the channel
    only, so it is built once per trial.

    Raises CoverageError when a stream of the plan is decoded nowhere.
    """
    out: dict[tuple[int, int], list] = {}
    for key in links:
        out.setdefault(key[1:], []).append(key)
    plan = eff.plan
    for k in range(plan.K):
        for s in range(plan.streams(k)):
            if (k, s) not in out:
                raise CoverageError(f"stream {(k, s)} decoded nowhere")
    return out


def signal_rate(per_link: dict, streams: dict) -> dict:
    """Per-stream rate: min over the receivers that decode the stream, with
    *streams* from stream_links."""
    return {key: min(per_link[x] for x in links) for key, links in streams.items()}


@dataclass(frozen=True)
class RateReport:
    """Per-link and per-stream rates plus the capped end-to-end sum."""

    per_link: dict
    per_signal: dict
    sum_rate: float  # bits per extension block
    backhaul_cap: float


def end_to_end_sum_rate(per_link: dict, streams: dict, rho_bar: float,
                        cap_enabled: bool = True) -> RateReport:
    """Apply the cooperation-link cap log2(1 + rho_bar) per stream and sum,
    with *streams* from stream_links."""
    per_signal = signal_rate(per_link, streams)
    cap = math.log2(1.0 + rho_bar)
    if cap_enabled:
        total = sum(min(r, cap) for r in per_signal.values())
    else:
        total = sum(per_signal.values())
    return RateReport(per_link=per_link, per_signal=per_signal,
                      sum_rate=total, backhaul_cap=cap)


def estimate_dof_slope(snr_db, mean_sum_rates, n_ext: int,
                       window_db: tuple[float, float] = (40.0, 60.0)) -> float:
    """Least-squares slope of block sum-rate vs log2(SNR), divided by N.

    The result is the empirical total DoF per channel use.  Sum rates must
    be uncapped (the backhaul cap flattens the slope).
    """
    snr_db = np.asarray(snr_db, dtype=float)
    rates = np.asarray(mean_sum_rates, dtype=float)
    sel = (snr_db >= window_db[0]) & (snr_db <= window_db[1])
    if int(sel.sum()) < 2:
        raise ValueError("need at least 2 points inside the fit window")
    log2_rho = snr_db[sel] * (math.log(10.0) / (10.0 * math.log(2.0)))
    slope = np.polyfit(log2_rho, rates[sel], 1)[0]
    return float(slope) / n_ext
