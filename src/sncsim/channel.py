"""
Time-varying extended channels, noise, and MIMO virtual-node expansion.

A channel is a bare array of diagonals: h[l, k] is the length-N diagonal
of the extended channel from virtual transmitter k to virtual receiver l,
so one draw is an (M, M, N) array, a stack of trials puts a leading trial
axis on it, and its dtype tells a real channel from a complex one.
Off-diagonals are zero by representation; each diagonal slot is an
independent draw (time-varying channel).  Multi-antenna topologies are
mapped to an equivalent single-antenna network by treating every antenna
as a virtual node: expand_mimo_to_virtual gives its user count M, which is
all that a draw needs.

Draws are stacked: sample_extended_channel and sample_noise take one
generator per trial, make one standard_normal call on each, and combine
and normalise the whole (T, ...) stack at once, so every trial gets the
bits of a draw from its generator alone.  Noise is drawn at unit
variance and has no SNR axis: the noise power scales it only after the
filter (phy.filter_and_demodulate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Topology:
    """Physical network: K transmitters, L receivers, antennas per node."""

    K: int
    L: int
    tx_antennas: tuple[int, ...]
    rx_antennas: tuple[int, ...]

    def __post_init__(self):
        if self.K < 1 or self.L < 1:
            raise ValueError("need at least one transmitter and receiver")
        if len(self.tx_antennas) != self.K or len(self.rx_antennas) != self.L:
            raise ValueError("antenna list lengths must match K and L")
        if min(self.tx_antennas) < 1 or min(self.rx_antennas) < 1:
            raise ValueError("antenna counts must be >= 1")


def single_antenna(K: int, L: int | None = None) -> Topology:
    """Topology with one antenna per node (L defaults to K)."""
    L = K if L is None else L
    return Topology(K, L, (1,) * K, (1,) * L)


def expand_mimo_to_virtual(t: Topology) -> int:
    """The number M of virtual single-antenna users when each antenna is
    treated as a virtual node.

    Activates M = min(total tx antennas, total rx antennas) virtual
    transmitters and M virtual receivers, taking antennas in node order
    then antenna order (lowest indices first).
    """
    return min(sum(t.tx_antennas), sum(t.rx_antennas))


def _draw_coeffs(shape, model, rngs) -> np.ndarray:
    """Unit-variance coefficients (len(rngs), *shape): one call on each
    generator, then one complex combine and normalisation of the stack.  A
    complex draw takes the real parts of each last-axis row, then its
    imaginary parts, as two length-N calls per row would."""
    if model == "complex":
        # circularly-symmetric unit variance: real/imag each variance 1/2
        z = np.stack([rng.standard_normal((*shape[:-1], 2, shape[-1])) for rng in rngs])
        return (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
    if model == "real":
        return np.stack([rng.standard_normal(shape) for rng in rngs])
    raise ValueError(f"unknown channel model {model!r}")


def sample_extended_channel(M: int, n_ext: int, model: str, rngs) -> np.ndarray:
    """Draw i.i.d. unit-variance channel coefficients for every link and slot
    between *M* virtual users, one trial per generator in *rngs*: the
    (T, M, M, N) stack of diagonal arrays, real or complex as *model* says.

    Each generator draws its trial's links in one call, in receiver then
    transmitter order, the stream that one length-N call per link would
    give.  Exact-zero draws (a measure-zero event that would break channel
    inverses) are then redrawn in that order, only for the trials that have
    them, each from its own generator.
    """
    if n_ext < 1:
        raise ValueError("extension length must be >= 1")
    diag = _draw_coeffs((M, M, n_ext), model, rngs)
    for t in np.flatnonzero((diag == 0).any(axis=(1, 2, 3))):
        while (zero := diag[t] == 0).any():
            diag[t][zero] = _draw_coeffs((int(zero.sum()),), model, rngs[t:t + 1])[0]
    return diag


def sample_noise(n_rx: int, n_ext: int, model: str, rngs) -> np.ndarray:
    """(T, n_rx, n_ext) unit-variance noise, one trial per generator in
    *rngs*, receiver by receiver: the draw _draw_coeffs makes for the
    coefficients.  The complex model splits the variance equally across
    real/imag parts.  Only phy.filter_and_demodulate scales it, by
    sqrt(sigma2) per SNR point, so every point of a trial sees the same
    unit noise."""
    return _draw_coeffs((n_rx, n_ext), model, rngs)
