"""
Time-varying extended channels and noise.

A channel is a bare array of diagonals: h[l, k] is the length-N diagonal
of the extended channel from virtual transmitter k to virtual receiver l,
so one draw is an (M, M, N) array, a stack of trials puts a leading trial
axis on it, and its dtype tells a real channel from a complex one.
Off-diagonals are zero by representation; each diagonal slot is an
independent draw (time-varying channel).  A draw needs only the number M
of virtual single-antenna users (harness.SimConfig.M).

Trial i of a sweep seeded with *seed* draws from the generator
default_rng(SeedSequence([seed, i])) would build.  trial_generators builds
a chunk's generators with NumPy's SeedSequence hash run once over the whole
chunk as uint32 arrays, then wraps each row of the resulting PCG64 states;
the generators and their streams are those of default_rng, bit for bit.

Draws are stacked: sample_extended_channel and sample_noise take one
generator per trial, make one standard_normal call on each into a
preallocated (T, ...) stack, and combine and normalise it at once, so
every trial gets the bits of a draw from its generator alone.
sample_message_bits reads each trial's GF(2) messages from its raw 64-bit
outputs, the bits that Generator.integers(0, 2) would return.  Noise is
drawn at unit variance and has no SNR axis: the noise power scales it only
after the filter (phy.filter_and_demodulate).
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, hashmix with the A constants to fill and mix it and
# with the B constants to read the state out.  Kept as uint32 arrays, whose
# products wrap silently; numpy scalars would warn on the wrap.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT = np.array([0xCA01F9DD, 0x4973F715], dtype=np.uint32)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The calls + 1 constants init * mult^k mod 2^32 of successive hashmix
    calls: call k xors with entry k and multiplies by entry k + 1."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


# The hash constants of filling and mixing the pool, the same for every
# entropy: the pool's fill takes calls 0-3, then source word src updates
# each other word dst in order with one call each.  Row src of _MIX_XOR
# and _MIX_MUL holds those calls' constants at dst; the diagonal is unused.
_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
_MIX_CALL = np.zeros((_POOL, _POOL), dtype=np.intp)
_MIX_CALL[~np.eye(_POOL, dtype=bool)] = np.arange(_POOL, _POOL * _POOL)
_MIX_XOR, _MIX_MUL = _A[_MIX_CALL], _A[_MIX_CALL + 1]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """hashmix of *value* against its calls' constants *xor* and *mult*."""
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = _MIX_MULT[0] * x - _MIX_MULT[1] * y
    return x ^ x >> _XSHIFT


class _HashedState(ISeedSequence):
    """A seed sequence whose PCG64 state is already hashed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly this: generate_state(4, np.uint64)
        return self.state


def trial_generators(seed: int, indices) -> list[Generator]:
    """The generators default_rng(SeedSequence([seed, i])) of every trial
    index i in *indices* (each below 2^32), built with one vectorised pass
    of the SeedSequence hash over the chunk.

    The entropy is seed's little-endian uint32 words followed by i.  Each
    source step of the pool's mixing updates the other pool words
    independently, so it is one array operation; entropy past the pool
    takes one more step per word.
    """
    words = []
    while True:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
        if not seed:
            break
    count = len(words) + 1
    index = np.asarray(indices, dtype=np.uint32)
    entropy = np.zeros((len(index), max(count, _POOL)), dtype=np.uint32)
    entropy[:, :len(words)] = words
    entropy[:, len(words)] = index
    pool = _hashmix(entropy[:, :_POOL], _A[:_POOL], _A[1:_POOL + 1])
    for src in range(_POOL):
        # every column at once; the source word itself keeps its value
        mixed = _mix(pool, _hashmix(pool[:, src:src + 1], _MIX_XOR[src], _MIX_MUL[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    if count > _POOL:
        # entropy past the pool: each word updates every pool word in turn,
        # continuing the chain of constants
        consts = _hash_constants(_INIT_A, _MULT_A, _POOL * count)
        for src in range(_POOL, count):
            calls = consts[_POOL * src:_POOL * (src + 1) + 1]
            pool = _mix(pool, _hashmix(entropy[:, src:src + 1], calls[:-1], calls[1:]))
    # generate_state(4, np.uint64): eight uint32 words, low word first
    state = _hashmix(np.concatenate((pool, pool), axis=1), _B[:-1], _B[1:])
    state = state.astype(np.uint64)
    state = state[:, 0::2] | state[:, 1::2] << np.uint64(32)
    return [Generator(PCG64(_HashedState(row))) for row in state]


def sample_message_bits(n: int, rngs) -> np.ndarray:
    """(T, n) int64 GF(2) messages, one trial per generator in *rngs*:
    Generator.integers(0, 2, size=n) of each, read from ceil(n / 2) raw
    outputs.  integers takes bit 31 of each 32-bit half of a raw output,
    the low half first, and leaves the generator's normal draws where a
    call of its own would; shifts, not a uint32 view, keep the halves in
    that order on any host."""
    words = (n + 1) // 2
    raw = np.array([rng.bit_generator.random_raw(words) for rng in rngs],
                   dtype=np.uint64).reshape(len(rngs), words)
    bits = raw[:, :, None] >> np.array([31, 63], dtype=np.uint64) & np.uint64(1)
    return bits.reshape(len(raw), 2 * words)[:, :n].astype(np.int64)


def _draw_coeffs(shape, model, rngs) -> np.ndarray:
    """Unit-variance coefficients (len(rngs), *shape): one call on each
    generator into its row of one stack, then one complex combine and
    normalisation of the stack.  A complex draw takes the real parts of
    each last-axis row, then its imaginary parts, as two length-N calls per
    row would."""
    if model == "complex":
        shape = (*shape[:-1], 2, shape[-1])
    z = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    if model == "complex":
        # circularly-symmetric unit variance: real/imag each variance 1/2
        return (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
    return z


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
