import numpy as np
import pytest

from sncsim.channel import (
    _draw_coeffs,
    sample_extended_channel,
    sample_message_bits,
    sample_noise,
    trial_generators,
)
from sncsim.harness import ConfigError, SimConfig


def test_topology_validation():
    for bad in (dict(K=0, L=1, tx_antennas=(), rx_antennas=(1,)),
                dict(K=2, L=2, tx_antennas=(1,), rx_antennas=(1, 1)),
                dict(K=1, L=1, tx_antennas=(0,), rx_antennas=(1,))):
        with pytest.raises(ConfigError, match="bad topology"):
            SimConfig(**bad)


class TestVirtualExpansion:
    def test_single_antenna_identity(self):
        assert SimConfig(K=2).M == 2

    def test_min_rule_with_asymmetric_antennas(self):
        assert SimConfig(K=2, L=2, tx_antennas=(2, 1), rx_antennas=(1, 1)).M == 2

    def test_three_by_two(self):
        # alignment only: compute-and-forward needs K = L
        assert SimConfig(K=3, L=2, tx_antennas=(1, 1, 1), rx_antennas=(2, 2),
                         scheme="snc").M == 3


class TestChannelSampling:
    def test_deterministic_under_fixed_seed(self):
        M = 2
        a = sample_extended_channel(M, 3, "complex", [np.random.default_rng(42)])
        b = sample_extended_channel(M, 3, "complex", [np.random.default_rng(42)])
        assert a.shape == (1, 2, 2, 3)
        assert np.array_equal(a, b)

    def test_links_drawn_in_receiver_then_transmitter_order(self):
        [h] = sample_extended_channel(3, 4, "real", [np.random.default_rng(8)])
        rng = np.random.default_rng(8)
        for l in range(3):
            for k in range(3):
                assert np.array_equal(h[l, k], rng.standard_normal(4))
        assert h.shape == (3, 3, 4)

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_bulk_draw_equals_per_link_reference(self, model):
        # one generator call per channel gives the stream of one length-N
        # call per link (real parts, then imaginary parts, per link)
        M = 3  # the (2, 1) x (1, 2) antenna topology
        drawn = np.random.default_rng(21)
        [h] = sample_extended_channel(M, 5, model, [drawn])
        rng = np.random.default_rng(21)
        for l in range(M):
            for k in range(M):
                ref = rng.standard_normal(5)
                if model == "complex":
                    ref = (ref + 1j * rng.standard_normal(5)) / np.sqrt(2.0)
                assert np.array_equal(h[l, k], ref)
        assert drawn.bit_generator.state == rng.bit_generator.state  # nothing more

    def test_exact_zeros_are_redrawn_in_order(self):
        class ZeroFirst:
            """A generator whose first draw holds exact zeros."""

            def __init__(self):
                self.rng = np.random.default_rng(4)
                self.calls = []

            def standard_normal(self, out):
                self.calls.append(out.shape)
                self.rng.standard_normal(out=out)
                if len(self.calls) == 1:
                    out.flat[[1, 6]] = 0.0
                return out

        gen = ZeroFirst()
        [h] = sample_extended_channel(2, 3, "real", [gen])
        assert gen.calls == [(2, 2, 3), (2,)]
        ref = np.random.default_rng(4)
        expected = ref.standard_normal((2, 2, 3))
        expected.flat[[1, 6]] = ref.standard_normal(2)
        assert np.array_equal(h, expected)

    def test_unit_variance(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate([
            sample_extended_channel(1, 10**4, "complex", [rng])[0, 0, 0]
            for _ in range(10)
        ])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_real_model_has_no_imaginary_part(self):
        # the dtype is how every layer tells a real channel from a complex one
        h = sample_extended_channel(2, 4, "real", [np.random.default_rng(1)])
        assert np.isrealobj(h) and h.dtype == np.float64

    def test_no_zero_entries(self):
        h = sample_extended_channel(2, 64, "real", [np.random.default_rng(5)])
        assert np.all(h != 0)

    def test_link_independence_spot_check(self):
        rng = np.random.default_rng(9)
        n = 10**5
        [h] = sample_extended_channel(2, n, "real", [rng])
        c = np.corrcoef(h[0, 0], h[0, 1])[0, 1]
        assert abs(c) < 0.02
        # distinct slots of one link
        d = h[1, 1]
        assert abs(np.corrcoef(d[:-1], d[1:])[0, 1]) < 0.02


class TestNoise:
    def test_empirical_variance(self):
        rng = np.random.default_rng(11)
        [v] = sample_noise(2, 10**5, "complex", [rng])
        assert v.shape == (2, 10**5) and v.dtype == complex
        assert np.mean(np.abs(v) ** 2) == pytest.approx(1.0, abs=0.025)
        assert np.var(v.real) == pytest.approx(0.5, abs=0.0125)
        v = sample_noise(2, 10**5, "real", [rng])
        assert v.shape == (1, 2, 10**5) and v.dtype == float
        assert np.var(v) == pytest.approx(1.0, abs=0.025)

    def test_seed_replay(self):
        a = sample_noise(3, 8, "real", [np.random.default_rng(3)])
        b = sample_noise(3, 8, "real", [np.random.default_rng(3)])
        assert np.array_equal(a, b)

    def test_unit_draw_in_receiver_order(self):
        # receiver by receiver, real then imaginary parts, as separate
        # length-N draws would give them
        for model in ("real", "complex"):
            [v] = sample_noise(3, 4, model, [np.random.default_rng(5)])
            rng = np.random.default_rng(5)
            for l in range(3):
                expected = rng.standard_normal(4)
                if model == "complex":
                    expected = (expected + 1j * rng.standard_normal(4)) / np.sqrt(2.0)
                assert np.array_equal(v[l], expected)


def moveaxis_coeffs(shape, model, rng):
    """The coefficient draw written with np.moveaxis: the reference the
    indexed draw must equal bit for bit."""
    if model == "complex":
        re, im = np.moveaxis(rng.standard_normal((*shape[:-1], 2, shape[-1])), -2, 0)
        return (re + 1j * im) / np.sqrt(2.0)
    return rng.standard_normal(shape)


def reference_channel(M, n_ext, model, rng):
    """One trial's channel from its own generator, with the np.any
    zero-redraw loop; returns it and the sizes of the redraws."""
    ref = moveaxis_coeffs((M, M, n_ext), model, rng)
    redrawn = []
    while np.any(zero := ref == 0):
        redrawn.append(int(zero.sum()))
        ref[zero] = moveaxis_coeffs((redrawn[-1],), model, rng)
    return ref, redrawn


def reference_noise(n_rx, n_ext, model, rng):
    """One trial's (n_rx, n_ext) unit noise written with np.moveaxis."""
    if model == "complex":
        re, im = np.moveaxis(rng.standard_normal((n_rx, 2, n_ext)), 1, 0)
        return (re + 1j * im) / np.sqrt(2.0)
    return rng.standard_normal((n_rx, n_ext))


class ZeroingGenerator:
    """A generator whose first draw is exactly zero in the last-axis
    positions *slots*, real and imaginary parts alike, so that the
    zero-redraw loop runs."""

    def __init__(self, seed, slots):
        self.rng = np.random.default_rng(seed)
        self.slots = slots

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        if self.slots is not None:
            z[..., self.slots] = 0.0
            self.slots = None
        return z


def chunk_generators(seed, zeroing=()):
    """Five generators, trials in *zeroing* as ZeroingGenerator."""
    return [ZeroingGenerator(seed + t, [1, 3]) if t in zeroing
            else np.random.default_rng(seed + t) for t in range(5)]


class TestDrawsPinned:
    """Channel and noise draws equal the np.moveaxis / np.any expressions
    they replace, bit for bit, one generator at a time and stacked."""

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_coeffs_equal_moveaxis_draw(self, model):
        for seed in range(300):
            for shape in [(2, 2, 11), (3, 3, 21), (7,), (1,)]:
                [got] = _draw_coeffs(shape, model, [np.random.default_rng(seed)])
                ref = moveaxis_coeffs(shape, model, np.random.default_rng(seed))
                assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_zero_redraw_equals_np_any_loop(self, model):
        M = 2
        for seed in range(50):
            [got] = sample_extended_channel(M, 5, model, [ZeroingGenerator(seed, [1, 3])])
            ref, redrawn = reference_channel(M, 5, model, ZeroingGenerator(seed, [1, 3]))
            assert redrawn == [8] and np.all(got != 0)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_stacked_channel_equals_per_generator_draws(self, model):
        # trials 1 and 3 take the zero-redraw path, the others do not
        M = 3
        for seed in range(0, 200, 5):
            got = sample_extended_channel(M, 4, model, chunk_generators(seed, (1, 3)))
            refs = [reference_channel(M, 4, model, rng)
                    for rng in chunk_generators(seed, (1, 3))]
            assert [r for _, r in refs] == [[], [18], [], [18], []]  # 9 links x 2 slots
            assert got.dtype == refs[0][0].dtype
            assert np.array_equal(got, np.stack([ref for ref, _ in refs]))

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_noise_equals_moveaxis_draw(self, model):
        for seed in range(300):
            [got] = sample_noise(3, 11, model, [np.random.default_rng(seed)])
            ref = reference_noise(3, 11, model, np.random.default_rng(seed))
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_stacked_noise_equals_per_generator_draws(self, model):
        for seed in range(0, 200, 5):
            got = sample_noise(3, 11, model, chunk_generators(seed))
            ref = np.stack([reference_noise(3, 11, model, rng)
                            for rng in chunk_generators(seed)])
            assert got.shape == (5, 3, 11) and np.array_equal(got, ref)


def reference_generators(seed, indices):
    """The per-trial generators that trial_generators must equal."""
    return [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in indices]


class TestTrialGenerators:
    """The vectorised SeedSequence hash builds default_rng's generators."""

    # one to seven seed words: 2^96 and 2^200 + 5 put entropy past the pool
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**200 + 5]
    CHUNKS = [range(301), range(150, 170), range(2**32 - 3, 2**32),
              [2**32 - 1, 0, 300, 7, 7, 123456789, 2**31]]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_and_raw_streams_equal_default_rng(self, seed):
        for indices in self.CHUNKS:
            got = trial_generators(seed, indices)
            ref = reference_generators(seed, indices)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert type(g.bit_generator) is type(r.bit_generator)
                assert g.bit_generator.state == r.bit_generator.state
            raw = np.stack([g.bit_generator.random_raw(64) for g in got])
            assert np.array_equal(raw, np.stack([r.bit_generator.random_raw(64)
                                                 for r in ref]))

    def test_generators_are_independent(self):
        a, b = trial_generators(5, [3, 3])
        a.standard_normal(10)
        assert b.bit_generator.state == reference_generators(5, [3])[0].bit_generator.state

    def test_index_past_one_word_is_rejected(self):
        with pytest.raises(OverflowError):
            trial_generators(0, [2**32])


class TestMessageBits:
    @pytest.mark.parametrize("model", ["real", "complex"])
    def test_equal_integers_after_a_channel_draw(self, model):
        # odd n leaves half a raw output unread, which the normal draws
        # after the messages must not see
        for n in range(1, 201):
            got = trial_generators(n, range(3))
            ref = reference_generators(n, range(3))
            assert np.array_equal(sample_extended_channel(2, 3, model, got),
                                  sample_extended_channel(2, 3, model, ref))
            bits = sample_message_bits(n, got)
            expected = np.stack([rng.integers(0, 2, size=n) for rng in ref])
            assert bits.dtype == expected.dtype and np.array_equal(bits, expected)
            assert np.array_equal(sample_noise(2, 3, model, got),
                                  sample_noise(2, 3, model, ref))
