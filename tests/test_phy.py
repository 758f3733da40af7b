import math

import numpy as np
import pytest

from sncsim.phy import (
    UnsupportedModulationError,
    _demod_sum_constellation,
    end_to_end_sum_rate,
    estimate_dof_slope,
    filter_and_demodulate,
    link_rate,
    modulate_bpsk,
    per_link_rates,
    stream_gains,
    transmit,
)
from sncsim.channel import sample_extended_channel, sample_noise
from sncsim.snc import (
    build_filters,
    build_precoders,
    check_precoder_ranks,
    cp_recover,
    effective_system,
    extension_dims,
    pack_bits,
)
from tests.test_snc import (
    build_all,
    explicit_filters,
    make_channel,
    precoder,
)


class TestModulation:
    def test_mapping(self):
        assert list(modulate_bpsk([0, 1, 0])) == [1.0, -1.0, 1.0]

    def test_all_zeros(self):
        assert np.all(modulate_bpsk(np.zeros(4, dtype=int)) == 1.0)

    def test_hard_demod_round_trip(self):
        b = np.array([1, 0, 1, 1])
        x = modulate_bpsk(b)
        assert np.array_equal((x < 0).astype(int), b)

    def test_rejects_non_binary(self):
        with pytest.raises(UnsupportedModulationError):
            modulate_bpsk([0, 2])


class TestTransmit:
    def test_identity_passthrough(self):
        plan, h, p, f, eff = build_all(2, 1, seed=0)
        # zero out the interferer and undo precoding/channel by hand
        x = [np.array([1.0, -1.0]), np.zeros(1)]
        y = transmit(h, *p, x, np.zeros((2, 2)))
        expected = h[0, 0] * (p[0] @ x[0])
        assert np.allclose(y[0], expected)

    def test_superposition_linearity(self):
        plan, h, p, f, eff = build_all(2, 2, seed=1)
        rng = np.random.default_rng(0)
        xa = [rng.standard_normal(3), rng.standard_normal(2)]
        xb = [rng.standard_normal(3), rng.standard_normal(2)]
        zeros = np.zeros((2, 3))
        ya = transmit(h, *p, xa, zeros)
        yb = transmit(h, *p, xb, zeros)
        yab = transmit(h, *p, [a + b for a, b in zip(xa, xb)], zeros)
        for l in range(2):
            assert np.allclose(ya[l] + yb[l], yab[l])

    def test_matches_hand_expansion(self):
        plan, h, p, f, eff = build_all(2, 1, seed=2)
        x = [np.array([1.0, -1.0]), np.array([-1.0])]
        n = np.array([[0.1, -0.2], [0.0, 0.3]])
        y = transmit(h, *p, x, n)
        for l in range(2):
            manual = (h[l, 0] * (p[0] @ x[0])
                      + h[l, 1] * (p[1] @ x[1]) + n[l])
            assert np.allclose(y[l], manual, atol=1e-12)


class TestDemodulation:
    def test_aligned_pair_near_zero_is_xor_one(self):
        assert _demod_sum_constellation(0.05, m=2) == 1

    def test_aligned_pair_near_two_is_xor_zero(self):
        assert _demod_sum_constellation(2.1, m=2) == 0

    def test_single_stream_is_plain_bpsk(self):
        assert _demod_sum_constellation(0.7, m=1) == 0
        assert _demod_sum_constellation(-0.7, m=1) == 1

    def test_midpoint_ties_break_toward_smaller_count(self):
        # midpoint between levels m-2j: e.g. m=2, boundary at 1.0 and -1.0
        assert _demod_sum_constellation(1.0, m=2) == 0
        assert _demod_sum_constellation(-1.0, m=2) == 1
        assert _demod_sum_constellation(0.0, m=1) == 0

    def test_vectorised_rule_matches_oracle(self):
        # the rule filter_and_demodulate applies to every row at once, on
        # random values and on every exact midpoint (ties) for m <= 4
        rng = np.random.default_rng(17)
        for m in (1, 2, 3, 4):
            values = np.concatenate([rng.uniform(-m - 3, m + 3, 2000),
                                     np.arange(-m - 1, m + 2, dtype=float)])
            j = np.clip(np.ceil((m - values) / 2 - 0.5), 0, m)
            fast = j.astype(np.int64) % 2
            slow = [_demod_sum_constellation(float(v), m) for v in values]
            assert fast.tolist() == slow

    def test_noisy_pipeline_matches_oracle(self):
        plan, h, p, f, eff = build_all(3, 1, seed=18)
        rng = np.random.default_rng(19)
        weights = eff.weights.ravel().tolist()
        for _ in range(20):
            msgs = [rng.integers(0, 2, size=plan.N if k == 0 else plan.N_prime)
                    for k in range(3)]
            noise = 0.5 * (rng.standard_normal((3, plan.N))
                           + 1j * rng.standard_normal((3, plan.N)))
            y = transmit(h, *p, [modulate_bpsk(b) for b in msgs], noise)
            out = filter_and_demodulate(y, h, build_filters(p[0]), eff)
            z = np.concatenate([np.real(f[l] @ y[l]) for l in range(3)])
            slow = [_demod_sum_constellation(float(v), m) for v, m in zip(z, weights)]
            assert np.array_equal(out, pack_bits(slow))

    def test_decision_regions_partition_line(self):
        for m in (1, 2, 3):
            values = np.linspace(-m - 2, m + 2, 401)
            bits = [_demod_sum_constellation(v, m) for v in values]
            assert set(bits) <= {0, 1}

    def test_zero_noise_pipeline_matches_network_coded_vectors(self):
        # two-user n=2: receiver 1 sees (b1+b2, b1+b2, b1), receiver 2
        # sees (b1, b1+b2 shifted) exactly as in the worked example
        plan, h, p, f, eff = build_all(2, 2, seed=3)
        b1 = np.array([1, 0, 1])
        b2 = np.array([1, 1])
        x = [modulate_bpsk(b1), modulate_bpsk(b2)]
        y = transmit(h, *p, x, np.zeros((2, 3)))
        out = filter_and_demodulate(y, h, build_filters(p[0]), eff)
        expected_r1 = np.array([b1[0] ^ b2[0], b1[1] ^ b2[1], b1[2]])
        expected_r2 = np.array([b1[0], b1[1] ^ b2[0], b1[2] ^ b2[1]])
        assert np.array_equal(out, pack_bits(np.concatenate([expected_r1, expected_r2])))


def einsum_demodulate(y, u, eff):
    """filter_and_demodulate with the explicit filters u (..., K, N, N) of
    explicit_filters in one einsum: the form the factored filters replace,
    kept as their reference."""
    u = u.reshape(u.shape[:-3] + (1,) * (y.ndim + 1 - u.ndim) + u.shape[-3:])
    z = np.real(np.einsum("...lij,...lj->...li", u, y))
    m = eff.weights
    j = np.clip(np.ceil((m - z) / 2 - 0.5), 0, m)
    return (j.astype(np.int64) % 2).reshape(*z.shape[:-2], -1)


def links(eff):
    """(link_cols, link_rows): the nonzero entries of F, column by column."""
    return np.nonzero(eff.f_int.T)


def factored_row_norms(h, w):
    """||u_{l,i}||^2 (..., K N) of the factored filters w / d_l, in
    stream_gains' one real matmul."""
    u_norm2 = (1.0 / np.abs(h[..., 0, :]) ** 2) @ np.swapaxes(np.abs(w) ** 2, -1, -2)
    return u_norm2.reshape(*u_norm2.shape[:-2], -1)


def explicit_row_norms(h, w):
    """||u_{l,i}||^2 (..., K N) read from the explicit filters u."""
    u_norm2 = np.sum(np.abs(explicit_filters(h, w)) ** 2, axis=-1)
    return u_norm2.reshape(*u_norm2.shape[:-2], -1)


def explicit_link_gains(v1, v_other, u_norm2, eff):
    """The closed-form gain p_budget / (||u_{l,i}||^2 ||v_c||^2) of every
    link of *eff*, from the filter row norms u_norm2 (..., K N): the
    per-link array that stream_gains reduces to one gain per stream."""
    link_cols, link_rows = links(eff)
    v1_norm2, other_norm2 = (np.sum(np.abs(v) ** 2, axis=-2) for v in (v1, v_other))
    v_norm2 = np.concatenate([v1_norm2] + [other_norm2] * (eff.plan.K - 1), axis=-1)
    return v_norm2.max(axis=-1, keepdims=True) / (u_norm2[..., link_rows]
                                                  * v_norm2[..., link_cols])


def min_over_links(per_link, eff):
    """Each stream's minimum (..., streams) of a per-link array (..., links)."""
    link_cols, _ = links(eff)
    return np.stack([per_link[..., link_cols == c].min(axis=-1)
                     for c in range(eff.plan.total_streams)], axis=-1)


WORKLOAD_PLANS = [(2, 2, "real"), (3, 1, "real"), (3, 2, "complex"), (2, 10, "complex")]


class TestFactoredFilters:
    """The factored filters w / d_l give the bits and gains of the explicit
    per-receiver filters, on noisy stacks of the benchmark's plans."""

    @staticmethod
    def noisy_stack(K, n, model, trials, seed):
        """The kept trials of *trials* draws: their channel, precoders and
        inverses w, and the received vectors (T, S, K, N) of random
        messages at 0, 10, ..., 60 dB."""
        plan = extension_dims(K, n)
        eff = effective_system(plan)
        rngs = [np.random.default_rng([seed, t]) for t in range(trials)]
        h = sample_extended_channel(K, plan.N, model, rngs)
        v1, v_other = build_precoders(h, plan)
        keep = np.flatnonzero(check_precoder_ranks(v1, build_filters(v1)))
        h, v1, v_other = h[keep], v1[keep], v_other[keep]
        w = build_filters(v1)
        msgs = np.stack([rngs[t].integers(0, 2, plan.total_streams) for t in keep])
        x = np.split(modulate_bpsk(msgs), eff.col_offset[1:], axis=-1)
        sigma2 = 10.0 ** -(np.arange(0, 61, 10) / 10.0)
        noise = sample_noise(sigma2, K, plan.N, model, [rngs[t] for t in keep])
        return eff, h, v1, v_other, w, transmit(h, v1, v_other, x, noise)

    @pytest.mark.parametrize("K, n, model", WORKLOAD_PLANS)
    def test_bits_equal_explicit_filters(self, K, n, model):
        eff, h, _, _, w, y = self.noisy_stack(K, n, model, 60, seed=41)
        words = filter_and_demodulate(y, h, w, eff)
        bits = einsum_demodulate(y, explicit_filters(h, w), eff)
        assert len(h) >= 8 and bits.shape == (len(h), 7, K * eff.plan.N)
        assert words.shape == (len(h), 7, -(-K * eff.plan.N // 64))
        assert np.array_equal(words, pack_bits(bits))
        assert 0 < np.count_nonzero(bits) < bits.size

    @pytest.mark.parametrize("K, n, model", WORKLOAD_PLANS)
    def test_gains_equal_explicit_filters(self, K, n, model):
        eff, h, v1, v_other, w, _ = self.noisy_stack(K, n, model, 60, seed=42)
        gains = stream_gains(h, v1, v_other, w, eff)
        ref = min_over_links(explicit_link_gains(v1, v_other, explicit_row_norms(h, w),
                                                 eff), eff)
        assert gains.shape == ref.shape == (len(h), eff.plan.total_streams)
        assert np.all(np.abs(gains - ref) <= 1e-12 * ref)
        # the weakest receiver's gain, to the last bit, from the same row norms
        assert np.array_equal(gains, min_over_links(
            explicit_link_gains(v1, v_other, factored_row_norms(h, w), eff), eff))


class TestRates:
    def test_unit_gain_unit_noise_is_one_bit(self):
        e1 = np.array([1.0, 0.0])
        assert link_rate(e1, e1, np.ones(2), sigma2=1.0) == pytest.approx(1.0)

    def test_vanishing_snr(self):
        e1 = np.array([1.0, 0.0])
        assert link_rate(e1, e1, np.ones(2), sigma2=1e12) < 1e-11

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            hd = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            s2 = float(rng.uniform(0.1, 2.0))
            # independent path: dense matrices and explicit conjugations
            H = np.diag(hd)
            num = abs(np.conj(u) @ H @ v) ** 2
            den = float(np.real(np.conj(u) @ (s2 * np.eye(3)) @ u))
            expected = math.log2(1 + num / den)
            assert link_rate(u, v, hd, s2) == pytest.approx(expected, rel=1e-12)

    def test_signal_rate_takes_min_over_decoding_receivers(self):
        # K=2, n=1: stream column c is decoded at the rows r with F[r, c] = 1
        plan, h, p, f, eff = build_all(2, 1, seed=5)
        link_cols, link_rows = links(eff)
        assert set(zip(link_rows.tolist(), link_cols.tolist())) == {
            (0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (3, 2)}
        w = build_filters(p[0])
        u_norm2 = factored_row_norms(h, w).tolist()
        v_norm2 = np.sum(np.abs(np.hstack(p)) ** 2, axis=0).tolist()  # columns of F
        expected = [min(max(v_norm2) / (u_norm2[r] * v_norm2[c])
                        for r in link_rows[link_cols == c].tolist()) for c in range(3)]
        assert stream_gains(h, *p, w, eff).tolist() == expected

    def test_sum_rate_adds_stream_rates(self):
        sums = end_to_end_sum_rate(np.array([[2.0, 1.0, 2.5]]), [1.0], cap_enabled=False)
        assert sums.tolist() == [5.5]

    def test_every_stream_is_decoded_somewhere(self):
        plan, h, p, f, eff = build_all(2, 1, seed=6)
        [rates] = per_link_rates(stream_gains(h, *p, build_filters(p[0]), eff), [1.0])
        assert rates.shape == (plan.total_streams,) and np.all(rates > 0)
        assert sorted(set(links(eff)[0].tolist())) == [0, 1, 2]

    def test_per_link_rates_equal_link_rate_oracle(self):
        # closed-form gains once, then each stream's rate at several noise
        # powers, against the minimum over its links of link_rate on the
        # decoding vector and the budget-rescaled column of every kept draw;
        # rtol 1e-9 because the closed form takes u^H H v = 1
        for K, n, model in [(2, 2, "complex"), (3, 1, "real"), (3, 2, "complex"),
                            (2, 10, "complex")]:
            plan = extension_dims(K, n)
            eff = effective_system(plan)
            kept = 0
            for seed in range(40):
                h = make_channel(K, plan.N, seed=20 + K + 100 * seed, model=model)
                p = build_precoders(h, plan)
                if not check_precoder_ranks(p[0], build_filters(p[0])):
                    continue
                w = build_filters(p[0])
                kept += 1
                f = explicit_filters(h, w)
                gains = stream_gains(h, *p, w, eff)
                budget = max(float(np.max(np.sum(np.abs(v) ** 2, axis=0))) for v in p)
                link_cols, link_rows = links(eff)
                sigma2s = (1.0, 1e-3, 1e-6)
                for sigma2, rates in zip(sigma2s, per_link_rates(gains, sigma2s)):
                    assert rates.shape == (plan.total_streams,)
                    for c, rate in enumerate(rates):
                        k = int(np.searchsorted(eff.col_offset, c, side="right")) - 1
                        col = precoder(p, k)[:, c - eff.col_offset[k]]
                        col = col * math.sqrt(budget) / float(np.linalg.norm(col))
                        oracle = []
                        for r in link_rows[link_cols == c]:
                            l, i = divmod(int(r), plan.N)
                            u = np.conj(f[l][i, :])
                            oracle.append(link_rate(u, col, h[l, k], sigma2))
                        assert rate == pytest.approx(min(oracle), rel=1e-9, abs=0.0)
            assert kept >= 3, (K, n)


class TestSumRate:
    def test_cap_binds(self):
        plan, h, p, f, eff = build_all(2, 1, seed=7)
        per_signal = np.full((1, plan.total_streams), 5.0)
        [total] = end_to_end_sum_rate(per_signal, [1.0])
        assert total == pytest.approx(3.0)  # 3 streams capped at log2(1 + 1) = 1

    def test_rates_below_cap_unchanged(self):
        plan, h, p, f, eff = build_all(2, 1, seed=8)
        per_signal = np.full((1, plan.total_streams), 0.5)
        [total] = end_to_end_sum_rate(per_signal, [1e6])
        assert total == pytest.approx(1.5)

    def test_zero_cap_gives_zero(self):
        plan, h, p, f, eff = build_all(2, 1, seed=9)
        per_signal = np.full((1, plan.total_streams), 2.0)
        [total] = end_to_end_sum_rate(per_signal, [0.0])
        assert total == 0.0

    def test_monotone_in_link_snr(self):
        plan, h, p, f, eff = build_all(2, 2, seed=10)
        rhos = [10 ** (snr_db / 10) for snr_db in (0, 10, 20, 30, 40)]
        rates = per_link_rates(stream_gains(h, *p, build_filters(p[0]), eff),
                               [1.0 / rho for rho in rhos])
        totals = end_to_end_sum_rate(rates, rhos).tolist()
        assert totals == sorted(totals)


class TestSnrBatch:
    @pytest.mark.parametrize("K, n, model", [
        (2, 2, "real"), (3, 1, "real"), (3, 2, "complex"), (2, 3, "complex"),
    ])
    def test_batched_pass_equals_per_point_calls(self, K, n, model):
        # the whole grid in one call gives every point the bits of a
        # one-point call with the same messages and unit noise
        plan, h, p, f, eff = build_all(K, n, seed=30 + n, model=model)
        w = build_filters(p[0])
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 61, 5)]
        sigma2 = np.array([1.0 / rho for rho in rhos])
        msgs = np.random.default_rng(31).integers(0, 2, size=plan.total_streams)
        x = np.split(modulate_bpsk(msgs), eff.col_offset[1:])
        [noise] = sample_noise(sigma2, K, plan.N, model, [np.random.default_rng(32)])
        y = transmit(h, *p, x, noise)
        fwd = filter_and_demodulate(y, h, w, eff)
        msgs_out, detected = cp_recover(eff, fwd)
        rates = per_link_rates(stream_gains(h, *p, w, eff), sigma2)
        sums = end_to_end_sum_rate(rates, rhos)
        assert noise.shape == y.shape == (len(rhos), K, plan.N)
        assert fwd.shape == (len(rhos), -(-K * plan.N // 64))
        for s, (rho, s2) in enumerate(zip(rhos, sigma2)):
            [[n1]] = sample_noise([s2], K, plan.N, model, [np.random.default_rng(32)])
            y1 = transmit(h, *p, x, n1)
            fwd1 = filter_and_demodulate(y1, h, w, eff)
            msgs1, detected1 = cp_recover(eff, fwd1)
            assert np.array_equal(n1, noise[s]) and np.array_equal(y1, y[s])
            assert np.array_equal(fwd1, fwd[s])
            assert detected1 == detected[s]
            assert np.array_equal(msgs1, msgs_out[s])
            [rates1] = per_link_rates(stream_gains(h, *p, w, eff), [s2])
            assert np.array_equal(rates1, rates[s])
            sums1 = end_to_end_sum_rate(rates1[None], [rho])
            assert np.array_equal(sums1, sums[s:s + 1])


class TestDofSlope:
    def test_synthetic_line(self):
        snr = np.arange(40, 61, 5)
        log2rho = snr * math.log(10) / (10 * math.log(2))
        rates = 3.0 * log2rho
        assert estimate_dof_slope(snr, rates, n_ext=1) == pytest.approx(3.0)

    def test_constant_rates_give_zero(self):
        assert estimate_dof_slope([40, 50, 60], [7, 7, 7], n_ext=2) == pytest.approx(0.0, abs=1e-12)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            estimate_dof_slope([0, 10], [1, 2], n_ext=1)
