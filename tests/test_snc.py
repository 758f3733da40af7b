import dataclasses
import itertools
import math

import numpy as np
import pytest

from sncsim.cf_baseline import cf_trial_sum_rate
from sncsim.channel import (
    Topology,
    expand_mimo_to_virtual,
    sample_extended_channel,
    single_antenna,
)
from sncsim.gf import PrimeField, RankDeficientError
from sncsim.phy import end_to_end_sum_rate, link_gains, per_link_rates
from sncsim.snc import (
    ExtensionPlan,
    PrecoderSet,
    build_filters,
    build_precoders,
    check_precoder_ranks,
    _plan_matrix,
    cp_recover,
    effective_system,
    extension_dims,
    theoretical_dof,
    verify_alignment,
)

BINARY_ATOL = 1e-6


def make_channel(K, N, seed, model="complex"):
    vt = expand_mimo_to_virtual(single_antenna(K))
    return sample_extended_channel(vt, N, model, np.random.default_rng(seed))


def one_trial_filters(h, p):
    """The filters (K, N, N) of one trial's channel and precoders, built as a
    stack of one; None when the trial's desired space is ill-conditioned."""
    u, ok = build_filters(h[None], p)
    return u[0] if ok[0] else None


def build_all(K, n, seed, model="complex"):
    plan = extension_dims(K, n)
    h = make_channel(K, plan.N, seed, model)
    p = build_precoders(h, plan)
    f = one_trial_filters(h, p)
    assert f is not None
    return plan, h, p, f, effective_system(plan)


def precoder(p, k):
    """The precoding matrix of transmitter k (0-based)."""
    return p.v1 if k == 0 else p.v_other


def numeric_system(h, p, f):
    """The filtered blocks u[l] (H_{l,k} V_k) of one draw, stacked like F:
    the numerical counterpart of effective_system's 0/1 matrix."""
    return np.vstack([np.hstack([f[l] @ (h[l, k][:, None] * precoder(p, k))
                                 for k in range(p.K)]) for l in range(p.K)])


def rounds_to_plan(h, p, f, eff):
    """Whether the draw's numeric system is within BINARY_ATOL of F."""
    return float(np.max(np.abs(numeric_system(h, p, f) - eff.f_int))) <= BINARY_ATOL


def gf2_greedy_rows(m):
    """The rows kept by a greedy scan over GF(2), with rows as integer bit
    masks, independent of sncsim.gf: a row is kept when its mask does not
    reduce to 0 against the masks kept before it."""
    basis = {}  # leading bit -> row
    kept = []
    for i, row in enumerate(np.packbits(np.asarray(m, dtype=np.uint8), axis=1)):
        v = int.from_bytes(row.tobytes(), "big")
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                kept.append(i)
                break
            v ^= basis[top]
    return kept


def gf2_rank(m):
    """Rank over GF(2), independent of sncsim.gf."""
    return len(gf2_greedy_rows(m))


def identity_channel(K, N):
    return np.ones((K, K, N), dtype=complex)


class TestExtensionDims:
    def test_two_user_worked_example(self):
        plan = extension_dims(2, 2)
        assert (plan.N, plan.N_prime) == (3, 2)

    def test_two_user_n1(self):
        plan = extension_dims(2, 1)
        assert (plan.N, plan.N_prime) == (2, 1)

    def test_three_user_n1(self):
        plan = extension_dims(3, 1)
        assert (plan.N, plan.N_prime) == (6, 1)
        assert plan.total_streams == 8

    def test_binomial_dimensions_general(self):
        for K in (2, 3, 4):
            for n in (1, 2, 3):
                plan = extension_dims(K, n)
                d = K * (K - 1)
                assert plan.N == math.comb(n + d - 1, n)
                assert plan.N_prime == math.comb(n + d - 2, n - 1)
                assert len(plan.tx1_exponents) == plan.N
                assert len(plan.other_exponents) == plan.N_prime
                assert all(sum(e) == n for e in plan.tx1_exponents)
                assert all(sum(e) == n - 1 for e in plan.other_exponents)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            extension_dims(1, 1)
        with pytest.raises(ValueError):
            extension_dims(2, 0)


class TestPrecoders:
    def test_two_user_n2_column_structure(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=0)
        p = build_precoders(h, plan)
        g12 = h[0, 1] / h[0, 0]
        g22 = h[1, 1] / h[1, 0]
        w = np.ones(3)
        s = p.power_scale
        v1 = np.column_stack([g12**2 * w, g12 * g22 * w, g22**2 * w]) * s
        v2 = np.column_stack([g12 * w, g22 * w]) * s
        assert np.allclose(p.v1, v1)
        assert np.allclose(p.v_other, v2)

    def test_two_user_n1_column_structure(self):
        plan = extension_dims(2, 1)
        h = make_channel(2, 2, seed=1)
        p = build_precoders(h, plan)
        g12 = h[0, 1] / h[0, 0]
        g22 = h[1, 1] / h[1, 0]
        s = p.power_scale
        assert np.allclose(p.v1, np.column_stack([g12, g22]) * s)
        assert np.allclose(p.v_other, np.ones((2, 1)) * s)

    def test_power_constraint(self):
        plan = extension_dims(3, 2)
        h = make_channel(3, plan.N, seed=2)
        p = build_precoders(h, plan, p_max=2.5)
        norms = [np.sum(np.abs(m) ** 2, axis=0) for m in (p.v1, p.v_other)]
        assert max(np.max(x) for x in norms) == pytest.approx(2.5, rel=1e-12)
        assert all(np.all(x <= 2.5 + 1e-9) for x in norms)

    def test_identity_channel_collapses_rank(self):
        plan = extension_dims(2, 2)
        p = build_precoders(identity_channel(2, 3), plan)
        report = check_precoder_ranks(p, plan)
        assert report.ranks[0] == 1
        assert not report.passed

    def test_random_channels_full_rank(self):
        plan = extension_dims(2, 3)
        h = make_channel(2, plan.N, seed=3)
        report = check_precoder_ranks(build_precoders(h, plan), plan)
        assert report.ranks == (4, 3) == report.expected

    @pytest.mark.parametrize("K, n, model", [
        (2, 1, "real"), (2, 3, "complex"), (2, 10, "complex"), (3, 1, "real"),
        (3, 2, "complex"), (4, 1, "real"),
    ])
    def test_table_matches_per_column_products(self, K, n, model):
        # reference: every column multiplied out on its own, skipping zero
        # exponents; the exponent table must give the same bits and layout
        plan = extension_dims(K, n)
        for seed in range(20):
            h = make_channel(K, plan.N, seed=900 + seed, model=model)
            g = (h[:K, 1:K] / h[:K, 0][:, None]).reshape(K * (K - 1), -1)

            def column(exponents):
                col = np.ones(plan.N, dtype=h.dtype)
                for g_slot, e in zip(g, exponents):
                    if e:
                        col = col * g_slot ** e
                return col

            mats = [np.column_stack([column(e) for e in exps])
                    for exps in (plan.tx1_exponents, plan.other_exponents)]
            scale = math.sqrt(1.7 / max(float(np.max(np.sum(np.abs(m) ** 2, axis=0)))
                                        for m in mats))
            p = build_precoders(h, plan, p_max=1.7)
            assert p.power_scale == scale
            for got, ref in zip((p.v1, p.v_other), mats):
                assert got.flags.c_contiguous
                assert np.array_equal(got, ref * scale)

    def test_rank_deficient_shared_precoder_fails(self):
        for K, n in [(2, 2), (3, 2)]:
            plan = extension_dims(K, n)
            h = make_channel(K, plan.N, seed=K)
            p = build_precoders(h, plan)
            assert check_precoder_ranks(p, plan).passed
            # two equal columns: transmitters 2..K lose one stream
            bad = dataclasses.replace(p, v_other=p.v_other[:, [0] * plan.N_prime])
            report = check_precoder_ranks(bad, plan)
            assert report.ranks == (plan.N, 1) and not report.passed

    def test_rank_monte_carlo(self):
        plan = extension_dims(2, 2)
        for seed in range(200):
            h = make_channel(2, plan.N, seed=seed)
            assert check_precoder_ranks(build_precoders(h, plan), plan).passed


class TestAlignment:
    def test_two_user_witness_columns(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=4)
        p = build_precoders(h, plan)
        res = verify_alignment(h, p)
        assert res.aligned
        # receiver 1: column j of V2 aligns with column j of V1
        assert res.witness[0, 1, 0] == 0 and res.witness[0, 1, 1] == 1
        # receiver 2: column j of V2 aligns with column j+1 of V1
        assert res.witness[1, 1, 0] == 1 and res.witness[1, 1, 1] == 2

    def test_k_user_alignment_holds(self):
        for K, n in [(2, 1), (2, 3), (3, 1), (3, 2)]:
            plan = extension_dims(K, n)
            h = make_channel(K, plan.N, seed=K * 10 + n)
            assert verify_alignment(h, build_precoders(h, plan)).aligned

    def test_random_precoders_do_not_align(self):
        plan = extension_dims(2, 2)
        rng = np.random.default_rng(13)
        failures = 0
        for seed in range(100):
            h = make_channel(2, 3, seed=seed)
            p = build_precoders(h, plan)
            bad = dataclasses.replace(p, v1=rng.standard_normal(p.v1.shape),
                                      v_other=rng.standard_normal(p.v_other.shape))
            if not verify_alignment(h, bad):
                failures += 1
        assert failures == 100


class TestFilters:
    def test_inverse_property(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=6)
        p = build_precoders(h, plan)
        f = one_trial_filters(h, p)
        for l in range(2):
            prod = f[l] @ (h[l, 0][:, None] * p.v1)
            assert np.linalg.norm(prod - np.eye(3)) < 1e-9 * np.linalg.norm(prod)

    def test_hand_computed_two_by_two(self):
        plan = extension_dims(2, 1)
        h = make_channel(2, 2, seed=7)
        p = build_precoders(h, plan)
        f = one_trial_filters(h, p)
        m = h[0, 0][:, None] * p.v1
        a, b = m[0]
        c, d = m[1]
        det = a * d - b * c
        inv = np.array([[d, -b], [-c, a]]) / det
        assert np.allclose(f[0], inv)

    def test_filters_absorb_global_scale(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=8)
        p1 = build_precoders(h, plan, p_max=1.0)
        p2 = build_precoders(h, plan, p_max=9.0)  # scales every column by 3
        f1, f2 = one_trial_filters(h, p1), one_trial_filters(h, p2)
        scale = p2.power_scale / p1.power_scale
        assert np.allclose(f2[0] * scale, f1[0])
        assert np.allclose(numeric_system(h, p1, f1), numeric_system(h, p2, f2))


class TestEffectiveSystem:
    def test_two_user_n2_matches_worked_example(self):
        plan, h, p, f, eff = build_all(2, 2, seed=9)
        expected = np.array([
            [1, 0, 0, 1, 0],
            [0, 1, 0, 0, 1],
            [0, 0, 1, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 1],
        ])
        assert np.array_equal(eff.f_int, expected)
        assert np.max(np.abs(numeric_system(h, p, f) - eff.f_int)) < 1e-6

    def test_two_user_n1_matrix(self):
        plan, h, p, f, eff = build_all(2, 1, seed=10)
        expected = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 1]])
        assert np.array_equal(eff.f_int, expected)

    def test_real_rank_equals_stream_count(self):
        for K, n in [(2, 2), (3, 1)]:
            for seed in range(100):
                plan, h, p, f, eff = build_all(K, n, seed=seed)
                rank = np.linalg.matrix_rank(numeric_system(h, p, f))
                assert rank == plan.total_streams

    def test_non_binary_entries_rejected(self):
        # the reference comparison has teeth: precoders that break the
        # alignment leave entries that do not round to F
        plan, h, p, f, eff = build_all(2, 1, seed=11)
        assert rounds_to_plan(h, p, f, eff)
        bad = dataclasses.replace(p, v_other=p.v_other * 1.5)
        assert not rounds_to_plan(h, bad, f, eff)


class TestPlanSystem:
    """effective_system derives F from the exponents alone; every draw that
    passes the per-trial rank and conditioning checks must agree with it."""

    @pytest.mark.parametrize("K, n, model, draws", [
        (2, 1, "real", 300), (2, 2, "real", 300), (2, 3, "complex", 200),
        (2, 10, "complex", 400), (3, 1, "real", 200), (3, 2, "complex", 60),
    ])
    def test_kept_draws_align_and_round_to_plan(self, K, n, model, draws):
        plan = extension_dims(K, n)
        eff = effective_system(plan)
        kept = 0
        for seed in range(draws):
            h = make_channel(K, plan.N, seed=50_000 + seed, model=model)
            p = build_precoders(h, plan)
            if not check_precoder_ranks(p, plan).passed:
                continue
            f = one_trial_filters(h, p)
            if f is None:
                continue
            kept += 1
            assert verify_alignment(h, p), seed
            assert rounds_to_plan(h, p, f, eff), seed
        assert kept >= 40

    def test_mimo_kept_draws_align_and_round_to_plan(self):
        vt = expand_mimo_to_virtual(Topology(2, 2, (2, 1), (2, 1)))
        plan = extension_dims(vt.M, 1)
        eff = effective_system(plan)
        rng = np.random.default_rng(21)
        for _ in range(200):
            h = sample_extended_channel(vt, plan.N, "complex", rng)
            p = build_precoders(h, plan)
            if not check_precoder_ranks(p, plan).passed:
                continue
            f = one_trial_filters(h, p)
            assert f is not None
            assert verify_alignment(h, p)
            assert rounds_to_plan(h, p, f, eff)

    def test_full_gf2_rank_for_small_extensions(self):
        # every K <= 4 whose extension has N <= 400 slots: F keeps every
        # stream at some receiver and has full column rank over GF(2)
        plans = 0
        for K in (2, 3, 4):
            n = 1
            while extension_dims(K, n).N <= 400:
                plan = extension_dims(K, n)
                f, _ = _plan_matrix(plan)
                assert f.any(axis=0).all(), (K, n)
                assert gf2_rank(f) == plan.total_streams, (K, n)
                plans += 1
                n += 1
        assert plans == 399 + 5 + 3

    def test_stored_arrays_agree_with_f(self):
        for K, n in [(2, 1), (2, 2), (2, 10), (3, 1), (3, 2), (4, 1)]:
            plan = extension_dims(K, n)
            eff = effective_system(plan)
            assert gf2_rank(eff.f_int) == len(eff.indep_rows) == plan.total_streams
            assert np.array_equal((eff.indep_inv @ eff.f_int[eff.indep_rows]) % 2,
                                  np.eye(plan.total_streams, dtype=np.int64))
            assert np.array_equal(eff.weights.ravel(), eff.f_int.sum(axis=1))
            # links are the nonzero entries, grouped by stream column
            assert np.all(eff.f_int[eff.link_rows, eff.link_cols] == 1)
            assert len(eff.link_rows) == eff.f_int.sum()
            assert np.all(np.diff(eff.link_cols) >= 0)
            starts = eff.link_cols[eff.stream_start]
            assert starts.tolist() == list(range(plan.total_streams))

    @pytest.mark.parametrize("K, n", [(3, 3), (2, 50)])
    def test_indep_rows_match_bitmask_greedy(self, K, n):
        # large sparse plans that the randomised GF tests never reach
        eff = effective_system(extension_dims(K, n))
        assert eff.indep_rows.tolist() == gf2_greedy_rows(eff.f_int)

    def test_built_once_and_read_only(self):
        plan = extension_dims(3, 1)
        eff = effective_system(plan)
        assert effective_system(extension_dims(3, 1)) is eff
        with pytest.raises(ValueError):
            eff.f_int[0, 0] = 0

    def test_singular_plan_rejected(self):
        # two transmitter-2 streams with the same exponents: identical columns
        plan = ExtensionPlan(K=2, n=1, N=2, N_prime=2,
                             tx1_exponents=((1, 0), (0, 1)),
                             other_exponents=((0, 0), (0, 0)))
        with pytest.raises(RankDeficientError):
            effective_system(plan)


class TestTrialStack:
    """Every layer that takes a stack of T trials gives each trial the bits
    of a stack holding that trial alone."""

    def test_stacked_precoders_and_ranks_equal_one_trial_calls(self):
        # K=2, n=10 draws often lose rank; each trial's numbers are those
        # of its own one-trial call
        plan = extension_dims(2, 10)
        hs = [make_channel(2, plan.N, seed=700 + s) for s in range(24)]
        p = build_precoders(np.stack(hs), plan)
        ranks = check_precoder_ranks(p, plan)
        for t, h in enumerate(hs):
            p1 = build_precoders(h, plan)
            assert np.array_equal(p1.v1, p.v1[t]) and np.array_equal(p1.v_other, p.v_other[t])
            assert p1.power_scale == p.power_scale[t]
            r1 = check_precoder_ranks(p1, plan)
            assert r1.ranks == (ranks.ranks[0][t], ranks.ranks[1][t])
            assert r1.passed == ranks.passed[t]
        assert 0 < np.count_nonzero(ranks.passed) < len(hs)

    def test_stacked_filters_drop_ill_conditioned_trials(self):
        plan = extension_dims(2, 2)
        hs, ps = [], []
        for t in range(6):
            h = make_channel(2, plan.N, seed=800 + t)
            ps.append(build_precoders(h, plan))
            if t in (2, 4):  # nearly singular desired space at receiver 1
                h = h.copy()
                h[1, 0, 0] *= 1e-14
            hs.append(h)
        p = dataclasses.replace(ps[0], v1=np.stack([p.v1 for p in ps]))
        u, ok = build_filters(np.stack(hs), p)
        assert ok.tolist() == [True, True, False, True, False, True]
        assert len(u) == 4
        kept = iter(u)
        for h, p1, ok_t in zip(hs, ps, ok):
            u1, ok1 = build_filters(h[None], p1)
            assert ok1.tolist() == [ok_t]
            assert np.array_equal(u1, [next(kept)] if ok_t else np.empty((0, 2, 3, 3)))

    @pytest.mark.parametrize("K, n, model", [
        (2, 2, "real"), (3, 1, "complex"), (2, 10, "complex"),
    ])
    def test_stacked_gains_and_sum_rates_equal_stacks_of_one(self, K, n, model):
        plan = extension_dims(K, n)
        eff = effective_system(plan)
        h = np.stack([make_channel(K, plan.N, seed=600 + s, model=model) for s in range(40)])
        p = build_precoders(h, plan)
        ranked = check_precoder_ranks(p, plan).passed
        p = PrecoderSet(K, p.v1[ranked], p.v_other[ranked], p.power_scale[ranked])
        u, ok = build_filters(h[ranked], p)
        p = PrecoderSet(K, p.v1[ok], p.v_other[ok], p.power_scale[ok])
        assert len(u) >= 4
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 61, 10)]
        sigma2 = [1.0 / rho for rho in rhos]
        gains = link_gains(p, u, eff)
        per_link = per_link_rates(gains, sigma2)
        for cap_enabled in (True, False):
            per_signal, sums = end_to_end_sum_rate(per_link, eff, rhos, cap_enabled)
            assert per_signal.shape == (len(u), len(rhos), plan.total_streams)
            assert sums.shape == (len(u), len(rhos))
            for t in range(len(u)):
                one = slice(t, t + 1)
                p1 = PrecoderSet(K, p.v1[one], p.v_other[one], p.power_scale[one])
                gains1 = link_gains(p1, u[one], eff)
                assert np.array_equal(gains1, gains[one])
                per_signal1, sums1 = end_to_end_sum_rate(per_link_rates(gains1, sigma2),
                                                         eff, rhos, cap_enabled)
                assert np.array_equal(per_signal1, per_signal[one])
                assert np.array_equal(sums1, sums[one])

    @pytest.mark.parametrize("K, q, cap_enabled", [(2, 2, True), (3, 3, False)])
    def test_stacked_cf_rates_equal_stacks_of_one(self, K, q, cap_enabled):
        h = np.stack([make_channel(K, 4, seed=650 + s, model="real") for s in range(12)])
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 61, 10)]
        totals, outages = cf_trial_sum_rate(h, rhos, PrimeField(q), 2, cap_enabled)
        assert totals.shape == outages.shape == (len(h), len(rhos))
        assert 0 < np.count_nonzero(outages) < outages.size  # both paths ran
        for t in range(len(h)):
            totals1, outages1 = cf_trial_sum_rate(h[t:t + 1], rhos, PrimeField(q), 2,
                                                  cap_enabled)
            assert np.array_equal(totals1, totals[t:t + 1])
            assert np.array_equal(outages1, outages[t:t + 1])


class TestRecovery:
    def test_noiseless_round_trip_random_vectors(self):
        rng = np.random.default_rng(12)
        for K, n in [(2, 1), (2, 2), (3, 1)]:
            plan, h, p, f, eff = build_all(K, n, seed=20 + K + n)
            for _ in range(50):
                b = rng.integers(0, 2, size=plan.total_streams)
                fwd = (eff.f_int @ b) % 2
                rec = cp_recover(eff, fwd)
                assert not rec.detected_error
                assert np.array_equal(np.concatenate(rec.messages), b)

    def test_exhaustive_round_trip_k2_n1(self):
        plan, h, p, f, eff = build_all(2, 1, seed=14)
        for b in itertools.product((0, 1), repeat=3):
            b = np.array(b)
            rec = cp_recover(eff, (eff.f_int @ b) % 2)
            assert np.array_equal(np.concatenate(rec.messages), b)

    def test_zero_message_gives_zero(self):
        plan, h, p, f, eff = build_all(2, 2, seed=15)
        rec = cp_recover(eff, np.zeros(6, dtype=int))
        assert all(np.all(m == 0) for m in rec.messages)

    def test_corrupted_redundant_row_detected(self):
        plan, h, p, f, eff = build_all(2, 2, seed=16)
        b = np.array([1, 1, 0, 1, 0])
        fwd = (eff.f_int @ b) % 2
        fwd[-1] ^= 1  # flip a redundant equation
        rec = cp_recover(eff, fwd)
        assert rec.detected_error


class TestVandermondeIdentity:
    def test_determinant_product_formula(self):
        # det(G12^-n V1) equals the pairwise-difference product of the
        # per-slot ratios (checked on the unscaled precoder)
        for n in (1, 2, 3, 4):
            plan = extension_dims(2, n)
            for seed in range(25):
                h = make_channel(2, plan.N, seed=1000 * n + seed)
                p = build_precoders(h, plan)
                v1 = p.v1 / p.power_scale
                alpha = h[0, 1] / h[0, 0]
                beta = h[1, 1] / h[1, 0]
                lhs = np.linalg.det(np.diag(alpha**-n) @ v1)
                r = beta / alpha
                rhs = np.prod([r[j] - r[i]
                               for i in range(n + 1) for j in range(i + 1, n + 1)])
                assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


class TestTheoreticalDof:
    def test_two_user_worked_example(self):
        per_user, total, streams = theoretical_dof(extension_dims(2, 2))
        assert per_user == (1.0, 2 / 3)
        assert total == pytest.approx(5 / 3)
        assert streams == 5

    def test_limit_approaches_user_count(self):
        _, total, _ = theoretical_dof(extension_dims(2, 1000))
        assert abs(total - 2.0) < 0.002

    def test_three_user(self):
        _, total, streams = theoretical_dof(extension_dims(3, 1))
        assert total == pytest.approx(8 / 6)
        assert streams == 8
