import functools
import itertools
import math
import operator
import warnings

import numpy as np
import pytest

from sncsim.cf_baseline import cf_trial_sum_rate
from sncsim.channel import sample_extended_channel, trial_generators
from sncsim.gf import PrimeField, RankDeficientError, gf_inv
from sncsim.harness import SimConfig, chunk_length
from sncsim.phy import (
    cooperation_caps,
    end_to_end_sum_rate,
    filter_and_demodulate,
    modulate_bpsk,
    per_link_rates,
    stream_gains,
)
from sncsim.snc import (
    MAX_EXTENSION,
    MAX_RESAMPLES,
    RANK_MARGIN,
    RANK_SV_RTOL,
    CapacityError,
    ExtensionPlan,
    build_filters,
    build_precoders,
    channel_ratios,
    check_precoder_ranks,
    _factor_rows,
    _plan_matrix,
    cp_recover,
    draw_round,
    effective_system,
    extension_dims,
    pack_bits,
    ratio_bound_rejects,
    usable_channels,
    verify_alignment,
)

BINARY_ATOL = 1e-6


def make_channel(K, N, seed, model="complex"):
    return sample_extended_channel(K, N, model, [np.random.default_rng(seed)])[0]


def precoders(h, plan):
    """build_precoders on the ratio table of the channel *h*."""
    return build_precoders(channel_ratios(h, plan), plan)


def nonzero_factor_products(g, exponents):
    """A precoding column of the ratio table *g* (K(K-1), N) multiplied out
    on its own: the product, in slot order, of its nonzero-exponent
    factors g[s] ** e, all ones where every exponent is zero."""
    factors = [g_slot ** e for g_slot, e in zip(g, exponents) if e]
    return functools.reduce(operator.mul, factors) if factors else np.ones_like(g[0])


def all_slot_products(g, exponents):
    """The same column folded over every slot from the all-ones seed,
    multiplying by g[s] ** 0 = 1 where the exponent is zero."""
    col = np.ones_like(g[0])
    for g_slot, e in zip(g, exponents):
        col = col * g_slot ** e
    return col


@np.errstate(all="ignore")
def scaled_columns(g, plan, fold):
    """v1 and v_other of one trial's ratio table *g*, their columns from
    *fold*, scaled so that the largest column squared-norm is 1."""
    mats = [np.column_stack([fold(g, e) for e in exps])
            for exps in (plan.tx1_exponents, plan.other_exponents)]
    scale = np.sqrt(1.0 / np.max([np.max(np.sum(np.abs(m) ** 2, axis=0)) for m in mats]))
    return [m * scale for m in mats]


def same_bits(got, want):
    """*got* equals *want* bit for bit, a NaN matching any NaN (equal_nan)."""
    return got.shape == want.shape and all(
        np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b))
        for a, b in ((got.real, want.real), (got.imag, want.imag)))


def explicit_filters(h, w):
    """The filters (..., K, N, N) that build_filters' inverses w stand for,
    u[l] = (D_l V_1)^-1 = w / d_l with d_l = h[l, 0], applied as
    x' = u[l] @ y_l: the per-receiver filter stack the engine once built,
    kept as the reference for the factored form."""
    return w[..., None, :, :] / h[..., 0, None, :]


def stream_offsets(plan):
    """The first column of F of every transmitter: transmitter 1's N
    streams, then N' streams for each further transmitter."""
    return (0,) + tuple(plan.N + k * plan.N_prime for k in range(plan.K - 1))


def split_by_transmitter(s, plan):
    """The symbols s (..., streams), in column order of F, as the K
    transmitters' symbol vectors."""
    return np.split(s, stream_offsets(plan)[1:], axis=-1)


def transmit(h, v1, v_other, x, noise):
    """Received vectors y_l = sum_k H_{l,k} V_k x_k + n_l, shaped like the
    noise (..., K, N); *x* holds the K transmitters' symbol vectors, sent
    through transmitter 1's precoder *v1* and the shared *v_other*.  The
    leading (trial) axes of the channel h, the precoders and x lead the
    noise too, and any further noise axes (SNR points) follow them.  The
    physical chain that filter_and_demodulate's closed form F s plus
    filtered noise replaces, kept as its reference."""
    y = np.asarray(noise, dtype=h.dtype)
    lead = h.ndim - 3
    for k, xk in enumerate(x):
        vx = ((v_other if k else v1) @ np.asarray(xk)[..., None])[..., 0]
        sig = h[..., k, :] * vx[..., None, :]
        y = y + sig.reshape(sig.shape[:lead] + (1,) * (y.ndim - sig.ndim)
                            + sig.shape[lead:])
    return y


def einsum_demodulate(y, u, eff):
    """The network-coded bits (..., K N) of the received vectors y
    (..., K, N) through the explicit filters u (..., K, N, N) of
    explicit_filters in one einsum, one int64 entry per bit in row order
    of F: with transmit, the physical chain that filter_and_demodulate's
    words are held to."""
    u = u.reshape(u.shape[:-3] + (1,) * (y.ndim + 1 - u.ndim) + u.shape[-3:])
    z = np.real(np.einsum("...lij,...lj->...li", u, y))
    m = eff.weights
    j = np.clip(np.ceil((m - z) / 2 - 0.5), 0, m)
    return (j.astype(np.int64) % 2).reshape(*z.shape[:-2], -1)


def one_trial_filters(h, p):
    """The filters (K, N, N) of one trial's channel and precoders
    p = (v1, v_other), built from build_filters' inverse w as
    explicit_filters."""
    return explicit_filters(h, build_filters(p[0]))


def build_all(K, n, seed, model="complex"):
    plan = extension_dims(K, n)
    h = make_channel(K, plan.N, seed, model)
    p = precoders(h, plan)
    return plan, h, p, one_trial_filters(h, p), effective_system(plan)


def precoder(p, k):
    """The precoding matrix of transmitter k (0-based) in p = (v1, v_other)."""
    return p[0] if k == 0 else p[1]


def numeric_system(h, p, f):
    """The filtered blocks u[l] (H_{l,k} V_k) of one draw, stacked like F:
    the numerical counterpart of effective_system's 0/1 matrix."""
    K = len(h)
    return np.vstack([np.hstack([f[l] @ (h[l, k][:, None] * precoder(p, k))
                                 for k in range(K)]) for l in range(K)])


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


def unpack_bits(words, n):
    """The n bits (..., n) that pack_bits packed into *words*."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")[..., :n]


def reference_cp_recover(eff, forwarded):
    """Central-processor recovery from the forwarded bits (..., K N), one
    int64 entry per bit in row order of F, by two int64 matmuls mod 2: the
    messages solved from the independent rows with the GF(2) inverse of
    F[indep_rows], and the flag of a solution whose re-encoding differs
    from the forwarded bits.  The reference that cp_recover's packed
    parities are held to."""
    forwarded = PrimeField(2).reduce(forwarded)
    inv = gf_inv(eff.f_int[eff.indep_rows], PrimeField(2))
    x = (forwarded[..., eff.indep_rows] @ inv.T) % 2
    detected = np.any((x @ eff.f_int.T - forwarded) % 2, axis=-1)
    return x, detected


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

    def test_cap_keeps_the_rounding_of_w_inside_the_rank_margin(self):
        # MAX_EXTENSION is the largest N with N eps / RANK_SV_RTOL <=
        # RANK_MARGIN / 4, the bound check_precoder_ranks' fail rule needs
        eps = np.finfo(float).eps
        assert MAX_EXTENSION * eps / RANK_SV_RTOL <= RANK_MARGIN / 4
        assert (MAX_EXTENSION + 1) * eps / RANK_SV_RTOL > RANK_MARGIN / 4
        # the largest plan of each K and the first one past the cap
        for K, n in ((2, 1124), (3, 7), (4, 3), (5, 2)):
            assert extension_dims(K, n).N <= MAX_EXTENSION
            with pytest.raises(CapacityError):
                extension_dims(K, n + 1)


class TestPrecoders:
    def test_two_user_n2_column_structure(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=0)
        v1, v_other = precoders(h, plan)
        g12 = h[0, 1] / h[0, 0]
        g22 = h[1, 1] / h[1, 0]
        w = np.ones(3)
        ref1 = np.column_stack([g12**2 * w, g12 * g22 * w, g22**2 * w])
        ref2 = np.column_stack([g12 * w, g22 * w])
        s = 1 / np.sqrt(max(np.max(np.sum(np.abs(m) ** 2, axis=0)) for m in (ref1, ref2)))
        assert np.allclose(v1, ref1 * s)
        assert np.allclose(v_other, ref2 * s)

    def test_channel_must_match_the_plan(self):
        plan = extension_dims(2, 2)  # K = 2 users, N = 3 slots
        # two slots, then one user
        for h in (make_channel(2, 2, seed=0), make_channel(1, 3, seed=0)):
            with pytest.raises(ValueError, match="does not match the plan"):
                channel_ratios(h, plan)

    def test_two_user_n1_column_structure(self):
        plan = extension_dims(2, 1)
        h = make_channel(2, 2, seed=1)
        v1, v_other = precoders(h, plan)
        g12 = h[0, 1] / h[0, 0]
        g22 = h[1, 1] / h[1, 0]
        ref1, ref2 = np.column_stack([g12, g22]), np.ones((2, 1))
        s = 1 / np.sqrt(max(np.max(np.sum(np.abs(m) ** 2, axis=0)) for m in (ref1, ref2)))
        assert np.allclose(v1, ref1 * s)
        assert np.allclose(v_other, ref2 * s)

    def test_power_constraint(self):
        plan = extension_dims(3, 2)
        h = make_channel(3, plan.N, seed=2)
        p = precoders(h, plan)
        norms = [np.sum(np.abs(m) ** 2, axis=0) for m in p]
        assert max(np.max(x) for x in norms) == pytest.approx(1.0, rel=1e-12)
        assert all(np.all(x <= 1.0 + 1e-9) for x in norms)

    def test_identity_channel_collapses_rank(self):
        plan = extension_dims(2, 2)
        h = identity_channel(2, 3)
        v1, v_other = precoders(h, plan)
        assert np.linalg.matrix_rank(v1) == 1
        assert not check_precoder_ranks(v1, build_filters(v1))

    def test_random_channels_full_rank(self):
        plan = extension_dims(2, 3)
        h = make_channel(2, plan.N, seed=3)
        v1 = precoders(h, plan)[0]
        assert check_precoder_ranks(v1, build_filters(v1))
        assert (plan.N, plan.N_prime) == (4, 3)

    @pytest.mark.parametrize("K, n, model", [
        (2, 1, "real"), (2, 3, "complex"), (2, 10, "complex"), (3, 1, "real"),
        (3, 2, "complex"), (3, 3, "real"), (4, 1, "real"), (4, 1, "complex"),
    ])
    def test_table_matches_per_column_products(self, K, n, model):
        # reference: every column multiplied out on its own; the power table
        # must give the same bits and layout, trial by trial, in a stack of
        # one trial and in the chunk of a 1,000-trial K=3, n=2, snc, complex
        # sweep, and where the ratio table holds a 0 or an inf entry
        chunk = chunk_length(SimConfig(K=3, n=2, scheme="snc", channel_model="complex",
                                       snr_step=10.0, trials=1000))
        assert chunk == 49
        plan = extension_dims(K, n)
        tables = []
        for seed in range(chunk):
            h = make_channel(K, plan.N, seed=900 + seed, model=model)
            g = (h[:K, 1:K] / h[:K, 0][:, None]).reshape(K * (K - 1), -1)
            assert np.array_equal(channel_ratios(h, plan), g)
            tables.append(g)
        gaussian = np.stack(tables)
        zero, inf = gaussian.copy(), gaussian.copy()
        rng = np.random.default_rng([K, n])
        for stack, value in ((zero, 0.0), (inf, np.inf)):
            for t in range(0, chunk, 3):  # one entry in every third trial
                stack[t, rng.integers(K * (K - 1)), rng.integers(plan.N)] = value
        for stack in (gaussian, zero, inf):
            got = build_precoders(stack, plan)
            assert all(m.flags.c_contiguous for m in got)
            for t, g in enumerate(stack):
                single = build_precoders(g, plan)
                assert all(m.flags.c_contiguous for m in single)
                for fold in (nonzero_factor_products, all_slot_products):
                    # an exact 1 changes no real bits; a complex one can flip
                    # the sign of a zero or turn an inf into a NaN
                    if fold is all_slot_products and model == "complex" \
                            and stack is not gaussian:
                        continue
                    for m, s, ref in zip(got, single, scaled_columns(g, plan, fold)):
                        assert same_bits(m[t], ref) and same_bits(s, ref)

    def test_factor_rows_built_once_and_read_only(self):
        plan = extension_dims(3, 2)
        first, later = _factor_rows(plan)
        assert _factor_rows(extension_dims(3, 2)) is _factor_rows(plan)
        for a in (first, *(x for pair in later for x in pair)):
            with pytest.raises(ValueError):
                a[0] = 0
        # at K=3 a column takes at most one multiply at n=2, and none at n=1
        assert len(later) == 1 and _factor_rows(extension_dims(3, 1))[1] == ()

    def test_rank_monte_carlo(self):
        plan = extension_dims(2, 2)
        for seed in range(200):
            h = make_channel(2, plan.N, seed=seed)
            v1 = precoders(h, plan)[0]
            assert check_precoder_ranks(v1, build_filters(v1))


class TestAlignment:
    def test_two_user_witness_columns(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=4)
        res = verify_alignment(h, *precoders(h, plan))
        assert res.aligned
        # receiver 1: column j of V2 aligns with column j of V1
        assert res.witness[0, 1, 0] == 0 and res.witness[0, 1, 1] == 1
        # receiver 2: column j of V2 aligns with column j+1 of V1
        assert res.witness[1, 1, 0] == 1 and res.witness[1, 1, 1] == 2

    def test_k_user_alignment_holds(self):
        for K, n in [(2, 1), (2, 3), (3, 1), (3, 2)]:
            plan = extension_dims(K, n)
            h = make_channel(K, plan.N, seed=K * 10 + n)
            assert verify_alignment(h, *precoders(h, plan)).aligned

    def test_random_precoders_do_not_align(self):
        plan = extension_dims(2, 2)
        rng = np.random.default_rng(13)
        failures = 0
        for seed in range(100):
            h = make_channel(2, 3, seed=seed)
            v1, v_other = precoders(h, plan)
            if not verify_alignment(h, rng.standard_normal(v1.shape),
                                    rng.standard_normal(v_other.shape)):
                failures += 1
        assert failures == 100


class TestFilters:
    def test_inverse_property(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=6)
        p = precoders(h, plan)
        f = one_trial_filters(h, p)
        for l in range(2):
            prod = f[l] @ (h[l, 0][:, None] * p[0])
            assert np.linalg.norm(prod - np.eye(3)) < 1e-9 * np.linalg.norm(prod)

    def test_hand_computed_two_by_two(self):
        plan = extension_dims(2, 1)
        h = make_channel(2, 2, seed=7)
        p = precoders(h, plan)
        f = one_trial_filters(h, p)
        m = h[0, 0][:, None] * p[0]
        a, b = m[0]
        c, d = m[1]
        det = a * d - b * c
        inv = np.array([[d, -b], [-c, a]]) / det
        assert np.allclose(f[0], inv)

    def test_filters_absorb_global_scale(self):
        plan = extension_dims(2, 2)
        h = make_channel(2, 3, seed=8)
        p1 = precoders(h, plan)
        p2 = (p1[0] * 3, p1[1] * 3)
        f1, f2 = one_trial_filters(h, p1), one_trial_filters(h, p2)
        assert np.allclose(f2[0] * 3, f1[0])
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
        assert not rounds_to_plan(h, (p[0], p[1] * 1.5), f, eff)


class TestPlanSystem:
    """effective_system derives F from the exponents alone; every draw that
    passes the per-trial rank test must agree with it."""

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
            p = precoders(h, plan)
            if not check_precoder_ranks(p[0], build_filters(p[0])):
                continue
            kept += 1
            assert verify_alignment(h, *p), seed
            assert rounds_to_plan(h, p, one_trial_filters(h, p), eff), seed
        assert kept >= 40

    def test_mimo_kept_draws_align_and_round_to_plan(self):
        M = 3  # the (2, 1) x (2, 1) antenna topology's virtual users
        plan = extension_dims(M, 1)
        eff = effective_system(plan)
        rng = np.random.default_rng(21)
        for _ in range(200):
            [h] = sample_extended_channel(M, plan.N, "complex", [rng])
            p = precoders(h, plan)
            if not check_precoder_ranks(p[0], build_filters(p[0])):
                continue
            assert verify_alignment(h, *p)
            assert rounds_to_plan(h, p, one_trial_filters(h, p), eff)

    def test_full_gf2_rank_for_small_extensions(self):
        # every K <= 4 whose extension has N <= 400 slots: F keeps every
        # stream at some receiver and has full column rank over GF(2)
        plans = 0
        for K in (2, 3, 4):
            n = 1
            while math.comb(n + K * (K - 1) - 1, n) <= 400:
                plan = extension_dims(K, n)
                f = _plan_matrix(plan)
                assert f.any(axis=0).all(), (K, n)
                assert gf2_rank(f) == plan.total_streams, (K, n)
                plans += 1
                n += 1
        assert plans == 399 + 5 + 3

    def test_stored_arrays_agree_with_f(self):
        for K, n in [(2, 1), (2, 2), (2, 10), (3, 1), (3, 2), (4, 1)]:
            plan = extension_dims(K, n)
            eff = effective_system(plan)
            total, rows = plan.total_streams, eff.indep_rows
            assert gf2_rank(eff.f_int) == len(rows) == total
            # message masks: the GF(2) inverse of F[indep_rows], at indep_rows
            bits = unpack_bits(eff.masks, len(eff.f_int))
            assert eff.masks.shape == (len(eff.f_int), -(-len(eff.f_int) // 64))
            inv = gf_inv(eff.f_int[rows], PrimeField(2))
            assert np.array_equal(bits[:total, rows], inv)
            assert np.array_equal((inv @ eff.f_int[rows]) % 2,
                                  np.eye(total, dtype=np.int64))
            assert np.count_nonzero(bits[:total]) == np.count_nonzero(inv)
            # check masks: one per redundant row r, bit r plus the
            # independent rows predicting it, zero parity on every codeword
            redundant = np.setdiff1d(np.arange(len(eff.f_int)), rows)
            assert np.array_equal(bits[total:, redundant],
                                  np.eye(len(redundant), dtype=np.uint8))
            assert np.array_equal(bits[total:, rows], (eff.f_int[redundant] @ inv) % 2)
            assert not np.any((bits[total:].astype(np.int64) @ eff.f_int) % 2)
            assert np.array_equal(eff.weights.ravel(), eff.f_int.sum(axis=1))
            # every stream has one link per receiver, row l of the link
            # table in receiver l's block, and the links are the nonzero
            # entries of F
            assert eff.links.shape == (K, total)
            assert np.array_equal(eff.links // plan.N,
                                  np.repeat(np.arange(K)[:, None], total, axis=1))
            assert np.all(eff.f_int[eff.links, np.arange(total)] == 1)
            assert np.array_equal(eff.f_int.sum(axis=0), np.full(total, K))
            assert np.array_equal(eff.f_t, eff.f_int.T)

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


class TestRankTestSuffices:
    """V_1's rank test is the only check a draw must pass: on every draw it
    keeps, the one inverse w of V_1 has a residual bounded through
    cond(V_1), and a noiseless pass recovers the network-coded bits."""

    @pytest.mark.parametrize("K, n, model, draws", [
        (2, 2, "real", 2000), (3, 1, "real", 2000), (3, 2, "complex", 500),
        (2, 3, "complex", 2000), (2, 5, "real", 2000), (2, 10, "complex", 2000),
    ])
    def test_kept_draws_invert_and_demodulate_exactly(self, K, n, model, draws):
        plan = extension_dims(K, n)
        eff = effective_system(plan)
        rngs = [np.random.default_rng(np.random.SeedSequence([1500, s]))
                for s in range(draws)]
        h = sample_extended_channel(K, plan.N, model, rngs)
        v1, v_other = precoders(h, plan)
        kept = check_precoder_ranks(v1, build_filters(v1))
        assert np.count_nonzero(kept) >= draws // 10
        h, v1, v_other = h[kept], v1[kept], v_other[kept]
        w = build_filters(v1)
        # max|w V_1 - I| <= N eps cond(V_1) (Higham, Accuracy and Stability
        # of Numerical Algorithms, ch. 14)
        residual = np.max(np.abs(w @ v1 - np.eye(plan.N)), axis=(-2, -1))
        assert np.all(residual <= plan.N * np.finfo(float).eps * np.linalg.cond(v1))
        msgs = np.random.default_rng(1501).integers(0, 2, size=(len(h), plan.total_streams))
        s = modulate_bpsk(msgs)
        zero = np.zeros((len(h), K, plan.N))
        y = transmit(h, v1, v_other, split_by_transmitter(s, plan), zero)
        bits = einsum_demodulate(y, explicit_filters(h, w), eff)
        assert np.array_equal(bits, msgs @ eff.f_int.T % 2)
        words = filter_and_demodulate(s, zero, h, w, [1.0], eff)
        assert np.array_equal(words[:, 0], pack_bits(bits))


def graded_stack(n, dtype, seed):
    """Matrices U diag(s) V^H (real or complex, n x n) whose condition
    number straddles 1 / RANK_SV_RTOL: s_1 = 1 and s_n = RANK_SV_RTOL
    (1 +- 10^-k) for k = 0..8, the others either all 1 (the Frobenius
    bound near sqrt(n - 1) cond), all sqrt(s_n) (near cond) or half 1 and
    half s_n (near n cond / 2), with random unitary U and V.  Each comes
    with a row-scaled twin, the rows of diag(s) V^H in reverse order: its
    row norms are s and its inverse's column norms 1 / s, so its kappa_lo
    equals its cond, and with its smallest row first the SVD rounds s_n
    by about eps s_1, as for U diag(s) V^H.  At k = 7 and 8 the gap to the
    threshold is within the rounding of w and of the SVD, so only
    RANK_MARGIN keeps the bounds from contradicting the SVD."""
    rng = np.random.default_rng(seed)

    def unitary():
        a = rng.standard_normal((n, n))
        if dtype == complex:
            a = a + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(a)[0]

    out = []
    for k, sign, profile in itertools.product(range(9), (1, -1), range(3)):
        small = RANK_SV_RTOL * (1 + sign * 10.0 ** -k)
        middle = (1.0, math.sqrt(small), small)[profile]
        s = np.array([1.0] + [middle] * (n - 2) + [small])
        if profile == 2:
            s[1:] = np.where(np.arange(1, n) < n // 2, 1.0, small)
        out.append((unitary() * s) @ unitary().conj().T)
        out.append(s[::-1, None] * unitary().conj().T)
    return np.stack(out)


def svd_verdicts(monkeypatch, v1):
    """check_precoder_ranks on the stack *v1*, asserted equal to V_1's SVD
    rank test on every matrix, and the mask of the matrices that an
    np.linalg.svd spy saw, that is the draws the SVD had to decide."""
    full = np.linalg.matrix_rank(v1, rtol=RANK_SV_RTOL) == v1.shape[-1]
    w = build_filters(v1)
    seen = set()
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.update(m.tobytes() for m in a.reshape(-1, *a.shape[-2:]))
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", spy)
        passed = check_precoder_ranks(v1, w)
    assert np.array_equal(passed, full)
    return passed, np.array([m.tobytes() in seen for m in v1])


class TestConditioningCheck:
    """V_1's rank test is the whole check a draw must pass, and its verdict
    is the SVD's: the norm bounds of V_1 and of build_filters' inverse
    settle most draws and the SVD the rest.  V_other needs no check of its
    own, since diag(g_s) V_other = V_1 P_s gives it full rank wherever V_1
    has it."""

    @pytest.mark.parametrize("n", [3, 6, 11, 21])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_graded_stacks_take_the_svd_verdict(self, monkeypatch, n, dtype):
        v1 = np.concatenate([graded_stack(n, dtype, seed) for seed in range(4)])
        passed, by_svd = svd_verdicts(monkeypatch, v1)
        # both certified regions and the open band between them are used
        assert np.any(passed & ~by_svd) and np.any(~passed & ~by_svd)
        assert np.any(by_svd)

    @pytest.mark.parametrize("K, n, model, draws", [
        (2, 2, "real", 2000), (3, 1, "real", 2000), (3, 2, "complex", 500),
        (2, 3, "complex", 2000), (2, 5, "real", 2000), (2, 10, "complex", 2000),
    ])
    def test_first_draws_take_the_svd_verdict(self, monkeypatch, K, n, model, draws):
        plan = extension_dims(K, n)
        rngs = [np.random.default_rng(np.random.SeedSequence([11, K, n, i]))
                for i in range(draws)]
        v1, _ = precoders(sample_extended_channel(K, plan.N, model, rngs), plan)
        passed, by_svd = svd_verdicts(monkeypatch, v1)
        # the bounds settle almost every draw, both ways where draws fail
        assert np.count_nonzero(by_svd) <= 0.01 * draws
        assert np.any(passed & ~by_svd)
        assert np.all(passed) or np.any(~passed & ~by_svd)

    @pytest.mark.parametrize("K, n, model, draws", [
        (2, 2, "real", 2000), (3, 1, "real", 2000), (3, 2, "complex", 500),
        (2, 3, "complex", 2000), (2, 5, "real", 2000), (2, 10, "complex", 2000),
        (2, 8, "complex", 2000), (2, 20, "complex", 2000),
        # the 4 virtual users of the (2, 2) x (2, 2) antenna topology
        (4, 1, "real", 1000),
    ])
    def test_ratio_bound_rejects_only_rank_deficient_draws(self, K, n, model, draws):
        plan = extension_dims(K, n)
        rngs = [np.random.default_rng(np.random.SeedSequence([11, K, n, i]))
                for i in range(draws)]
        h = sample_extended_channel(K, plan.N, model, rngs)
        g = channel_ratios(h, plan)
        rejected = ratio_bound_rejects(g, plan)
        v1, _ = build_precoders(g[rejected], plan)
        assert np.all(np.linalg.matrix_rank(v1, rtol=RANK_SV_RTOL) < plan.N)
        if (K, n, model) == (2, 10, "complex"):
            assert np.count_nonzero(rejected) >= 0.5 * draws
        # a common scale of the channel leaves the ratios, and the verdicts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e150, 1e-150, 1e300, 1e-300):
                scaled = ratio_bound_rejects(channel_ratios(h * scale, plan), plan)
                assert np.array_equal(scaled, rejected), scale

    def test_ratio_bound_rejects_zero_inf_and_nan_silently(self):
        plan = extension_dims(2, 10)
        g = np.ones((6, 2, plan.N), dtype=complex)
        g[1, :, 3] = 0  # row 3 of V_1 is zero
        g[2, 0, 5] = np.inf
        g[3, 1, 0] = np.nan
        g[4] = np.inf
        g[5] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rejected = ratio_bound_rejects(g, plan)
        # equal magnitudes leave the draw open, whatever its rank
        assert rejected.tolist() == [False, True, True, True, True, True]

    @pytest.mark.parametrize("K, n, model", [(2, 2, "real"), (3, 1, "complex")])
    def test_exactly_singular_trial_is_rejected_alone(self, K, n, model):
        plan = extension_dims(K, n)
        h = np.stack([make_channel(K, plan.N, seed=950 + s, model=model) for s in range(6)])
        v1, _ = precoders(h, plan)
        v1[2, :, 0] = 0  # no RuntimeWarning either: pytest makes them errors
        w = build_filters(v1)
        passed = check_precoder_ranks(v1, w)
        assert not passed[2]
        rest = np.delete(v1, 2, axis=0)
        w_rest = build_filters(rest)
        assert np.array_equal(np.delete(passed, 2), check_precoder_ranks(rest, w_rest))
        assert np.array_equal(np.delete(w, 2, axis=0), w_rest)
        assert np.all(np.delete(passed, 2))

    @pytest.mark.parametrize("tiny", [1e-200, 1e-320])
    def test_overflowing_inverse_is_rejected_silently(self, tiny):
        # ||w||_F^2 overflows to inf at 1e-200; at 1e-320 LAPACK's w holds
        # inf and NaN
        v1 = np.stack([np.eye(3), np.diag([1.0, 1.0, tiny]), np.diag([1.0, 0.5, 0.25])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            passed = check_precoder_ranks(v1, build_filters(v1))
        assert passed.tolist() == [True, False, True]

    def test_zero_inf_and_nan_precoders_are_rejected_silently(self):
        # a zero row, an inf or NaN entry and an all-inf V_1 give a NaN w or
        # norm products of inf or NaN, which fail without a warning
        v1 = np.stack([np.eye(3)] * 4 + [np.diag([1.0, 0.5, 0.25])]).astype(complex)
        v1[0, 2] = 0
        v1[1, 1, 2] = np.inf
        v1[2, 0, 0] = np.nan
        v1[3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            passed = check_precoder_ranks(v1, build_filters(v1))
        assert passed.tolist() == [False, False, False, False, True]

    def test_passed_equals_two_svd_reference(self):
        # the stack of test_stacked_precoders_and_ranks_equal_one_trial_calls
        plan = extension_dims(2, 10)
        h = np.stack([make_channel(2, plan.N, seed=700 + s) for s in range(24)])
        v1, v_other = precoders(h, plan)
        passed = check_precoder_ranks(v1, build_filters(v1))
        full, other_full = (np.linalg.matrix_rank(m, rtol=RANK_SV_RTOL) == m.shape[-1]
                      for m in (v1, v_other))
        # the mask is V_1's numerical rank from its SVD, and the SVD of
        # V_other rejects no draw that V_1's keeps
        assert np.array_equal(passed, full)
        assert np.array_equal(passed, full & other_full)
        assert 0 < np.count_nonzero(passed) < len(passed)


class TestTrialStack:
    """Every layer that takes a stack of T trials gives each trial the bits
    of a stack holding that trial alone."""

    def test_stacked_precoders_and_ranks_equal_one_trial_calls(self):
        # K=2, n=10 draws often lose rank; each trial's numbers are those
        # of its own one-trial call
        plan = extension_dims(2, 10)
        hs = [make_channel(2, plan.N, seed=700 + s) for s in range(24)]
        g = channel_ratios(np.stack(hs), plan)
        rejected = ratio_bound_rejects(g, plan)
        v1, v_other = build_precoders(g, plan)
        passed = check_precoder_ranks(v1, build_filters(v1))
        for t, h in enumerate(hs):
            g_t = channel_ratios(h, plan)
            assert np.array_equal(g_t, g[t])
            assert ratio_bound_rejects(g_t, plan) == rejected[t]
            v1_t, v_other_t = build_precoders(g_t, plan)
            assert np.array_equal(v1_t, v1[t]) and np.array_equal(v_other_t, v_other[t])
            assert check_precoder_ranks(v1_t, build_filters(v1_t)) == passed[t]
        assert 0 < np.count_nonzero(passed) < len(hs)
        assert np.any(rejected) and np.any(~rejected & ~passed)

    def test_stacked_filters_equal_one_trial_calls(self):
        plan = extension_dims(2, 2)
        v1s = [precoders(make_channel(2, plan.N, seed=800 + t), plan)[0]
               for t in range(6)]
        w = build_filters(np.stack(v1s))
        assert w.shape == (6, 3, 3)
        for v1_t, w_t in zip(v1s, w):
            assert np.array_equal(build_filters(v1_t), w_t)
            assert np.array_equal(build_filters(v1_t[None]), w_t[None])

    @pytest.mark.parametrize("K, n, model", [
        (2, 2, "real"), (3, 1, "complex"), (2, 10, "complex"),
    ])
    def test_stacked_gains_and_sum_rates_equal_stacks_of_one(self, K, n, model):
        plan = extension_dims(K, n)
        eff = effective_system(plan)
        h = np.stack([make_channel(K, plan.N, seed=600 + s, model=model) for s in range(40)])
        v1, v_other = precoders(h, plan)
        ranked = check_precoder_ranks(v1, build_filters(v1))
        h, v1, v_other = h[ranked], v1[ranked], v_other[ranked]
        w = build_filters(v1)
        assert len(w) >= 4
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 61, 10)]
        sigma2 = [1.0 / rho for rho in rhos]
        gains = stream_gains(h, v1, v_other, w, eff)
        per_signal = per_link_rates(gains, sigma2)
        assert per_signal.shape == (len(w), len(rhos), plan.total_streams)
        for caps in (cooperation_caps(rhos), np.inf):
            sums = end_to_end_sum_rate(per_signal, caps)
            assert sums.shape == (len(w), len(rhos))
            for t in range(len(w)):
                one = slice(t, t + 1)
                gains1 = stream_gains(h[one], v1[one], v_other[one], w[one], eff)
                assert np.array_equal(gains1, gains[one])
                per_signal1 = per_link_rates(gains1, sigma2)
                assert np.array_equal(per_signal1, per_signal[one])
                sums1 = end_to_end_sum_rate(per_signal1, caps)
                assert np.array_equal(sums1, sums[one])

    @pytest.mark.parametrize("K, q, cap_enabled", [(2, 2, True), (3, 3, False)])
    def test_stacked_cf_rates_equal_stacks_of_one(self, K, q, cap_enabled):
        h = np.stack([make_channel(K, 4, seed=650 + s, model="real") for s in range(12)])
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 61, 10)]
        caps = cooperation_caps(rhos) if cap_enabled else np.inf
        totals, outages = cf_trial_sum_rate(h, rhos, q, 2, caps)
        assert totals.shape == outages.shape == (len(h), len(rhos))
        assert 0 < np.count_nonzero(outages) < outages.size  # both paths ran
        for t in range(len(h)):
            totals1, outages1 = cf_trial_sum_rate(h[t:t + 1], rhos, q, 2, caps)
            assert np.array_equal(totals1, totals[t:t + 1])
            assert np.array_equal(outages1, outages[t:t + 1])


class TestUsableChannels:
    @pytest.mark.parametrize("n, model, trials", [(10, "complex", 48), (6, "real", 40)])
    def test_redraws_pending_trials_and_keeps_their_last_draw(self, n, model, trials):
        # outputs alone cannot say which trial was redrawn, so a counting
        # redraw checks every call against the trials' own draws: the
        # trials whose last draw fails draw again, in ascending order, at
        # most MAX_RESAMPLES times each
        plan = extension_dims(2, n)
        rngs = trial_generators(n, range(trials))
        last = sample_extended_channel(2, plan.N, model, rngs)  # each trial's latest draw
        resamples = np.zeros(trials, dtype=int)

        def fails(t):
            return not draw_round(last[t:t + 1], plan)[0][0]

        def redraw(pending):
            assert pending.tolist() == [t for t in range(trials)
                                        if fails(t) and resamples[t] < MAX_RESAMPLES]
            draws = sample_extended_channel(2, plan.N, model, [rngs[t] for t in pending])
            last[pending] = draws
            resamples[pending] += 1
            return draws

        h, v1, v_other, w, kept = usable_channels(last.copy(), plan, redraw)
        assert resamples.max() == MAX_RESAMPLES
        assert kept.tolist() == [not fails(t) for t in range(trials)]
        # some trials kept their first draw, some a redraw, and some abort
        redrawn = resamples[kept] > 0
        assert redrawn.any() and (~redrawn).any() and not kept.all()
        # a kept trial's arrays are those of its final draw alone, in index order
        assert same_bits(h, last[kept])
        alone = [draw_round(last[t:t + 1], plan)[1:] for t in np.flatnonzero(kept)]
        for got, want in zip((v1, v_other, w), zip(*alone)):
            assert same_bits(got, np.concatenate(want))


class TestRecovery:
    def test_noiseless_round_trip_random_vectors(self):
        rng = np.random.default_rng(12)
        for K, n in [(2, 1), (2, 2), (3, 1)]:
            plan, h, p, f, eff = build_all(K, n, seed=20 + K + n)
            for _ in range(50):
                b = rng.integers(0, 2, size=plan.total_streams)
                fwd = (eff.f_int @ b) % 2
                x, detected = cp_recover(eff, pack_bits(fwd))
                assert not detected
                assert np.array_equal(x, b)

    def test_exhaustive_round_trip_k2_n1(self):
        plan, h, p, f, eff = build_all(2, 1, seed=14)
        for b in itertools.product((0, 1), repeat=3):
            b = np.array(b)
            x, _ = cp_recover(eff, pack_bits((eff.f_int @ b) % 2))
            assert np.array_equal(x, b)

    def test_zero_message_gives_zero(self):
        plan, h, p, f, eff = build_all(2, 2, seed=15)
        x, _ = cp_recover(eff, pack_bits(np.zeros(6, dtype=int)))
        assert x.shape == (plan.total_streams,) and np.all(x == 0)

    def test_corrupted_redundant_row_detected(self):
        plan, h, p, f, eff = build_all(2, 2, seed=16)
        b = np.array([1, 1, 0, 1, 0])
        fwd = (eff.f_int @ b) % 2
        fwd[-1] ^= 1  # flip a redundant equation
        _, detected = cp_recover(eff, pack_bits(fwd))
        assert detected

    @pytest.mark.parametrize("n_bits", [1, 6, 63, 64, 65, 82, 168, 312])
    def test_pack_bits_round_trips(self, n_bits):
        bits = np.random.default_rng(n_bits).integers(0, 2, size=(3, 4, n_bits))
        words = pack_bits(bits)
        assert words.dtype == np.uint64 and words.shape == (3, 4, -(-n_bits // 64))
        assert np.array_equal(unpack_bits(words, n_bits), bits)
        # nothing beyond bit n_bits - 1 is set
        assert np.array_equal(np.bitwise_count(words).sum(axis=-1), bits.sum(axis=-1))

    # (2, 40), (3, 3) and (4, 2) span 2, 3 and 5 words (K N = 82, 168, 312)
    @pytest.mark.parametrize("K, n", [(2, 1), (2, 2), (2, 10), (2, 40), (3, 1),
                                      (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_packed_recovery_equals_reference(self, K, n):
        # random codewords, and codewords with one to three flipped bits,
        # in a (2, 30) stack: x and detected equal the int64 reference, and
        # detected holds exactly on the words that are not codewords
        plan = extension_dims(K, n)
        eff = effective_system(plan)
        rows, total = len(eff.f_int), plan.total_streams
        rng = np.random.default_rng([1900, K, n])
        msgs = rng.integers(0, 2, size=(2, 30, total))
        errors = np.zeros((2, 30, rows), dtype=np.int64)
        for e in errors[1]:
            e[rng.choice(rows, size=rng.integers(1, 4), replace=False)] = 1
        fwd = (msgs @ eff.f_int.T + errors) % 2
        x, detected = cp_recover(eff, pack_bits(fwd))
        ref_x, ref_detected = reference_cp_recover(eff, fwd)
        assert x.shape == ref_x.shape == (2, 30, total)
        assert np.array_equal(x, ref_x) and np.array_equal(detected, ref_detected)
        assert np.array_equal(x[0], msgs[0]) and not detected[0].any()
        codeword = [gf2_rank(np.column_stack([eff.f_int, e])) == total
                    for e in errors[1]]
        assert detected[1].tolist() == [not c for c in codeword]
        assert detected[1].any()


class TestVandermondeIdentity:
    def test_determinant_product_formula(self):
        # det(G12^-n V1) equals the pairwise-difference product of the
        # per-slot ratios (checked on the unscaled precoder)
        for n in (1, 2, 3, 4):
            plan = extension_dims(2, n)
            for seed in range(25):
                h = make_channel(2, plan.N, seed=1000 * n + seed)
                alpha = h[0, 1] / h[0, 0]
                beta = h[1, 1] / h[1, 0]
                v1 = precoders(h, plan)[0]
                v1 = v1 * (alpha[0] ** n / v1[0, 0])  # column 0 is alpha^n, unscaled
                lhs = np.linalg.det(np.diag(alpha**-n) @ v1)
                r = beta / alpha
                rhs = np.prod([r[j] - r[i]
                               for i in range(n + 1) for j in range(i + 1, n + 1)])
                assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


class TestTheoreticalDof:
    # transmitter 1 has DoF 1 and every other N' / N, so the total DoF per
    # channel use is total_streams / N
    def test_two_user_worked_example(self):
        plan = extension_dims(2, 2)
        assert plan.N_prime / plan.N == 2 / 3
        assert plan.total_streams / plan.N == pytest.approx(5 / 3)
        assert plan.total_streams == 5

    def test_limit_approaches_user_count(self):
        plan = extension_dims(2, 1000)
        assert abs(plan.total_streams / plan.N - 2.0) < 0.002

    def test_three_user(self):
        plan = extension_dims(3, 1)
        assert plan.total_streams / plan.N == pytest.approx(8 / 6)
        assert plan.total_streams == 8
