import itertools
import math

import numpy as np
import pytest

from sncsim import cf_baseline
from sncsim.cf_baseline import cf_select_coeffs, cf_trial_sum_rate
from sncsim.channel import sample_extended_channel
from sncsim.gf import PrimeField, gf_rank


def real_channel(K, N, seed):
    return sample_extended_channel(K, N, "real", [np.random.default_rng(seed)])[0]


def channel_from_rows(rows):
    """One-slot K x K channel whose receiver l sees rows[l]."""
    return np.array(rows, dtype=float)[:, :, None]


def cf_computation_rate(h_row, a, rho: float) -> float:
    """The per-row reference: the computation rate for equation
    coefficients *a* on channel row *h*,

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


def per_point_oracle(h, rho, field, radius, cap_enabled):
    """One SNR point slot by slot, from the per-row reference functions."""
    K, N = h.shape[-2:]
    total, outages = 0.0, 0
    for i in range(N):
        rows = [np.array([h[l, k][i] for k in range(K)]) for l in range(K)]
        coeffs = [cf_select_coeffs(r, rho, radius) for r in rows]
        if gf_rank(np.vstack(coeffs), field) < K:
            outages += 1
            continue
        r_min = min(cf_computation_rate(rows[l], coeffs[l], rho) for l in range(K))
        if cap_enabled:
            r_min = min(r_min, math.log2(1.0 + rho))
        total += K * r_min
    return total, outages / N


def allocating_trial_sum_rate(h, rhos, field, radius=3, cap_enabled=True):
    """cf_trial_sum_rate as the exhaustive search at every point, written
    with a new array for every operation: the operations of the rate
    function in the same order, so the two must agree bit for bit."""
    K, N = h.shape[-2:]
    cand, norm2 = cf_baseline._candidates(K, radius)
    H = np.moveaxis(h, -1, -3)
    proj = sum(H[..., k, None] * cand[:, k] for k in range(K)) ** 2
    hh = np.sum(H * H, axis=-1)[..., None]
    slot_rates, picks = [], []
    for rho in rhos:
        denom = np.maximum(norm2 - rho * proj / (1.0 + rho * hh), np.finfo(float).tiny)
        rates = np.maximum(0.0, 0.5 * np.log2(1.0 / denom))
        picks.append(np.argmax(rates, axis=-1))
        r = rates.max(axis=-1).min(axis=-1)
        slot_rates.append(np.minimum(r, math.log2(1.0 + rho)) if cap_enabled else r)
    slot_rates = np.stack(slot_rates, axis=-2)
    mats, index = np.unique(cand[np.stack(picks, axis=-3)].reshape(-1, K, K), axis=0,
                            return_inverse=True)
    full = np.array([gf_rank(m, field) == K for m in mats])[index]
    full = full.reshape(slot_rates.shape)
    totals = np.sum(np.where(full, K * slot_rates, 0.0), axis=-1)
    return totals, np.count_nonzero(~full, axis=-1) / N


def largest_radius(K):
    """The largest coefficient search radius SimConfig admits at K users."""
    r = 1
    while cf_baseline.search_grid_size(K, r + 1) <= cf_baseline.MAX_SEARCH_GRID:
        r += 1
    return r


def leibniz_det(m) -> int:
    """The determinant of the integer matrix m, in Python integers."""
    K = len(m)
    total = 0
    for perm in itertools.permutations(range(K)):
        inversions = sum(perm[i] > perm[j] for i in range(K) for j in range(i + 1, K))
        total += (-1) ** inversions * math.prod(int(m[i][perm[i]]) for i in range(K))
    return total


def sylvester_hadamard(K):
    """Sylvester's K x K Hadamard matrix, K a power of two."""
    hadamard = np.ones((1, 1), dtype=np.int64)
    while len(hadamard) < K:
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    return hadamard


def stress_channels(K, seed, T=5, N=3):
    """Gaussian (T, K, K, N) channels, the same with every channel row
    scaled by 10^U(-8, 8), and half-integer ones, whose rows tie exactly
    and hold zeros."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((T, K, K, N))
    return [g, g * 10.0 ** rng.uniform(-8, 8, (T, K, 1, N)),
            rng.integers(-4, 5, (T, K, K, N)) / 2.0]


def singular_mod(q, stack):
    """A copy of the integer stack (..., K, K), entries within the largest
    radius r at K, made singular mod q but mostly not over the integers:
    at K = 1 each entry is rounded toward zero to a multiple of q; above,
    the second row becomes the first shifted by q toward zero, which
    q <= r keeps within the radius."""
    stack = stack.copy()
    K = stack.shape[-1]
    if K == 1:
        stack -= np.sign(stack) * (np.abs(stack) % q)
    else:
        stack[:, 1] = stack[:, 0] - q * np.where(stack[:, 0] > 0, 1, -1)
    assert np.abs(stack).max() <= largest_radius(K)
    return stack


class TestFullRankBatch:
    """The outage rule of the CF leg, det A mod q != 0 with det A exact
    (the closed forms at K <= 3, rint of LAPACK's above), against the rank
    of A over GF(q)."""

    @staticmethod
    def check(stack, field):
        # the search hands its picks over as floats
        got = cf_baseline._integer_det(stack.astype(float)) % field.q != 0
        assert got.tolist() == [gf_rank(m, field) == len(m) for m in stack]
        return got

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_matches_gf_rank(self, K, q):
        field = PrimeField(q)
        r = largest_radius(K)
        rng = np.random.default_rng(100 * K + q)
        random = rng.integers(-r, r + 1, size=(200, K, K))
        # deliberately singular: a row equal to another mod q but not over
        # the integers (at K = 1, a multiple of q), and a repeated row
        singular = [singular_mod(q, random[50:100])]
        if K > 1:
            repeated = random[:50].copy()
            repeated[:, K - 1] = repeated[:, 0]
            singular.append(repeated)
        got = self.check(np.concatenate([random, *singular]), field)
        assert not got[200:].any()
        assert 0 < got[:200].sum() < 200  # both outcomes occur

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_closed_form_determinant_is_exact(self, K):
        # the largest radius SimConfig admits gives the largest products
        r = largest_radius(K)
        rng = np.random.default_rng(30 + K)
        random = rng.integers(-r, r + 1, size=(300, K, K))
        stacks = [random, r * rng.choice([-1, 1], size=(100, K, K))]
        if K & (K - 1) == 0:  # Sylvester's Hadamard matrix meets Hadamard's bound
            stacks.append(r * sylvester_hadamard(K)[None])
        singular = {q: singular_mod(q, random[:50]) for q in (2, 3, 5, 7)}
        stack = np.concatenate([*stacks, *singular.values()])
        want = [leibniz_det(m) for m in stack]
        assert cf_baseline._integer_det(stack.astype(float)).tolist() == want
        assert max(abs(d) for d in want) >= r ** K
        for q, m in singular.items():  # singular mod q, but not over the integers
            dets = [leibniz_det(a) for a in m]
            assert all(d % q == 0 for d in dets) and any(dets)
            assert not (cf_baseline._integer_det(m.astype(float)) % q != 0).any()

    @pytest.mark.parametrize("K", range(1, 11))
    def test_exact_at_the_largest_radius(self, K):
        r = largest_radius(K)
        rng = np.random.default_rng(K)
        stacks = [r * rng.choice([-1, 1], size=(40, K, K)),
                  rng.integers(-r, r + 1, size=(40, K, K))]
        if K & (K - 1) == 0:  # Sylvester's Hadamard matrix meets Hadamard's bound
            stacks.append(r * sylvester_hadamard(K)[None])
        stack = np.concatenate(stacks)
        det = np.linalg.det(stack.astype(float))
        assert np.abs(det).max() <= 1.0e5
        assert np.all(np.abs(det - np.rint(det)) < 1e-5)
        for q in (2, 3, 5, 7, 2**31 - 1):
            self.check(stack, PrimeField(q))

    def test_identity_and_large_field(self):
        # small entries keep |det A| below the large fields, where only
        # det A = 0 is singular
        for q in (2, 2147483647, 4294967311):
            stack = np.array([np.eye(3, dtype=np.int64),
                              [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
                              [[-1, 1, 0], [1, -1, 5], [7, 0, -2]],
                              [[2, 0, 0], [0, 1, 0], [0, 0, 1]]])
            got = self.check(stack, PrimeField(q))
            assert got.tolist() == [True, False, True, q != 2]


class TestComputationRate:
    def test_direct_evaluation(self):
        # ||a||^2 = 2, (h.a)^2 = 4, ||h||^2 = 2, rho = 1:
        # denom = 2 - 4/3 = 2/3 -> R = 0.5 log2(3/2)
        r = cf_computation_rate([1.0, 1.0], [1, 1], rho=1.0)
        assert r == pytest.approx(0.5 * math.log2(1.5), rel=1e-12)

    def test_mismatched_coefficients_clamp_to_zero(self):
        assert cf_computation_rate([1.0, 0.0], [0, 1], rho=1e6) == 0.0

    def test_asymptotic_growth(self):
        rho = 1e6
        r = cf_computation_rate([1.0, 0.0], [1, 0], rho)
        assert r == pytest.approx(0.5 * math.log2(1 + rho), rel=1e-3)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = rng.standard_normal(3)
            a = rng.integers(-3, 4, size=3)
            if not np.any(a):
                continue
            for rho in (1.0, 100.0):
                assert cf_computation_rate(h, a, rho) == pytest.approx(
                    cf_computation_rate(h, -a, rho))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cf_computation_rate([1.0, 1.0], [0, 0], 1.0)


class TestCoefficientSelection:
    def test_matched_channel_picks_all_ones(self):
        a = cf_select_coeffs([1.0, 1.0], rho=1e4, radius=3)
        assert list(a) == [1, 1]

    def test_single_dominant_coefficient(self):
        assert list(cf_select_coeffs([1.0, 0.0], rho=100.0)) == [1, 0]

    def test_never_all_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = cf_select_coeffs(rng.standard_normal(2), rho=10.0)
            assert np.any(a)

    def test_beats_every_candidate(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = rng.standard_normal(2)
            rho = float(rng.uniform(1, 1000))
            best = cf_select_coeffs(h, rho, radius=2)
            r_best = cf_computation_rate(h, best, rho)
            for a0 in range(-2, 3):
                for a1 in range(-2, 3):
                    if a0 == a1 == 0:
                        continue
                    assert cf_computation_rate(h, [a0, a1], rho) <= r_best + 1e-12

    def test_radius_saturation(self):
        # radius 3 almost always matches a radius-4 re-search at moderate
        # SNR (the optimal coefficient magnitude grows with SNR, so the
        # bound is checked in the 0-15 dB regime)
        rng = np.random.default_rng(3)
        agree = 0
        trials = 200
        for _ in range(trials):
            h = rng.standard_normal(2)
            rho = 10 ** rng.uniform(0, 1.5)
            r3 = cf_computation_rate(h, cf_select_coeffs(h, rho, 3), rho)
            r4 = cf_computation_rate(h, cf_select_coeffs(h, rho, 4), rho)
            if abs(r3 - r4) < 1e-9:
                agree += 1
        assert agree >= 0.99 * trials

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            cf_select_coeffs([1.0], 1.0, radius=0)


class TestTrialSumRate:
    def test_single_user_never_rank_deficient(self):
        h = real_channel(1, 4, seed=0)
        rho = 100.0
        cap = math.log2(1 + rho)
        [total], [outage] = cf_trial_sum_rate(h, [rho], 2)
        assert outage == 0.0
        expected = sum(
            min(cf_computation_rate([h[0, 0][i]],
                                    cf_select_coeffs([h[0, 0][i]], rho), rho), cap)
            for i in range(4))
        assert total == pytest.approx(expected)

    def test_identical_receivers_force_outage(self):
        # both receivers see the same channel row -> same coefficients ->
        # rank-deficient stack, slot contributes nothing
        h = channel_from_rows([[1.3, 0.7], [1.3, 0.7]])
        [total], [outage] = cf_trial_sum_rate(h, rhos=[100.0], q=2)
        assert total == 0.0
        assert outage == 1.0

    def test_outage_iff_determinant_vanishes_mod_q(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            h = real_channel(2, 1, seed=seed)
            rho = 10 ** rng.uniform(1, 4)
            rows = [np.array([h[l, k][0] for k in range(2)]) for l in range(2)]
            A = np.vstack([cf_select_coeffs(r, rho) for r in rows])
            [total], [outage] = cf_trial_sum_rate(h, [rho], 2, cap_enabled=False)
            det_zero = int(round(np.linalg.det(A))) % 2 == 0
            assert (outage == 1.0) == det_zero
            assert (total == 0.0) == det_zero

    @pytest.mark.parametrize("cap_enabled", [True, False])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("K", [2, 3])
    def test_grid_matches_per_point_oracle(self, K, q, radius, cap_enabled):
        # outages are decided exactly; rates differ only in float rounding
        field = PrimeField(q)
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 61, 10)]
        for seed in range(4):
            h = real_channel(K, 3, seed=100 * K + seed)
            totals, outages = cf_trial_sum_rate(h, rhos, field.q, radius, cap_enabled)
            assert totals.shape == outages.shape == (len(rhos),)
            for rho, total, outage in zip(rhos, totals, outages):
                exp_total, exp_outage = per_point_oracle(h, rho, field, radius, cap_enabled)
                assert outage == exp_outage
                assert total == pytest.approx(exp_total, rel=1e-9, abs=0.0)

    def test_tie_selects_like_cf_select_coeffs(self):
        # at rho = 0.5 the row [1, 1] rates [1, 0] and [0, 1] equally; the
        # search must keep the first in candidate order, [1, 0], or the
        # stack with receiver 1's [0, 1] would turn singular
        rows = [[1.0, 1.0], [0.1, 2.0]]
        rho = 0.5
        assert list(cf_select_coeffs(rows[0], rho)) == [1, 0]
        assert list(cf_select_coeffs(rows[1], rho)) == [0, 1]
        [total], [outage] = cf_trial_sum_rate(channel_from_rows(rows), [rho], 2)
        expected = per_point_oracle(channel_from_rows(rows), rho, PrimeField(2), 3, True)
        assert outage == expected[1] == 0.0
        assert total == pytest.approx(expected[0], rel=1e-12)

    def test_rate_tie_resolves_in_candidate_order(self):
        # at rho = 0.5 and radius 1, receiver 1's candidates (1, 0) and
        # (0, 1) have denominators one ulp apart that give bit-equal rates:
        # the pick must be the first maximiser of the rate, (1, 0), which
        # with receiver 2's (0, 1) makes a full-rank stack.  Picking the
        # smaller denominator, (0, 1), would make the slot an outage.
        rows = [[0.9883184241510566, 0.988318424151057], [0.1, 2.0]]
        rho = 0.5
        assert list(cf_select_coeffs(rows[0], rho, radius=1)) == [1, 0]
        assert list(cf_select_coeffs(rows[1], rho, radius=1)) == [0, 1]
        [total], [outage] = cf_trial_sum_rate(channel_from_rows(rows), [rho],
                                              2, radius=1)
        assert outage == 0.0 and total > 0.0


class TestRateBuffer:
    RHOS = [10.0 ** (snr_db / 10.0) for snr_db in
            [*range(-10, 61, 5), -1500, -300, -160, 100, 160, 300, 1500]]

    @pytest.mark.parametrize("cap_enabled", [True, False])
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("K, radius", [*itertools.product([1, 2, 3, 4], [1, 2, 3]),
                                           (5, 1), (5, 2), (5, 3), (2, 127)])
    def test_buffered_leg_equals_allocating_leg(self, K, radius, q, cap_enabled):
        field = PrimeField(q)
        T = 5 if cf_baseline.search_grid_size(K, radius) <= 7 ** 4 else 1
        for h in [*stress_channels(K, [K, radius, q], T), real_channel(K, 3, seed=K)]:
            got = cf_trial_sum_rate(h, self.RHOS, field.q, radius, cap_enabled)
            want = allocating_trial_sum_rate(h, self.RHOS, field, radius, cap_enabled)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    # the last two receiver-0 rows sit in a rate tie of two orbits at the
    # third and fourth SNR, where the leaders' bounds need their slack
    @pytest.mark.parametrize("rows, radius", [
        ([[1.0, 1.0], [0.1, 2.0]], 3),
        ([[0.9883184241510566, 0.988318424151057], [0.1, 2.0]], 1),
        ([[-0.43643524714322124, -1.169801907772864, 1.739367877130134],
          [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]], 3),
        ([[0.0011648639811110283, 0.0007875882217058695, 0.000844078680578592],
          [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]], 3),
    ])
    def test_pinned_tie_rows_equal_allocating_leg(self, rows, radius):
        h = channel_from_rows(rows)
        rhos = [0.5, 10.0, 27.82321647366683, 72326846.56891178]
        for cap_enabled in (True, False):
            got = cf_trial_sum_rate(h, rhos, 2, radius, cap_enabled)
            want = allocating_trial_sum_rate(h, rhos, PrimeField(2), radius, cap_enabled)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_rates_clamp_like_the_reference(self):
        # candidate 0: rho proj / (1 + rho hh) exceeds ||a||^2, so the
        # denominator is negative and clamps to tiny; candidate 1: the
        # denominator is above 1, so the rate clamps to 0; candidate 2: a
        # denominator of exactly 0
        proj = np.array([[4.0, 0.0, 1.0]])
        hh = np.array([[1.0]])
        norm2 = np.array([1.0, 2.0, 1.0])
        rho = 2.0 ** 60
        tiny_rate = 0.5 * math.log2(1.0 / np.finfo(float).tiny)
        want = np.array([[tiny_rate, 0.0, tiny_rate]])
        assert np.array_equal(cf_baseline._rates(proj, hh, norm2, rho), want)


class TestOrbitSearch:
    @pytest.mark.parametrize("K, radius", [*itertools.product([1, 2, 3, 4], [1, 2, 3]),
                                           (2, 127), (10, 1)])
    def test_orbits_cover_the_candidates_once(self, K, radius):
        cand, _ = cf_baseline._candidates(K, radius)
        leaders, lead_norm2 = cf_baseline._orbits(K, radius)
        assert len(leaders) == math.comb(radius + K, K) - 1
        assert np.all(leaders[:, :-1] >= leaders[:, 1:]) and np.all(leaders[:, -1] >= 0)
        assert np.array_equal(lead_norm2, np.sum(leaders ** 2, axis=1))
        # the candidates are distinct, so each leader's orbit is covered
        # exactly once when as many candidates sort to it as the orbit,
        # modulo sign, has members
        leader_of = -np.sort(-np.abs(cand), axis=1)
        index = {tuple(b): i for i, b in enumerate(leaders.astype(np.int64))}
        counts = np.bincount([index[tuple(b)] for b in leader_of], minlength=len(leaders))
        for b, count in zip(leaders.astype(np.int64), counts):
            perms = math.factorial(K) // math.prod(
                math.factorial(m) for m in np.unique(b, return_counts=True)[1])
            assert count == perms * 2 ** np.count_nonzero(b) // 2

    def test_log2_is_monotone(self):
        # the certificate rates bounds with the operations of the search,
        # which are monotone given a monotone log2
        rng = np.random.default_rng(6)
        x = np.exp2(rng.uniform(-2, 1023, 2**20))
        assert np.all(np.log2(np.nextafter(x, np.inf)) >= np.log2(x))

    @pytest.mark.parametrize("K, radius", [(1, 3), (2, 3), (3, 3), (4, 3), (2, 127)])
    def test_denominator_certificate_equals_rate_certificate(self, K, radius):
        # the rate of the smallest leader denominator is the largest leader
        # rate, bit for bit, and a smallest denominator rates the largest
        leaders, lead_norm2 = cf_baseline._orbits(K, radius)
        rho = np.array(TestRateBuffer.RHOS)[:, None, None]
        for h in stress_channels(K, 80 + K):
            H = np.moveaxis(h, -1, -3).reshape(-1, K)
            hh = np.sum(H * H, axis=-1)[:, None]
            m = -np.sort(-np.abs(H), axis=-1) @ leaders.T
            den = cf_baseline._denominators(m * m, hh, lead_norm2, rho)
            bound = cf_baseline._rates(m * m, hh, lead_norm2, rho)
            assert np.array_equal(cf_baseline._rate_of(den.copy()), bound)
            top = bound.max(axis=-1)
            assert np.array_equal(cf_baseline._rate_of(den.min(axis=-1)), top)
            win = np.argmin(den, axis=-1)[..., None]
            assert np.array_equal(np.take_along_axis(bound, win, axis=-1)[..., 0], top)

    def test_any_smallest_denominator_may_win(self, monkeypatch):
        # the search takes its winner from _winner, the first leader whose
        # denominator is the smallest, np.argmin's pick; a stand-in returns
        # the last leader whose rate ties the largest, which is the last
        # smallest denominator where denominators tie, and a rate-tied
        # larger one elsewhere (rates tie at 0 on the -1500 dB point, and
        # through clamping and rounding), and the outputs must not change
        rhos = TestRateBuffer.RHOS
        channels = [h for K in (1, 2, 3, 4) for h in stress_channels(K, 90 + K)]
        want = [cf_trial_sum_rate(h, rhos, 3) for h in channels]
        first_winner = cf_baseline._winner
        moved = []

        def last_winner(den):
            first = first_winner(den)
            assert np.array_equal(first, np.argmin(den, axis=1))
            rate = cf_baseline._rate_of(den.copy())
            ties = rate == rate.max(axis=1, keepdims=True)
            last = den.shape[1] - 1 - np.argmax(ties[:, ::-1], axis=1)
            moved.append(np.count_nonzero(last != first))
            return last

        monkeypatch.setattr(cf_baseline, "_winner", last_winner)
        for h, ref in zip(channels, want):
            got = cf_trial_sum_rate(h, rhos, 3)
            assert all(np.array_equal(g, w) for g, w in zip(got, ref))
        assert sum(moved) > 0

    @pytest.mark.parametrize("L", [1, 2, 19, 255, 256, 8255])
    def test_winner_is_the_first_smallest(self, L):
        # exact ties at the minimum, wherever they fall, go to the first
        # leader, np.argmin's pick, with scores wide enough for L leaders
        rng = np.random.default_rng(L)
        den = rng.integers(0, 3, size=(2, L, 20)) - 0.5
        win = cf_baseline._winner(den)
        assert win.dtype == np.intp and np.array_equal(win, np.argmin(den, axis=1))

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_best_member_projections_are_exact(self, K):
        # every (row, leader) entry is _projections(h, a) of that orbit's
        # best member a, the leader placed in |h|'s order with h's signs,
        # bit for bit
        leaders, _ = cf_baseline._orbits(K, 3)
        for h in stress_channels(K, 70 + K):
            H = np.moveaxis(h, -1, -3).reshape(-1, K)
            s, rank, proj = cf_baseline._best_members(H, leaders)
            assert proj.shape == (len(H), len(leaders))
            for row, s_row, rank_row, proj_row in zip(H, s, rank, proj):
                order = np.argsort(-np.abs(row))
                members = np.empty_like(leaders)
                members[:, order] = leaders
                members *= np.where(row < 0, -1.0, 1.0)
                assert np.array_equal(s_row, np.abs(row)[order])
                assert np.array_equal(np.abs(members), leaders[:, rank_row])
                assert np.array_equal(proj_row, cf_baseline._projections(row, members))

    def test_certified_and_fallback_rows(self, monkeypatch):
        exhaustive = []

        def spy(H, cand):
            if cand.ndim == 2:
                exhaustive.append(len(H))
            return projections(H, cand)

        projections = cf_baseline._projections
        monkeypatch.setattr(cf_baseline, "_projections", spy)
        rhos = TestRateBuffer.RHOS
        rows = 0
        for K in (2, 3, 4):
            for h in stress_channels(K, 60 + K):
                cf_trial_sum_rate(h, rhos, 2)
                rows += len(rhos) * h[..., 0, :].size  # (point, trial, receiver, slot)
        # the count the rate certificate gave on this set: the denominator
        # certificate opens the same rows
        assert (sum(exhaustive), rows) == (2840, 8910)
        # Gaussian chunks the size of the benchmark's: no fallback at 0-60 dB
        exhaustive.clear()
        rhos = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 61, 10)]
        rng = np.random.default_rng(61)
        for T, K, N in [(12, 3, 1), (7, 2, 3), (12, 1, 3)]:
            for _ in range(20):
                cf_trial_sum_rate(rng.standard_normal((T, K, K, N)), rhos, 2)
        assert exhaustive == []
