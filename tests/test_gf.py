import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncsim.gf import (
    InconsistentSystemError,
    PrimeField,
    RankDeficientError,
    ZeroInversionError,
    _is_prime,
    gf_full_rank,
    gf_inv,
    gf_rank,
    gf_select_independent_rows,
    gf_solve,
)

# F for the two-user scheme at n=1 (streams: 2 from tx1, 1 from tx2)
F_K2_N1 = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 1]])


def brute_force_rank(m, q):
    """Oracle: rank = log_q of the row-space size, by enumerating every
    linear combination of rows."""
    m = np.asarray(m) % q
    span = set()
    for coeffs in itertools.product(range(q), repeat=m.shape[0]):
        span.add(tuple((np.array(coeffs) @ m) % q))
    size = len(span)
    rank = 0
    while q ** rank < size:
        rank += 1
    assert q ** rank == size
    return rank


def brute_force_solve(a, rhs, q):
    a = np.asarray(a) % q
    sols = []
    for x in itertools.product(range(q), repeat=a.shape[1]):
        if np.all((a @ np.array(x)) % q == np.asarray(rhs) % q):
            sols.append(np.array(x))
    return sols


class TestFieldOps:
    def test_q_must_be_prime(self):
        with pytest.raises(ValueError):
            PrimeField(4)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_primality_matches_trial_division(self):
        oracle = [q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1))
                  for q in range(10**5)]
        assert [_is_prime(q) for q in range(10**5)] == oracle

    def test_pseudoprimes_rejected(self):
        # 561 is a Carmichael number; 3215031751 = 151 * 751 * 28351 is a
        # strong pseudoprime to the bases 2, 3, 5 and 7
        for q in (561, 3215031751):
            assert not _is_prime(q)
            with pytest.raises(ValueError):
                PrimeField(q)

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        PrimeField(2**61 - 1)
        assert time.perf_counter() - start < 1.0

    def test_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="2\\^63"):
            PrimeField(2**63 + 29)

    def test_characteristic_two_addition(self):
        assert PrimeField(2).reduce([1 + 1, 1 + 0, 1 + 1 + 1]).tolist() == [0, 1, 1]

    def test_inverse_by_exhaustive_search(self):
        f = PrimeField(7)
        # oracle: the unique x with 3*x mod 7 == 1
        (x,) = [x for x in range(1, 7) if (3 * x) % 7 == 1]
        assert x == 5
        assert f.inv(3) == 5

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroInversionError):
            PrimeField(5).inv(0)

    @given(st.integers(2, 50))
    def test_all_inverses(self, qi):
        primes = [q for q in range(2, 60) if all(q % d for d in range(2, q))]
        q = primes[qi % len(primes)]
        f = PrimeField(q)
        for a in range(1, q):
            assert a * f.inv(a) % q == 1


class TestRank:
    def test_identity(self):
        assert gf_rank(np.eye(2, dtype=int), PrimeField(2)) == 2

    def test_identical_rows(self):
        assert gf_rank(np.ones((3, 3), dtype=int), PrimeField(2)) == 1

    def test_two_user_n1_system(self):
        assert gf_rank(F_K2_N1, PrimeField(2)) == 3

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_brute_force_on_random_matrices(self, q):
        rng = np.random.default_rng(7)
        field = PrimeField(q)
        for _ in range(60):
            rows, cols = rng.integers(1, 5, size=2)
            m = rng.integers(0, q, size=(rows, cols))
            assert gf_rank(m, field) == brute_force_rank(m, q)


class TestSelectIndependentRows:
    def test_identity(self):
        assert gf_select_independent_rows(np.eye(3, dtype=int), PrimeField(2)) == [0, 1, 2]

    def test_duplicate_row_skipped(self):
        m = np.array([[1, 1], [1, 1], [0, 1]])
        assert gf_select_independent_rows(m, PrimeField(2)) == [0, 2]

    def test_two_user_n1_system(self):
        assert gf_select_independent_rows(F_K2_N1, PrimeField(2)) == [0, 1, 2]

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_selected_rows_independent_and_count_is_rank(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.choice([2, 3, 5]))
        field = PrimeField(q)
        m = rng.integers(0, q, size=(int(rng.integers(1, 6)), int(rng.integers(1, 5))))
        idx = gf_select_independent_rows(m, field)
        assert len(idx) == gf_rank(m, field)
        assert gf_rank(m[idx], field) == len(idx)
        # greedy: row i is kept exactly when it raises the rank of rows 0..i
        assert idx == [i for i in range(len(m))
                       if gf_rank(m[:i + 1], field) > gf_rank(m[:i], field)]


class TestSolve:
    def test_identity(self):
        x = gf_solve(np.eye(3, dtype=int), [1, 0, 1], PrimeField(2))
        assert list(x) == [1, 0, 1]

    def test_two_user_n1_round_trip(self):
        b = np.array([1, 0, 1])
        fwd = (F_K2_N1 @ b) % 2
        assert list(gf_solve(F_K2_N1, fwd, PrimeField(2))) == [1, 0, 1]

    def test_back_substitution(self):
        x = gf_solve(np.array([[1, 1], [0, 1]]), [0, 1], PrimeField(2))
        assert list(x) == [1, 1]

    def test_round_trip_exhaustive_small(self):
        # every full-column-rank matrix and every x, cols <= 3, q <= 3
        for q in (2, 3):
            field = PrimeField(q)
            rng = np.random.default_rng(q)
            for _ in range(40):
                rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
                a = rng.integers(0, q, size=(rows, cols))
                if gf_rank(a, field) < cols:
                    continue
                for x in itertools.product(range(q), repeat=cols):
                    x = np.array(x)
                    assert np.array_equal(gf_solve(a, (a @ x) % q, field), x)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            gf_solve(np.array([[1, 1], [1, 1]]), [1, 1], PrimeField(2))

    def test_inconsistent_redundant_row_raises(self):
        a = np.array([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(InconsistentSystemError):
            gf_solve(a, [1, 1, 1], PrimeField(2))  # third row should be 0

    @pytest.mark.parametrize("q", [4294967311, 2**61 - 1])
    def test_large_field_round_trip(self, q):
        # products leave int64 here: a @ x is checked on Python ints
        field = PrimeField(q)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(0, q, size=(4, 3))
            x = rng.integers(0, q, size=3)
            rhs = a.astype(object) @ x.astype(object) % q
            assert np.array_equal(gf_solve(a, rhs.astype(np.int64), field), x)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for q in (2, 3, 5, 7):
            field = PrimeField(q)
            for _ in range(30):
                a = rng.integers(0, q, size=(4, 3))
                if gf_rank(a, field) < 3:
                    continue
                rhs = rng.integers(0, q, size=4)
                sols = brute_force_solve(a, rhs, q)
                if sols:
                    assert np.array_equal(gf_solve(a, rhs, field), sols[0])
                else:
                    with pytest.raises(InconsistentSystemError):
                        gf_solve(a, rhs, field)


class TestInverse:
    def test_identity_on_random_invertible(self):
        rng = np.random.default_rng(11)
        for q in (2, 3, 5, 7):
            field = PrimeField(q)
            checked = 0
            while checked < 40:
                n = int(rng.integers(1, 7))
                a = rng.integers(0, q, size=(n, n))
                if gf_rank(a, field) < n:
                    continue
                inv = gf_inv(a, field)
                eye = np.eye(n, dtype=np.int64)
                assert np.array_equal((a @ inv) % q, eye)
                assert np.array_equal((inv @ a) % q, eye)
                checked += 1

    def test_singular_raises(self):
        with pytest.raises(RankDeficientError):
            gf_inv(np.array([[1, 1], [1, 1]]), PrimeField(2))
        with pytest.raises(RankDeficientError):
            gf_inv(np.array([[1, 2], [2, 1]]), PrimeField(3))  # det = -3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            gf_inv(F_K2_N1, PrimeField(2))


class TestEdgeShapes:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_rank_and_rows(self, shape):
        m = np.zeros(shape, dtype=np.int64)
        assert gf_rank(m, PrimeField(2)) == 0
        assert gf_select_independent_rows(m, PrimeField(2)) == []

    def test_empty_inverse(self):
        inv = gf_inv(np.zeros((0, 0), dtype=np.int64), PrimeField(3))
        assert inv.shape == (0, 0) and inv.dtype == np.int64

    def test_no_unknowns(self):
        a = np.zeros((2, 0), dtype=np.int64)
        x = gf_solve(a, [0, 0], PrimeField(2))
        assert x.shape == (0,) and x.dtype == np.int64
        with pytest.raises(InconsistentSystemError):
            gf_solve(a, [0, 1], PrimeField(2))

    def test_wide_system_names_its_rank(self):
        with pytest.raises(RankDeficientError, match="column rank 1 < 2"):
            gf_solve(np.array([[1, 1]]), [1], PrimeField(2))


class TestFullRankBatch:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_matches_gf_rank(self, K, q):
        field = PrimeField(q)
        rng = np.random.default_rng(100 * K + q)
        random = rng.integers(-3, 4, size=(200, K, K))
        # deliberately singular: a repeated row, and a row that is twice
        # another mod q but differs from it over the integers
        repeated = random[:50].copy()
        repeated[:, K - 1] = repeated[:, 0]
        multiple = random[50:100].copy()
        multiple[:, 1] = (q + 2) * multiple[:, 0] + q * random[100:150, 1]
        stack = np.concatenate([random, repeated, multiple])
        got = gf_full_rank(stack, field)
        expected = [gf_rank(m, field) == K for m in stack]
        assert got.tolist() == expected
        assert not got[200:].any()
        assert 0 < got[:200].sum() < 200  # both outcomes occur

    def test_identity_and_large_field(self):
        # past q = 2^31 the products leave int64; the result stays exact
        for q in (2, 2147483647, 4294967311):
            field = PrimeField(q)
            stack = np.array([np.eye(3, dtype=np.int64),
                              [[1, 2, 3], [2, 4, 6], [0, 0, 1]],
                              [[q - 1, 1, 0], [1, q - 1, 5], [7, 0, q - 2]]])
            assert gf_full_rank(stack, field).tolist() == [
                gf_rank(m, field) == 3 for m in stack]

