"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 4 pins its SNR window at 40-60 dB; the zero-forcing
conditioning of the cascaded-ratio precoders only reaches the asymptotic
slope above that window for (K=2, n=3) and (K=2, n=10), so those sub-cases
fail honestly (see the README for the convergence measurements).
"""

import dataclasses
import filecmp
import itertools
import math
import time

import numpy as np
import pytest

from sncsim.channel import sample_extended_channel
from sncsim.gf import (
    PrimeField,
    InconsistentSystemError,
    gf_rank,
    gf_solve,
)
from sncsim.harness import SimConfig, run_sweep, run_trials, write_results
from sncsim.phy import filter_and_demodulate, modulate_bpsk
from sncsim.snc import (
    build_filters,
    check_precoder_ranks,
    cp_recover,
    effective_system,
    extension_dims,
    pack_bits,
)
from tests.test_harness import point, stream_rates
from tests.test_snc import (
    build_all,
    einsum_demodulate,
    make_channel,
    numeric_system,
    one_trial_filters,
    precoders,
    transmit,
)


def zero_noise_round_trip(h, p, f, eff, msgs):
    """Whether the messages *msgs* of the K transmitters, sent without
    noise, come back from cp_recover undetected, with the words of
    filter_and_demodulate equal to those of the physical chain: transmit
    through the explicit filters *f*."""
    s = modulate_bpsk(np.concatenate(msgs))
    zero = np.zeros((len(h), eff.plan.N), dtype=complex)
    y = transmit(h, *p, [modulate_bpsk(b) for b in msgs], zero)
    [words] = filter_and_demodulate(s, zero, h, build_filters(p[0]), [1.0], eff)
    x, detected = cp_recover(eff, words)
    return (np.array_equal(words, pack_bits(einsum_demodulate(y, f, eff)))
            and not detected and np.array_equal(x, np.concatenate(msgs)))


def report(num, ok, detail):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# two-user, n=2 effective system (N=3, N'=2): rows are the network-coded
# combinations collected at the two receivers.
F_WORKED_EXAMPLE = np.array([
    [1, 0, 0, 1, 0],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 0, 1, 0, 1],
])


class TestAcceptance:
    def test_criterion_1_worked_example(self):
        t0 = time.perf_counter()
        plan, h, p, f, eff = build_all(2, 2, seed=0)
        assert np.array_equal(eff.f_int, F_WORKED_EXAMPLE)
        assert np.linalg.matrix_rank(numeric_system(h, p, f)) == 5
        assert gf_rank(eff.f_int, PrimeField(2)) == 5
        rng = np.random.default_rng(1)
        failures = 0
        for _ in range(1000):
            msgs = [rng.integers(0, 2, size=plan.N if k == 0 else plan.N_prime)
                    for k in range(2)]
            if not zero_noise_round_trip(h, p, f, eff, msgs):
                failures += 1
        elapsed = time.perf_counter() - t0
        report(1, failures == 0 and elapsed < 1.0,
               f"F exact, rank 5 real and GF(2), {failures}/1000 round-trip "
               f"failures, {elapsed:.2f} s")

    def test_criterion_2_rank_lemmas(self):
        t0 = time.perf_counter()
        failures = 0
        for K, n in [(2, 1), (2, 2), (2, 3), (3, 1)]:
            plan = extension_dims(K, n)
            for seed in range(1000):
                h = make_channel(K, plan.N, seed=seed)
                p = precoders(h, plan)
                if not check_precoder_ranks(p[0], build_filters(p[0])):
                    failures += 1
                    continue
                f_num = numeric_system(h, p, one_trial_filters(h, p))
                if np.linalg.matrix_rank(f_num) != plan.total_streams:
                    failures += 1
                    continue
                f_int = np.round(f_num.real).astype(np.int64)
                if gf_rank(f_int, PrimeField(2)) != plan.total_streams:
                    failures += 1
        elapsed = time.perf_counter() - t0
        report(2, failures == 0 and elapsed < 30.0,
               f"{failures}/4000 rank failures, {elapsed:.1f} s")

    def test_criterion_3_vandermonde_identity(self):
        worst = 0.0
        for n in (1, 2, 3, 4):
            plan = extension_dims(2, n)
            for seed in range(100):
                h = make_channel(2, plan.N, seed=3000 + 100 * n + seed)
                alpha = h[0, 1] / h[0, 0]
                beta = h[1, 1] / h[1, 0]
                v1 = precoders(h, plan)[0]
                v1 = v1 * (alpha[0] ** n / v1[0, 0])  # column 0 is alpha^n, unscaled
                lhs = np.linalg.det(np.diag(alpha ** -float(n)) @ v1)
                r = beta / alpha
                rhs = np.prod([r[j] - r[i]
                               for i in range(n + 1)
                               for j in range(i + 1, n + 1)])
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
        report(3, worst <= 1e-6,
               f"det product formula, worst relative error {worst:.2e}")

    def test_criterion_4_dof_slope(self):
        cases = [(2, 1), (2, 2), (2, 3), (3, 1)]
        lines, bad = [], []
        for K, n in cases:
            plan = extension_dims(K, n)
            target = plan.total_streams / plan.N
            cfg = SimConfig(K=K, n=n, scheme="snc", channel_model="complex",
                            trials=200, snr_start=40, snr_stop=60, snr_step=5,
                            seed=0, cap_enabled=False)
            slope = run_sweep(cfg).dof_slopes["snc"]
            lines.append(f"K={K} n={n}: {slope:.3f} vs {target:.3f}")
            if abs(slope - target) > 0.1:
                bad.append(lines[-1])
        cfg = SimConfig(K=2, n=10, scheme="snc", channel_model="complex",
                        trials=200, snr_start=40, snr_stop=60, snr_step=5,
                        seed=0, cap_enabled=False)
        slope10 = run_sweep(cfg).dof_slopes["snc"]
        lines.append(f"K=2 n=10: {slope10:.3f} vs > 1.8")
        if slope10 <= 1.8:
            bad.append(lines[-1])
        report(4, not bad, "; ".join(lines))

    def test_criterion_5_scheme_ordering(self):
        details = []
        ok = True
        for K, n, trials in [(2, 2, 1000), (3, 1, 1000)]:
            cfg = SimConfig(K=K, n=n, scheme="both", channel_model="real",
                            q=2, trials=trials, snr_start=0, snr_stop=60,
                            snr_step=10, seed=0, cap_enabled=True)
            res = run_sweep(cfg)
            high = [s for s in cfg.snr_grid if s >= 30.0]
            gaps = [point(res, "snc", s).mean_sum_rate
                    - point(res, "cf", s).mean_sum_rate for s in high]
            ordered = all(g >= 0 for g in gaps)
            growing = all(b > a for a, b in zip(gaps, gaps[1:]))
            ok = ok and ordered and growing
            details.append(f"K={K}: gaps " + ",".join(f"{g:.2f}" for g in gaps))
        report(5, ok, "SNC >= CF at >=30 dB with increasing gap; "
               + "; ".join(details))

    def test_criterion_6_backhaul_cap(self):
        cfg = SimConfig(K=2, n=2, scheme="snc", channel_model="complex",
                        trials=100, snr_start=0, snr_stop=10, snr_step=5,
                        seed=0, cap_enabled=True)
        res = run_sweep(cfg)
        means = [point(res, "snc", s).mean_sum_rate for s in cfg.snr_grid]
        monotone = all(b > a for a, b in zip(means, means[1:]))
        capped_ok = True
        b = run_trials(cfg, [0])
        assert b.kept[0]
        [per_signals] = stream_rates(cfg, cfg.snr_grid, [0]).tolist()
        for snr_db, per_signal, sum_rate in zip(cfg.snr_grid, per_signals,
                                                b.outcomes["snc"]["rate"][:, 0].tolist()):
            cap = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
            capped = sum(min(v, cap) for v in per_signal)
            capped_ok = capped_ok and sum_rate == pytest.approx(capped)
            capped_ok = capped_ok and sum_rate <= len(per_signal) * cap + 1e-12
        report(6, monotone and capped_ok,
               f"saturating means {[f'{m:.2f}' for m in means]}, per-stream "
               "cap holds at 3 grid points")

    def test_criterion_7_gf_oracle_equivalence(self):
        t0 = time.perf_counter()
        mismatches = 0
        checked = 0
        fields = {2: PrimeField(2), 3: PrimeField(3)}
        # per (q, cols): every candidate solution, for inconsistency checks
        all_x = {
            (q, c): np.array(list(itertools.product(range(q), repeat=c)))
            for q in (2, 3) for c in range(1, 5)
        }

        def span_rank(mat, q):
            # independent oracle: size of the row-space closure
            if q == 2:  # rows as bitmasks, span closed under XOR
                span = {0}
                for row in mat:
                    key = int("".join(map(str, row)), 2)
                    span |= {s ^ key for s in span}
            else:
                span = {(0,) * len(mat[0])}
                for row in mat:
                    span = {
                        tuple((a + mult * b) % q for a, b in zip(s, row))
                        for s in span for mult in range(q)
                    }
            size = len(span)
            rank = 0
            while q ** rank < size:
                rank += 1
            assert q ** rank == size
            return rank

        def check(mat, q):
            nonlocal mismatches, checked
            checked += 1
            field = fields[q]
            a = np.array(mat, dtype=np.int64)
            rank = gf_rank(a, field)
            if rank != span_rank(mat, q):
                mismatches += 1
                return
            # solve agreement on full-column-rank systems (sampled):
            # solvable rhs round-trips, a random rhs either solves or
            # raises exactly when no exhaustive solution exists
            if rank == a.shape[1] and checked % 7 == 0:
                rng = np.random.default_rng(checked)
                x = rng.integers(0, q, size=a.shape[1])
                if not np.array_equal(gf_solve(a, (a @ x) % q, field) % q,
                                      x % q):
                    mismatches += 1
                    return
                rhs = rng.integers(0, q, size=a.shape[0])
                try:
                    ok = np.all((a @ gf_solve(a, rhs, field)) % q == rhs % q)
                except InconsistentSystemError:
                    prods = all_x[q, a.shape[1]] @ a.T % q
                    ok = not np.any(np.all(prods == rhs % q, axis=1))
                if not ok:
                    mismatches += 1

        shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]
        for q in (2, 3):
            for r, c in shapes:
                # exhaustive where feasible in the runtime budget, seeded
                # random coverage of the big GF(3) shapes otherwise
                if q ** (r * c) <= (70000 if q == 2 else 7000):
                    for bits in itertools.product(range(q), repeat=r * c):
                        check([bits[i * c:(i + 1) * c] for i in range(r)], q)
                else:
                    rng = np.random.default_rng(10 * q + r * 4 + c)
                    for _ in range(1500):
                        check(rng.integers(0, q, size=(r, c)).tolist(), q)
        elapsed = time.perf_counter() - t0
        report(7, mismatches == 0 and elapsed < 10.0,
               f"{checked} matrices, {mismatches} oracle mismatches, "
               f"{elapsed:.1f} s")

    def test_criterion_8_mimo_expansion(self):
        M = SimConfig(K=2, L=2, tx_antennas=(2, 1), rx_antennas=(2, 1)).M
        assert M == 3
        plan = extension_dims(M, 1)
        rng = np.random.default_rng(0)
        failures = 0
        for trial in range(50):
            [h] = sample_extended_channel(M, plan.N, "complex", [rng])
            p = precoders(h, plan)
            if not check_precoder_ranks(p[0], build_filters(p[0])):
                failures += 1
                continue
            eff = effective_system(plan)
            msgs = [rng.integers(0, 2, size=plan.N if k == 0 else plan.N_prime)
                    for k in range(M)]
            if not zero_noise_round_trip(h, p, one_trial_filters(h, p), eff, msgs):
                failures += 1
        report(8, failures == 0,
               f"M=3 virtual users, {plan.total_streams}-stream blocks, "
               f"{failures}/50 zero-noise recovery failures")

    def test_criterion_9_determinism(self, tmp_path):
        cfg = SimConfig(K=2, n=2, scheme="both", channel_model="real",
                        trials=50, snr_start=0, snr_stop=20, snr_step=10,
                        seed=42, cap_enabled=True)
        paths = []
        for name in ("a.csv", "b.csv"):
            out, _ = write_results(run_sweep(cfg), dataclasses.replace(
                cfg, out_path=str(tmp_path / name)))
            paths.append(out)
        identical = filecmp.cmp(*paths, shallow=False)
        report(9, identical, "two seeded sweeps, byte-identical CSV")
