import ast
import concurrent.futures
import contextlib
import csv
import dataclasses
import errno
import importlib
import json
import math
import os
import pickle
import re
import runpy
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sncsim import cli, harness
from sncsim.channel import sample_extended_channel, sample_noise
from sncsim.cli import IO_EXIT, USAGE_EXIT, build_parser, main, parse_cli
from sncsim.gf import RankDeficientError
from sncsim.harness import (
    BATCH_ELEMENTS,
    ConfigError,
    SimConfig,
    chunk_length,
    run_sweep,
    run_trials,
    write_results,
)
from sncsim.phy import estimate_dof_slope, modulate_bpsk, per_link_rates, stream_gains
from sncsim.snc import (
    build_precoders,
    draw_round,
    effective_system,
    extension_dims,
    usable_channels,
)
from tests.test_channel import reference_generators
from tests.test_phy import explicit_link_gains, factored_row_norms, min_over_links
from tests.test_snc import (
    einsum_demodulate,
    explicit_filters,
    reference_cp_recover,
    split_by_transmitter,
    transmit,
)

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SRC_DIR = BENCH_DIR.parent / "src"


def cli_env():
    """The environment for a `python -m sncsim.cli` child process: this
    checkout's src first on PYTHONPATH, so the CLI runs without an
    installed package."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([str(SRC_DIR)] + ([path] if path else [])))


def one_point(cfg, snr_db, trial_index):
    """run_trials on one trial at one SNR point: a TrialBatch of one trial
    and one point."""
    return run_trials(dataclasses.replace(cfg, snr_start=snr_db, snr_stop=snr_db),
                      [trial_index])


def point(res, scheme, snr_db):
    """The SweepPoint of *res* for *scheme* at *snr_db*."""
    for pt in res.points:
        if pt.scheme == scheme and pt.snr_db == snr_db:
            return pt
    raise KeyError((scheme, snr_db))


def levels(snr_dbs):
    """The linear SNR rho = 10^(snr/10), as a list, and the noise variance
    sigma2 = 1 / rho, as an array, of every SNR point in dB."""
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in snr_dbs]
    return rhos, np.array([1.0 / rho for rho in rhos])


def kept_channels(cfg, indices):
    """The kept trials of *indices* as run_trials builds them, from the
    stage functions in its draw order: their channel, precoders v1 and
    v_other, and filter inverses w, and their generators, whose next
    draws are the messages."""
    plan = extension_dims(cfg.M, cfg.n)
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, i])) for i in indices]

    def draw(trials):
        return sample_extended_channel(cfg.M, plan.N, cfg.channel_model,
                                       [rngs[t] for t in trials])

    h, v1, v_other, w, kept = usable_channels(draw(range(len(rngs))), plan, draw)
    return h, v1, v_other, w, [rngs[t] for t in np.flatnonzero(kept)]


def oracle_detected(cfg, indices):
    """The detected-error flags (kept trials, S) of the trials *indices*
    through the physical chain: the received vectors of transmit, with the
    unit noise scaled to each point's variance, the explicit per-receiver
    filters, nearest-level demodulation and the int64 reference recovery."""
    plan = extension_dims(cfg.M, cfg.n)
    eff = effective_system(plan)
    h, v1, v_other, w, rngs = kept_channels(cfg, indices)
    msgs = np.stack([rng.integers(0, cfg.q, size=plan.total_streams) for rng in rngs])
    noise = sample_noise(cfg.M, plan.N, cfg.channel_model, rngs)
    _, sigma2 = levels(cfg.snr_grid)
    y = transmit(h, v1, v_other, split_by_transmitter(modulate_bpsk(msgs), plan),
                 np.sqrt(sigma2)[:, None, None] * noise[:, None])
    return reference_cp_recover(eff, einsum_demodulate(y, explicit_filters(h, w), eff))[1]


def stream_rates(cfg, snr_dbs, indices):
    """The per-stream rates (kept trials, S, streams) of the trials
    *indices* before the backhaul cap."""
    eff = effective_system(extension_dims(cfg.M, cfg.n))
    _, sigma2 = levels(snr_dbs)
    return per_link_rates(stream_gains(*kept_channels(cfg, indices)[:4], eff), sigma2)


def spoil(value, how):
    """An integer as a float, a non-integral float or a bool (*how* 0, 1
    or 2), a bool as an int, a string or None, a float as a string, None
    or a bool, an absent antenna list as an int, and a given one as an
    empty list, one count too many or a zero first count: stand-ins that
    SimConfig must reject."""
    if isinstance(value, bool):
        return (int(value), "no", None)[how]
    if isinstance(value, float):
        return (str(value), None, bool(value))[how]
    if value is None:
        return how + 1
    if isinstance(value, tuple):
        return ((), value + (1,), (0,) + value[1:])[how]
    return (float(value), value + 0.5, bool(value))[how]


# K and L are shared with the antenna lists, which are drawn for them
USERS = st.shared(st.integers(1, 3), key="K")
RECEIVERS = st.shared(st.one_of(st.none(), USERS, st.integers(1, 3)), key="L")


def antenna_lists(nodes):
    """Absent, one antenna per node, or two at the first (MIMO)."""
    ones = (1,) * nodes
    return st.one_of(st.none(), st.sampled_from([ones, (2,) + ones[1:]]))


def small_config(**overrides):
    base = dict(K=2, n=1, scheme="both", channel_model="real", trials=5,
                snr_start=10.0, snr_stop=30.0, snr_step=10.0, seed=7,
                out_path="out.csv")
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_snr_grid(self):
        cfg = small_config()
        assert cfg.snr_grid == (10.0, 20.0, 30.0)

    def test_cf_requires_square(self):
        with pytest.raises(ConfigError):
            small_config(scheme="cf", L=3)

    def test_cf_requires_real_channels(self):
        with pytest.raises(ConfigError):
            small_config(scheme="cf", channel_model="complex")

    def test_field_size_must_be_prime(self):
        with pytest.raises(ConfigError):
            small_config(q=6)

    def test_alignment_scheme_needs_binary_field(self):
        for scheme in ("snc", "both"):
            with pytest.raises(ConfigError):
                small_config(scheme=scheme, q=3)
        small_config(scheme="cf", q=3)

    def test_trial_count_fits_one_seed_word(self):
        # trial i's generator hashes i as one uint32 entropy word
        small_config(trials=2**32)
        with pytest.raises(ConfigError, match="32-bit"):
            small_config(trials=2**32 + 1)

    def test_derived_values_stay_out_of_equality_asdict_and_pickle(self):
        mimo = dict(tx_antennas=(2, 1), rx_antennas=(2, 1))
        cfg = small_config(**mimo)
        before = pickle.dumps(cfg), dataclasses.asdict(cfg), hash(cfg)
        assert (cfg.M, cfg.n_ext) == (3, extension_dims(3, 1).N)
        assert cfg.snr_grid == (10.0, 20.0, 30.0)
        assert (pickle.dumps(cfg), dataclasses.asdict(cfg), hash(cfg)) == before
        assert cfg == small_config(**mimo)
        copy = pickle.loads(before[0])
        assert copy == cfg and (copy.M, copy.n_ext, copy.snr_grid) == (cfg.M, cfg.n_ext,
                                                                       cfg.snr_grid)
        # a replaced field derives afresh
        assert dataclasses.replace(cfg, n=2).n_ext == extension_dims(3, 2).N

    def test_fields_are_stored_as_plain_values(self, tmp_path):
        plain = dict(K=2, L=2, n=1, q=2, trials=3, seed=7, cf_radius=2,
                     snr_start=10.0, snr_stop=30.0, snr_step=10.0,
                     tx_antennas=(1, 1), rx_antennas=(1, 1),
                     out_path=str(tmp_path / "r.csv"))
        given = dict(K=np.int64(2), L=np.int32(2), n=np.int8(1), q=np.int64(2),
                     trials=np.uint16(3), seed=np.int64(7), cf_radius=np.int64(2),
                     snr_start=np.float32(10.0), snr_stop=30, snr_step=np.float64(10.0),
                     tx_antennas=[1, np.int64(1)], rx_antennas=[1, 1],
                     out_path=tmp_path / "r.csv")
        cfg, ref = SimConfig(**given), SimConfig(**plain)
        # a list antenna list once made the config unhashable
        assert cfg == ref and hash(cfg) == hash(ref)
        assert ({name: type(getattr(cfg, name)) for name in plain}
                == {name: type(value) for name, value in plain.items()})
        assert {type(a) for a in cfg.tx_antennas + cfg.rx_antennas} == {int}
        # numpy counts and a Path once ran the sweep, then failed to write
        # the JSON sidecar
        written = [p.read_bytes() for p in write_results(run_sweep(cfg), cfg)]
        meta = json.loads(written[1])
        assert meta["config"] == json.loads(json.dumps(dataclasses.asdict(ref)))
        assert written == [p.read_bytes()
                           for p in write_results(run_sweep(ref), ref)]

    def test_huge_configs_rejected_at_once(self):
        # the search grid and the extension length are computed only until
        # they pass their bounds: (2 cf_radius + 1)^K at K = 10^9 would never
        # finish, and an N of thousands of digits could not be printed
        for overrides in (dict(K=10**9, scheme="cf"), dict(K=2000, n=2000, scheme="snc"),
                          dict(K=2, n=10**100, scheme="snc")):
            start = time.perf_counter()
            with pytest.raises(ConfigError) as exc:
                SimConfig(**overrides)
            assert time.perf_counter() - start < 1.0, overrides
            assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("overrides", [
        # str() refuses ints of more than 4,300 digits: these raised
        # ValueError from their own error message
        dict(seed=-10**5000), dict(trials=10**5000), dict(K=10**5000),
        dict(scheme="cf", cf_radius=10**5000), dict(scheme="snc", n=10**5000),
        # these ran, then the CSV or the sidecar could not write the field
        dict(seed=10**5000), dict(scheme="snc", L=10**5000),
        dict(tx_antennas=(10**5000, 1)),
    ])
    def test_oversized_integers_rejected_without_printing_them(self, overrides):
        with pytest.raises(ConfigError, match=f"more than {harness.MAX_INT_BITS} bits") as exc:
            small_config(**overrides)
        assert len(str(exc.value)) < 200

    def test_largest_seed_runs_and_is_written(self, tmp_path):
        cfg = small_config(seed=2**harness.MAX_INT_BITS - 1, out_path=str(tmp_path / "r.csv"))
        write_results(run_sweep(cfg), cfg)
        assert json.loads((tmp_path / "r.json").read_text())["seed"] == cfg.seed

    def test_cf_radius_must_be_positive(self):
        for scheme in ("cf", "both"):
            with pytest.raises(ConfigError):
                SimConfig(K=2, n=2, scheme=scheme, cf_radius=0, trials=2, snr_stop=10)
        small_config(scheme="snc", cf_radius=0)  # CF never runs

    def test_cf_search_grid_is_bounded(self):
        # (2 radius + 1)^M vectors against MAX_SEARCH_GRID = 2^16: 255^2 fits
        # and 257^2 does not; M counts virtual users, 3 for (2,1)/(2,1)
        small_config(scheme="cf", cf_radius=127)
        with pytest.raises(ConfigError, match="cf_radius"):
            small_config(scheme="both", cf_radius=128)
        mimo = dict(tx_antennas=(2, 1), rx_antennas=(2, 1))
        small_config(scheme="cf", cf_radius=19, **mimo)
        with pytest.raises(ConfigError):
            small_config(scheme="cf", cf_radius=20, **mimo)
        small_config(scheme="snc", cf_radius=10**6)  # CF never runs

    def test_worker_count_is_an_integer_clamped_to_the_cpus(self, monkeypatch):
        # parsed only: no pool is started here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.delenv("SNCSIM_WORKERS", raising=False)
        assert harness.worker_count() == 1
        cases = [("1", 1), ("2", 2), (" 3 ", 3), ("0", 1), ("-4", 1), (str(10**6), 4)]
        for text, workers in cases:
            monkeypatch.setenv("SNCSIM_WORKERS", text)
            assert harness.worker_count() == workers, text
        for text in ("abc", "2.5", ""):
            monkeypatch.setenv("SNCSIM_WORKERS", text)
            with pytest.raises(ConfigError, match="SNCSIM_WORKERS"):
                harness.worker_count()
        # where the OS has no sched_getaffinity, the CPU count bounds it
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        for text, workers in [("1", 1), ("0", 1), ("5", 5), (str(10**6), 6)]:
            monkeypatch.setenv("SNCSIM_WORKERS", text)
            assert harness.worker_count() == workers, text
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setenv("SNCSIM_WORKERS", "4")
        assert harness.worker_count() == 1

    def test_extension_parameter_must_be_positive(self):
        for scheme in ("snc", "cf", "both"):
            with pytest.raises(ConfigError):
                SimConfig(K=2, n=0, scheme=scheme)

    def test_oversized_extension_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(K=2, n=2_000_000, scheme="snc")
        SimConfig(K=2, n=2_000_000, scheme="cf")  # no plan needed

    def test_singular_plan_rejected(self, monkeypatch):
        def singular(plan):
            raise RankDeficientError("GF(2) rank short")
        monkeypatch.setattr(harness, "effective_system", singular)
        with pytest.raises(ConfigError):
            small_config(scheme="snc")
        small_config(scheme="cf")

    @pytest.mark.parametrize("overrides", [
        dict(seed=-1),
        dict(scheme="cf", tx_antennas=(1,)),
        # an empty list is a list, not an absent one
        dict(tx_antennas=()),
        dict(rx_antennas=[]),
        dict(snr_start=math.nan),
        dict(snr_stop=math.nan),
        dict(snr_step=math.inf),
        dict(snr_start=10.0, snr_stop=0.0, snr_step=5.0),
        # rho = 10^(snr/10) overflows or underflows to 0: infinite rates,
        # division by zero
        dict(snr_start=4000.0, snr_stop=4000.0, snr_step=1.0),
        dict(snr_start=-4000.0, snr_stop=-4000.0, snr_step=1.0),
        # rho is finite and nonzero but leaves LEVEL_RANGE
        dict(snr_start=1600.0, snr_stop=1600.0, snr_step=1.0),
        dict(snr_start=-1600.0, snr_stop=-1600.0, snr_step=1.0),
        # the coefficient search would enumerate (2 10^6 + 1)^3 vectors
        dict(K=3, scheme="cf", cf_radius=10**6),
        # the point count overflows to inf, or the grid would hold about
        # 6e301 floats: both are rejected before the grid is built
        dict(snr_start=0.0, snr_stop=60.0, snr_step=5e-324),
        dict(snr_start=0.0, snr_stop=60.0, snr_step=1e-300),
        dict(scheme="snc+cf"),
        dict(channel_model="rayleigh"),
        dict(snr_step=0.0),
        dict(snr_step=-5.0),
        dict(trials=0),
        # the JSON sidecar would overwrite the CSV after the sweep
        dict(out_path="r.json"),
        dict(out_path="out/./r.json/"),
        dict(out_path=None),
    ])
    def test_rejects_input_that_would_fail_mid_sweep(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize("overrides", [
        # these once passed the checks, then the sweep raised TypeError
        dict(trials=2.5), dict(seed=1.5), dict(cf_radius=1.5),
        # the checks themselves once raised TypeError
        dict(n=1.5), dict(K=2.0),
        # ran, with the cap on
        dict(cap_enabled="no"),
        # other stand-ins for an integer or a bool
        dict(trials=True), dict(L=2.0), dict(tx_antennas=(1.0, 1)),
        dict(rx_antennas=(1, 1.5)), dict(cap_enabled=0),
    ])
    def test_rejects_non_integer_counts_and_non_bool_cap(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize("overrides", [
        # the checks once raised TypeError from math.isfinite
        dict(snr_step="5"), dict(snr_start=None),
        # the checks once raised TypeError unpacking the antenna list
        dict(tx_antennas=2),
        # the checks once raised ValueError from PrimeField
        dict(q=4), dict(q=2**63 + 1),
        # math.isfinite raised OverflowError
        dict(snr_start=10**400), dict(snr_start=-10**400, snr_stop=0.0),
        dict(snr_step=10**400),
    ])
    def test_rejects_non_numbers_and_bad_field_sizes(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    # most random configs are rejected (complex CF, q > 2 with SNC, ...), so
    # the filter is heavy by design
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(K=USERS, L=RECEIVERS, tx_antennas=USERS.flatmap(antenna_lists),
           rx_antennas=st.tuples(USERS, RECEIVERS).flatmap(
               lambda kl: antenna_lists(kl[0] if kl[1] is None else kl[1])),
           n=st.integers(0, 2),
           scheme=st.sampled_from(["snc", "cf", "both"]),
           channel_model=st.sampled_from(["real", "complex"]),
           q=st.sampled_from([2, 3, 5, 7]), cf_radius=st.integers(0, 3),
           # the negative seed and the empty grid are one value each, -1, so
           # that they stay reachable without crowding out the valid draws
           cap_enabled=st.booleans(), seed=st.integers(-1, 2**16),
           spoiled=st.one_of(st.none(), st.tuples(
               st.sampled_from(["K", "n", "q", "cf_radius", "seed", "trials",
                                "cap_enabled", "snr_start", "snr_stop",
                                "snr_step", "tx_antennas", "rx_antennas"]),
               st.integers(0, 2))),
           snr_start=st.one_of(st.integers(-10, 60), st.integers(-4000, 4000)),
           snr_span=st.integers(-1, 30),
           snr_step=st.integers(1, 30))
    # at K=2 the precoders' powers overflow for large n: V_1 holds inf and
    # NaN, which raised LinAlgError from the SVD, after RuntimeWarnings
    @example(K=2, L=None, tx_antennas=None, rx_antennas=None, n=100, scheme="snc",
             channel_model="real", q=2, cf_radius=3, cap_enabled=True, seed=0,
             spoiled=None, snr_start=0, snr_span=0, snr_step=1)
    @example(K=2, L=None, tx_antennas=None, rx_antennas=None, n=200, scheme="snc",
             channel_model="complex", q=2, cf_radius=3, cap_enabled=True, seed=0,
             spoiled=None, snr_start=0, snr_span=0, snr_step=1)
    # the checks once passed an empty antenna list, and the sweep ran it as one
    # antenna per node
    @example(K=2, L=None, tx_antennas=(1, 1), rx_antennas=None, n=1, scheme="both",
             channel_model="real", q=2, cf_radius=3, cap_enabled=True, seed=0,
             spoiled=("tx_antennas", 0), snr_start=0, snr_span=0, snr_step=1)
    @example(K=2, L=2, tx_antennas=(2, 1), rx_antennas=(2, 1), n=1, scheme="both",
             channel_model="real", q=2, cf_radius=2, cap_enabled=False, seed=0,
             spoiled=None, snr_start=40, snr_span=20, snr_step=10)
    def test_every_validated_config_completes(self, K, L, tx_antennas, rx_antennas, n,
                                              scheme, channel_model, q, cf_radius,
                                              cap_enabled, seed, spoiled, snr_start,
                                              snr_span, snr_step):
        fields = dict(K=K, L=L, n=n, q=q, cf_radius=cf_radius, seed=seed, trials=1,
                      cap_enabled=cap_enabled, snr_start=float(snr_start),
                      snr_stop=float(snr_start + snr_span), snr_step=float(snr_step),
                      tx_antennas=tx_antennas, rx_antennas=rx_antennas)
        if spoiled is not None:
            name, how = spoiled
            fields[name] = spoil(fields[name], how)
        try:
            cfg = SimConfig(scheme=scheme, channel_model=channel_model, **fields)
        except ConfigError:
            assume(False)
        assert n >= 1
        # a float, bool, empty list or other stand-in would run on as
        # something else
        assert spoiled is None
        res = run_sweep(cfg)
        points = len(cfg.snr_grid)
        schemes = cfg.run_snc + cfg.run_cf
        assert len(res.points) == points * schemes
        for pt in res.points:
            assert math.isfinite(pt.snr_db)
            assert 0.0 <= pt.outage_frac <= 1.0
            assert 0.0 <= pt.detected_err_frac <= 1.0
            if pt.trials:
                assert math.isfinite(pt.mean_sum_rate) and pt.mean_sum_rate >= 0.0
        assert res.aborted_trials == points * (1 - res.points[0].trials)


class TestRunTrial:
    def test_deterministic_replay(self):
        cfg = small_config()
        a = run_trials(cfg, [3])
        b = run_trials(cfg, [3])
        assert a.kept[0] and trial_rows(a) == trial_rows(b)

    def test_distinct_trials_differ(self):
        cfg = small_config()
        a = one_point(cfg, 20.0, trial_index=0)
        b = one_point(cfg, 20.0, trial_index=1)
        assert a.kept[0] and b.kept[0]
        assert a.outcomes["snc"]["rate"][0, 0] != b.outcomes["snc"]["rate"][0, 0]

    @pytest.mark.parametrize("overrides", [
        dict(scheme="snc", n=2, channel_model="complex"),
        dict(scheme="cf", K=3),
        dict(scheme="both", n=2),
        dict(scheme="snc", n=10, channel_model="complex", cap_enabled=False,
             snr_start=40.0, snr_stop=60.0, snr_step=5.0),
    ])
    def test_every_point_equals_its_one_point_call(self, overrides):
        # the draw-order contract: no draw depends on the grid, so evaluating
        # the whole grid in one pass gives each point what a one-point call
        # gives
        cfg = small_config(**overrides)
        aborted = 0
        for i in range(6):
            b = run_trials(cfg, [i])
            if not b.kept[0]:
                aborted += 1
                for snr_db in cfg.snr_grid:
                    assert not one_point(cfg, snr_db, i).kept[0]
                continue
            [grid] = trial_rows(b)
            assert all(len(row) == len(cfg.snr_grid) for _, _, row in grid)
            for p, snr_db in enumerate(cfg.snr_grid):
                point = tuple((scheme, name, row[p:p + 1]) for scheme, name, row in grid)
                assert trial_rows(one_point(cfg, snr_db, i)) == [point]
        if cfg.n == 10:
            assert 0 < aborted < 6  # both paths were exercised

    def test_cap_binds_at_zero_db(self):
        cfg = small_config(scheme="snc")
        r = one_point(cfg, 0.0, trial_index=0)
        assert r.kept[0]
        # every stream capped at log2(2) = 1 bit; 3 streams over N=2 slots
        assert r.outcomes["snc"]["rate"][0, 0] <= 3.0 + 1e-12

    def test_equal_rate_structure_at_high_snr(self):
        # rate-report structure at 60 dB, cap disabled: 5 streams carry the
        # whole sum, so sum-rate = 5 x mean per-stream rate.
        cfg = small_config(scheme="snc", n=2, cap_enabled=False,
                           channel_model="complex")
        sums, streams = [], []
        for i in range(30):
            r = one_point(cfg, 60.0, i)
            assert r.kept[0]
            [[per_signal]] = stream_rates(cfg, (60.0,), [i]).tolist()
            [[sum_rate]] = r.outcomes["snc"]["rate"].tolist()
            assert len(per_signal) == 5
            assert sum_rate == pytest.approx(sum(per_signal), rel=1e-12)
            sums.append(sum_rate)
            streams.extend(per_signal)
        assert np.mean(sums) == pytest.approx(5 * np.mean(streams), rel=0.05)


def trial_rows(batch):
    """Per trial of a TrialBatch: None when it aborted, else its
    (scheme, outcome, row over the points) triples, the rows as exact
    Python values."""
    rows, k = [], 0
    for kept in batch.kept:
        if not kept:
            rows.append(None)
            continue
        rows.append(tuple((scheme, name, values[:, k].tolist())
                          for scheme, table in batch.outcomes.items()
                          for name, values in table.items()))
        k += 1
    return rows


def assert_no_trial_column(cfg, batch):
    """*batch* holds every outcome of every scheme of *cfg* as a
    [point, trial] array with no trial column."""
    schemes = [s for s in ("snc", "cf") if cfg.scheme in (s, "both")]
    assert list(batch.outcomes) == schemes
    for table in batch.outcomes.values():
        assert list(table) == list(harness.OUTCOMES)
        assert all(a.shape == (len(cfg.snr_grid), 0) for a in table.values())


def assert_same_batch(got, ref):
    """Two TrialBatches hold the same kept mask and outcome tables, dtype
    and bits."""
    assert got.kept.dtype == ref.kept.dtype and np.array_equal(got.kept, ref.kept)
    assert list(got.outcomes) == list(ref.outcomes)
    for scheme, table in got.outcomes.items():
        assert list(table) == list(ref.outcomes[scheme]) == list(harness.OUTCOMES)
        for name, a in table.items():
            b = ref.outcomes[scheme][name]
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestRunTrials:
    @pytest.mark.parametrize("overrides", [
        dict(scheme="cf", K=3),
        dict(scheme="both", tx_antennas=(2, 1), rx_antennas=(2, 1)),
        dict(scheme="snc", K=3, n=2, channel_model="complex"),
        dict(scheme="snc", n=10, channel_model="complex", cap_enabled=False,
             snr_start=40.0, snr_stop=60.0, snr_step=5.0),
    ])
    def test_chunking_does_not_change_any_trial(self, overrides):
        cfg = small_config(**overrides)
        T = 15
        whole = run_trials(cfg, range(T))
        rows = trial_rows(whole)
        for length in (1, 7, T):
            chunks = [run_trials(cfg, range(i, min(i + length, T)))
                      for i in range(0, T, length)]
            assert sum((trial_rows(b) for b in chunks), []) == rows
            for b in chunks:
                if not b.kept.any():  # a chunk whose every trial aborted
                    assert_no_trial_column(cfg, b)
        for i, row in enumerate(rows):
            b = run_trials(cfg, [i])
            assert b.kept[0] == (row is not None)
            assert trial_rows(b) == [row]
        if cfg.n == 10:
            aborted = [i for i, row in enumerate(rows) if row is None]
            assert 0 < len(aborted) < T  # both paths were exercised
            b = run_trials(cfg, aborted[:3])
            assert not b.kept.any()
            assert_no_trial_column(cfg, b)

    @pytest.mark.parametrize("overrides", [
        dict(scheme="both"),
        dict(scheme="both", tx_antennas=(2, 1), rx_antennas=(2, 1)),
        dict(scheme="snc", K=3, n=2, channel_model="complex"),
        dict(scheme="cf", K=3),
    ])
    def test_evaluate_takes_an_empty_stack(self, overrides):
        # every stage from the draw to the outcome table is total over a
        # stack of no trials, so a chunk that keeps none needs no branch
        cfg = small_config(**overrides)
        h = sample_extended_channel(cfg.M, cfg.n_ext, cfg.channel_model, [])
        arrays = [None] * 3
        if cfg.run_snc:
            passed, *arrays = draw_round(h, extension_dims(cfg.M, cfg.n))
            assert passed.shape == (0,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = harness.TrialBatch(np.zeros(0, dtype=bool),
                                   harness.evaluate(cfg, h, [], *arrays))
        assert_no_trial_column(cfg, b)

    @pytest.mark.parametrize("overrides", [
        dict(scheme="both", n=2),
        dict(scheme="snc", K=3, n=2, channel_model="complex"),
        dict(scheme="snc", n=10, channel_model="complex", cap_enabled=False),
        dict(scheme="snc", n=20, channel_model="complex"),
        dict(scheme="snc", n=5, channel_model="real"),
        dict(scheme="both", tx_antennas=(2, 1), rx_antennas=(2, 1)),
    ])
    def test_equals_per_trial_seed_sequence_path(self, overrides, monkeypatch):
        # every array of the batch is what default_rng(SeedSequence([seed,
        # i])) and its integers(0, 2) messages give, bit for bit
        cfg = small_config(**{"trials": 40, "seed": 2**40 + 7, "snr_start": -10.0,
                              "snr_stop": 60.0, **overrides})
        got = run_trials(cfg, range(cfg.trials))
        monkeypatch.setattr(harness, "trial_generators", reference_generators)
        # a chunk that keeps no trial draws messages for none
        monkeypatch.setattr(harness, "sample_message_bits", lambda n, rngs: np.array(
            [rng.integers(0, 2, size=n) for rng in rngs], dtype=np.int64).reshape(-1, n))
        ref = run_trials(cfg, range(cfg.trials))
        if cfg.n == 10:
            assert 0 < np.count_nonzero(ref.kept) < cfg.trials
        assert_same_batch(got, ref)

    @pytest.mark.parametrize("overrides", [
        # some trials abort, none do, every trial aborts
        dict(scheme="snc", n=10, channel_model="complex", cap_enabled=False),
        dict(scheme="both", n=5),
        dict(scheme="snc", n=10),
    ])
    def test_ratio_bound_changes_no_outcome(self, overrides, monkeypatch):
        # the bound only rejects draws the rank test would fail, so the
        # batch is bit for bit that of building and checking every draw
        cfg = small_config(**{"trials": 60, **overrides})
        got = run_trials(cfg, range(cfg.trials))
        monkeypatch.setattr("sncsim.snc.ratio_bound_rejects",
                            lambda g, plan: np.zeros(g.shape[:-2], dtype=bool))
        ref = run_trials(cfg, range(cfg.trials))
        assert_same_batch(got, ref)

    def test_kept_inverses_are_those_of_one_call_after_the_loop(self):
        # K=2, n=10 draws often lose rank: this chunk resamples and aborts
        cfg = small_config(scheme="snc", n=10, channel_model="complex")
        plan = extension_dims(cfg.M, cfg.n)
        rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
                for i in range(15)]

        def draw(trials):
            return sample_extended_channel(cfg.M, plan.N, cfg.channel_model,
                                           [rngs[t] for t in trials])

        first = draw(range(len(rngs)))
        h, v1, _, w, kept = usable_channels(first.copy(), plan, draw)
        assert not kept.all()
        assert np.any(np.any(h != first[kept], axis=(1, 2, 3)))  # resampled
        # each round's inverses equal one stacked inverse of the kept V_1
        assert np.array_equal(w, np.linalg.inv(v1))

    @pytest.mark.parametrize("overrides", [
        dict(scheme="snc", n=2, channel_model="real"),
        dict(scheme="snc", K=3, n=2, channel_model="complex"),
        dict(scheme="snc", n=10, channel_model="complex", cap_enabled=False,
             snr_start=40.0, snr_stop=60.0, snr_step=5.0),
    ])
    def test_snc_rate_equals_link_level_formula(self, overrides):
        # each stream at the smallest rate log2(1 + g / sigma2) over its
        # links, then capped and summed: the rate taken once per link and
        # SNR point gives the engine's block rates to the last bit
        cfg = small_config(**{"trials": 15, "snr_start": 0.0, "snr_stop": 60.0, **overrides})
        h, v1, v_other, w, _ = kept_channels(cfg, range(cfg.trials))
        eff = effective_system(extension_dims(cfg.M, cfg.n))
        gains = explicit_link_gains(v1, v_other, factored_row_norms(h, w), eff)
        rhos, sigma2 = levels(cfg.snr_grid)
        per_signal = min_over_links(np.log2(1.0 + gains[:, None, :] / sigma2[:, None]), eff)
        if cfg.cap_enabled:
            caps = np.array([math.log2(1.0 + rho) for rho in rhos])
            per_signal = np.minimum(per_signal, caps[:, None])
        b = run_trials(cfg, range(cfg.trials))
        assert len(h) == np.count_nonzero(b.kept) > 0
        assert np.array_equal(b.outcomes["snc"]["rate"], per_signal.sum(axis=-1).T)

    @pytest.mark.parametrize("overrides", [
        dict(scheme="snc", n=2),
        dict(scheme="snc", K=3, n=2, channel_model="complex"),
        dict(scheme="snc", n=10, channel_model="complex", cap_enabled=False),
        dict(scheme="snc", K=4, channel_model="complex"),
        dict(scheme="both", tx_antennas=(2, 1), rx_antennas=(2, 1)),
    ])
    def test_detected_equals_physical_chain(self, overrides):
        # F s plus the filtered unit noise flags, at every point, the errors
        # that the received vectors through the explicit filters flag
        cfg = small_config(**{"trials": 30, "snr_start": -10.0, "snr_stop": 300.0,
                              "snr_step": 10.0, **overrides})
        b = run_trials(cfg, range(cfg.trials))
        ref = oracle_detected(cfg, range(cfg.trials))
        detected = b.outcomes["snc"]["detected"].T
        assert detected.shape == ref.shape == (np.count_nonzero(b.kept), 32)
        assert np.array_equal(detected, ref)
        assert ref[:, 0].any() and not ref[:, -1].any()

    def test_chunk_length_bounds(self):
        for trials in (1, 5, 1000):
            assert chunk_length(small_config(trials=trials)) >= 1
        assert chunk_length(small_config(trials=40)) == 40
        # one trial's filters, (K, N, N), take the most elements
        for n in (30, 300):
            cfg = SimConfig(K=2, n=n, scheme="snc", trials=1000)
            N = n + 1
            length = chunk_length(cfg)
            assert length >= 1
            assert length * 2 * N * N <= BATCH_ELEMENTS or length == 1
            assert (length + 1) * 2 * N * N > BATCH_ELEMENTS
        assert chunk_length(SimConfig(K=2, n=300, scheme="snc", trials=1000)) == 1
        # the CF leg bounds its own search, so neither the scheme nor the
        # search radius moves a plan's chunks
        for K, n in [(2, 2), (3, 1), (3, 2)]:
            lengths = {chunk_length(SimConfig(K=K, n=n, trials=3000, **kw))
                       for kw in [dict(scheme="snc"), dict(scheme="both"),
                                  dict(scheme="both", cf_radius=1),
                                  dict(scheme="both", cf_radius=19)]}
            assert len(lengths) == 1


class TestRunSweep:
    def test_single_point_single_trial(self):
        cfg = small_config(trials=1, snr_start=20.0, snr_stop=20.0)
        res = run_sweep(cfg)
        sample = one_point(cfg, 20.0, 0)
        assert sample.kept[0]
        pt = point(res, "snc", 20.0)
        assert pt.trials == 1
        assert pt.mean_sum_rate == pytest.approx(sample.outcomes["snc"]["rate"][0, 0]
                                                 / cfg.n_ext)
        assert pt.std_sum_rate == 0.0
        # plain floats, whose repr the CSV writes
        assert {type(v) for v in dataclasses.astuple(pt)[2:]} == {float, int}

    def test_mean_matches_streaming_recomputation(self):
        cfg = small_config(scheme="snc", trials=20, snr_start=10.0,
                           snr_stop=10.0)
        res = run_sweep(cfg)
        mean = 0.0
        for i in range(20):
            b = one_point(cfg, 10.0, i)
            assert b.kept[0]
            x = b.outcomes["snc"]["rate"][0, 0] / cfg.n_ext
            mean += (x - mean) / (i + 1)
        assert abs(point(res, "snc", 10.0).mean_sum_rate - mean) < 1e-12

    def test_standard_error_scaling(self):
        cfg_small = small_config(scheme="snc", trials=100, snr_start=20.0,
                                 snr_stop=20.0, channel_model="complex")
        cfg_big = small_config(scheme="snc", trials=400, snr_start=20.0,
                               snr_stop=20.0, channel_model="complex")
        se_small = point(run_sweep(cfg_small), "snc", 20.0).std_sum_rate / 10
        se_big = point(run_sweep(cfg_big), "snc", 20.0).std_sum_rate / 20
        assert se_big == pytest.approx(se_small, rel=0.5)  # ~1/sqrt(T)

    def test_dof_slope_reported_when_cap_disabled(self):
        cfg = small_config(scheme="snc", cap_enabled=False, trials=20,
                           snr_start=40.0, snr_stop=60.0, snr_step=5.0,
                           channel_model="complex")
        res = run_sweep(cfg)
        assert "snc" in res.dof_slopes
        assert res.dof_slopes["snc"] == pytest.approx(1.5, abs=0.1)  # (2n+1)/(n+1)

    def test_point_where_every_trial_aborts(self):
        cfg = SimConfig(K=2, n=10, scheme="snc", channel_model="complex",
                        cap_enabled=False, trials=1, snr_start=40, snr_stop=40,
                        seed=0)
        res = run_sweep(cfg)
        pt = point(res, "snc", 40.0)
        assert pt.trials == 0 and res.aborted_trials == 1
        assert math.isnan(pt.mean_sum_rate) and math.isnan(pt.std_sum_rate)
        assert pt.outage_frac == 0.0 and pt.detected_err_frac == 0.0
        assert {type(v) for v in dataclasses.astuple(pt)[2:]} == {float, int}
        assert res.dof_slopes == {}
        assert "40 dB" in res.warning

    def test_plan_whose_every_draw_aborts_builds_no_precoders(self, monkeypatch):
        # past about n = 50 no K=2 draw keeps V_1's rank, and the ratio
        # bound rejects every draw from |g| before its precoders are built
        built = []
        monkeypatch.setattr("sncsim.snc.build_precoders",
                            lambda g, plan: built.append(len(g)) or build_precoders(g, plan))
        cfg = SimConfig(K=2, n=100, scheme="snc", trials=20, snr_start=0, snr_stop=0)
        start = time.perf_counter()
        res = run_sweep(cfg)
        assert time.perf_counter() - start < 5.0
        assert point(res, "snc", 0.0).trials == 0 and res.aborted_trials == 20
        assert built and not any(built)

    def test_abort_warning_counts_trials(self):
        # the trial of test_point_where_every_trial_aborts over five points:
        # one trial aborted, five trial-SNR evaluations lost
        cfg = SimConfig(K=2, n=10, scheme="snc", channel_model="complex",
                        cap_enabled=False, trials=1, snr_start=40, snr_stop=60,
                        snr_step=5, seed=0)
        res = run_sweep(cfg)
        assert res.aborted_trials == 5
        assert "1 of 1 trials aborted" in res.warning

    def test_pinned_sweeps_match_golden(self, monkeypatch):
        # the benchmark's reference sweeps, each with its worker count
        golden = json.loads((BENCH_DIR / "golden.json").read_text())["workloads"]
        workloads = runpy.run_path(str(BENCH_DIR / "workloads.py"))["WORKLOADS"]
        for name, ref in sorted(golden.items()):
            monkeypatch.setenv("SNCSIM_WORKERS", str(workloads[name].workers))
            res = run_sweep(SimConfig(**ref["config"]))
            assert res.aborted_trials == ref["aborted_trials"], name
            assert sorted(res.dof_slopes) == sorted(ref["dof_slopes"]), name
            for scheme, slope in ref["dof_slopes"].items():
                assert res.dof_slopes[scheme] == pytest.approx(slope, rel=1e-9), name
            assert len(res.points) == len(ref["points"]), name
            for scheme, snr_db, trials, *values in ref["points"]:
                pt = point(res, scheme, snr_db)
                assert pt.trials == trials, (name, scheme, snr_db)
                got = [pt.mean_sum_rate, pt.std_sum_rate, pt.outage_frac,
                       pt.detected_err_frac]
                assert got == pytest.approx(values, rel=1e-9, abs=1e-12), (
                    name, scheme, snr_db)


class TestAggregation:
    GRID = (0.0, 10.0, 20.0)

    @pytest.mark.parametrize("trials", [1, 7, 1000])
    def test_one_pass_equals_per_point_reductions(self, trials):
        # the [point, kept trial] pass gives each point what np.mean, np.std
        # and np.count_nonzero give on that point's row, bit for bit
        rng = np.random.default_rng(trials)
        shape = (len(self.GRID), trials)
        rates = rng.exponential(3.0, shape)
        outages = rng.integers(0, 4, shape) / 3
        detected = rng.random(shape) < 0.3
        zero = np.zeros(shape)
        n_ext = 3
        snc = harness._sweep_stats([{"rate": rates, "outage": zero, "detected": detected}],
                                   len(self.GRID), n_ext)
        cf = harness._sweep_stats([{"rate": rates, "outage": outages, "detected": zero}],
                                  len(self.GRID), n_ext)
        # chunks' tables joined in trial order reduce as the whole table
        k = trials // 2
        halves = [{"rate": rates[:, part], "outage": outages[:, part], "detected": zero[:, part]}
                  for part in (slice(0, k), slice(k, None))]
        joined = harness._sweep_stats(halves, len(self.GRID), n_ext)
        assert all(np.array_equal(joined[stat], cf[stat]) for stat in harness.STATS)
        for p in range(len(self.GRID)):
            samples = rates[p] / n_ext
            for stats in (snc, cf):
                assert list(stats) == list(harness.STATS)
                assert stats["mean_sum_rate"][p] == np.mean(samples)
                assert stats["std_sum_rate"][p] == np.std(samples)
            assert snc["detected_err_frac"][p] == (int(np.count_nonzero(detected[p]))
                                                   / trials)
            assert cf["outage_frac"][p] == np.mean(outages[p])
            assert snc["outage_frac"][p] == cf["detected_err_frac"][p] == 0.0

    @pytest.mark.parametrize("chunks", [[1000], [333, 667], [7, 200, 1, 12, 80], [1],
                                        [40, 0, 25], [0, 9000, 11001]])
    def test_one_pass_equals_numpy_reductions(self, chunks):
        # the joined [outcome, point, trial] pass gives every stat bit for
        # bit what .mean(axis=1) and .std(axis=1) give on the outcome's
        # [point, trial] rows joined in trial order, across chunk shapes,
        # a lone trial and a chunk that kept none
        rng = np.random.default_rng(len(chunks) * 1000 + sum(chunks))
        points, n_ext = len(self.GRID), 21
        tables = [{"rate": rng.exponential(3.0, (points, T)) * 10.0 ** rng.uniform(-3, 3),
                   "outage": rng.integers(0, 4, (points, T)) / 3,
                   "detected": rng.random((points, T)) < 0.3} for T in chunks]
        got = harness._sweep_stats(tables, points, n_ext)
        rows = {name: np.concatenate([t[name] for t in tables], axis=1)
                for name in harness.OUTCOMES}
        rows["rate"] = rows["rate"] / n_ext
        for stat, (outcome, how) in harness.STATS.items():
            want = rows[outcome].std(axis=1) if how == "std" else rows[outcome].mean(axis=1)
            assert got[stat].shape == (points,)
            assert np.array_equal(got[stat], want), stat

    def test_level_cache_is_read_only_and_bounded(self):
        harness.grid_levels.cache_clear()
        grid, *arrays = harness.grid_levels(-10.0, 60.0, 5.0)
        assert grid == small_config(snr_start=-10.0, snr_stop=60.0, snr_step=5.0).snr_grid
        want_rhos = [10.0 ** (x / 10.0) for x in grid]
        want = [want_rhos, [1.0 / rho for rho in want_rhos],
                [math.log2(1.0 + rho) for rho in want_rhos]]
        again = harness.grid_levels(-10.0, 60.0, 5.0)[1:]
        for array, values, same in zip(arrays, want, again):  # rhos, sigma2, caps
            assert array.dtype == float and array.tolist() == values
            with pytest.raises(ValueError):
                array[0] = 1.0
            assert same is array
        # the equal keys -0.0 and 0.0 build the same grid
        assert math.copysign(1.0, harness.grid_levels(-0.0, 10.0, 5.0)[0][0]) == 1.0
        for stop in range(3 * harness.LEVEL_CACHE):
            harness.grid_levels(0.0, float(stop), 1.0)
        assert harness.grid_levels.cache_info().currsize == harness.LEVEL_CACHE

    @pytest.mark.parametrize("K, n", [(2, 1), (2, 2), (2, 3), (3, 1), (2, 10)])
    def test_dof_fit_reads_the_means_per_channel_use(self, K, n):
        # criterion 4's sweeps: the slope fitted to the per-channel-use means
        # is the block-rate fit divided by N, as it was computed before, to
        # rounding
        cfg = SimConfig(K=K, n=n, scheme="snc", channel_model="complex", trials=200,
                        snr_start=40, snr_stop=60, snr_step=5, seed=0, cap_enabled=False)
        res = run_sweep(cfg)
        grid = np.array(cfg.snr_grid)
        means = np.array([point(res, "snc", s).mean_sum_rate for s in cfg.snr_grid])
        log2_rho = grid * (math.log(10.0) / (10.0 * math.log(2.0)))
        block_fit = np.polyfit(log2_rho, cfg.n_ext * means, 1)[0] / cfg.n_ext
        assert res.dof_slopes["snc"] == estimate_dof_slope(grid, means)
        assert res.dof_slopes["snc"] == pytest.approx(block_fit, rel=1e-11, abs=0.0)

    def test_no_kept_trial_gives_nan_rates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = [harness._sweep_stats([], len(self.GRID), 3),
                     harness._sweep_stats([], len(self.GRID), 1)]
        for at in stats:
            assert all(len(values) == len(self.GRID) for values in at.values())
            assert np.isnan(at["mean_sum_rate"]).all() and np.isnan(at["std_sum_rate"]).all()
            assert not at["outage_frac"].any() and not at["detected_err_frac"].any()

    def test_outcome_declaration_matches_point_and_csv(self):
        # a stat is declared once, in STATS: SweepPoint's stat fields and the
        # CSV's stat columns list the same names in the same order, and each
        # reduces an outcome that evaluate returns
        stats = list(harness.STATS)
        fields = [f.name for f in dataclasses.fields(harness.SweepPoint)]
        assert fields == ["scheme", "snr_db", "trials", *stats]
        assert harness.CSV_HEADER[-len(stats):] == stats
        assert "trials" not in harness.CSV_HEADER[-len(stats):]
        assert {outcome for outcome, _ in harness.STATS.values()} == set(harness.OUTCOMES)
        assert {how for _, how in harness.STATS.values()} <= {"mean", "std", "share"}
        cfg = small_config()
        b = run_trials(cfg, range(3))
        assert b.kept.all() and list(b.outcomes) == ["snc", "cf"]
        for table in b.outcomes.values():
            assert list(table) == list(harness.OUTCOMES)
            assert all(v.shape == (len(cfg.snr_grid), 3) for v in table.values())


def traced_layers():
    """The "layer.function" names of bench/run.py's TRACED, read without
    importing the benchmark."""
    tree = ast.parse((BENCH_DIR / "run.py").read_text())
    [traced] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    return traced


def test_traced_layers_exist():
    # bench/run.py wraps the functions of TRACED by name and skips a missing
    # one, so a refactor that drops or renames a traced layer must fail here
    missing = set()
    for name in traced_layers():
        layer, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"sncsim.{layer}"), fn, None)):
            missing.add(name)
    # removed before this check existed, and phy.transmit (the noisy pass
    # filters only the noise) and harness.run_trial (run_trials on one
    # index) since; the benchmark still lists them
    assert missing <= {"snc.build_effective_system", "gf.find_valid_field_size",
                       "phy.transmit", "harness.run_trial"}


def find_test_only_code(modules: dict[str, ast.Module]) -> list[str]:
    """The "layer.name" of every top-level function or class of the parsed
    src/ *modules* (module stem -> tree), and "layer.class.method" of every
    non-dunder method of such a class, that no module references outside
    its own definition: a top-level definition through a name or an
    import, a method through an attribute access.  A function the
    benchmark traces, and a method that overrides a base class's attribute
    (NumPy calls _HashedState.generate_state, argparse _Parser.error), are
    called from outside src/ and never listed."""
    traced = traced_layers()
    names, attributes = [], []
    for module in modules.values():
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                names.append((node, node.id))
            elif isinstance(node, ast.ImportFrom):
                names.extend((node, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.append((node, node.attr))

    def unreferenced(definition, references):
        inside = {id(node) for node in ast.walk(definition)}
        return not any(name == definition.name and id(node) not in inside
                       for node, name in references)

    unused = []
    for layer, module in modules.items():
        for definition in module.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if f"{layer}.{definition.name}" not in traced and unreferenced(definition, names):
                unused.append(f"{layer}.{definition.name}")
            if not isinstance(definition, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(f"sncsim.{layer}"),
                            definition.name).__mro__[1:]
            for method in definition.body:
                if (isinstance(method, ast.FunctionDef)
                        and not (method.name.startswith("__") and method.name.endswith("__"))
                        and not any(hasattr(base, method.name) for base in bases)
                        and unreferenced(method, attributes)):
                    unused.append(f"{layer}.{definition.name}.{method.name}")
    return unused


def src_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((SRC_DIR / "sncsim").glob("*.py"))}


def test_src_holds_no_test_only_code():
    # test-only code belongs in tests/, next to the tests that use it
    assert find_test_only_code(src_modules()) == []


def test_test_only_guard_matches_references_by_kind():
    # a method is called through an attribute, so a local variable of the
    # same name (count in SimConfig.snr_grid and channel.trial_generators)
    # does not make it referenced
    modules = src_modules()
    [result] = [node for node in modules["harness"].body
                if isinstance(node, ast.ClassDef) and node.name == "SweepResult"]
    result.body.append(ast.parse("def count(self):\n    return len(self.points)").body[0])
    assert any(isinstance(node, ast.Name) and node.id == "count"
               for node in ast.walk(modules["harness"]))
    assert find_test_only_code(modules) == ["harness.SweepResult.count"]


def test_sources_parse_at_the_python_floor():
    # tier-1 runs on a newer Python than pyproject.toml promises; tomllib
    # needs 3.11, so the floor is read with a pattern
    text = (SRC_DIR.parent / "pyproject.toml").read_text()
    [floor] = re.findall(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    sources = sorted(path for top in (SRC_DIR, SRC_DIR.parent / "tests", BENCH_DIR)
                     for path in top.rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=tuple(map(int, floor)))


def test_import_loads_numpy_random():
    # numpy loads numpy.random lazily; pool workers fork from the parent, so
    # unless the harness import loads it each worker loads it on its first trial
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sncsim.harness; sys.exit('numpy.random' not in sys.modules)"],
        capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr


class TestWriteResults:
    def test_round_trip(self, tmp_path):
        cfg = small_config(trials=3, out_path=str(tmp_path / "r.csv"))
        res = run_sweep(cfg)
        csv_path, json_path = write_results(res, cfg)
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(res.points)
        for row, pt in zip(rows, res.points):
            assert row["scheme"] == pt.scheme
            assert float(row["snr_db"]) == pt.snr_db
            assert float(row["mean_sum_rate"]) == pt.mean_sum_rate
            assert float(row["std_sum_rate"]) == pt.std_sum_rate
        meta = json.loads(json_path.read_text())
        assert meta["seed"] == cfg.seed
        assert meta["config"]["trials"] == 3
        assert meta["config"]["out_path"] == str(csv_path)
        assert meta["block_length"] == cfg.n_ext

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_config(trials=4)
        p1, _ = write_results(run_sweep(cfg), dataclasses.replace(
            cfg, out_path=str(tmp_path / "a.csv")))
        p2, _ = write_results(run_sweep(cfg), dataclasses.replace(
            cfg, out_path=str(tmp_path / "b.csv")))
        assert p1.read_bytes() == p2.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        # 3 usable CPUs, so that 1, 2 and 3 workers reach run_sweep unclamped
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        # smaller batch bounds make each sweep span several chunks, chunked
        # three ways (1, 5 and 16 trials), so that 2 and 3 workers reach the pool
        for overrides, bounds in [
            # 8 elements per trial
            (dict(snr_stop=10.0), (8, 40, 128)),
            # 242 elements per trial, and pooled chunks that hold resampled
            # and aborted trials
            (dict(n=10, scheme="snc", channel_model="complex", cap_enabled=False,
                  snr_start=40.0, snr_stop=60.0, snr_step=5.0), (242, 1210, 3872)),
        ]:
            cfg = small_config(trials=24, out_path=str(tmp_path / "r.csv"), **overrides)
            pools.clear()
            chunks, outputs = set(), []
            for bound in bounds:
                monkeypatch.setattr(harness, "BATCH_ELEMENTS", bound)
                assert chunk_length(cfg) < cfg.trials
                chunks.add(chunk_length(cfg))
                for workers in (1, 2, 3):
                    monkeypatch.setenv("SNCSIM_WORKERS", str(workers))
                    assert harness.worker_count() == workers
                    # each run rewrites cfg.out_path, so the sidecars compare whole
                    outputs.append([p.read_bytes()
                                    for p in write_results(run_sweep(cfg), cfg)])
            assert len(chunks) == 3
            assert pools == [2, 3] * len(bounds)
            assert all(out == outputs[0] for out in outputs)
        # the K=2, n=10 sweep, run last, aborted some of its trials
        assert json.loads(outputs[0][1])["aborted_trials"] > 0

    def test_worker_count_does_not_change_chunks(self, monkeypatch):
        # serial and pooled sweeps evaluate the same chunks in the same
        # order; the pool runs its map in this process, so that a spy on
        # run_trials sees every chunk
        cfg = SimConfig(K=2, n=2, trials=1000)
        pools, calls = [], []

        class InlinePool(contextlib.nullcontext):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(self)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def spy(cfg, indices):
            calls[-1].append(indices)
            return run_trials(cfg, indices)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "run_trials", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        for workers in (1, 2, 3):
            monkeypatch.setenv("SNCSIM_WORKERS", str(workers))
            calls.append([])
            run_sweep(cfg)
        assert pools == [2, 3]
        assert calls[0] == calls[1] == calls[2]
        assert [i for chunk in calls[0] for i in chunk] == list(range(cfg.trials))
        assert len(calls[0]) > 1

    def test_import_leaves_the_pool_unloaded(self):
        # only a pool sweep imports the process pool, so a fresh
        # interpreter's set-up does not pay for it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sncsim.cli, sncsim.harness; "
             "print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_one_batch_sweep_starts_no_pool(self, monkeypatch):
        # a sweep that fits one batch runs in this process whatever
        # SNCSIM_WORKERS asks for: the benchmark's pinned sweeps and the
        # one-trial sweep of its set-up probe
        golden = json.loads((BENCH_DIR / "golden.json").read_text())["workloads"]
        configs = [SimConfig(**ref["config"]) for _, ref in sorted(golden.items())]
        configs.append(small_config(trials=1, snr_stop=10.0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        serial = []
        for cfg in configs:
            assert chunk_length(cfg) >= cfg.trials
            monkeypatch.setenv("SNCSIM_WORKERS", "1")
            serial.append(run_sweep(cfg))

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-batch sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("SNCSIM_WORKERS", "2")
        assert harness.worker_count() == 2
        for cfg, ref in zip(configs, serial):
            res = run_sweep(cfg)
            assert (res.points, res.dof_slopes, res.aborted_trials) == (
                ref.points, ref.dof_slopes, ref.aborted_trials)


class TestCli:
    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        # parse_cli creates the --out files, by default sweep.csv and sweep.json
        monkeypatch.chdir(tmp_path)

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def sweep(cfg):
            raise AssertionError("the sweep ran on a usage error")

        monkeypatch.setattr(cli, "run_sweep", sweep)

    def test_defaults(self):
        cfg = parse_cli([])
        assert cfg == SimConfig()  # every default lives in SimConfig
        assert cfg.K == 2 and cfg.rx_count == 2
        assert cfg.n == 2 and cfg.scheme == "both"
        assert cfg.channel_model == "real" and cfg.q == 2
        assert cfg.snr_grid[0] == 0.0 and cfg.snr_grid[-1] == 60.0
        assert cfg.trials == 1000
        assert cfg.cf_radius == 3 and cfg.cap_enabled

    def test_extension_length_derived(self):
        cfg = parse_cli(["--users", "2", "--ext-n", "2"])
        assert cfg.M == 2
        from sncsim.snc import extension_dims
        assert extension_dims(2, cfg.n).N == 3

    def test_cf_with_mismatched_receivers_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--scheme", "cf", "--users", "2", "--rx", "3"])
        assert exc.value.code == 1

    def test_alignment_scheme_with_field_size_three_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--scheme", "snc", "--field-size", "3"])
        assert exc.value.code == USAGE_EXIT

    def test_zero_extension_parameter_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--users", "2", "--ext-n", "0", "--scheme", "snc"])
        assert exc.value.code == USAGE_EXIT

    def test_oversized_extension_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sncsim.cli", "--users", "2", "--ext-n", "2000000",
             "--scheme", "snc"],
            capture_output=True, text=True, env=cli_env())
        assert proc.returncode == USAGE_EXIT
        assert "Traceback" not in proc.stderr and "extension length" in proc.stderr

    def test_extension_past_the_cap_is_one_line_usage_error(self):
        # N = C(2000 * 1999 + 1999, 2000) has more digits than int-to-str
        # converts: writing it into the error once raised ValueError
        proc = subprocess.run(
            [sys.executable, "-m", "sncsim.cli", "--users", "2000", "--ext-n", "2000",
             "--scheme", "snc"],
            capture_output=True, text=True, env=cli_env())
        assert proc.returncode == USAGE_EXIT
        assert proc.stderr.count("\n") == 1 and "extension length" in proc.stderr

    def test_zero_cf_radius_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--cf-radius", "0"])
        assert exc.value.code == USAGE_EXIT

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1"],
        ["--users", "2", "--scheme", "cf", "--antennas-tx", "1"],
        ["--p-max", "2"],  # no such option: the SNR is 1 / sigma^2
        ["--snr", "nan:60:5"],
        ["--snr", "0:nan:5"],
        ["--snr", "0:60:inf"],
        ["--snr", "10:0:5"],
        ["--users", "2", "--ext-n", "1", "--trials", "1", "--snr", "4000:4000:1"],
        ["--users", "2", "--ext-n", "1", "--trials", "1", "--snr=-4000:-4000:1"],
        ["--users", "2", "--ext-n", "1", "--trials", "1", "--snr", "1600:1600:1"],
        ["--users", "2", "--ext-n", "1", "--trials", "1", "--snr=-1600:-1600:1"],
        ["--users", "3", "--ext-n", "1", "--scheme", "cf", "--cf-radius", "1000000"],
        ["--snr", "0:60:5e-324"],
        ["--snr", "0:60:1e-300"],
        ["--trials", str(2**32 + 1)],
        ["--snr", "a:60:5"],
        ["--antennas-tx", "2,x"],
        # the sidecar r.json would overwrite the CSV r.json
        ["--trials", "1", "--snr", "10:10:10", "--ext-n", "1", "--out", "r.json"],
        # a CSV that could not be written once the sweep is done
        ["--trials", "5", "--ext-n", "1", "--out", "no_such_directory/x.csv"],
        ["--trials", "5", "--ext-n", "1", "--out", ""],
        ["--trials", "5", "--ext-n", "1", "--out", "x" * 300 + ".csv"],
        ["--trials", "5", "--ext-n", "1", "--out", "."],
    ])
    def test_input_that_would_fail_mid_sweep_is_usage_error(self, argv, capsys,
                                                            no_sweep):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE_EXIT
        assert "error" in capsys.readouterr().err

    def test_sidecar_that_names_a_directory_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "r.json").mkdir()
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--out", str(tmp_path / "r.csv")])
        assert exc.value.code == USAGE_EXIT
        err = capsys.readouterr().err
        assert os.strerror(errno.EISDIR) in err and "r.json" in err

    def test_dangling_symlink_out_is_usage_error(self, tmp_path, capsys, no_sweep):
        # its directory exists and is writable, but the file it points to
        # cannot be created: the sweep once ran, then the CLI exited 2
        (tmp_path / "r.csv").symlink_to(tmp_path / "missing" / "r.csv")
        with pytest.raises(SystemExit) as exc:
            main(["--trials", "5", "--ext-n", "1", "--out", "r.csv"])
        assert exc.value.code == USAGE_EXIT
        assert os.strerror(errno.ENOENT) in capsys.readouterr().err

    def test_out_check_creates_both_files_and_truncates_nothing(self, tmp_path):
        (tmp_path / "r.csv").write_text("kept\n")
        cfg = parse_cli(["--out", "r.csv"])
        assert cfg.out_path == "r.csv"
        assert (tmp_path / "r.csv").read_text() == "kept\n"
        assert (tmp_path / "r.json").read_bytes() == b""

    def test_bad_worker_count_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SNCSIM_WORKERS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["--trials", "1", "--snr", "10:10:10", "--ext-n", "1"])
        assert exc.value.code == USAGE_EXIT
        err = capsys.readouterr().err
        assert "SNCSIM_WORKERS" in err and "Traceback" not in err

    def test_negative_snr_start_needs_equals_form(self):
        # argparse reads "-10:0:5" after "--snr" as an option, not a value
        assert parse_cli(["--snr=-10:0:5"]).snr_grid == (-10.0, -5.0, 0.0)
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--snr", "-10:0:5"])
        assert exc.value.code == USAGE_EXIT
        assert "--snr=-10:0:5" in " ".join(build_parser().format_help().split())

    def test_bad_snr_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--snr", "0-60-5"])
        assert exc.value.code == 1

    def test_end_to_end_invocation(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sncsim.cli", "--users", "2", "--ext-n", "1",
             "--trials", "2", "--snr", "10:20:10", "--out", str(out)],
            capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert out.exists() and out.with_suffix(".json").exists()

    def test_overflowing_precoders_abort_every_trial(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sncsim.cli",
             "--users", "2", "--ext-n", "200",
             "--scheme", "snc", "--trials", "5", "--snr", "0:0:1",
             "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
        assert "5 of 5 trials aborted" in proc.stderr and "Traceback" not in proc.stderr

    def test_unwritable_output_is_io_error(self, tmp_path, monkeypatch, capsys):
        # the directory passes the check before the sweep and is gone when
        # the results are written
        out_dir = tmp_path / "vanishing"
        out_dir.mkdir()

        def sweep_then_remove(cfg):
            res = run_sweep(cfg)
            for path in out_dir.iterdir():  # the files the --out check created
                path.unlink()
            out_dir.rmdir()
            return res

        monkeypatch.setattr(cli, "run_sweep", sweep_then_remove)
        code = main(["--trials", "1", "--snr", "10:10:10", "--ext-n", "1",
                     "--out", str(out_dir / "x.csv")])
        assert code == IO_EXIT
        assert "I/O error" in capsys.readouterr().err
