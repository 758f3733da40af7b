"""Pinned sweep outputs: a declared matrix of small sweeps whose results
are recorded in tests/data/pinned_outputs.json.

A change that keeps every output leaves this file passing; a change that
moves an output on purpose re-records the file and says so:

    PYTHONPATH=src python tests/test_pinned_outputs.py

Counts, schemes, SNR points and warnings are compared exactly, stats and
DoF slopes at the benchmark golden's tolerances (relative 1e-9, absolute
1e-12), and a NaN stat (no kept trial) is recorded as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from sncsim.harness import STATS, WORKERS_ENV, SimConfig, run_sweep

DATA = Path(__file__).resolve().parent / "data" / "pinned_outputs.json"
RTOL = 1e-9
ATOL = 1e-12

_GRID = dict(snr_start=0.0, snr_stop=60.0, snr_step=10.0, trials=40)
_MIMO = dict(tx_antennas=(2, 1), rx_antennas=(2, 1))

# name -> SimConfig keyword arguments, each over 0:60:10 at 40 trials
MATRIX = {
    "k2n1_snc_real_s0": dict(K=2, n=1, scheme="snc"),
    "k2n1_both_real_uncapped_s1": dict(K=2, n=1, cap_enabled=False, seed=1),
    "k2n2_both_real_s0": dict(K=2, n=2),
    "k2n2_both_real_s1": dict(K=2, n=2, seed=1),
    "k2n2_snc_complex_s0": dict(K=2, n=2, scheme="snc", channel_model="complex"),
    "k2n3_snc_complex_uncapped_s0": dict(K=2, n=3, scheme="snc", channel_model="complex",
                                         cap_enabled=False),
    "k2n3_both_real_uncapped_s1": dict(K=2, n=3, cap_enabled=False, seed=1),
    "k2n5_snc_real_s1": dict(K=2, n=5, scheme="snc", seed=1),
    "k2n5_snc_complex_uncapped_s0": dict(K=2, n=5, scheme="snc", channel_model="complex",
                                         cap_enabled=False),
    "k2n10_snc_complex_uncapped_s0": dict(K=2, n=10, scheme="snc", channel_model="complex",
                                          cap_enabled=False),
    "k2n10_snc_real_s1": dict(K=2, n=10, scheme="snc", seed=1),
    "k2n20_snc_real_uncapped_s0": dict(K=2, n=20, scheme="snc", cap_enabled=False),
    "k2n20_snc_complex_s1": dict(K=2, n=20, scheme="snc", channel_model="complex", seed=1),
    "k2n100_both_real_s1": dict(K=2, n=100, seed=1),
    "k3n1_both_real_s0": dict(K=3, n=1),
    "k3n1_both_real_uncapped_s1": dict(K=3, n=1, cap_enabled=False, seed=1),
    "k3n2_snc_complex_s0": dict(K=3, n=2, scheme="snc", channel_model="complex"),
    "k3n2_snc_real_uncapped_s1": dict(K=3, n=2, scheme="snc", cap_enabled=False, seed=1),
    "k3n2_both_real_q2_s1": dict(K=3, n=2, seed=1),
    "k4n1_both_real_s0": dict(K=4, n=1),
    "k4n1_snc_complex_uncapped_s1": dict(K=4, n=1, scheme="snc", channel_model="complex",
                                         cap_enabled=False, seed=1),
    "k2_cf_q2_r1_s0": dict(K=2, scheme="cf", cf_radius=1),
    "k2_cf_q3_r3_uncapped_s1": dict(K=2, scheme="cf", q=3, cap_enabled=False, seed=1),
    "k2_cf_q3_r127_s0": dict(K=2, scheme="cf", q=3, cf_radius=127),
    "k3_cf_q2_r19_s0": dict(K=3, scheme="cf", cf_radius=19),
    "k3_cf_q3_r19_s1": dict(K=3, scheme="cf", q=3, cf_radius=19, seed=1),
    "k3_cf_q3_r1_uncapped_s0": dict(K=3, scheme="cf", q=3, cf_radius=1, cap_enabled=False),
    "k4_cf_q3_r1_s1": dict(K=4, scheme="cf", q=3, cf_radius=1, seed=1),
    "mimo_both_real_s1": dict(K=2, n=1, seed=1, **_MIMO),
    "mimo_snc_complex_uncapped_s1": dict(K=2, n=2, scheme="snc", channel_model="complex",
                                         cap_enabled=False, seed=1, **_MIMO),
}


def config(name: str) -> SimConfig:
    return SimConfig(**dict(_GRID, **MATRIX[name]))


def outputs(cfg: SimConfig) -> dict:
    """The sweep's outputs as plain JSON values, a NaN stat as None."""
    res = run_sweep(cfg)

    def plain(x):
        return None if math.isnan(x) else x

    return {
        "points": [[p.scheme, p.snr_db, p.trials, *(plain(getattr(p, s)) for s in STATS)]
                   for p in res.points],
        "dof_slopes": res.dof_slopes,
        "aborted_trials": res.aborted_trials,
        "warning": res.warning,
    }


def close(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_record_covers_the_declared_matrix(recorded):
    assert list(recorded["sweeps"]) == list(MATRIX)
    assert recorded["stats"] == list(STATS)


@pytest.mark.parametrize("name", list(MATRIX))
def test_outputs_match_the_record(name, recorded, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    got, want = outputs(config(name)), recorded["sweeps"][name]
    for count in ("aborted_trials", "warning"):
        assert got[count] == want[count]
    assert len(got["points"]) == len(want["points"])
    for g, w in zip(got["points"], want["points"]):
        assert g[:3] == w[:3]
        assert all(close(a, b) for a, b in zip(g[3:], w[3:])), (g, w)
    assert list(got["dof_slopes"]) == list(want["dof_slopes"])
    assert all(close(got["dof_slopes"][s], v) for s, v in want["dof_slopes"].items())


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    record = {"stats": list(STATS),
              "sweeps": {name: outputs(config(name)) for name in MATRIX}}
    DATA.write_text(json.dumps(record, indent=1) + "\n")
