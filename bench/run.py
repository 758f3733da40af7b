#!/usr/bin/env python3
"""sncsim benchmark: trial-SNR throughput on pinned sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from `src/`.

`--trace 0` measures with tracing off and reports the end-to-end metrics:
evaluations (one trial at one SNR point) per second, CPU seconds per
evaluation (parent and pool workers), set-up time of a fresh interpreter,
and peak resident memory.  `--trace 1` runs the same sweeps untraced and
then traced, and reports per-layer calls and self time (see layertrace.py).

Every run first runs the workload's pinned sweep at the default seed and
compares it with `golden.json`: counts must match exactly, rates to a
relative 1e-9.  Every timed sweep is checked for invariants: finite rates,
fractions in [0, 1], kept plus aborted trials equal to the trials attempted.

On a shared 2-vCPU Xeon VM the CPU's speed drifts by tens of percent over
seconds, for the benchmark and for any other code alike.  So each sweep is
bracketed by a fixed calibration kernel and scaled by CALIB_REF_S / (kernel
time around it), and each set-up probe likewise by a bare interpreter start:
times are in reference seconds, the speed of an idle machine.  A pool sweep
runs on every core at once, so around it the kernel runs pinned to each core
in turn and its mean time counts.  The raw wall-clock rate is printed too.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `failed` counts
evaluations lost to a sweep that raised; trials the simulator aborts on a
degenerate channel are its designed outcome, reported as `failed_frac`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import layertrace
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12  # only matters for values that are 0 in the reference
MIN_SWEEPS = 3
SETUP_PROBES = 11

# About the time of calibrate() on an idle 2-vCPU Intel Xeon at 2.1 GHz, in
# seconds.  Any fixed value works: it only sets the scale of reference seconds.
CALIB_REF_S = 0.060

# The layers and functions the traced run wraps ("layer.function").
TRACED = (
    "channel.sample_extended_channel", "channel.sample_noise",
    "snc.build_precoders", "snc.check_precoder_ranks", "snc.verify_alignment",
    "snc.build_filters", "snc.build_effective_system", "snc.cp_recover",
    "phy.per_link_rates", "phy.end_to_end_sum_rate", "phy.modulate_bpsk",
    "phy.transmit", "phy.filter_and_demodulate",
    "cf_baseline.cf_trial_sum_rate", "cf_baseline.cf_select_coeffs",
    "gf.gf_rank", "gf.gf_select_independent_rows", "gf.gf_solve",
    "gf.find_valid_field_size",
    "harness.run_trial",
)

END_TO_END_UNITS = {"evals_per_s": "1/s", "cpu_s_per_eval": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# About the time of BARE_PROBE on that idle machine, in seconds.
BARE_REF_S = 0.110
BARE_PROBE = [sys.executable, "-c", "import json, sys, numpy"]
PROBE = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "from sncsim.harness import SimConfig, run_sweep; "
         "run_sweep(SimConfig(**json.loads(sys.argv[2])))")

_CAL_MATS = np.random.default_rng(12345).standard_normal((64, 4, 4))


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls,
    the same kind of work a trial does, using no sncsim code."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(80):
        for m in _CAL_MATS:
            acc += float(np.linalg.inv(m)[0, 0]) + float(np.sum(np.abs(m) ** 2))
            acc += sum(i * 0.5 for i in range(20))
    return perf_counter() - t0


def calibrate_cores() -> float:
    """Mean time of calibrate() pinned to each core this process may use.
    The cores' speeds drift apart, and an unpinned kernel measures only the
    core it happens to run on."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(allowed):
            os.sched_setaffinity(0, {core})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Sweep:
    evals: int
    start: float  # perf_counter() when the sweep began
    wall: float
    cpu: float
    speed: float  # CALIB_REF_S / calibration time around the sweep
    result: object  # SweepResult, or None when run_sweep raised
    problems: list


def import_sncsim():
    if not (SRC / "sncsim" / "__init__.py").is_file():
        sys.exit(f"error: no simulator at {SRC / 'sncsim'}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sncsim.harness
    if Path(sncsim.__file__).resolve().parent != (SRC / "sncsim").resolve():
        sys.exit(f"error: imported sncsim from {sncsim.__file__}, not {SRC}")
    return sncsim.harness


def invariant_problems(cfg, res) -> list[str]:
    schemes = [s for s in ("snc", "cf") if cfg.scheme in (s, "both")]
    attempted = cfg.trials * len(cfg.snr_grid)
    out = []
    if len(res.points) != len(cfg.snr_grid) * len(schemes):
        out.append(f"{len(res.points)} points for {len(cfg.snr_grid)} SNR values")
    for s in schemes:
        kept = sum(p.trials for p in res.points if p.scheme == s)
        if kept + res.aborted_trials != attempted:
            out.append(f"{s}: {kept} kept + {res.aborted_trials} aborted "
                       f"!= {attempted} attempted")
    for p in res.points:
        if p.trials and not (math.isfinite(p.mean_sum_rate) and math.isfinite(p.std_sum_rate)):
            out.append(f"{p.scheme} {p.snr_db} dB: rate not finite")
        if not (0.0 <= p.outage_frac <= 1.0 and 0.0 <= p.detected_err_frac <= 1.0):
            out.append(f"{p.scheme} {p.snr_db} dB: fraction outside [0, 1]")
    out += [f"DoF slope {s} not finite" for s, v in res.dof_slopes.items()
            if not math.isfinite(v)]
    return out


def run_sweeps(harness, w, seed: int, seconds: float) -> list[Sweep]:
    """Repeat sweeps of the workload with fresh inputs until `seconds` pass."""
    sweeps = []
    kernel_time = calibrate_cores if w.workers > 1 else calibrate
    k_before = kernel_time()
    deadline = perf_counter() + seconds
    rep = 0
    while rep < MIN_SWEEPS or perf_counter() < deadline:
        cfg = harness.SimConfig(**w.sweep_config(seed, rep))
        c0, t0 = cpu_seconds(), perf_counter()
        try:
            res = harness.run_sweep(cfg)
        except Exception:  # the sweep's evaluations count as failed
            traceback.print_exc()
            res = None
        t1, c1 = perf_counter(), cpu_seconds()
        k_after = kernel_time()
        problems = invariant_problems(cfg, res) if res is not None else []
        for p in problems:
            print(f"invariant violated in sweep {rep}: {p}", file=sys.stderr)
        sweeps.append(Sweep(w.evals_per_sweep, t0, t1 - t0, c1 - c0,
                            2 * CALIB_REF_S / (k_before + k_after), res, problems))
        k_before = k_after
        rep += 1
    return sweeps


def sweep_record(res) -> dict:
    return {
        "aborted_trials": res.aborted_trials,
        "dof_slopes": dict(sorted(res.dof_slopes.items())),
        "points": [[p.scheme, p.snr_db, p.trials, p.mean_sum_rate, p.std_sum_rate,
                    p.outage_frac, p.detected_err_frac] for p in res.points],
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL)


def golden_mismatches(expected: dict, actual: dict) -> int:
    """Output values of the pinned sweep that differ from the reference:
    each SNR point of each scheme, the abort count, and each DoF slope."""
    count = int(expected["aborted_trials"] != actual["aborted_trials"])
    es, acs = expected["dof_slopes"], actual["dof_slopes"]
    count += sum(1 for k in es.keys() | acs.keys()
                 if k not in es or k not in acs or not _close(es[k], acs[k]))
    ep = {(p[0], p[1]): p for p in expected["points"]}
    ap = {(p[0], p[1]): p for p in actual["points"]}
    for key in ep.keys() | ap.keys():
        e, a = ep.get(key), ap.get(key)
        if (e is None or a is None or e[2] != a[2]
                or not all(_close(x, y) for x, y in zip(e[3:], a[3:]))):
            count += 1
    return count


def golden_sweep(harness, w):
    """Run the pinned sweep; returns (its record or None, invariant problems)."""
    cfg = harness.SimConfig(**w.sweep_config(DEFAULT_SEED, 0))
    try:
        res = harness.run_sweep(cfg)
    except Exception:
        traceback.print_exc()
        return None, ["pinned sweep raised"]
    return sweep_record(res), invariant_problems(cfg, res)


def check_golden(harness, w) -> tuple[int, list[str]]:
    golden = json.loads(GOLDEN_PATH.read_text())["workloads"].get(w.name)
    if golden is None or golden["config"] != w.sweep_config(DEFAULT_SEED, 0):
        sys.exit(f"error: {GOLDEN_PATH.name} has no reference for {w.name} "
                 "as currently defined")
    record, problems = golden_sweep(harness, w)
    if record is None:
        return len(golden["points"]) + 1, problems
    return golden_mismatches(golden, record), problems


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, for a pool, the largest worker peak
    times the worker count.  Call before starting any other child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * kids if workers > 1 else 0)) / 1024.0


def _probe_seconds(cmd, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    return perf_counter() - t0, proc


def setup_seconds(w) -> tuple[float, str | None]:
    """Median time, in reference seconds, for a fresh interpreter to import
    sncsim and run one trial at one SNR point of the workload.

    Start-up reacts to the box's speed unlike calibrate(), so each probe is
    scaled by a bare interpreter that imports numpy, timed around it.

    When the one trial aborts, run_sweep divides by zero kept trials (a
    known defect).  The probe still pays the whole set-up before it raises,
    so its time counts; the error is returned so the run can report it.
    """
    env = dict(os.environ, SNCSIM_WORKERS=str(w.workers))
    cmd = [sys.executable, "-c", PROBE, str(SRC), json.dumps(w.setup_config())]
    times, error = [], None
    b_before, _ = _probe_seconds(BARE_PROBE, env)
    for _ in range(SETUP_PROBES):
        dt, proc = _probe_seconds(cmd, env)
        if proc.returncode != 0:
            error = proc.stderr.strip().splitlines()[-1]
            if not error.startswith("ZeroDivisionError"):
                sys.exit("error: set-up probe failed:\n" + proc.stderr)
        b_after, _ = _probe_seconds(BARE_PROBE, env)
        times.append(dt * 2 * BARE_REF_S / (b_before + b_after))
        b_before = b_after
    return statistics.median(times), error


def commit_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(w, seed: int) -> dict:
    return {"workload": w.name, "seed": seed, "SNCSIM_WORKERS": w.workers,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit_hash(), "calib_ref_s": CALIB_REF_S, "bare_ref_s": BARE_REF_S}


def ok_sweeps(sweeps: list[Sweep]) -> list[Sweep]:
    ok = [s for s in sweeps if s.result is not None]
    if not ok:
        sys.exit("error: every sweep raised")
    return ok


def aborted_frac(sweeps: list[Sweep]) -> float:
    ok = [s for s in sweeps if s.result is not None]
    return sum(s.result.aborted_trials for s in ok) / sum(s.evals for s in ok)


def full_rank_slot_ratio(sweeps: list[Sweep]) -> float:
    """1 - mean CF outage over kept trials; 0 when CF does not run."""
    pts = [p for s in sweeps if s.result is not None
           for p in s.result.points if p.scheme == "cf"]
    trials = sum(p.trials for p in pts)
    return sum((1.0 - p.outage_frac) * p.trials for p in pts) / trials if trials else 0.0


def time_per_eval(sweeps: list[Sweep]) -> float:
    """Median wall seconds per evaluation, in reference seconds."""
    return statistics.median(s.wall * s.speed / s.evals for s in ok_sweeps(sweeps))


def end_to_end(harness, w, seed: int, seconds: float):
    sweeps = run_sweeps(harness, w, seed, seconds)
    rss = peak_rss_mb(w.workers)
    ok = ok_sweeps(sweeps)
    setup, setup_error = setup_seconds(w)
    metrics = {
        "evals_per_s": 1.0 / time_per_eval(sweeps),
        "cpu_s_per_eval": statistics.median(s.cpu * s.speed / s.evals for s in ok),
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    raw = statistics.median(s.evals / s.wall for s in ok)
    print(f"# raw evals_per_s {raw:.6g} 1/s (not scaled); "
          f"failed_frac {aborted_frac(sweeps):.6g}; sweeps {len(sweeps)}")
    if setup_error:
        print(f"# known defect: the one-trial set-up sweep raised {setup_error}")
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, sweeps


def traced(harness, w, seed: int, seconds: float):
    """Untraced then traced sweeps on the same inputs; per-layer metrics."""
    plain = run_sweeps(harness, w, seed, seconds / 2)
    tracer = layertrace.Tracer(TRACED)
    tracer.install()
    try:
        sweeps = run_sweeps(harness, w, seed, seconds / 2)
    finally:
        tracer.uninstall()
    s = tracer.summary()
    for name in tracer.missing:
        print(f"# not traced: {name} does not exist; its metrics read 0")

    evals = sum(sw.evals for sw in sweeps)
    procs = max(1, w.workers)  # processes that run trials
    total = sum(sw.wall for sw in sweeps) * procs
    # Self times plus unattributed sum to the total by construction, so the
    # checks are on the spans themselves (see Tracer.summary) and on the
    # outermost spans: each inside a traced sweep, together within the total.
    unattributed = total - s["root_s"]
    problems = sorted(set(s["problems"]))
    windows = [(sw.start, sw.start + sw.wall) for sw in sweeps]
    if any(not any(a <= t0 and t1 <= b for a, b in windows) for _, t0, t1 in s["roots"]):
        problems.append("an outermost span lies outside every traced sweep")
    if unattributed < -1e-6 * total:
        problems.append("traced spans cover more than the traced wall time")

    speed = statistics.median(sw.speed for sw in sweeps)
    us = 1e6 * speed / evals
    metrics, units = {}, {}
    for name in TRACED:
        metrics[f"{name}.self_us_per_eval"] = s["self_s"][name] * us
        metrics[f"{name}.calls_per_eval"] = s["calls"][name] / evals
    draws = s["calls"]["channel.sample_extended_channel"]
    kept = s["calls"]["harness.run_trial"] - s["raised"]["harness.run_trial"]
    metrics.update({
        "harness.unattributed_us_per_eval": unattributed * us,
        "harness.pool_tasks_per_eval": tracer.pool_tasks / evals,
        "harness.draws_per_trial_eval": draws / evals,
        "harness.kept_draw_ratio": kept / draws if draws else 0.0,
        "cf_baseline.full_rank_slot_ratio": full_rank_slot_ratio(sweeps),
        "failed_frac": aborted_frac(plain + sweeps),
        "trace.total_us_per_eval": total * us,
        "trace.overhead_frac": time_per_eval(sweeps) / time_per_eval(plain) - 1.0,
        "trace.missing_functions": len(tracer.missing),
    })
    for name in metrics:
        if name.endswith("_us_per_eval"):
            units[name] = "us"
        elif name.endswith(("_ratio", "_frac")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)
    return metrics, units, plain + sweeps, problems


def write_golden(harness, names):
    data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {"workloads": {}}
    for name in names:
        w = WORKLOADS[name]
        os.environ["SNCSIM_WORKERS"] = str(w.workers)
        record, problems = golden_sweep(harness, w)
        if record is None or problems:
            sys.exit(f"error: pinned sweep of {name} is invalid: {problems}")
        data["workloads"][name] = {"config": w.sweep_config(DEFAULT_SEED, 0), **record}
    data["commit"] = commit_hash()
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="rerun the pinned sweeps (of --workload, or all) and "
                         "store them as the reference")
    args = ap.parse_args(argv)
    harness = import_sncsim()
    if args.write_golden:
        write_golden(harness, [args.workload] if args.workload else sorted(WORKLOADS))
        return
    if args.workload is None:
        ap.error("--workload is required")
    w = WORKLOADS[args.workload]
    os.environ["SNCSIM_WORKERS"] = str(w.workers)

    mismatch, problems = check_golden(harness, w)
    if args.trace:
        metrics, units, sweeps, trace_problems = traced(harness, w, args.seed, args.seconds)
        metrics["golden_mismatch"] = mismatch
        units["golden_mismatch"] = "count"
        problems += trace_problems
    else:
        metrics, units, sweeps = end_to_end(harness, w, args.seed, args.seconds)
    problems += [p for s in sweeps for p in s.problems]
    print(f"# golden_mismatch {mismatch}")

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"env": environment(w, args.seed)}))
    print(json.dumps({
        "correct": mismatch == 0 and not problems,
        "attempted": sum(s.evals for s in sweeps),
        "failed": sum(s.evals for s in sweeps if s.result is None),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
