"""Compare the sweep outputs of a base tree with this tree's, config by config.

    python tests/identity.py --base REV        # REV's src/, extracted by git archive
    python tests/identity.py --base-src DIR    # a src/ directory on disk
    python tests/identity.py --base REV --speed

Every config of tests/test_pinned_outputs.MATRIX and the five larger sweeps
of POOLED run on both trees.  The first four span at least two chunks
each (tests/test_identity.py checks it), so they start a pool at 2
workers; the fifth, a K=3, radius-19 CF sweep, runs its coefficient
search in many tiles of one chunk, or on a pool of 1-trial chunks in a
tree whose chunks shrink with the search.  Each tree and
SNCSIM_WORKERS count (1 and 2) runs in one fresh interpreter whose
PYTHONPATH is that tree's src/ alone.  A config's outputs are the CSV's
bytes, every sidecar key but config.out_path, every SweepPoint stat,
dof_slopes, aborted_trials and warning; a value matches only when its
repr does, so -0.0 differs from 0.0 and NaN matches NaN.  Per config and
worker count it prints "identical", or the first differing field and the
largest relative difference, and it exits 1 when anything differs.
--config runs only the named configs.

--speed compares the benchmark's end-to-end metrics instead.  On every
workload of BENCHMARK.json it runs BENCHMARK.json's command, `python3
bench/run.py --workload W --seed i --seconds S --trace 0` with S its
run_seconds, in REV's src/ and bench/ (git archive) and in this tree,
PAIRS (10) pairs i = 0..9 each swapping which side runs first, and reads
each run's last line of stdout.  Per workload and metric it prints each side's
median and quartiles, the change and the pairs the head wins (a tie
counts for neither), and a verdict by the metric's `better` and `bound`
(verdict()).  It exits 1 when a run fails or is not correct, or when a
verdict is "regression", and writes no file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script, with tests/ as sys.path[0]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_pinned_outputs import MATRIX, config  # noqa: E402

WORKERS = (1, 2)
PAIRS = 10  # --speed's pairs of runs per workload, the fewest a gain may rest on
BENCHMARK = ROOT / "BENCHMARK.json"
POOLED = {
    "k2n2_both_real_1000": dict(K=2, n=2, trials=1000),
    "k3n1_both_real_600": dict(K=3, n=1, trials=600),
    "k3n2_snc_complex_300": dict(K=3, n=2, scheme="snc", channel_model="complex",
                                 trials=300),
    "k2n10_snc_complex_uncapped_600": dict(K=2, n=10, scheme="snc",
                                           channel_model="complex", cap_enabled=False,
                                           snr_start=40.0, snr_stop=60.0, trials=600),
    # the largest K=3 radius: multi-tile CF passes, on the pool at 2 workers
    # wherever the tree sizes CF chunks by the coefficient search
    "k3_cf_r19_300": dict(K=3, scheme="cf", cf_radius=19, snr_step=10.0, trials=300),
}

# Runs in the child: reads {"dir", "configs"} from stdin and writes each
# config's outputs, and the path of the harness it imported, to stdout.
CHILD = r"""
import dataclasses, json, sys
from pathlib import Path
from sncsim import harness
jobs = json.load(sys.stdin)
outputs = {}
for name, kwargs in jobs["configs"].items():
    cfg = harness.SimConfig(**dict(kwargs, out_path=str(Path(jobs["dir"]) / f"{name}.csv")))
    res = harness.run_sweep(cfg)
    path, sidecar = harness.write_results(res, cfg)
    meta = json.loads(sidecar.read_text())
    del meta["config"]["out_path"]
    outputs[name] = {"csv": path.read_text(), "sidecar": meta,
                     "points": [dataclasses.asdict(p) for p in res.points],
                     "dof_slopes": res.dof_slopes, "aborted_trials": res.aborted_trials,
                     "warning": res.warning}
json.dump({"harness": harness.__file__, "outputs": outputs}, sys.stdout)
"""


def configs(names=None) -> dict[str, dict]:
    """SimConfig keyword arguments of the named configs, all by default."""
    every = {name: dataclasses.asdict(config(name)) for name in MATRIX}
    every.update(POOLED)
    unknown = set(names or ()) - set(every)
    if unknown:
        raise SystemExit(f"unknown config(s): {', '.join(sorted(unknown))}")
    return {name: every[name] for name in names} if names else every


def run_tree(src: Path, workers: int, jobs: dict[str, dict]) -> dict:
    """The outputs of every config of *jobs*, run in one fresh interpreter
    on the tree *src* with SNCSIM_WORKERS *workers*."""
    src = src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(src), SNCSIM_WORKERS=str(workers))
        proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp, env=env, text=True,
                              input=json.dumps({"dir": tmp, "configs": jobs}),
                              capture_output=True)
    if proc.returncode:
        raise SystemExit(f"the sweeps failed on {src}:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["harness"]).resolve().is_relative_to(src):
        raise SystemExit(f"imported {result['harness']}, not a module of {src}")
    return result["outputs"]


def flatten(value, path=""):
    """(path, leaf) of every leaf of nested dicts and lists, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def leaves(out: dict) -> dict:
    """The outputs of one config as {field path: leaf}, the CSV cell by cell
    under its header's names."""
    header, *rows = csv.reader(io.StringIO(out["csv"]))
    cells = {"header": header, "rows": [dict(zip(header, row)) for row in rows]}
    return dict(flatten(dict(out, csv=cells)))


def relative_difference(a, b) -> float:
    """|a - b| / max(|a|, |b|) of two numbers or numeric strings, 0 for
    two zeros, and inf where either is not a finite number."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if isinstance(a, bool) or isinstance(b, bool) or not math.isfinite(x - y):
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def differences(base: dict, head: dict) -> list[tuple[str, float]]:
    """(field, relative difference) of every field where the outputs of one
    config differ, in output order: a leaf whose repr differs, one that
    only one side has, and the CSV's bytes where no cell explains them."""
    old, new = leaves(base), leaves(head)
    found = []
    for path in dict.fromkeys([*old, *new]):
        if path not in old or path not in new:
            found.append((path, math.inf))
        elif repr(old[path]) != repr(new[path]):
            found.append((path, relative_difference(old[path], new[path])))
    if base["csv"] != head["csv"] and not any(p.startswith("csv.") for p, _ in found):
        found.insert(0, ("csv", math.inf))
    return found


def extract(rev: str, paths: list[str], dest: Path) -> None:
    """Extract *paths* of the git revision *rev* into *dest*."""
    archive = subprocess.run(["git", "archive", rev, *paths], cwd=ROOT, capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of *values* by
    statistics.quantiles' default (exclusive) method, as bench/suite.py
    reports the spreads of bench/baseline.json."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def head_wins(base: list[float], head: list[float], better: str) -> int:
    """The pairs in which head[i] beats base[i] on a metric whose *better*
    is "higher" or "lower"; a tie wins for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from its paired runs, base[i] against
    head[i], the metric *better* "higher" or "lower" and worse by at most
    the relative *bound* before it regresses:
    - "gain": there are at least PAIRS pairs, the head wins at least 9 in
      10 of them, a tie winning for neither side, and its median beats the
      base's by more than the base's interquartile range;
    - "regression": the head's median is worse by more than *bound*;
    - "unresolved": the base's interquartile range is wider than *bound*,
      unless every head run beats every base run;
    - otherwise "no change"."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med, q3 = quartiles(base)
    ahead = sign * (quartiles(head)[1] - med)  # > 0 where the head is better
    if (len(base) >= PAIRS and 10 * head_wins(base, head, better) >= 9 * len(base)
            and ahead > q3 - q1):
        return "gain"
    if -ahead > bound * abs(med):
        return "regression"
    if q3 - q1 > bound * abs(med) and not min(sign * h for h in head) > max(
            sign * b for b in base):
        return "unresolved"
    return "no change"


def speed_report(runs: dict, end_to_end: list[dict]) -> tuple[list[str], list[str]]:
    """The report's lines and every verdict, from *runs*, workload ->
    [(base metrics, head metrics)] one per pair, each {metric: value}, and
    BENCHMARK.json's *end_to_end* metrics."""
    lines, verdicts = [], []
    for workload, pairs in runs.items():
        lines.append(f"{workload} ({len(pairs)} pairs)")
        for metric in end_to_end if pairs else ():
            name = metric["name"]
            base = [b[name] for b, _ in pairs]
            head = [h[name] for _, h in pairs]
            (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
            wins = head_wins(base, head, metric["better"])
            verdicts.append(verdict(base, head, metric["better"], metric["bound"]))
            lines.append(f"  {name:<15} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                         f"head {hm:.6g} [{h1:.6g}, {h3:.6g}]  "
                         f"{100 * (hm - bm) / bm:+.2f} %  head better {wins}/{len(pairs)}  "
                         f"{verdicts[-1]}")
    return lines, verdicts


def bench_run(command: list[str], tree: Path, workload: str, seed: int,
              seconds: float) -> dict | None:
    """The JSON of the last stdout line of one benchmark run in *tree*, or
    None where the run exits nonzero or ends in no JSON object."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        out = None
    if proc.returncode or not isinstance(out, dict):
        print(f"# the run failed (exit {proc.returncode}):\n{proc.stderr}", flush=True)
        return None
    return out


def speed(rev: str) -> int:
    """Run the --speed comparison of *rev* against this tree; the exit status."""
    bench = json.loads(BENCHMARK.read_text())
    bad = 0  # runs that failed or are not correct
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        extract(rev, ["src", "bench"], Path(tmp))
        trees = {"base": Path(tmp), "head": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            runs[workload] = []
            for i in range(PAIRS):
                out = {}
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    out[side] = bench_run(bench["command"], trees[side], workload, i,
                                          bench["run_seconds"])
                    ok = out[side] is not None and out[side]["correct"] and not out[side]["failed"]
                    bad += not ok
                    value = out[side]["metrics"]["evals_per_s"]["value"] if out[side] else None
                    print(f"# {workload} pair {i + 1}/{PAIRS} {side}: evals_per_s {value}"
                          + ("" if ok else "; FAILED or not correct"), flush=True)
                if None not in out.values():
                    runs[workload].append(tuple(
                        {k: v["value"] for k, v in out[side]["metrics"].items()}
                        for side in ("base", "head")))
    lines, verdicts = speed_report(runs, bench["end_to_end"])
    print("\n".join(lines))
    if bad:
        print(f"{bad} run(s) failed or were not correct")
    return 1 if bad or "regression" in verdicts else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", metavar="REV", help="git revision whose src/ is the base")
    side.add_argument("--base-src", metavar="DIR", type=Path, help="the base src/ on disk")
    parser.add_argument("--config", nargs="+", metavar="NAME", help="run only these configs")
    parser.add_argument("--speed", action="store_true",
                        help="compare the benchmark's end-to-end metrics instead of the outputs")
    args = parser.parse_args(argv)
    if args.speed:
        if args.base is None:
            parser.error("--speed needs --base REV")
        return speed(args.base)
    jobs = configs(args.config)
    with tempfile.TemporaryDirectory() as tmp:
        base = args.base_src
        if base is None:
            extract(args.base, ["src"], Path(tmp))
            base = Path(tmp) / "src"
        runs = {w: (run_tree(base, w, jobs), run_tree(ROOT / "src", w, jobs))
                for w in WORKERS}
    worst = []  # (largest relative difference, config, field) per differing run
    fields = set()  # every differing field, indices dropped
    for name in jobs:
        for w, (old, new) in runs.items():
            found = differences(old[name], new[name])
            if not found:
                print(f"identical  {name} (workers {w})")
                continue
            rel, where = max((rel, path) for path, rel in found)
            worst.append((rel, name, where))
            fields.update(re.sub(r"\[\d+\]", "[]", path) for path, _ in found)
            print(f"DIFFERS    {name} (workers {w}): first {found[0][0]}; "
                  f"{len(found)} field(s); largest relative difference {rel:.3g} at {where}")
    total = len(jobs) * len(WORKERS)
    summary = f"{total - len(worst)} of {total} config runs identical"
    if worst:
        summary += "; largest relative difference {:.3g} at {} {}".format(*max(worst))
        summary += f"; fields that differ: {', '.join(sorted(fields))}"
    print(summary)
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
