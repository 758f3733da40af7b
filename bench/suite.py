#!/usr/bin/env python3
"""Run every benchmark workload and summarise run-to-run spread.

    python3 bench/suite.py [--seeds 10] [--sets 2] [--out bench/baseline.json]

For each set and seed it runs `bench/run.py --trace 0` on every workload,
interleaving workloads so that drift in the box's speed reaches all of
them, then one `--trace 1` run per workload at the default seed.  It
prints every end-to-end metric with its unit: per set the median and the
spread (distance between the first and third quartile over the median),
and whether each spread and each later set's median stay within the bound
in BENCHMARK.json (a median may differ from the first set's by at most the
bound, in either direction).  With --out it also writes all of this, the
per-layer numbers and the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}

    values = {w: {m: [[] for _ in range(args.sets)] for m in e2e} for w in names}
    incorrect = []
    env = None
    for k in range(args.sets):
        for i in range(args.seeds):
            seed = 1 + k * args.seeds + i
            for w in names:
                result, env = run(w, seed, seconds, 0)
                if set(result["metrics"]) != set(e2e):
                    sys.exit(f"error: {w} reported {sorted(result['metrics'])}")
                if not result["correct"] or result["failed"]:
                    incorrect.append((w, seed))
                for m, v in result["metrics"].items():
                    if v["unit"] != e2e[m]["unit"]:
                        sys.exit(f"error: {w} {m} has unit {v['unit']}")
                    values[w][m][k].append(v["value"])
                print(f"set {k} seed {seed} {w}: " + ", ".join(
                    f"{m} {v['value']:.6g}" for m, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)

    summary, steady = {}, True
    for w in names:
        print(f"\n{w}")
        summary[w] = {}
        for m, spec_m in e2e.items():
            sets = [spread(v) for v in values[w][m]]
            worse = [((s[0] - sets[0][0]) if spec_m["better"] == "lower"
                      else (sets[0][0] - s[0])) / sets[0][0] for s in sets[1:]]
            ok_spread = all(s[3] <= spec_m["bound"] / 3 for s in sets)
            ok_drift = all(abs(d) <= spec_m["bound"] for d in worse)
            steady &= ok_spread and ok_drift
            summary[w][m] = {"unit": spec_m["unit"], "bound": spec_m["bound"],
                             "sets": [{"median": s[0], "q1": s[1], "q3": s[2], "spread": s[3],
                                       "values": v} for s, v in zip(sets, values[w][m])],
                             "worse_than_first_set": worse}
            print(f"  {m:16s} " + "  ".join(
                f"median {s[0]:.6g} {spec_m['unit']} spread {s[3]:.3f}" for s in sets)
                + (f"  worse {max(worse, key=abs):+.3f}" if worse else "")
                + f"  bound {spec_m['bound']}"
                + ("" if ok_spread and ok_drift else "  NOT STEADY"))

    traced = {}
    for w in names:
        result, _ = run(w, DEFAULT_SEED, seconds, 1)
        if set(result["metrics"]) != set(layer):
            sys.exit(f"error: traced {w} reported {sorted(result['metrics'])}")
        if not result["correct"]:
            incorrect.append((w, "traced"))
        traced[w] = {m: v["value"] for m, v in result["metrics"].items()}
    print("\nper-layer (traced run, default seed)")
    for m in layer:
        print(f"  {m:50s} " + " ".join(f"{traced[w][m]:12.6g}" for w in names)
              + f" {layer[m]['unit']}")

    print("\nall runs correct" if not incorrect else f"\nINCORRECT runs: {incorrect}")
    print("steady: every spread below a third of its bound, sets agree" if steady
          else "NOT STEADY")
    if args.out:
        env = {k: v for k, v in env.items() if k not in ("workload", "seed", "SNCSIM_WORKERS")}
        env["SNCSIM_WORKERS"] = {w: WORKLOADS[w].workers for w in names}
        out = {"env": env, "run_seconds": seconds, "seeds_per_set": args.seeds,
               "sets": args.sets, "end_to_end": summary, "per_layer": traced,
               "incorrect_runs": incorrect}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    sys.exit(0 if steady and not incorrect else 1)


if __name__ == "__main__":
    main()
