#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workloads attack_eval serve_saturated \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--out spread.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every metric its median, quartiles and the quartile distance
as a share of the median (statistics.quantiles(values, n=4)), next to
the metric's bound from BENCHMARK.json. --out keeps the raw values, so
two sets of runs (for example a parent and a child commit) can be
compared with --compare A.json B.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: INCORRECT", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as f:
                sets.append(json.load(f))
        for workload, metrics in sets[0].items():
            for name, first in metrics.items():
                second = sets[1][workload][name]
                m1, m2 = statistics.median(first), statistics.median(second)
                m = bounds.get(name)
                worse = (m1 - m2) / m1 if m and m["better"] == "higher" \
                    else (m2 - m1) / m1
                print(f"{workload:16} {name:18} {m1:14.6g} {m2:14.6g} "
                      f"worse {worse:+.3f} bound {m['bound'] if m else '-'}")
        return

    raw = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in args.seeds]
        raw[workload] = {name: [r[name] for r in runs] for name in runs[0]}
        for name, values in raw[workload].items():
            q1, q2, q3, rel = summary(values)
            bound = bounds[name]["bound"] if name in bounds else None
            flag = "" if bound is None or rel < bound / 3 else "  <-- spread"
            print(f"{workload:16} {name:32} median {q2:12.6g} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {rel:.4f} bound {bound}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
