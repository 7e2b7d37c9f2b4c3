#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a CMake project that
compiles the rcoal libraries from src/) into .bench_build/perfbench, or
into $CARGO_TARGET_DIR/perfbench when that is set, then runs one
workload. The driver's human-readable lines are passed through; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

On top of the driver's own output checks this script checks that the
metrics printed are exactly those BENCHMARK.json lists for the pass, with
the same units, and compares the output digest with the value pinned in
perfbench/pinned_digests.json for that workload and seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; build output -> stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out_dir, "rcoal_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the rcoal sources (src/) are not in this checkout")
    spec, expected = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"driver exited with code {done.returncode}")
    result = json.loads(lines[-1])
    digest = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("digest: "):
            digest = line.split()[1]

    checks = []
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    checks.append((printed == expected,
                   "metrics differ from BENCHMARK.json: "
                   f"{sorted(set(printed) ^ set(expected))}"))
    with open(os.path.join(HERE, "pinned_digests.json"),
              encoding="utf-8") as f:
        pinned = json.load(f).get(args.workload, {}).get(str(args.seed))
    if pinned is not None:
        checks.append((digest == pinned,
                       f"digest {digest} differs from pinned {pinned}"))
        print(f"digest pinned for seed {args.seed}: "
              f"{'match' if digest == pinned else 'MISMATCH'}")
    for ok, message in checks:
        result["attempted"] += 1
        if not ok:
            result["failed"] += 1
            result["correct"] = False
            print(f"CHECK FAILED: {message}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
