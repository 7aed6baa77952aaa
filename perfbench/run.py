#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Builds perfbench/ulsperf.exe with dune into .bench_build/ (release
profile, shared build cache off, so a run reads and writes only inside
the checkout), runs it and passes its output through. The last line is
the result object {"correct", "attempted", "failed", "metrics"}: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer
metrics with --trace 1. The result is checked against BENCHMARK.json
before it is printed. Any further arguments (--sched, --scale) go to
ulsperf unchanged; the sensitivity tests use them.

Exits non-zero without printing a result when the program's sources are
not beside the benchmark, the build fails, or the run fails or overruns.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "ulsperf.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: the program's sources must sit beside the benchmark")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/ulsperf.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")
    return EXE


def check(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys"
    got = result["metrics"]
    if set(got) != set(want):
        return "metric names differ: " + " ".join(sorted(set(got) ^ set(want)))
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            return f"metric {name}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run overran {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"ulsperf failed (exit {r.returncode})")
    try:
        problem = check(json.loads(lines[-1]), args.trace)
    except (ValueError, KeyError) as e:
        problem = f"unparsable result ({e})"
    if problem:
        sys.stderr.write(r.stdout)
        fail("result does not match BENCHMARK.json: " + problem)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
