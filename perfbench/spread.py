#!/usr/bin/env python3
"""Repeated-run check: run workloads with a distinct seed per run and
report, for each end-to-end metric, its median and its spread (the
distance between the first and third quartile, as a share of the
median) against the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--workload fabric ...]

Distinct seeds make every virtual-time metric a sample, not a replay of
one timeline. A spread under a third of its bound is steady; setup_s is
reported but not held to its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in workloads:
        results = [run(w, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}"
              f", {len(bad)} incorrect or failing")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound / 3 or name == "setup_s"
            steady &= ok and not bad
            print(f"  {name:18s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bound:5.3f}  {'ok' if ok else 'WIDE'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
