#!/usr/bin/env python3
"""The benchmark's own tests: the seed contract, and that each metric
moves when the layer it measures changes and stays put when it does not.

    python3 perfbench/test_contract.py [--seconds 3] [--seed 7]

Each check perturbs the program only through public constructor
arguments, which ulsperf exposes: --sched for Sim.create's event queue,
--scale for the Cost_model record given to Cluster.create. A digest
covers every virtual-time metric and per-layer count of a --trace 0 run
(the nominal run and the rate ladder).

  seed     the same seed twice gives the same digest on every workload;
           another seed gives another digest.
  heap     --sched heap leaves every digest unchanged (dispatch order is
           scheduler-independent) and raises fabric's host_s past its
           bound (fabric has the largest timer population).
  syscall  --scale syscall=2 raises serve-tcp's latency_p50_us past its
           bound and leaves the serve, firehose and fabric digests
           unchanged: only kernel TCP makes system calls.
  hash     --scale nic_hash_lookup=2 raises serve's latency_p50_us past
           its bound and leaves the serve-tcp digest unchanged: kernel
           TCP never uses the NIC tag matcher.

Exits non-zero if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve", "serve-tcp", "firehose", "fabric"]

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def runner(seconds):
    cache = {}

    def run(workload, seed, *extra, rep=0):
        key = (workload, seed, extra, rep)
        if key not in cache:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *extra]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout.splitlines()
            detail = json.loads(next(l for l in out if l.startswith("DETAIL "))[7:])
            result = json.loads(out[-1])
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} seed {seed} {' '.join(extra)}: verified, no failures")
            cache[key] = (detail, result)
        return cache[key]

    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    run = runner(args.seconds)
    seed = args.seed

    def digest(w, *extra, **kw):
        return run(w, seed, *extra, **kw)[0]["digest"]

    def metric(w, name, *extra):
        detail = run(w, seed, *extra)[0]
        return detail["virtual"].get(name, detail["host"].get(name))

    def moved(w, name, *extra):
        base, new = metric(w, name), metric(w, name, *extra)
        expect(new > base * (1 + bound[name]),
               f"{' '.join(extra)}: {w} {name} {base:.4g} -> {new:.4g}, past its bound {bound[name]}")

    def unmoved(w, *extra):
        expect(digest(w, *extra) == digest(w), f"{' '.join(extra)}: {w} virtual digest unchanged")

    for w in WORKLOADS:
        expect(digest(w) == digest(w, rep=1), f"seed: {w} same seed, same digest")
        expect(run(w, seed + 1)[0]["digest"] != digest(w), f"seed: {w} another seed, another digest")

    for w in WORKLOADS:
        unmoved(w, "--sched", "heap")
    moved("fabric", "host_s", "--sched", "heap")

    moved("serve-tcp", "latency_p50_us", "--scale", "syscall=2")
    for w in ["serve", "firehose", "fabric"]:
        unmoved(w, "--scale", "syscall=2")

    moved("serve", "latency_p50_us", "--scale", "nic_hash_lookup=2")
    unmoved("serve-tcp", "--scale", "nic_hash_lookup=2")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
