#!/usr/bin/env python3
"""Measures how steady crmd-bench's end-to-end metrics are.

    python3 crmd-bench/steadiness.py [--runs 10] [--workload NAME ...]

Runs two sets of the same code one after the other. A set runs each
workload once per seed 1..runs, --trace 0, for BENCHMARK.json's
run_seconds. Any difference between the two sets is the host's.

For every metric the report gives each set's median [Q1, Q3] and spread,
(Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4), and the shift: how much worse the
second set's median is than the first's, as a share of the first's. A
metric is flagged when a set's spread exceeds a third of its bound in
BENCHMARK.json (not for setup_s, whose spread the bound does not cover), or
when its shift exceeds its bound. The exit code is 1 when anything is
flagged. --workload and a smaller --runs give a quick check of one workload
while tuning. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    """Returns Q1, median, Q3 and the spread (Q3 - Q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def describe(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {q[3]:.1%}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()

    workloads = args.workload or names
    sets = []
    for _ in range(2):
        values = {w: {} for w in workloads}
        for workload in workloads:
            for seed in range(1, args.runs + 1):
                for k, v in run_once(bench, workload, seed).items():
                    values[workload].setdefault(k, []).append(v)
        sets.append(values)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        print(f"== {workload} (2 sets of {args.runs} runs)")
        for name, a in sets[0][workload].items():
            b = sets[1][workload][name]
            bound = metrics[name]["bound"]
            qa, qb = quartiles(a), quartiles(b)
            shift = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if metrics[name]["better"] == "higher":
                shift = -shift
            flags = []
            if name != "setup_s" and max(qa[3], qb[3]) > bound / 3:
                flags.append("spread > bound/3")
            if shift > bound:
                flags.append("shift > bound")
            steady = steady and not flags
            print(f"  {name:22s} 1: {describe(qa)} | 2: {describe(qb)}"
                  f" | shift {shift:+.1%} bound {bound:.0%} {' '.join(flags)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
