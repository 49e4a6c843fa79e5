#!/usr/bin/env python3
"""Self-test for crmd-bench. Run from the root of a checkout:

    python3 crmd-bench/selftest.py

Runs every workload at a tiny size (--tiny) and asserts that
  - the untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit, and is correct;
  - the traced run prints every per-layer metric, with its unit, is correct,
    and reports a positive trace.overhead_ratio;
  - a run whose results are damaged before checking (--corrupt) is counted
    as failed, prints correct=false and exits nonzero;
  - malformed arguments exit 2 without a result;
  - a directory holding only BENCHMARK.json and crmd-bench/ exits nonzero
    without a result.
Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def run(args, cwd=ROOT):
    out = subprocess.run([sys.executable, os.path.join(cwd, "crmd-bench",
                                                       "run.py")] + args,
                         cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return out.returncode, result


def expect_metrics(result, spec, label):
    got = result["metrics"]
    check(set(got) == {m["name"] for m in spec},
          f"{label}: prints exactly the declared metrics")
    for m in spec:
        entry = got.get(m["name"], {})
        check(entry.get("unit") == m["unit"] and
              isinstance(entry.get("value"), (int, float)),
              f"{label}: {m['name']} has a value in {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "0.5",
                "--tiny"]
        code, result = run(base + ["--trace", "0"])
        check(code == 0 and result is not None and result["correct"] and
              result["failed"] == 0 and result["attempted"] >= 1,
              f"{name}: untraced tiny run is correct")
        if result:
            expect_metrics(result, bench["end_to_end"], f"{name} untraced")
            for m in bench["end_to_end"]:
                value = result["metrics"].get(m["name"], {}).get("value", 0)
                check(value > 0, f"{name}: {m['name']} is not 0")

        code, result = run(base + ["--trace", "1"])
        check(code == 0 and result is not None and result["correct"],
              f"{name}: traced tiny run is correct and matches untraced")
        if result:
            expect_metrics(result, bench["per_layer"], f"{name} traced")
            ratio = result["metrics"].get("trace.overhead_ratio", {})
            check(ratio.get("value", 0) > 0,
                  f"{name}: trace.overhead_ratio reported")

        code, result = run(base + ["--trace", "0", "--corrupt"])
        check(code != 0 and result is not None and not result["correct"] and
              result["failed"] >= 1,
              f"{name}: a corrupted result counts as a failure")

    code, result = run(["--workload", "no-such-workload", "--seed", "1",
                        "--seconds", "1", "--trace", "0"])
    check(code == 2 and result is None, "unknown workload exits 2, no result")
    code, result = run(["--workload", bench["workloads"][0]["name"],
                        "--seed", "x", "--seconds", "1", "--trace", "0"])
    check(code == 2 and result is None, "malformed seed exits 2, no result")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "crmd-bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(["--workload", bench["workloads"][0]["name"],
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare)
    check(code != 0 and result is None,
          "benchmark files alone exit nonzero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
