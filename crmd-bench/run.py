#!/usr/bin/env python3
"""Builds crmd-bench from the checkout's sources and runs one workload.

    python3 crmd-bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when
set, else to .bench_build, both relative to the checkout root; build output
goes to stderr so that the benchmark's JSON result stays the last line of
stdout. Exits nonzero without a result when the library sources are missing
or the build fails, and with the benchmark's own exit code otherwise.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("crmd-bench: library sources not found under src/ of the "
                 "checkout; run from a full checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(min(os.cpu_count() or 1, 4))],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "crmd_bench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"crmd-bench: build failed: {e}")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
