#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload steady|heal|churn|pipelined \
        --seed N --seconds S --trace 0|1 [--smoke]

The build tree lives in $CARGO_TARGET_DIR (default .bench_build) under the
repository root; span files go to .bench_out. Build output goes to stderr,
so the last line on stdout is the benchmark's result object. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "e2e_bench")


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2e_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("e2e_bench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "e2e_bench")


def main():
    binary = build()
    if binary is None:
        return 1
    done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
