#!/usr/bin/env python3
"""Builds the simulator and runs the pinned end-to-end benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload sweep|replay|fuzz|all \
      [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-test

The simulator is compiled from the checkout's src/ into
.bench_build/perfbench (CMake, -O2); the first run builds, later runs
reuse the build. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Workloads, metrics and the baseline are
described in perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds; returns False when the build fails."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    cmd = [os.path.join(BUILD, "perfbench"),
           "--work-dir", os.path.join(BUILD, "work"),
           "--digests", os.path.join(HERE, "digests.txt")] + argv
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
