#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the TEMP
libraries from the repository root) into .bench_build/perfbench; later
calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the driver's JSON result. The exit code is the
driver's (non-zero when an operation failed or an answer was
rejected), or non-zero without a result when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")


def build(targets):
    """Configure (once) and build the given targets; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
    return subprocess.run(command + targets,
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["cold_plan", "serve_mix", "fault_replay"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build([target]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, target)
    if args.selftest:
        return subprocess.run([binary]).returncode
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--workdir", WORK_DIR]).returncode


if __name__ == "__main__":
    sys.exit(main())
