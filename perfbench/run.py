#!/usr/bin/env python3
"""Builds and runs the cqc serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload path3_point --seed 1 --seconds 30 --trace 0

Workloads: path3_fanout, path3_point, path3_churn (perfbench/workload.cc).

The first run configures and builds perfbench/ (the cqc library from src/
plus the benchmark program) into .bench_build/perfbench; later runs rebuild
only what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. With --trace 1 the spans are written to
.bench_build/perfbench/trace-<workload>-<seed>.tsv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cqc_perfbench")
# The benchmark itself ends well within this; the cap guarantees the run
# ends even if the program under test hangs.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (1 is the default, 2 held out)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="break the answer oracle for one key "
                             "(self-test: the run must fail)")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.tsv")]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
