#!/usr/bin/env python3
"""Builds and runs the ErbiumDB end-to-end benchmark.

    python3 perfbench/run.py --workload point_lookup --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the engine from src/) into the build
directory named by $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, then runs the load generator. The generator's last stdout
line is the JSON result; a failed build exits non-zero without one.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("point_lookup", "analytic", "ingest_durable")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "erbium_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir, "work")
    cmd = [os.path.join(build_dir, "erbium_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
