#!/usr/bin/env python3
"""Self-check of the benchmark's output contract.

    python3 perfbench/selfcheck.py [--seconds 2]

For every workload in BENCHMARK.json it runs perfbench/run.py briefly and
checks that:
  * the timed run (--trace 0) prints exactly the end-to-end metrics, each
    with its declared unit, with zero failed statements;
  * the traced run (--trace 1) prints exactly the per-layer metrics, each
    with its declared unit, and no statement's server-timing footer
    (queue_wait + execute) exceeds its client round trip;
  * exec.rows_out.* repeats exactly across two traced runs with different
    seeds (the data set is fixed; only the statement streams change).
It also runs ingest_durable, which BENCHMARK.json does not gate (its
figures follow the host's disk), so that its correctness checks keep
passing. Exits non-zero on the first failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def check(cond, message):
    if not cond:
        sys.exit("FAIL " + message)


def check_metrics(workload, result, declared, what):
    got = result["metrics"]
    check(set(got) == set(declared),
          f"{workload} {what}: metric names differ: "
          f"missing {sorted(set(declared) - set(got))}, "
          f"extra {sorted(set(got) - set(declared))}")
    for name, metric in got.items():
        check(metric.get("unit") == declared[name],
              f"{workload} {what}: {name} unit {metric.get('unit')!r}, "
              f"declared {declared[name]!r}")
        check(isinstance(metric.get("value"), (int, float)),
              f"{workload} {what}: {name} has no numeric value")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} {what}: correct={result['correct']} "
          f"failed={result['failed']} attempted={result['attempted']}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in [w["name"] for w in bench["workloads"]]:
        result, _ = run(workload, 1, args.seconds, 0)
        check_metrics(workload, result, end_to_end, "timed run")
        rows_out = []
        for seed in (1, 2):
            result, info = run(workload, seed, args.seconds, 1)
            check_metrics(workload, result, per_layer, "traced run")
            phase = [l for l in info if "server phase:" in l]
            check(phase and re.search(r" 0 with queue_wait \+ execute > rtt",
                                      phase[0]),
                  f"{workload}: footer timing exceeds rtt: {phase}")
            rows_out.append({k: v["value"] for k, v in
                             result["metrics"].items()
                             if k.startswith("exec.rows_out.")})
        check(rows_out[0] == rows_out[1],
              f"{workload}: exec.rows_out differs across seeds: {rows_out}")
        print(f"ok {workload}")

    result, _ = run("ingest_durable", 1, args.seconds, 0)
    check_metrics("ingest_durable", result, end_to_end, "timed run")
    print("ok ingest_durable (not gated)")


if __name__ == "__main__":
    main()
