#!/usr/bin/env bash
# Builds the benchmarks in Release mode and runs every bench_* binary,
# collecting results under bench/results/ (gitignored):
#   <name>.gbench.json  google-benchmark's own JSON report
#   BENCH_<name>.json   the metrics-registry dump written on exit
#   BENCH_<name>.prom   the same registry, Prometheus text exposition
#
# Only Release binaries produce numbers worth keeping: the script
# verifies the build tree's CMAKE_BUILD_TYPE and refuses to record
# results from anything else. A debug-built google-benchmark *library*
# (the harness, not our code) is tagged with a warning instead — its
# overhead makes timings conservative, not invalid.
#
# Usage:
#   scripts/run_benches.sh                  # all benches, default scale
#   scripts/run_benches.sh bench_exec_micro # just one
#   ERBIUM_BENCH_SCALE=2000 scripts/run_benches.sh   # smaller database
#   BENCH_MIN_TIME=0.2 scripts/run_benches.sh        # faster, noisier
#
# See EXPERIMENTS.md for how these results map onto the paper's figures.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-release"
results="$repo/bench/results"
min_time="${BENCH_MIN_TIME:-0.5}"

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" -j "$(nproc)" --target $(
  ls "$repo"/bench/bench_*.cc | xargs -n1 basename | sed 's/\.cc$//'
) >/dev/null

# Guard: numbers from a debug build are noise and must never land in
# bench/results/. The cache is the source of truth for what we built.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build/CMakeCache.txt")"
if [ "$build_type" != "Release" ]; then
  echo "refusing to run benchmarks: $build is CMAKE_BUILD_TYPE='$build_type'," >&2
  echo "expected Release (delete $build and re-run)" >&2
  exit 1
fi

mkdir -p "$results"

selected=("$@")
for bin in "$build"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  if [ "${#selected[@]}" -gt 0 ]; then
    case " ${selected[*]} " in
      *" $name "*) ;;
      *) continue ;;
    esac
  fi
  echo "== $name =="
  gbench_out="$results/$name.gbench.json"
  ERBIUM_BENCH_STATS_DIR="$results" "$bin" \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$gbench_out" \
    --benchmark_out_format=json
  # google-benchmark also records how the *benchmark library itself* was
  # compiled. That is the harness, not our code (the CMakeCache check
  # above already guarantees our tree is Release) — a debug harness adds
  # per-iteration overhead, so tag the run loudly but keep the numbers:
  # they are conservative, not wrong.
  if grep -q '"library_build_type": "debug"' "$gbench_out"; then
    echo "WARNING: $name ran against a debug-built google-benchmark" >&2
    echo "library; timings include extra harness overhead (conservative)." >&2
  fi
  # Drop the legacy (pre-.gbench) output name so stale copies cannot be
  # mistaken for the registry dump BENCH_<stem>.json.
  rm -f "$results/$name.json"
done

# Conformance gate: every Prometheus exposition written here must pass
# the same validator CI runs against live scrapes. Catches a broken
# exporter (or a bench that wrote an empty/truncated .prom).
validator="$build/examples/prom_validate"
if [ ! -x "$validator" ]; then
  cmake --build "$build" -j "$(nproc)" --target prom_validate >/dev/null
fi
for prom in "$results"/BENCH_*.prom; do
  [ -e "$prom" ] || continue
  if ! "$validator" < "$prom"; then
    echo "invalid Prometheus exposition: $prom" >&2
    exit 1
  fi
done

echo "results in $results/"
