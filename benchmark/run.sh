#!/usr/bin/env bash
# Build the benchmark into build/benchmark and run it. Arguments pass
# through to the driver (see diaca_benchmark.cc):
#
#   bash benchmark/run.sh                    # all workloads, 3 runs each
#   bash benchmark/run.sh --trace            # plus one traced run each
#   bash benchmark/run.sh --workload churn --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr, so the driver's result is the last line of
# stdout. Exits non-zero, printing no result, when the build fails.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=build/benchmark

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target diaca_benchmark -j "$(nproc)" >&2

DIACA_BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || true)" \
  exec "$build/diaca_benchmark" "$@"
