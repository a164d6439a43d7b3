#!/usr/bin/env bash
# Tier-1 verification: full build + test suite (portable-SIMD kernels), an
# observability-artifact smoke (one bench run with
# --metrics-out/--trace-out, outputs validated as JSON), the kernel
# property suite + determinism grid again under the AVX2 build with a
# bench_kernels smoke (JSON-validated), then the concurrency tests (thread
# pool + parallel determinism grid) again under ThreadSanitizer, and
# finally the fault-tolerance suite (`resilience` label: fault plans,
# repair solver, resilient sessions, malformed-corpus loaders) and the
# distance-oracle suite (`oracle` label: lazy-row bit parity, LRU cache,
# streaming clouds, concurrent queries) again under ThreadSanitizer and
# AddressSanitizer+UBSan. A bench_oracle smoke proves a 100k-client solve
# through the rows backend stays inside a hard RSS budget, and a
# filter-and-refine smoke proves bound pruning on the landmark backend
# changes nothing but the wall clock (objective stable, tiles pruned) on
# both the tiled and the materialized client block.
# A churn control-plane smoke re-optimizes 10k clients across 50 churn
# epochs (plus a server crash) under a hard migration cap, and the churn
# suite (`churn` label) runs again under both sanitizers. The repository
# benchmark runs at smoke scale, which cross-checks the tiled and
# resident cloud fingerprints.
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

# The repository benchmark at smoke scale (benchmark_smoke, ~4 s): every
# workload runs untraced and traced, and the orchestrator requires the
# cloud-tiled and cloud-resident plans to carry identical fingerprints.
cmake -S benchmark -B build/benchmark -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build/benchmark -j --target diaca_benchmark
ctest --test-dir build/benchmark --output-on-failure

# A real bench must emit parseable observability artifacts (small
# instance; the JSON check uses CMake's own parser — no new deps).
obs_dir=build/obs_smoke
mkdir -p "$obs_dir"
./build/bench/bench_parallel --nodes=150 --servers=10 --reps=1 --threads=4 \
  --metrics-out="$obs_dir/metrics.json" --trace-out="$obs_dir/trace.json" \
  > "$obs_dir/bench.log"
cmake -DJSON_FILE="$obs_dir/metrics.json" -P scripts/check_json.cmake
cmake -DJSON_FILE="$obs_dir/trace.json" -P scripts/check_json.cmake

# APSP-engine smoke on a small instance: both backends compared (legacy
# vs engine Dijkstra bitwise, blocked vs Dijkstra to 1e-9) and the JSON
# report validated.
./build/bench/bench_apsp --nodes=256 --servers=10 --reps=1 --tile=32 \
  --json-out="$obs_dir/bench_apsp_smoke.json" > "$obs_dir/bench_apsp.log"
cmake -DJSON_FILE="$obs_dir/bench_apsp_smoke.json" -P scripts/check_json.cmake

# Distance-oracle smoke at real scale: 100k clients on a 2000-node
# substrate solved end to end through the lazy-rows backend. The dense
# equivalent is ~80 GB; the run must finish inside 2 GB of peak RSS (the
# binary enforces the budget and the <10% dense fraction) and emit a
# parseable JSON report.
./build/bench/bench_oracle --clients=100000 --substrate-nodes=2000 \
  --parity-nodes=500 --quality-nodes=500 --rss-budget-mb=2048 \
  --json-out="$obs_dir/bench_oracle_smoke.json" > "$obs_dir/bench_oracle.log"
cmake -DJSON_FILE="$obs_dir/bench_oracle_smoke.json" \
  -P scripts/check_json.cmake

# Tiled client-block smoke at full scale: 1M clients x 64 servers solved
# greedily without ever materializing the |C|x|S| block (488 MB). The
# --rss-budget-mb gate pins peak RSS strictly below that block size, so
# the streamed view provably costs less memory than the block it
# replaces (measured ~330 MB; the CLI exits non-zero on breach).
./build/tools/diaca cloud --nodes=2000 --clients=1000000 --servers=64 \
  --block=tiled --rss-budget-mb=440 \
  > "$obs_dir/cloud_tiled.log"

# Filter-and-refine smoke: the 100k-client cloud on the landmark-sketch
# backend, solved with bound pruning on and off, on the tiled and on the
# materialized client block (greedy runs one bucket-refined path on
# both). Pruning must be a pure accelerator: the objective must not move,
# and the pruned run must actually skip work (tiles pruned > 0). The
# bench_oracle smoke above additionally verifies the pruned-vs-unpruned
# assignment and objective bitwise (unformatted doubles) on the rows
# backend.
prune_smoke() {
  local block=$1
  local cmd=(./build/tools/diaca cloud --nodes=2000 --clients=100000
    --servers=16 --block="$block" --oracle=landmarks:landmarks=16)
  local on="$obs_dir/cloud_${block}_prune_on.log"
  local off="$obs_dir/cloud_${block}_prune_off.log"
  "${cmd[@]}" --prune=on > "$on"
  "${cmd[@]}" --prune=off > "$off"
  local d_on d_off pruned unpruned
  d_on=$(grep 'max interaction path' "$on")
  d_off=$(grep 'max interaction path' "$off")
  if [ "$d_on" != "$d_off" ]; then
    echo "FAIL ($block): bound pruning changed the objective:" \
      "'$d_on' vs '$d_off'" >&2
    exit 1
  fi
  pruned=$(grep 'tiles pruned' "$on" | awk '{print $NF}')
  if [ "${pruned:-0}" -eq 0 ]; then
    echo "FAIL ($block): bound pruning never engaged (tiles pruned == 0)" >&2
    exit 1
  fi
  unpruned=$(grep 'tiles pruned' "$off" | awk '{print $NF}')
  if [ "${unpruned:-0}" -ne 0 ]; then
    echo "FAIL ($block): --prune=off still reports pruned tiles" \
      "($unpruned)" >&2
    exit 1
  fi
}
prune_smoke tiled
prune_smoke materialized

# Churn control-plane smoke at real scale: 10k clients over 50 epochs of
# arrivals/departures/mobility plus a mid-run server crash, re-optimized
# under a hard migration cap. The CLI exits non-zero if the cap is ever
# exceeded; the epoch-timeline JSON must parse.
./build/tools/diaca churn --nodes=2000 --clients=10000 --servers=16 \
  --epochs=50 --churn="arrive@60; depart@0.004; move@0.002" \
  --migration-cap=16 --hysteresis=2 --oracle-every=10 \
  --faults="crash@12500-20500:n3" \
  --json-out="$obs_dir/churn_smoke.json" > "$obs_dir/churn_smoke.log"
cmake -DJSON_FILE="$obs_dir/churn_smoke.json" -P scripts/check_json.cmake
if ! grep -q 'migration cap honored' "$obs_dir/churn_smoke.log"; then
  echo "FAIL: churn smoke did not report the migration cap as honored" >&2
  exit 1
fi

# Vectorized build: the kernel property suite, the APSP engine suite, and
# the backend/thread determinism grid must also pass with the AVX2 code
# paths compiled in (they auto-fall back to portable when the CPU lacks
# AVX2), and bench_kernels must emit a parseable JSON report.
cmake -B build-avx2 -S . -DDIACA_AVX2=ON -DDIACA_NATIVE=ON
cmake --build build-avx2 -j --target kernels_test parallel_test \
  apsp_test bench_apsp bench_kernels
ctest --test-dir build-avx2 -L simd --output-on-failure
ctest --test-dir build-avx2 -L apsp --output-on-failure
ctest --test-dir build-avx2 -L tsan -R Determinism --output-on-failure
./build-avx2/bench/bench_kernels --nodes=150 --servers=10 --reps=1 \
  --json-out=build-avx2/bench_kernels_smoke.json \
  > build-avx2/bench_kernels_smoke.log
cmake -DJSON_FILE=build-avx2/bench_kernels_smoke.json \
  -P scripts/check_json.cmake

skip_tsan=false
skip_asan=false
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) skip_tsan=true ;;
    --skip-asan) skip_asan=true ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if ! $skip_tsan; then
  cmake -B build-tsan -S . -DDIACA_SANITIZE=thread
  cmake --build build-tsan -j --target parallel_test resilience_test \
    oracle_test churn_test
  ctest --test-dir build-tsan -L tsan --output-on-failure
  # The fault-injection suite under TSan: faulted sessions must stay
  # bit-deterministic across thread counts without data races.
  ctest --test-dir build-tsan -L resilience -E smoke_ --output-on-failure
  # The oracle suite under TSan: the LRU row cache is the one shared
  # mutable structure on the query path; concurrent lookups must be
  # race-free and bit-deterministic.
  ctest --test-dir build-tsan -L oracle -E smoke_ --output-on-failure
  # The churn suite under TSan: the control plane runs the parallel
  # evaluators epoch after epoch; the thread-count determinism contract
  # must hold without races.
  ctest --test-dir build-tsan -L churn -E smoke_ --output-on-failure
fi

# ASan+UBSan lane: the fault-tolerance suite exercises the failure paths
# (orphan reassignment, watchdog retries, malformed input) where lifetime
# bugs would hide.
if ! $skip_asan; then
  cmake -B build-asan -S . -DDIACA_SANITIZE=address
  cmake --build build-asan -j --target resilience_test oracle_test \
    churn_test
  ctest --test-dir build-asan -L resilience -E smoke_ --output-on-failure
  # The oracle suite under ASan+UBSan: row buffers, cache eviction, and
  # the streaming problem builders are where lifetime bugs would hide.
  ctest --test-dir build-asan -L oracle -E smoke_ --output-on-failure
  # The churn suite under ASan+UBSan: membership add/remove churns the
  # partial evaluator's index structures every epoch — use-after-free
  # territory if the lifecycle is wrong.
  ctest --test-dir build-asan -L churn -E smoke_ --output-on-failure
fi
