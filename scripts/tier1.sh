#!/usr/bin/env bash
# Tier-1 verification: full build + test suite (portable-SIMD kernels), an
# observability-artifact smoke (one bench run with
# --metrics-out/--trace-out, outputs validated as JSON), the kernel
# property suite, the APSP suite and the determinism grid again
# under a -march=native build with a bench_kernels smoke
# (JSON-validated), then the concurrency tests (thread pool + parallel
# determinism grid) again under ThreadSanitizer, and
# finally the fault-tolerance suite (`resilience` label: fault plans,
# repair solver, resilient sessions, malformed-corpus loaders) and the
# distance-oracle suite (`oracle` label: the shortest-path kernel against
# its lazy-heap reference, lazy-row bit parity, LRU cache, streaming
# clouds, concurrent queries) again under ThreadSanitizer and
# AddressSanitizer+UBSan, and the APSP suite and the solver suite
# (`algos` label) again under AddressSanitizer+UBSan. A bench_oracle
# smoke proves a 100k-client solve through the rows backend stays inside
# a hard RSS budget, and a filter-and-refine smoke proves bound pruning
# on the landmark backend changes nothing but the wall clock (objective
# stable, tiles pruned) on both the tiled and the materialized client
# block.
# A churn control-plane smoke re-optimizes 10k clients across 50 churn
# epochs (plus a server crash) under a hard migration cap, and the churn
# suite (`churn` label: traces, the incremental evaluator, the control
# plane) runs again under both sanitizers. The repository
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

# APSP smoke on a small instance: Graph::AllPairsShortestPaths against
# the frozen legacy per-source loop, bitwise, and the JSON report
# validated.
./build/bench/bench_apsp --nodes=256 --servers=10 --reps=1 \
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
# replaces (measured ~99 MB, since greedy's round 1 runs on the 2000
# attachment nodes' floors and counts only the lists it reaches, whose
# client ids are scattered only when a scan reads them; the CLI exits
# non-zero on breach).
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
# exceeded or peak RSS breaks the budget (measured about 16 MB, since
# the boot and oracle-sample greedy solves read streamed member subsets,
# so 64 MB leaves headroom); the epoch-timeline JSON must parse.
./build/tools/diaca churn --nodes=2000 --clients=10000 --servers=16 \
  --epochs=50 --churn="arrive@60; depart@0.004; move@0.002" \
  --migration-cap=16 --hysteresis=2 --oracle-every=10 \
  --faults="crash@12500-20500:n3" --rss-budget-mb=64 \
  --json-out="$obs_dir/churn_smoke.json" > "$obs_dir/churn_smoke.log"
cmake -DJSON_FILE="$obs_dir/churn_smoke.json" -P scripts/check_json.cmake
if ! grep -q 'migration cap honored' "$obs_dir/churn_smoke.log"; then
  echo "FAIL: churn smoke did not report the migration cap as honored" >&2
  exit 1
fi

# Native lane: the kernel property suite, the APSP suite (the
# shortest-path kernel and the pooled all-pairs route at -march=native),
# and the backend/thread determinism grid must also pass with the
# portable kernels widened to the build machine's ISA, and bench_kernels
# must emit a parseable JSON report.
cmake -B build-native -S . -DDIACA_NATIVE=ON
cmake --build build-native -j --target kernels_test parallel_test \
  apsp_test bench_apsp bench_kernels
ctest --test-dir build-native -L simd --output-on-failure
ctest --test-dir build-native -L apsp --output-on-failure
ctest --test-dir build-native -L tsan -R Determinism --output-on-failure
./build-native/bench/bench_kernels --nodes=150 --servers=10 --reps=1 \
  --json-out=build-native/bench_kernels_smoke.json \
  > build-native/bench_kernels_smoke.log
cmake -DJSON_FILE=build-native/bench_kernels_smoke.json \
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
  # race-free and bit-deterministic, and a streamed view's member subset
  # reads the server rows it shares with its parent from every pool lane.
  ctest --test-dir build-tsan -L oracle -E smoke_ --output-on-failure
  # The churn suite under TSan: each control-plane run reads a streamed
  # client block, boots (and samples its oracle gap) by running the
  # pool-parallel greedy solver on a streamed member subset that shares
  # the view's server rows, then drives one serial evaluator epoch after
  # epoch — every re-optimization round checkpoints its top-two heads,
  # far values and best-partner rows, tries its moves on the live member
  # lists and client slots, and rolls them back; the thread-count
  # determinism contract, and equality with a run on a resident cut of
  # the same view, must hold without races.
  ctest --test-dir build-tsan -L churn -E smoke_ --output-on-failure
fi

# ASan+UBSan lane: the fault-tolerance suite exercises the failure paths
# (orphan reassignment, watchdog retries, malformed input, out-of-range
# node ids) where lifetime bugs would hide, and the APSP suite the heap
# and CSR index arithmetic of the shortest-path kernel.
if ! $skip_asan; then
  cmake -B build-asan -S . -DDIACA_SANITIZE=address
  cmake --build build-asan -j --target resilience_test oracle_test \
    churn_test apsp_test bench_apsp core_algos_test
  ctest --test-dir build-asan -L resilience -E smoke_ --output-on-failure
  # The APSP suite under ASan+UBSan: every all-pairs source runs the
  # shortest-path kernel, whose indexed 4-ary heap computes child and
  # parent slots arithmetically, keeps sentinel slots past its last entry
  # and writes heap positions by node id, and whose CSR scan indexes the
  # flat arc arrays by offset; each source writes its row and column of
  # the padded matrix. An out-of-bounds write there would hide from the
  # native lane, the only other lane that runs this label. The label's
  # bench_apsp smoke also runs the frozen legacy loop.
  ctest --test-dir build-asan -L apsp --output-on-failure
  # The oracle suite under ASan+UBSan: row buffers, cache eviction, the
  # streaming problem builders, and a member subset read after its parent
  # view is gone (the server rows are shared, not copied) are where
  # lifetime bugs would hide.
  ctest --test-dir build-asan -L oracle -E smoke_ --output-on-failure
  # The churn suite under ASan+UBSan: the control plane reads a streamed
  # client block and solves its members on a streamed subset of it that
  # shares the block's server rows; every membership add/remove swaps an
  # entry of the evaluator's per-server member lists and rewrites client
  # slots, rescans a top two whose head or runner-up left, and patches or
  # rebuilds best-partner rows, and every rollback puts logged moves back
  # into their old slots; the evaluator's own tests drive random
  # add/remove/move sequences and rolled-back bursts against a
  # from-scratch reference and an untouched copy — out-of-bounds territory
  # if a shared row, a slot, a head or a partner row goes stale.
  ctest --test-dir build-asan -L churn -E smoke_ --output-on-failure
  # The solver suite under ASan+UBSan: greedy's lists and reach cache,
  # LFB's pending list, the exact solver's frame stack, and distributed
  # greedy and full local search, which build an incremental evaluator
  # over their seed and apply every move through it, swapping entries of
  # its member lists, rewriting client slots, rescanning a top two whose
  # head left and patching partner rows, while their candidate scans
  # read its far vector and loads from every pool lane.
  ctest --test-dir build-asan -L algos --output-on-failure
fi
