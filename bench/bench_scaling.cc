// Runtime-scaling microbenchmarks (DESIGN.md E12) verifying the complexity
// claims of §IV: Nearest-Server O(|C||S|), Longest-First-Batch
// O(|C|(|C|+|S|)), Greedy O(|S||C| log|C| + m|S||C|), plus the lower-bound
// computation O(|C||S|^2 + |C|^2|S|).
#include <benchmark/benchmark.h>

#include <map>
#include <tuple>

#include "common/rng.h"
#include "core/distributed_greedy.h"
#include "core/greedy.h"
#include "core/longest_first_batch.h"
#include "core/lower_bound.h"
#include "core/nearest_server.h"
#include "data/synthetic.h"
#include "data/waxman.h"
#include "placement/placement.h"

namespace {

using namespace diaca;

core::Problem MakeProblem(std::int32_t nodes, std::int32_t servers) {
  data::SyntheticParams params;
  params.num_nodes = nodes;
  params.num_clusters = std::max(4, nodes / 30);
  // Function-local static (destroyed at exit, no leak), keyed on every
  // generator parameter that shapes the instance — num_clusters is
  // derived from nodes today, but keying it explicitly keeps the cache
  // correct if a benchmark ever varies it independently.
  static std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>,
                  core::Problem>
      cache;
  const auto key = std::make_tuple(nodes, params.num_clusters, servers);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const net::LatencyMatrix matrix =
        data::GenerateSyntheticInternet(params, 1);
    Rng rng(2);
    const auto server_nodes = placement::RandomPlacement(matrix, servers, rng);
    it = cache
             .emplace(key, core::Problem::WithClientsEverywhere(matrix,
                                                                server_nodes))
             .first;
  }
  return it->second;
}

const net::Graph& MakeWaxman(std::int32_t nodes) {
  static std::map<std::int32_t, net::Graph> cache;
  auto it = cache.find(nodes);
  if (it == cache.end()) {
    data::WaxmanParams params;
    params.num_nodes = nodes;
    params.alpha = 0.8;  // dense-ish
    it = cache.emplace(nodes, data::GenerateWaxmanTopology(params, 7)).first;
  }
  return it->second;
}

void BM_NearestServer(benchmark::State& state) {
  const core::Problem p = MakeProblem(static_cast<std::int32_t>(state.range(0)),
                                      static_cast<std::int32_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::NearestServerAssign(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NearestServer)
    ->Args({200, 20})
    ->Args({400, 20})
    ->Args({800, 20})
    ->Args({400, 10})
    ->Args({400, 40});

void BM_LongestFirstBatch(benchmark::State& state) {
  const core::Problem p = MakeProblem(static_cast<std::int32_t>(state.range(0)),
                                      static_cast<std::int32_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::LongestFirstBatchAssign(p));
  }
}
BENCHMARK(BM_LongestFirstBatch)
    ->Args({200, 20})
    ->Args({400, 20})
    ->Args({800, 20});

void BM_Greedy(benchmark::State& state) {
  const core::Problem p = MakeProblem(static_cast<std::int32_t>(state.range(0)),
                                      static_cast<std::int32_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GreedyAssign(p));
  }
}
BENCHMARK(BM_Greedy)
    ->Args({200, 20})
    ->Args({400, 20})
    ->Args({800, 20})
    ->Args({400, 10})
    ->Args({400, 40});

void BM_DistributedGreedy(benchmark::State& state) {
  const core::Problem p = MakeProblem(static_cast<std::int32_t>(state.range(0)),
                                      static_cast<std::int32_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DistributedGreedyAssign(p));
  }
}
BENCHMARK(BM_DistributedGreedy)
    ->Args({200, 20})
    ->Args({400, 20})
    ->Args({800, 20});

void BM_LowerBound(benchmark::State& state) {
  const core::Problem p = MakeProblem(static_cast<std::int32_t>(state.range(0)),
                                      static_cast<std::int32_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::InteractivityLowerBound(p));
  }
}
BENCHMARK(BM_LowerBound)
    ->Args({200, 20})
    ->Args({400, 20})
    ->Args({800, 20})
    ->Args({400, 40});

void BM_KCenterGreedyPlacement(benchmark::State& state) {
  data::SyntheticParams params;
  params.num_nodes = static_cast<std::int32_t>(state.range(0));
  const net::LatencyMatrix matrix = data::GenerateSyntheticInternet(params, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        placement::KCenterGreedy(matrix, static_cast<std::int32_t>(state.range(1))));
  }
}
BENCHMARK(BM_KCenterGreedyPlacement)->Args({200, 10})->Args({400, 10});

// APSP size scaling: O(n (m + n log n)), one Dijkstra per source.
void BM_ApspDijkstra(benchmark::State& state) {
  const net::Graph& graph = MakeWaxman(static_cast<std::int32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.AllPairsShortestPaths());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ApspDijkstra)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

}  // namespace

BENCHMARK_MAIN();
