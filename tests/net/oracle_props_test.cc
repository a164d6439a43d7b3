// Property suite for the filter-and-refine contract: the certified
// sandwich (every sketch backend, across substrate seeds, raw on metric
// graphs and repaired on measured non-metric matrices) and the pruning
// invariant (bound pruning is a pure accelerator — greedy assignments
// and objectives are bit-identical with pruning on and off, streamed
// and materialized, across seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/metrics.h"
#include "core/problem.h"
#include "data/streaming.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "net/graph.h"
#include "net/latency_matrix.h"
#include "../testutil.h"

namespace diaca::net {
namespace {

Graph PropsWaxman(std::int32_t nodes, std::uint64_t seed) {
  data::WaxmanParams params;
  params.num_nodes = nodes;
  return data::GenerateWaxmanTopology(params, seed);
}

// Metric substrates: the raw sandwich is already sound, the repair
// scales must snap to exactly 1.0, and every pair of every seed must be
// sandwiched (up to ulp re-association for hub labels).
TEST(OracleBoundPropsTest, SandwichHoldsAcrossSeedsOnMetricGraphs) {
  for (const std::uint64_t seed : {1u, 5u, 9u, 23u}) {
    const Graph graph = PropsWaxman(72, seed);
    const LatencyMatrix dense = graph.AllPairsShortestPaths();
    for (const OracleBackend backend :
         {OracleBackend::kLandmarks, OracleBackend::kHubLabels}) {
      OracleOptions opt;
      opt.backend = backend;
      opt.num_landmarks = 6;
      const DistanceOracle oracle = DistanceOracle::FromGraph(graph, opt);
      const OracleStats s = oracle.stats();
      ASSERT_EQ(s.repair_upper_scale, 1.0)
          << OracleBackendName(backend) << " seed " << seed;
      ASSERT_EQ(s.repair_lower_scale, 1.0)
          << OracleBackendName(backend) << " seed " << seed;
      for (NodeIndex u = 0; u < graph.size(); ++u) {
        for (NodeIndex v = 0; v < graph.size(); ++v) {
          const double d = dense(u, v);
          const auto [lo, hi] = oracle.DistanceBounds(u, v);
          const double slack = 1e-9 * std::max(1.0, d);
          ASSERT_LE(lo, d + slack) << OracleBackendName(backend) << " seed "
                                   << seed << " pair " << u << "," << v;
          ASSERT_GE(hi, d - slack) << OracleBackendName(backend) << " seed "
                                   << seed << " pair " << u << "," << v;
        }
      }
    }
  }
}

// A random symmetric matrix violates the triangle inequality massively;
// the raw landmark sandwich is broken for most pairs there (the
// motivating defect: ~95% violation on measured meridian latencies).
// Calibration must engage (scales above 1) and the repaired sandwich
// must reach roughly its certified quantile on the full population.
TEST(OracleBoundPropsTest, RepairCertifiesNonMetricMatrices) {
  for (const std::uint64_t seed : {3u, 17u}) {
    constexpr NodeIndex kN = 96;
    LatencyMatrix m(kN);
    Rng rng(seed);
    for (NodeIndex i = 0; i < kN; ++i) {
      for (NodeIndex j = i + 1; j < kN; ++j) {
        m.Set(i, j, 1.0 + static_cast<double>(rng.NextBounded(1000)) / 10.0);
      }
    }
    OracleOptions opt;
    opt.backend = OracleBackend::kLandmarks;
    opt.num_landmarks = 8;
    opt.seed = seed;
    const DistanceOracle lm = DistanceOracle::FromMatrix(m, opt);
    const OracleStats s = lm.stats();
    ASSERT_GT(std::max(s.repair_upper_scale, s.repair_lower_scale), 1.0);
    std::int64_t sandwiched = 0;
    std::int64_t pairs = 0;
    for (NodeIndex u = 0; u < kN; ++u) {
      for (NodeIndex v = u + 1; v < kN; ++v) {
        const auto [lo, hi] = lm.DistanceBounds(u, v);
        const double d = m(u, v);
        sandwiched += (lo <= d && d <= hi) ? 1 : 0;
        ++pairs;
      }
    }
    // Certified at the 99.0% quantile from 256 sampled probes; allow
    // generous sampling slack on the full population.
    EXPECT_GE(static_cast<double>(sandwiched) / static_cast<double>(pairs),
              0.90)
        << "seed " << seed;
  }
}

// Bound pruning must be invisible in the results: identical assignment
// vector and bit-identical objective with pruning on and off, on both
// the streamed tile view and the materialized block, across seeds.
TEST(OraclePruningPropsTest, PrunedGreedyBitIdenticalAcrossGrid) {
  for (const std::uint64_t seed : {2011u, 7u}) {
    for (const bool materialize : {false, true}) {
      data::ClientCloudParams params;
      params.substrate.num_nodes = 200;
      params.num_clients = 3000;
      params.materialize_block = materialize;
      const Graph graph = PropsWaxman(200, seed);
      OracleOptions opt;
      opt.backend = OracleBackend::kRows;
      opt.row_cache_capacity = 16;
      const DistanceOracle oracle = DistanceOracle::FromGraph(graph, opt);
      std::vector<NodeIndex> servers;
      for (NodeIndex s = 0; s < 200; s += 17) servers.push_back(s);
      const data::ClientCloud on =
          data::BuildClientCloud(params, seed, oracle, servers);
      const data::ClientCloud off =
          data::BuildClientCloud(params, seed, oracle, servers);
      core::AssignOptions prune_on;
      prune_on.bound_pruning = true;
      core::AssignOptions prune_off;
      prune_off.bound_pruning = false;
      const core::Assignment a_on = core::GreedyAssign(on.problem, prune_on);
      const core::Assignment a_off =
          core::GreedyAssign(off.problem, prune_off);
      ASSERT_EQ(a_on.server_of, a_off.server_of)
          << "seed " << seed << " materialize " << materialize;
      ASSERT_EQ(core::MaxInteractionPathLength(on.problem, a_on),
                core::MaxInteractionPathLength(off.problem, a_off))
          << "seed " << seed << " materialize " << materialize;
      // Both views run the same bucket-refined greedy, so both prune.
      EXPECT_GT(on.problem.client_block().stats().tiles_pruned, 0)
          << "seed " << seed << " materialize " << materialize;
      EXPECT_EQ(off.problem.client_block().stats().tiles_pruned, 0)
          << "seed " << seed << " materialize " << materialize;
    }
  }
}

}  // namespace
}  // namespace diaca::net
