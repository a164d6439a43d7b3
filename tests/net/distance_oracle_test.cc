#include "net/distance_oracle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/metrics.h"
#include "core/problem.h"
#include "data/waxman.h"
#include "net/graph.h"
#include "placement/placement.h"
#include "../testutil.h"

namespace diaca::net {
namespace {

Graph SmallWaxman(std::int32_t nodes, std::uint64_t seed) {
  data::WaxmanParams params;
  params.num_nodes = nodes;
  return data::GenerateWaxmanTopology(params, seed);
}

OracleOptions RowsOptions() {
  OracleOptions opt;
  opt.backend = OracleBackend::kRows;
  return opt;
}

TEST(DistanceOracleTest, BackendNamesRoundTrip) {
  for (const OracleBackend b :
       {OracleBackend::kDense, OracleBackend::kRows, OracleBackend::kLandmarks,
        OracleBackend::kCoords, OracleBackend::kHubLabels}) {
    EXPECT_EQ(ParseOracleBackend(OracleBackendName(b)), b);
  }
  EXPECT_THROW(ParseOracleBackend("florbs"), Error);
}

TEST(DistanceOracleTest, FromMatrixRejectsRowsBackend) {
  Rng rng(1);
  const LatencyMatrix m = test::RandomMatrix(8, rng);
  EXPECT_THROW(DistanceOracle::FromMatrix(m, RowsOptions()), Error);
}

// The load-bearing property of the whole PR: lazy rows are bit-identical
// to the dense Dijkstra matrix, across substrate seeds.
TEST(DistanceOracleTest, RowsBitwiseEqualsDenseOnWaxman) {
  for (const std::uint64_t seed : {1ull, 7ull, 2011ull}) {
    const Graph graph = SmallWaxman(120, seed);
    const LatencyMatrix dense = graph.AllPairsShortestPaths();
    const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
    for (NodeIndex u = 0; u < graph.size(); ++u) {
      for (NodeIndex v = 0; v < graph.size(); ++v) {
        ASSERT_EQ(rows.Distance(u, v), dense(u, v))
            << "seed " << seed << " pair (" << u << "," << v << ")";
      }
    }
  }
}

TEST(DistanceOracleTest, RowsFillRowBitwiseEqualsDenseRow) {
  const Graph graph = SmallWaxman(90, 3);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  std::vector<double> row(static_cast<std::size_t>(graph.size()));
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    rows.FillRow(u, row);
    for (NodeIndex v = 0; v < graph.size(); ++v) {
      ASSERT_EQ(row[static_cast<std::size_t>(v)], dense(u, v));
    }
  }
}

// Exact sums with dyadic weights: canonical re-association must be a
// no-op, and rows must match dense even when many equal-length paths tie.
TEST(DistanceOracleTest, RowsBitwiseEqualsDenseOnDyadicWeights) {
  Graph graph(16);
  Rng rng(11);
  for (NodeIndex u = 0; u < 16; ++u) {
    graph.AddEdge(u, (u + 1) % 16, 0.25 * (1 + rng.NextBounded(8)));
    graph.AddEdge(u, (u + 5) % 16, 0.25 * (1 + rng.NextBounded(8)));
  }
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  for (NodeIndex u = 0; u < 16; ++u) {
    for (NodeIndex v = 0; v < 16; ++v) {
      ASSERT_EQ(rows.Distance(u, v), dense(u, v));
    }
  }
}

TEST(DistanceOracleTest, StatsCountersTrackCacheBehavior) {
  const Graph graph = SmallWaxman(60, 2);
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  std::vector<double> row(60);
  rows.FillRow(0, row);
  rows.FillRow(0, row);
  rows.FillRow(1, row);
  // A point query reads whichever endpoint's row is built: this one
  // reads row 1 instead of building row 7.
  EXPECT_EQ(rows.Distance(7, 1), row[7]);
  const OracleStats s = rows.stats();
  EXPECT_EQ(s.row_builds, 2);
  EXPECT_EQ(s.row_cache_misses, 2);
  EXPECT_EQ(s.row_cache_hits, 2);
}

TEST(DistanceOracleTest, ExactnessFlagPerBackend) {
  const Graph graph = SmallWaxman(40, 4);
  OracleOptions opt;
  opt.backend = OracleBackend::kDense;
  EXPECT_TRUE(DistanceOracle::FromGraph(graph, opt).exact());
  EXPECT_TRUE(DistanceOracle::FromGraph(graph, RowsOptions()).exact());
  opt.backend = OracleBackend::kLandmarks;
  EXPECT_FALSE(DistanceOracle::FromGraph(graph, opt).exact());
  opt.backend = OracleBackend::kCoords;
  EXPECT_FALSE(DistanceOracle::FromGraph(graph, opt).exact());
}

TEST(DistanceOracleTest, LandmarkBoundsSandwichGraphTruth) {
  const Graph graph = SmallWaxman(100, 6);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  OracleOptions opt;
  opt.backend = OracleBackend::kLandmarks;
  opt.num_landmarks = 8;
  const DistanceOracle lm = DistanceOracle::FromGraph(graph, opt);
  EXPECT_EQ(lm.landmarks().size(), 8u);
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    for (NodeIndex v = 0; v < graph.size(); ++v) {
      const auto [lo, hi] = lm.DistanceBounds(u, v);
      ASSERT_LE(lo, dense(u, v) + 1e-9);
      ASSERT_GE(hi, dense(u, v) - 1e-9);
      ASSERT_EQ(lm.Distance(u, v), hi);
    }
  }
}

TEST(DistanceOracleTest, LandmarkQueriesExactAtPivots) {
  const Graph graph = SmallWaxman(70, 8);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  OracleOptions opt;
  opt.backend = OracleBackend::kLandmarks;
  opt.num_landmarks = 6;
  const DistanceOracle lm = DistanceOracle::FromGraph(graph, opt);
  for (const NodeIndex pivot : lm.landmarks()) {
    for (NodeIndex v = 0; v < graph.size(); ++v) {
      const auto [lo, hi] = lm.DistanceBounds(pivot, v);
      ASSERT_DOUBLE_EQ(lo, dense(pivot, v));
      ASSERT_DOUBLE_EQ(hi, dense(pivot, v));
    }
  }
}

TEST(DistanceOracleTest, CoordsEstimatesAreSymmetricFiniteNonNegative) {
  const Graph graph = SmallWaxman(60, 10);
  OracleOptions opt;
  opt.backend = OracleBackend::kCoords;
  opt.coord_beacons = 8;
  const DistanceOracle coords = DistanceOracle::FromGraph(graph, opt);
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    EXPECT_EQ(coords.Distance(u, u), 0.0);
    for (NodeIndex v = u + 1; v < graph.size(); ++v) {
      const double d = coords.Distance(u, v);
      ASSERT_TRUE(std::isfinite(d));
      ASSERT_GE(d, 0.0);
      ASSERT_EQ(d, coords.Distance(v, u));
    }
  }
}

TEST(DistanceOracleTest, RowsDetectsDisconnectedGraphs) {
  Graph graph(4);
  graph.AddEdge(0, 1, 1.0);
  graph.AddEdge(2, 3, 1.0);
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  EXPECT_THROW(rows.Distance(0, 3), Error);
  // The failed build leaves row 0 unbuilt, so asking again throws again.
  std::vector<double> row(4);
  EXPECT_THROW(rows.FillRow(0, row), Error);
  EXPECT_EQ(rows.stats().row_builds, 2);
  OracleOptions opt;
  opt.backend = OracleBackend::kLandmarks;
  EXPECT_THROW(DistanceOracle::FromGraph(graph, opt), Error);
}

TEST(DistanceOracleTest, ProblemFromRowsOracleBitwiseEqualsDense) {
  const Graph graph = SmallWaxman(110, 12);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  const std::vector<NodeIndex> servers = placement::KCenterGreedy(dense, 10);

  const core::Problem pd = core::Problem::WithClientsEverywhere(dense, servers);
  const core::Problem pr = core::Problem::WithClientsEverywhere(rows, servers);
  ASSERT_EQ(pd.num_clients(), pr.num_clients());
  ASSERT_EQ(pd.num_servers(), pr.num_servers());
  for (core::ClientIndex c = 0; c < pd.num_clients(); ++c) {
    for (core::ServerIndex s = 0; s < pd.num_servers(); ++s) {
      ASSERT_EQ(pd.client_block().cs(c, s), pr.client_block().cs(c, s));
    }
  }
  for (core::ServerIndex a = 0; a < pd.num_servers(); ++a) {
    for (core::ServerIndex b = 0; b < pd.num_servers(); ++b) {
      ASSERT_EQ(pd.ss(a, b), pr.ss(a, b));
    }
  }
  // Dense-backed oracles delegate to the historical matrix constructor.
  OracleOptions dense_opt;
  dense_opt.backend = OracleBackend::kDense;
  const DistanceOracle dense_oracle =
      DistanceOracle::FromGraph(graph, dense_opt);
  ASSERT_NE(dense_oracle.dense_matrix(), nullptr);
  const core::Problem po =
      core::Problem::WithClientsEverywhere(dense_oracle, servers);
  for (core::ClientIndex c = 0; c < pd.num_clients(); ++c) {
    for (core::ServerIndex s = 0; s < pd.num_servers(); ++s) {
      ASSERT_EQ(pd.client_block().cs(c, s), po.client_block().cs(c, s));
    }
  }
}

TEST(DistanceOracleTest, GreedySolveIdenticalAcrossExactBackends) {
  const Graph graph = SmallWaxman(100, 14);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  const std::vector<NodeIndex> servers = placement::KCenterGreedy(dense, 8);
  const core::Problem pd = core::Problem::WithClientsEverywhere(dense, servers);
  const core::Problem pr = core::Problem::WithClientsEverywhere(rows, servers);
  const core::Assignment ad = core::GreedyAssign(pd);
  const core::Assignment ar = core::GreedyAssign(pr);
  EXPECT_EQ(ad.server_of, ar.server_of);
  EXPECT_EQ(core::MaxInteractionPathLength(pd, ad),
            core::MaxInteractionPathLength(pr, ar));
}

// The rows backend's pruned sweep chooses what farthest-point selection
// on the dense matrix chooses, in the same order, up to k = n.
TEST(DistanceOracleTest, KCenterFarthestMatchesDenseSelection) {
  for (const auto& [nodes, seed] :
       {std::pair{90, 15ull}, std::pair{60, 1ull}, std::pair{120, 7ull},
        std::pair{150, 2011ull}}) {
    const Graph graph = SmallWaxman(nodes, seed);
    const DistanceOracle rows =
        DistanceOracle::FromGraph(graph, RowsOptions());
    OracleOptions dense_opt;
    dense_opt.backend = OracleBackend::kDense;
    const DistanceOracle dense_oracle =
        DistanceOracle::FromGraph(graph, dense_opt);
    const NodeIndex n = graph.size();
    EXPECT_EQ(rows.FarthestPoints(n), dense_oracle.FarthestPoints(n))
        << "seed " << seed;
    for (const std::int32_t k : {1, 7, n / 2, n}) {
      EXPECT_EQ(placement::KCenterFarthest(rows, k),
                placement::KCenterFarthest(dense_oracle, k))
          << "seed " << seed << " k " << k;
    }
    // The sweep stored no row.
    EXPECT_EQ(rows.stats().row_builds, 0) << "seed " << seed;
  }
}

// Cloud setup's row traffic: placement builds no row, and the
// client-block view's pull is each server row's first request, so every
// server row is built once, on the view's pool lanes, and none is read
// back from the store.
TEST(DistanceOracleTest, PlacementLeavesServerRowsToTheView) {
  const Graph graph = SmallWaxman(80, 21);
  constexpr std::int32_t kServers = 9;
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    const DistanceOracle rows =
        DistanceOracle::FromGraph(graph, RowsOptions());
    const std::vector<NodeIndex> servers =
        placement::KCenterFarthest(rows, kServers);
    EXPECT_EQ(rows.stats().row_builds, 0) << "threads=" << threads;
    std::vector<NodeIndex> clients(static_cast<std::size_t>(graph.size()));
    for (NodeIndex v = 0; v < graph.size(); ++v) {
      clients[static_cast<std::size_t>(v)] = v;
    }
    const core::Problem p =
        core::Problem::FromOracleTiled(rows, servers, clients);
    const OracleStats s = rows.stats();
    EXPECT_EQ(s.row_builds, kServers) << "threads=" << threads;
    EXPECT_EQ(s.row_cache_hits, 0) << "threads=" << threads;
    EXPECT_EQ(p.num_servers(), kServers);
  }
  SetGlobalThreads(0);
}

TEST(DistanceOracleTest, ExactMetricMatchesMatrixEvaluator) {
  const Graph graph = SmallWaxman(80, 16);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  const std::vector<NodeIndex> servers = placement::KCenterGreedy(dense, 6);
  const core::Problem p = core::Problem::WithClientsEverywhere(dense, servers);
  const core::Assignment a = core::GreedyAssign(p);
  EXPECT_EQ(core::MaxInteractionPathLengthExact(rows, p, a),
            core::MaxInteractionPathLength(p, a));
}

// Concurrency suite entry (oracle label runs under TSan): hammer one
// oracle from every pool lane; answers must match a serial replay
// exactly and counters must account for every lookup.
TEST(DistanceOracleTest, ConcurrentQueriesAreExactAndRaceFree) {
  const Graph graph = SmallWaxman(64, 17);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  const DistanceOracle rows = DistanceOracle::FromGraph(graph, RowsOptions());
  constexpr std::int64_t kQueries = 4096;
  std::vector<std::uint8_t> match(kQueries, 0);
  GlobalPool().ParallelFor(0, kQueries, 64, [&](std::int64_t lo,
                                                std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      Rng rng(static_cast<std::uint64_t>(i));
      const auto u = static_cast<NodeIndex>(rng.NextBounded(64));
      const auto v = static_cast<NodeIndex>(rng.NextBounded(64));
      match[static_cast<std::size_t>(i)] =
          rows.Distance(u, v) == dense(u, v) ? 1 : 0;
    }
  });
  for (std::int64_t i = 0; i < kQueries; ++i) {
    ASSERT_EQ(match[static_cast<std::size_t>(i)], 1) << "query " << i;
  }
  const OracleStats s = rows.stats();
  // Every miss builds a row, at most one per source, and built rows
  // serve the other queries.
  EXPECT_EQ(s.row_builds, s.row_cache_misses);
  EXPECT_GE(s.row_builds, 1);
  EXPECT_LE(s.row_builds, 64);
  EXPECT_GE(s.row_cache_hits, 1);
}

// The row store builds each source's row once, however many lanes ask
// for it at the same time. Every row is requested twice from the pool,
// the two requests adjacent so they run on different lanes at once; each
// copy must equal the dense row bit for bit, and the build count must be
// the number of distinct sources, at 1 and at 4 threads.
TEST(DistanceOracleTest, RowStoreBuildsEachRowOnceAcrossThreads) {
  const Graph graph = SmallWaxman(64, 19);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  const auto n = static_cast<std::size_t>(graph.size());
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    const DistanceOracle rows =
        DistanceOracle::FromGraph(graph, RowsOptions());
    std::vector<std::uint8_t> match(2 * n, 0);
    GlobalPool().ParallelFor(
        0, static_cast<std::int64_t>(2 * n), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          std::vector<double> row(n);
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto u = static_cast<NodeIndex>(i / 2);
            rows.FillRow(u, row);
            match[static_cast<std::size_t>(i)] =
                std::memcmp(row.data(), dense.Row(u), n * sizeof(double)) ==
                        0
                    ? 1
                    : 0;
          }
        });
    for (std::size_t i = 0; i < 2 * n; ++i) {
      ASSERT_EQ(match[i], 1) << "request " << i << " threads=" << threads;
    }
    const OracleStats s = rows.stats();
    EXPECT_EQ(s.row_builds, static_cast<std::int64_t>(n))
        << "threads=" << threads;
    EXPECT_EQ(s.row_cache_misses, static_cast<std::int64_t>(n));
    EXPECT_EQ(s.row_cache_hits, static_cast<std::int64_t>(n));
  }
  SetGlobalThreads(0);
}

// Pruned labeling is complete on connected graphs: every query must land
// within re-association distance (the label path re-adds the two half
// sums in hub order) of the canonical Dijkstra value, and the metric
// substrate must pin both repair scales to exactly 1.0 so the bounds
// sandwich is the raw one.
TEST(DistanceOracleTest, HubLabelsMatchDenseWithinReassociation) {
  const Graph graph = SmallWaxman(100, 6);
  const LatencyMatrix dense = graph.AllPairsShortestPaths();
  OracleOptions opt;
  opt.backend = OracleBackend::kHubLabels;
  const DistanceOracle hl = DistanceOracle::FromGraph(graph, opt);
  EXPECT_FALSE(hl.exact());
  EXPECT_EQ(hl.backend(), OracleBackend::kHubLabels);
  for (NodeIndex u = 0; u < graph.size(); ++u) {
    for (NodeIndex v = 0; v < graph.size(); ++v) {
      const double d = hl.Distance(u, v);
      const double truth = dense(u, v);
      ASSERT_NEAR(d, truth, 1e-12 * std::max(1.0, truth))
          << "pair " << u << "," << v;
      const auto [lo, hi] = hl.DistanceBounds(u, v);
      ASSERT_EQ(lo, d);
      ASSERT_EQ(hi, d);
    }
  }
  const OracleStats s = hl.stats();
  EXPECT_EQ(s.repair_upper_scale, 1.0);
  EXPECT_EQ(s.repair_lower_scale, 1.0);
  // The sublinear-memory witness: far fewer label entries than the n^2/2
  // pairs a dense matrix stores.
  EXPECT_GT(s.hub_label_entries, graph.size());
  EXPECT_LT(s.hub_label_entries,
            static_cast<std::int64_t>(graph.size()) * graph.size() / 2);
}

TEST(DistanceOracleTest, HubLabelsFillRowMatchesPairQueries) {
  const Graph graph = SmallWaxman(60, 11);
  OracleOptions opt;
  opt.backend = OracleBackend::kHubLabels;
  const DistanceOracle hl = DistanceOracle::FromGraph(graph, opt);
  std::vector<double> row(60);
  for (NodeIndex u = 0; u < 60; u += 7) {
    hl.FillRow(u, row);
    ASSERT_EQ(row[static_cast<std::size_t>(u)], 0.0);
    for (NodeIndex v = 0; v < 60; ++v) {
      ASSERT_EQ(row[static_cast<std::size_t>(v)],
                u == v ? 0.0 : hl.Distance(u, v));
    }
  }
}

TEST(DistanceOracleTest, HubLabelsNeedGraphAndConnectivity) {
  LatencyMatrix m(4);
  for (NodeIndex i = 0; i < 4; ++i) {
    for (NodeIndex j = i + 1; j < 4; ++j) m.Set(i, j, 1.0 + i + j);
  }
  OracleOptions opt;
  opt.backend = OracleBackend::kHubLabels;
  EXPECT_THROW(DistanceOracle::FromMatrix(m, opt), Error);
  Graph split(4);
  split.AddEdge(0, 1, 1.0);
  split.AddEdge(2, 3, 1.0);
  EXPECT_THROW(DistanceOracle::FromGraph(split, opt), Error);
}

}  // namespace
}  // namespace diaca::net
