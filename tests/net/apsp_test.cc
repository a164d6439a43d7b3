// Graph::AllPairsShortestPaths, the one all-pairs route: parallel edges,
// disconnected graphs, and bit-identity with the per-source rows on a
// dense graph at 1 and 4 threads.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"
#include "data/waxman.h"
#include "net/graph.h"

namespace diaca::net {
namespace {

TEST(AllPairsTest, ParallelEdgesShortestWins) {
  Graph g(3);
  g.AddEdge(0, 1, 5.0);
  g.AddEdge(0, 1, 2.0);  // parallel, shorter: must win
  g.AddEdge(1, 2, 1.0);
  const LatencyMatrix m = g.AllPairsShortestPaths();
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
}

TEST(AllPairsTest, DisconnectedThrows) {
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  EXPECT_THROW(g.AllPairsShortestPaths(), Error);
}

TEST(AllPairsTest, DenseGraphCellsAreThePerSourceRowsBitwise) {
  // 1024 nodes and 62,400 links, so n^2 < 2(m + n) log2 n: density must
  // not change the route. An engine that associates path sums another
  // way (blocked Floyd–Warshall did) differs here in the last ulp.
  data::WaxmanParams params;
  params.num_nodes = 1024;
  params.alpha = 0.3;
  params.beta = 0.35;
  const Graph graph = data::GenerateWaxmanTopology(params, 2011);
  ASSERT_EQ(graph.num_edges(), 62400u);
  const NodeIndex n = graph.size();
  std::vector<std::vector<double>> rows;
  for (NodeIndex u = 0; u < n; ++u) rows.push_back(graph.ShortestPathsFrom(u));

  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    const LatencyMatrix m = graph.AllPairsShortestPaths();
    std::int64_t mismatches = 0;
    std::int64_t nonzero_pads = 0;
    std::string first;
    for (NodeIndex u = 0; u < n; ++u) {
      const double* row = m.Row(u);
      for (NodeIndex v = 0; v < n; ++v) {
        const double want = rows[static_cast<std::size_t>(std::min(u, v))]
                                [static_cast<std::size_t>(std::max(u, v))];
        if (std::bit_cast<std::uint64_t>(row[v]) !=
                std::bit_cast<std::uint64_t>(want) &&
            mismatches++ == 0) {
          first = "(" + std::to_string(u) + "," + std::to_string(v) + ")";
        }
      }
      for (std::size_t j = static_cast<std::size_t>(n); j < m.stride(); ++j) {
        nonzero_pads += std::bit_cast<std::uint64_t>(row[j]) != 0;
      }
    }
    EXPECT_EQ(mismatches, 0) << "first at cell " << first << ", " << threads
                             << " threads";
    EXPECT_EQ(nonzero_pads, 0) << threads << " threads";
  }
  SetGlobalThreads(0);
}

}  // namespace
}  // namespace diaca::net
