#include "net/graph.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.h"

namespace diaca::net {
namespace {

TEST(GraphTest, SingleEdgeShortestPath) {
  Graph g(2);
  g.AddEdge(0, 1, 3.5);
  const auto dist = g.ShortestPathsFrom(0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 3.5);
}

TEST(GraphTest, PicksShorterIndirectRoute) {
  // 0 -10- 1, 0 -1- 2 -1- 1: routing must go through 2.
  Graph g(3);
  g.AddEdge(0, 1, 10.0);
  g.AddEdge(0, 2, 1.0);
  g.AddEdge(2, 1, 1.0);
  const auto dist = g.ShortestPathsFrom(0);
  EXPECT_DOUBLE_EQ(dist[1], 2.0);
}

TEST(GraphTest, ParallelEdgesShortestWins) {
  Graph g(2);
  g.AddEdge(0, 1, 5.0);
  g.AddEdge(0, 1, 2.0);
  const auto dist = g.ShortestPathsFrom(0);
  EXPECT_DOUBLE_EQ(dist[1], 2.0);
}

TEST(GraphTest, UnreachableIsInfinite) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  const auto dist = g.ShortestPathsFrom(0);
  EXPECT_TRUE(std::isinf(dist[2]));
  EXPECT_FALSE(g.IsConnected());
}

TEST(GraphTest, AllPairsMatchesSingleSource) {
  Graph g(5);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(2, 3, 3.0);
  g.AddEdge(3, 4, 4.0);
  g.AddEdge(0, 4, 20.0);
  const LatencyMatrix m = g.AllPairsShortestPaths();
  for (NodeIndex u = 0; u < 5; ++u) {
    const auto dist = g.ShortestPathsFrom(u);
    for (NodeIndex v = 0; v < 5; ++v) {
      EXPECT_DOUBLE_EQ(m(u, v), dist[static_cast<std::size_t>(v)]);
    }
  }
  EXPECT_DOUBLE_EQ(m(0, 4), 10.0);  // 1+2+3+4 beats the direct 20
}

TEST(GraphTest, DisconnectedAllPairsThrows) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  EXPECT_THROW(g.AllPairsShortestPaths(), Error);
}

TEST(GraphTest, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.AddEdge(0, 0, 1.0), Error);
}

TEST(GraphTest, RejectsNonPositiveLength) {
  Graph g(2);
  EXPECT_THROW(g.AddEdge(0, 1, 0.0), Error);
  EXPECT_THROW(g.AddEdge(0, 1, -2.0), Error);
}

TEST(GraphTest, EdgeCount) {
  Graph g(3);
  EXPECT_EQ(g.num_edges(), 0u);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 1.0);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphTest, AllPairsParallelEdgesShortestWins) {
  // Parallel edges must collapse to the shortest through the full APSP
  // route, not just single-source Dijkstra.
  Graph g(3);
  g.AddEdge(0, 1, 7.0);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2, 1.0);
  const LatencyMatrix m = g.AllPairsShortestPaths();
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
}

TEST(GraphTest, OutArcsExposeBothDirections) {
  Graph g(3);
  g.AddEdge(0, 1, 1.5);
  g.AddEdge(0, 2, 2.5);
  ASSERT_EQ(g.OutArcs(0).size(), 2u);
  EXPECT_EQ(g.OutArcs(0).to[0], 1);
  EXPECT_DOUBLE_EQ(g.OutArcs(0).length[0], 1.5);
  ASSERT_EQ(g.OutArcs(1).size(), 1u);
  EXPECT_EQ(g.OutArcs(1).to[0], 0);
}

TEST(GraphTest, ShortestPathsSatisfyTriangleInequality) {
  // Shortest-path metrics are metric by construction (§II-A routing).
  Graph g(6);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2, 2.5);
  g.AddEdge(2, 3, 1.0);
  g.AddEdge(3, 4, 4.0);
  g.AddEdge(4, 5, 1.5);
  g.AddEdge(5, 0, 3.0);
  g.AddEdge(1, 4, 7.0);
  const LatencyMatrix m = g.AllPairsShortestPaths();
  for (NodeIndex u = 0; u < 6; ++u) {
    for (NodeIndex v = 0; v < 6; ++v) {
      for (NodeIndex w = 0; w < 6; ++w) {
        EXPECT_LE(m(u, w), m(u, v) + m(v, w) + 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace diaca::net
