// The single-source kernel (net/dijkstra.h) against a copy of the lazy
// binary-heap loops it replaced, bit for bit: plain rows, canonical rows,
// Graph::AllPairsShortestPaths at 1 and 4 threads, and the rows
// oracle's FillRow; and its bounded mode against folding whole canonical
// rows over a full farthest-point order. The random graphs draw from a
// handful of non-dyadic weights and repeat edges, so equal-length paths
// tie often and many canonical cells depend on which parent the settle
// order picked.
#include "net/dijkstra.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "net/graph.h"
#include "placement/placement.h"
#include "../testutil.h"

namespace diaca::net {
namespace {

// Reference: the historical per-source loop — a lazy binary heap of
// (distance, node) pairs with stale entries skipped on pop, and for the
// canonical row the shortest-path tree re-summed from each v < source.
std::vector<double> LazyHeapRow(const Graph& graph, NodeIndex source,
                                bool canonical) {
  const auto n = static_cast<std::size_t>(graph.size());
  std::vector<double> dist(n, Graph::kInfinity);
  std::vector<NodeIndex> parent(n, -1);
  std::vector<double> arc_len(n, 0.0);
  dist[static_cast<std::size_t>(source)] = 0.0;
  using Item = std::pair<double, NodeIndex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    const Graph::Arcs arcs = graph.OutArcs(u);
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      const double nd = d + arcs.length[a];
      const auto to = static_cast<std::size_t>(arcs.to[a]);
      if (nd < dist[to]) {
        dist[to] = nd;
        parent[to] = u;
        arc_len[to] = arcs.length[a];
        heap.emplace(nd, arcs.to[a]);
      }
    }
  }
  if (!canonical) return dist;
  for (NodeIndex v = 0; v < source; ++v) {
    if (parent[static_cast<std::size_t>(v)] < 0) continue;  // unreachable
    double sum = 0.0;
    for (NodeIndex w = v; w != source; w = parent[static_cast<std::size_t>(w)]) {
      sum += arc_len[static_cast<std::size_t>(w)];
    }
    dist[static_cast<std::size_t>(v)] = sum;
  }
  return dist;
}

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// Compares every row form of `graph` with the reference; returns the
// number of canonical cells whose bits differ from the plain row's (the
// cells the re-sum decides).
std::int64_t ExpectKernelMatchesReference(const Graph& graph,
                                          const std::string& what) {
  const NodeIndex n = graph.size();
  std::vector<std::vector<double>> plain(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> canonical(static_cast<std::size_t>(n));
  std::int64_t resummed = 0;
  for (NodeIndex u = 0; u < n; ++u) {
    plain[static_cast<std::size_t>(u)] = LazyHeapRow(graph, u, false);
    canonical[static_cast<std::size_t>(u)] = LazyHeapRow(graph, u, true);
    const std::vector<double> got_plain = graph.ShortestPathsFrom(u);
    const std::vector<double> got_canonical =
        graph.CanonicalShortestPathsFrom(u);
    for (NodeIndex v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      EXPECT_EQ(Bits(got_plain[vi]), Bits(plain[static_cast<std::size_t>(u)][vi]))
          << what << " plain row " << u << " cell " << v;
      EXPECT_EQ(Bits(got_canonical[vi]),
                Bits(canonical[static_cast<std::size_t>(u)][vi]))
          << what << " canonical row " << u << " cell " << v;
      resummed += Bits(canonical[static_cast<std::size_t>(u)][vi]) !=
                  Bits(plain[static_cast<std::size_t>(u)][vi]);
    }
  }

  // The all-pairs route fills (u, v) and (v, u) from source min(u, v)'s
  // plain row.
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    const LatencyMatrix m = graph.AllPairsShortestPaths();
    for (NodeIndex u = 0; u < n; ++u) {
      for (NodeIndex v = 0; v < n; ++v) {
        const NodeIndex lo = std::min(u, v);
        const NodeIndex hi = std::max(u, v);
        EXPECT_EQ(Bits(m(u, v)), Bits(plain[static_cast<std::size_t>(lo)]
                                           [static_cast<std::size_t>(hi)]))
            << what << " APSP cell (" << u << "," << v << ") at " << threads
            << " threads";
      }
    }
  }
  SetGlobalThreads(0);

  OracleOptions rows;
  rows.backend = OracleBackend::kRows;
  const DistanceOracle oracle = DistanceOracle::FromGraph(graph, rows);
  std::vector<double> row(static_cast<std::size_t>(n));
  for (NodeIndex u = 0; u < n; ++u) {
    oracle.FillRow(u, row);
    for (NodeIndex v = 0; v < n; ++v) {
      EXPECT_EQ(Bits(row[static_cast<std::size_t>(v)]),
                Bits(canonical[static_cast<std::size_t>(u)]
                              [static_cast<std::size_t>(v)]))
          << what << " oracle row " << u << " cell " << v;
    }
  }
  return resummed;
}

TEST(DijkstraKernelTest, MatchesLazyHeapReferenceOnBenchmarkWaxman) {
  data::WaxmanParams params;  // the benchmark substrate's shape
  params.num_nodes = 400;
  const Graph graph = data::GenerateWaxmanTopology(params, 2011);
  ASSERT_GT(graph.num_edges(), 2000u);
  ExpectKernelMatchesReference(graph, "waxman");
}

// A connected random graph on 20-80 nodes: a random spanning tree, then
// random extra links, then repeats of some links (parallel edges, same
// or different weight), all with weights from a small non-dyadic set.
std::vector<Graph::Edge> TieHeavyEdges(Rng& rng, NodeIndex* n_out) {
  static constexpr double kWeights[] = {0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1.1};
  const auto weight = [&rng] { return kWeights[rng.NextBounded(7)]; };
  const auto n = static_cast<NodeIndex>(20 + rng.NextBounded(61));
  std::vector<Graph::Edge> edges;
  for (NodeIndex v = 1; v < n; ++v) {
    edges.push_back(
        {static_cast<NodeIndex>(rng.NextBounded(static_cast<std::uint64_t>(v))),
         v, weight()});
  }
  const auto extra = static_cast<std::int64_t>(n) *
                     static_cast<std::int64_t>(1 + rng.NextBounded(4));
  for (std::int64_t i = 0; i < extra; ++i) {
    const auto u = static_cast<NodeIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    if (u != v) edges.push_back({u, v, weight()});
  }
  const std::size_t base = edges.size();
  for (std::size_t i = 0; i < base / 8; ++i) {
    Graph::Edge e = edges[rng.NextBounded(base)];
    if (rng.NextBounded(2) == 0) e.length = weight();
    edges.push_back(e);
  }
  // Shuffle so tree links do not always come first in each arc run.
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  *n_out = n;
  return edges;
}

Graph TieHeavyGraph(Rng& rng) {
  NodeIndex n = 0;
  const std::vector<Graph::Edge> edges = TieHeavyEdges(rng, &n);
  return Graph(n, edges);
}

TEST(DijkstraKernelTest, MatchesLazyHeapReferenceOnTieHeavyRandomGraphs) {
  Rng rng(2025);
  std::int64_t resummed = 0;
  for (int g = 0; g < 200; ++g) {
    const Graph graph = TieHeavyGraph(rng);
    resummed +=
        ExpectKernelMatchesReference(graph, "graph " + std::to_string(g));
    if (testing::Test::HasFailure()) return;
  }
  // The inputs have teeth: many cells depend on the tree the settle order
  // built, not only on the distances.
  EXPECT_GT(resummed, 1000);
}

// Folded farthest-point sweeps over all n nodes of `graph`, in the order
// the full fold chooses: after each step, `full` is the running minimum
// of RunCanonical rows and `bounded` the same minimum kept by
// RunBoundedCanonical. Counts the steps whose minima differ in any bit,
// and the steps where the two would choose different next centers.
struct SweepDiff {
  std::int64_t best_steps = 0;
  std::int64_t center_steps = 0;
  std::int64_t settled = 0;
};

NodeIndex Farthest(const std::vector<double>& to_set) {
  return static_cast<NodeIndex>(
      std::max_element(to_set.begin(), to_set.end()) - to_set.begin());
}

SweepDiff BoundedAgainstFullFold(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.size());
  DijkstraKernel full_kernel(graph);
  DijkstraKernel bounded_kernel(graph);
  std::vector<double> full(n, Graph::kInfinity);
  std::vector<double> bounded(n, Graph::kInfinity);
  std::vector<double> row(n);
  SweepDiff diff;
  NodeIndex next = 0;
  for (std::size_t step = 0; step < n; ++step) {
    full_kernel.RunCanonical(next, row);
    for (std::size_t v = 0; v < n; ++v) full[v] = std::min(full[v], row[v]);
    diff.settled += static_cast<std::int64_t>(
        bounded_kernel.RunBoundedCanonical(next, bounded));
    bool same = true;
    for (std::size_t v = 0; v < n; ++v) {
      same &= Bits(full[v]) == Bits(bounded[v]);
    }
    diff.best_steps += same ? 0 : 1;
    next = Farthest(full);
    diff.center_steps += Farthest(bounded) == next ? 0 : 1;
  }
  return diff;
}

// The bounded mode keeps a farthest-point sweep's running minimum bit
// for bit equal to folding whole canonical rows, at every step of a full
// (k = n) order, while settling a fraction of the nodes.
TEST(DijkstraKernelTest, BoundedRunsMatchFullRowFoldOnBenchmarkWaxman) {
  data::WaxmanParams params;  // the benchmark substrate's shape
  params.num_nodes = 400;
  const Graph graph = data::GenerateWaxmanTopology(params, 2011);
  const SweepDiff diff = BoundedAgainstFullFold(graph);
  EXPECT_EQ(diff.best_steps, 0);
  EXPECT_EQ(diff.center_steps, 0);
  // Only the first step builds a whole row; the pruning must bite.
  EXPECT_LT(diff.settled, 400 * 400 / 4);
}

// Tie-heavy graphs give the slack teeth: equal-length paths make many
// canonical entries depend on which tree the settle order built, and
// pruning a node whose entry ties its running minimum must not change a
// bit. With the slack set to 0 this test fails (checked on a scratch
// copy).
TEST(DijkstraKernelTest, BoundedRunsMatchFullRowFoldOnTieHeavyRandomGraphs) {
  Rng rng(2031);
  SweepDiff total;
  std::int64_t cells = 0;
  for (int g = 0; g < 200; ++g) {
    const Graph graph = TieHeavyGraph(rng);
    const SweepDiff diff = BoundedAgainstFullFold(graph);
    EXPECT_EQ(diff.best_steps, 0) << "graph " << g;
    EXPECT_EQ(diff.center_steps, 0) << "graph " << g;
    total.best_steps += diff.best_steps;
    total.center_steps += diff.center_steps;
    total.settled += diff.settled;
    cells += static_cast<std::int64_t>(graph.size()) * graph.size();
  }
  EXPECT_EQ(total.best_steps, 0);
  EXPECT_EQ(total.center_steps, 0);
  EXPECT_LT(total.settled, cells / 2);
}

TEST(DijkstraKernelTest, AddEdgeEqualsEdgeListBuild) {
  Rng rng(7);
  NodeIndex n = 0;
  const std::vector<Graph::Edge> edges = TieHeavyEdges(rng, &n);
  const Graph bulk(n, edges);
  Graph added(n);
  for (const Graph::Edge& e : edges) added.AddEdge(e.u, e.v, e.length);
  ASSERT_EQ(added.num_edges(), edges.size());
  ASSERT_EQ(bulk.num_edges(), edges.size());
  for (NodeIndex u = 0; u < n; ++u) {
    const Graph::Arcs a = added.OutArcs(u);
    const Graph::Arcs b = bulk.OutArcs(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.to[i], b.to[i]);
      EXPECT_EQ(Bits(a.length[i]), Bits(b.length[i]));
    }
  }
}

TEST(DijkstraKernelTest, DisconnectedGraphsKeepTheirErrors) {
  Graph graph(4);
  graph.AddEdge(0, 1, 0.3);
  graph.AddEdge(2, 3, 0.7);
  EXPECT_FALSE(graph.IsConnected());
  const std::vector<double> plain = graph.ShortestPathsFrom(3);
  EXPECT_EQ(plain[0], Graph::kInfinity);
  EXPECT_EQ(plain[2], 0.7);
  const std::vector<double> canonical = graph.CanonicalShortestPathsFrom(3);
  EXPECT_EQ(canonical[1], Graph::kInfinity);
  EXPECT_EQ(canonical[2], 0.7);

  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    EXPECT_EQ(test::ErrorOf([&] { graph.AllPairsShortestPaths(); }),
              "graph is disconnected: no path 0 -> 2");
  }
  SetGlobalThreads(0);

  OracleOptions rows;
  rows.backend = OracleBackend::kRows;
  const DistanceOracle oracle = DistanceOracle::FromGraph(graph, rows);
  std::vector<double> row(4);
  EXPECT_EQ(test::ErrorOf([&] { oracle.FillRow(3, row); }),
            "graph is disconnected: no path 3 -> 0");
  EXPECT_EQ(test::ErrorOf([&] { oracle.Distance(1, 2); }),
            "graph is disconnected: no path 1 -> 2");

  // The farthest-point sweep builds no row, yet fails as node 0's row
  // would after its first step.
  EXPECT_EQ(test::ErrorOf([&] { placement::KCenterFarthest(oracle, 2); }),
            "graph is disconnected: no path 0 -> 2");

  OracleOptions landmarks;
  landmarks.backend = OracleBackend::kLandmarks;
  EXPECT_EQ(
      test::ErrorOf([&] { DistanceOracle::FromGraph(graph, landmarks); }),
            "graph is disconnected: no path from 0");
}

}  // namespace
}  // namespace diaca::net
