// Sparse weighted graph with shortest-path routing (§II-A).
//
// The paper's formal model is a graph G=(V,E) with link lengths, with the
// distance function extended to all pairs via routing paths. Graph builds
// that extension: Dijkstra from every node yields the complete
// LatencyMatrix that the assignment algorithms consume. The NP-completeness
// reduction (§III) constructs such graphs directly.
//
// The adjacency is one flat CSR: node u's arcs are
// [offsets[u], offsets[u + 1]) of an int32 target array and a double
// length array, each node's arcs in insertion order (every link appends
// an arc both ways). It is complete after construction and after every
// AddEdge, so concurrent readers never see a half-built graph. Copying a
// Graph copies exactly that adjacency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/latency_matrix.h"

namespace diaca::net {

class Graph {
 public:
  /// One undirected link, for the bulk constructor.
  struct Edge {
    NodeIndex u;
    NodeIndex v;
    double length;
  };

  /// The arcs leaving one node, in insertion order: arc i goes to to[i]
  /// and has length length[i].
  struct Arcs {
    std::span<const NodeIndex> to;
    std::span<const double> length;
    std::size_t size() const { return to.size(); }
  };

  /// A graph with no links.
  explicit Graph(NodeIndex num_nodes);

  /// A graph with the given links, in order: equal to AddEdge applied to
  /// each edge, built in one O(n + m) counting pass. Generators and
  /// loaders build through this; AddEdge is for small hand-built graphs.
  Graph(NodeIndex num_nodes, std::span<const Edge> edges);

  NodeIndex size() const { return n_; }
  std::size_t num_edges() const { return targets_.size() / 2; }

  /// Arcs leaving u: a view into the flat adjacency, valid until the next
  /// AddEdge.
  Arcs OutArcs(NodeIndex u) const {
    const auto b = offsets_[static_cast<std::size_t>(u)];
    const auto e = offsets_[static_cast<std::size_t>(u) + 1];
    return {{targets_.data() + b, e - b}, {lengths_.data() + b, e - b}};
  }

  /// Add an undirected link of the given positive length. Parallel edges
  /// are allowed (shortest wins during routing); self-loops are an error.
  /// Inserts into the flat adjacency in O(n + m); use the edge-list
  /// constructor for large graphs.
  void AddEdge(NodeIndex u, NodeIndex v, double length);

  /// Single-source shortest path lengths (net/dijkstra.h's kernel).
  /// Unreachable nodes get +infinity.
  std::vector<double> ShortestPathsFrom(NodeIndex source) const;

  /// ShortestPathsFrom with canonical rounding: entry v carries the path
  /// sum accumulated from the lower-indexed endpoint of {source, v} —
  /// exactly the association order AllPairsShortestPaths uses when it
  /// fills the (min, max) cell from source min. For v > source that is
  /// the plain Dijkstra value; for v < source the shortest-path-tree arc
  /// chain is re-summed from v's end. The two directions differ only in
  /// last-ulp association, so this row is bit-identical to the dense
  /// matrix row whenever the shortest path is unique at ulp resolution
  /// (always, for substrates with continuous random weights; trivially,
  /// for dyadic integer weights where the sums are exact). The rows
  /// distance-oracle backend is built on this.
  std::vector<double> CanonicalShortestPathsFrom(NodeIndex source) const;

  /// All-pairs shortest paths as a LatencyMatrix: one kernel run per
  /// source, fanned out over the thread pool, with cells (u, v) and
  /// (v, u) taken from source min(u, v)'s ShortestPathsFrom row, so the
  /// matrix is bit-identical at every thread count. Throws diaca::Error
  /// if the graph is disconnected (the system model requires every pair
  /// of nodes to be able to communicate).
  LatencyMatrix AllPairsShortestPaths() const;

  /// True if every node can reach every other node.
  bool IsConnected() const;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

 private:
  void CheckEdge(NodeIndex u, NodeIndex v, double length) const;

  NodeIndex n_;
  std::vector<std::size_t> offsets_;  // n_ + 1
  std::vector<NodeIndex> targets_;    // 2 * num_edges()
  std::vector<double> lengths_;       // 2 * num_edges()
};

}  // namespace diaca::net
