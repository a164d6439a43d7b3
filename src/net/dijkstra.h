// The one single-source shortest-path kernel in net: every Dijkstra row
// the library computes runs here — Graph::AllPairsShortestPaths (one run
// per source), Graph::ShortestPathsFrom / CanonicalShortestPathsFrom, and
// through the latter the rows oracle's row builds (K-center placement,
// the client-block view's server rows) and the sketch backends' pivot,
// anchor and probe rows. Each run adds one to net.graph.dijkstra_runs.
// (The hub-label labeling sweep is a different, pruned algorithm and
// keeps its own loop.)
//
// The kernel scans the Graph's flat CSR adjacency and keeps its frontier
// in an indexed 4-ary heap with decrease-key, keyed by (distance, node),
// so every node enters the heap at most once. Nodes settle in
// lexicographic (distance, node) order and each node's arcs are scanned
// in insertion order with a strict `<` relaxation. That order fixes
// every distance and every shortest-path-tree parent — hence every
// canonical re-sum — bit for bit, equal to a lazy binary heap popping
// (distance, node) pairs (tests/net/dijkstra_test.cc keeps one as the
// reference).
//
// A kernel owns reusable scratch sized to its graph and is not
// thread-safe: give each pool lane (or each call) its own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.h"

namespace diaca::net {

class DijkstraKernel {
 public:
  /// Scratch for runs over `graph`, which must outlive the kernel and stay
  /// unmodified while it runs.
  explicit DijkstraKernel(const Graph& graph);

  /// Shortest-path lengths from `source` into dist[0..size()): +infinity
  /// where unreachable.
  void Run(NodeIndex source, std::span<double> dist);

  /// Run, then re-sum each reachable v < source along its
  /// shortest-path-tree chain from v's end: the canonical row of
  /// Graph::CanonicalShortestPathsFrom.
  void RunCanonical(NodeIndex source, std::span<double> dist);

 private:
  struct Entry {
    double dist;
    NodeIndex node;
  };

  template <bool kTree>
  void Settle(NodeIndex source, std::span<double> out);
  void SiftUp(std::size_t i, Entry e);
  void SiftDown(std::size_t i, Entry e);

  const Graph& graph_;
  // heap_[0, size_) is the frontier, a 4-ary heap; every slot past
  // size_ holds the +infinity sentinel (heap_ has three more slots than
  // nodes), so a sift-down compares all four children without a bounds
  // check. slot_[v] is v's heap index while v is queued.
  std::vector<Entry> heap_;
  std::size_t size_ = 0;
  std::vector<std::int32_t> slot_;
  // Shortest-path tree, recorded only for RunCanonical: the predecessor
  // toward the source and the length of the arc that reached each node.
  std::vector<NodeIndex> parent_;
  std::vector<double> arc_len_;
};

}  // namespace diaca::net
