// All-pairs shortest paths over the sparse substrate graph (§II-A): the
// setup stage every experiment pays before any assignment runs.
//
// Two interchangeable backends behind one engine:
//   * kDijkstra — one run of the net/dijkstra.h kernel (flat adjacency,
//     indexed 4-ary heap) per source, fanned out over the thread pool,
//     with one kernel scratch and distance row per chunk, so no
//     per-source allocation survives in the hot loop. Output is
//     bit-identical to the historical serial per-source code: nodes
//     settle in the same (distance, node) order over the same arc order.
//   * kBlocked — cache-blocked Floyd–Warshall directly over the padded
//     LatencyMatrix storage: B x B tiles (B a multiple of simd::kPadWidth),
//     the classic diagonal -> panel -> remainder schedule per k-block, the
//     inner update being simd::MinPlusTileUpdate. Panel and remainder
//     phases fan out over the thread pool; tiles write disjoint memory and
//     read finalized inputs, so the result is bit-identical at every
//     thread count and SIMD backend for a FIXED tile size (the tile size
//     is part of the output contract — different B reassociates path
//     sums). O(n^3) work but streaming through L2-resident tiles, which
//     beats per-source Dijkstra on large dense-ish substrates.
//
// The two backends agree to ~1e-9 relative (they associate path sums
// differently, so the last ulp can differ); each is individually
// deterministic. kAuto picks by a size/density heuristic that is a pure
// function of (n, m) — never of thread count or SIMD backend — so auto
// results stay reproducible everywhere.
#pragma once

#include <cstddef>
#include <string>

#include "net/latency_matrix.h"

namespace diaca::net {

class Graph;

enum class ApspBackend {
  kAuto = 0,      ///< ChooseBackend(n, m) decides per instance.
  kDijkstra = 1,  ///< Parallel multi-source Dijkstra (sparse-friendly).
  kBlocked = 2,   ///< Cache-blocked SIMD Floyd–Warshall (dense-friendly).
};

/// "auto" | "dijkstra" | "blocked".
const char* ApspBackendName(ApspBackend backend);

/// Inverse of ApspBackendName. Throws diaca::Error on unknown names,
/// listing the valid set.
ApspBackend ParseApspBackend(const std::string& name);

/// Process-wide default used by Graph::AllPairsShortestPaths() (and so by
/// every generator that routes a topology). kAuto until overridden — the
/// CLI's --apsp flag and benches call SetDefaultApspBackend once at
/// startup, mirroring the SetGlobalThreads pattern.
ApspBackend DefaultApspBackend();
void SetDefaultApspBackend(ApspBackend backend);

struct ApspOptions {
  ApspBackend backend = ApspBackend::kAuto;
  /// Blocked-FW tile edge, in doubles. Must be a positive multiple of
  /// simd::kPadWidth. Fixed per result: changing it can change last-ulp
  /// path sums (deterministically).
  std::size_t tile = 64;
};

class ApspEngine {
 public:
  explicit ApspEngine(const ApspOptions& options = {});

  /// The kAuto heuristic: blocked iff the substrate is large enough that
  /// tiling pays (n >= kBlockedFloor keeps every historical small-instance
  /// call on the bit-exact Dijkstra path) and dense enough that n^3/B
  /// streaming beats n sparse searches. Pure in (n, m).
  static ApspBackend ChooseBackend(NodeIndex n, std::size_t num_edges);

  /// No auto below this size: small matrices are Dijkstra-cheap and the
  /// historical golden results were produced by the Dijkstra path.
  static constexpr NodeIndex kBlockedFloor = 1024;

  /// Backend this engine would run for an (n, m) instance.
  ApspBackend ResolveBackend(NodeIndex n, std::size_t num_edges) const;

  /// Route the graph to a complete latency matrix. Throws diaca::Error if
  /// the graph is disconnected.
  LatencyMatrix Solve(const Graph& graph) const;

  /// Seed a matrix for RunBlocked: 0.0 diagonal, +infinity everywhere
  /// else including the pad lanes (the min-plus identity; pad columns stay
  /// +infinity through the whole elimination, which is what keeps them
  /// inert under MinPlusTileUpdate).
  static void SeedInfinite(LatencyMatrix& matrix);

  /// In-place blocked Floyd–Warshall over a seeded matrix: diagonal 0.0,
  /// direct link lengths (shortest parallel edge) where present, +infinity
  /// elsewhere (including pads — see SeedInfinite). On return the matrix
  /// holds all-pairs shortest paths with pad lanes restored to 0.0.
  /// Throws diaca::Error if any pair remains unreachable. This is the
  /// streaming entry point: generators can write edges straight into the
  /// seeded matrix and never materialize a Graph or a second O(n^2)
  /// buffer.
  void RunBlocked(LatencyMatrix& matrix) const;

 private:
  void SolveDijkstra(const Graph& graph, LatencyMatrix& out) const;

  ApspOptions options_;
};

}  // namespace diaca::net
