// Pluggable distance layer: sublinear-memory alternatives to the dense
// all-pairs LatencyMatrix.
//
// The paper's evaluation materializes the full O(n^2) latency matrix
// before any assignment runs; at 10k nodes that is already 763 MB and
// minutes of APSP for a 29 ms solve, and at the 100k-1M-client scales
// real DIAs operate at it is simply impossible. DistanceOracle replaces
// "materialize all pairs" with four interchangeable backends behind one
// query interface:
//
//   * kDense     — adopts a complete LatencyMatrix. Exact, O(1) queries,
//                  O(n^2) memory. The historical default; every existing
//                  result is produced by this backend unchanged.
//   * kRows      — lazy per-source Dijkstra rows over a copy of the
//                  substrate graph's flat adjacency. Each source's row
//                  is built on its first request and kept. Exact: each
//                  row is the canonical row of net/dijkstra.h's kernel
//                  (see Graph::CanonicalShortestPathsFrom), so the
//                  values are bit-identical to the dense Dijkstra matrix
//                  entries. O(m log n) per row build; memory is the graph
//                  plus one row per source asked for. The backend
//                  assignment solves run on: K-center placement
//                  (FarthestPoints) builds no row, since its sweep
//                  settles only the nodes whose distance to the chosen
//                  set can still fall, and the client-block view then
//                  asks for the s server rows, O(s * n) instead of
//                  O(n^2). Exact point queries over arbitrary sources at
//                  sublinear memory are kHubLabels' job.
//   * kLandmarks — k pivot nodes (farthest-point sampled) with
//                  precomputed exact rows. Queries return the classic
//                  triangle-inequality sandwich: upper bound
//                  min_L d(u,L)+d(L,v), lower bound max_L |d(u,L)-d(L,v)|;
//                  Distance() reports the upper bound. Exact whenever one
//                  endpoint is a landmark. O(k * n) memory.
//   * kCoords    — Vivaldi network coordinates (net/vivaldi.h) fitted
//                  against beacon rows. O(n * d) memory, constant-time
//                  estimates, no error guarantee (the bench measures the
//                  envelope per substrate).
//   * kHubLabels — pruned landmark labeling (2-hop hub labels) over the
//                  graph substrate: every node stores a small label set
//                  {(hub, d(node, hub))}; a query min-merges the two
//                  sorted label arrays. Complete on connected undirected
//                  graphs, so queries equal the true shortest-path
//                  distance up to last-ulp association (the label path
//                  re-adds the two half sums in hub order, which can
//                  differ from the canonical Dijkstra row by ~1e-16
//                  relative — see exact()). Sublinear per-query cost at
//                  O(sum of label sizes) memory.
//
// Certified bounds and TIV repair: DistanceBounds() returns a sandwich
// lower <= d <= upper. On metric substrates the landmark and hub-label
// sandwiches hold by the triangle inequality. Measured matrices
// (meridian-style) violate the triangle inequality, which silently
// breaks the raw landmark sandwich for most pairs; sketch backends
// therefore calibrate a pair of slack scales at build time from a
// sampled violation quantile (repair_samples pairs against exact rows,
// repair_permille target), and DistanceBounds() inflates the raw
// sandwich by those scales. When the substrate is metric the sampled
// ratios stay within floating-point noise of 1, both scales snap to
// exactly 1.0, and the repaired bounds are bit-identical to the raw
// ones; otherwise the
// repaired sandwich holds with probability ~repair_permille/1000 on the
// query distribution (the bench reports the achieved rate per
// substrate). Distance() always reports the raw point estimate.
//
// Thread safety: all query methods are safe to call concurrently. The
// rows backend builds each row exactly once, under that row's own
// mutex, so lanes asking for different rows build them in parallel and
// lanes asking for the same row wait for the one build; a built row is
// read without a lock. Query results never depend on which rows are
// built, thread count, or query order, so everything downstream stays
// bit-deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/latency_matrix.h"

namespace diaca::net {

class Graph;

enum class OracleBackend {
  kDense = 0,      ///< Full matrix in memory (exact, the historical path).
  kRows = 1,       ///< Lazy per-source Dijkstra rows, each kept (exact).
  kLandmarks = 2,  ///< k-pivot sketch with upper/lower bounds.
  kCoords = 3,     ///< Vivaldi coordinate estimates.
  kHubLabels = 4,  ///< Pruned 2-hop hub labeling (graph substrates).
};

/// "dense" | "rows" | "landmarks" | "coords" | "hublabels".
const char* OracleBackendName(OracleBackend backend);

/// Inverse of OracleBackendName. Throws diaca::Error on unknown names,
/// listing the valid set.
OracleBackend ParseOracleBackend(const std::string& name);

struct OracleOptions {
  OracleBackend backend = OracleBackend::kRows;
  /// Landmarks backend: number of pivots (farthest-point sampled,
  /// deterministic; clamped to size()).
  std::int32_t num_landmarks = 16;
  /// Coords backend: beacon nodes measured against (clamped to size()),
  /// observation rounds, and the Vivaldi embedding dimension.
  std::int32_t coord_beacons = 16;
  std::int32_t coord_rounds = 48;
  std::int32_t coord_dimensions = 3;
  /// Hub-labels backend: number of anchor rows used to derive the hub
  /// processing order (sum-of-distances centrality, most central first;
  /// clamped to size()). More anchors rank hubs better and shrink
  /// labels; the distances returned never change, only label sizes.
  std::int32_t hub_order_anchors = 16;
  /// Sketch bound repair (landmarks / hublabels): number of sampled
  /// (pair, exact distance) calibration probes, and the target quantile
  /// of the violation-ratio distribution the repaired sandwich must
  /// cover, in permille (990 = 99.0%). On metric substrates the sampled
  /// ratios stay within floating-point noise of 1, both repair scales
  /// snap to exactly 1.0, and repaired bounds equal the raw ones
  /// bit-for-bit.
  std::int32_t repair_samples = 256;
  std::int32_t repair_permille = 990;
  /// Seed for the coords fit (beacon observation schedule + Vivaldi
  /// initialization) and the repair-probe schedule. Landmark selection
  /// is seed-free (deterministic farthest-point from node 0).
  std::uint64_t seed = 2011;
};

/// Parse the CLI-facing oracle spec grammar
///
///   backend[:key=val[,key=val...]]
///
/// into OracleOptions. `backend` is an OracleBackendName; each backend
/// accepts only the keys it consumes (dense and rows consume none):
///   landmarks  landmarks=K, rsamples=N (repair_samples),
///              rq=N (repair_permille, 1..1000), seed=N
///   coords     beacons=N, rounds=N, dims=N, seed=N
///   hublabels  k=N (hub_order_anchors), rsamples=N, rq=N, seed=N
/// Values are whole decimal integers (std::from_chars: no '+', no
/// spaces). Unknown backends, keys another backend owns, unknown keys,
/// malformed pairs, and out-of-range values (non-positive, beyond int64,
/// or beyond INT32_MAX for the int32 keys) throw diaca::Error naming the
/// offending token and listing the backend's valid keys; any key on
/// dense or rows throws naming the backend. Examples:
/// "rows", "landmarks:landmarks=32", "hublabels:k=32,rq=995".
OracleOptions ParseOracleSpec(const std::string& spec);

/// Monotonic query-layer counters (also exported as net.oracle.* obs
/// metrics). They only move on the rows backend: a request that builds
/// its row is a miss and every other request a hit, so builds equal
/// misses. A row is built once, unless its build threw.
struct OracleStats {
  std::int64_t row_cache_hits = 0;
  std::int64_t row_cache_misses = 0;
  std::int64_t row_builds = 0;
  /// Calibrated sandwich-repair scales (landmarks / hublabels; 1.0 when
  /// the substrate is metric or the backend carries no certificate).
  double repair_upper_scale = 1.0;
  double repair_lower_scale = 1.0;
  /// Total hub-label entries across all nodes (hublabels backend; the
  /// sublinear-memory witness: entries / size() is the mean label size).
  std::int64_t hub_label_entries = 0;
};

class DistanceOracle {
 public:
  /// Dense backend adopting a complete matrix (the historical path).
  static DistanceOracle FromMatrix(LatencyMatrix matrix);

  /// Sketch backends over a measured matrix: kLandmarks / kCoords compress
  /// the matrix into an O(k*n) / O(n*d) sketch and do NOT retain it;
  /// kDense copies it. kRows needs a graph and throws here.
  static DistanceOracle FromMatrix(const LatencyMatrix& matrix,
                                   const OracleOptions& options);

  /// Graph-backed backends. kRows keeps a copy of the graph's flat
  /// adjacency (O(n + m)) and builds rows on demand; kLandmarks / kCoords run their pivot/beacon
  /// Dijkstras up front and drop the graph; kHubLabels runs its pruned
  /// labeling sweep up front and keeps only the label CSR; kDense
  /// materializes the full matrix via Graph::AllPairsShortestPaths. Throws
  /// diaca::Error if the graph is disconnected (detected lazily for
  /// kRows, at the first row build).
  static DistanceOracle FromGraph(const Graph& graph,
                                  const OracleOptions& options);

  ~DistanceOracle();
  DistanceOracle(DistanceOracle&&) noexcept;
  DistanceOracle& operator=(DistanceOracle&&) noexcept;
  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  NodeIndex size() const;
  OracleBackend backend() const;

  /// True for backends whose answers equal the dense matrix bit-for-bit
  /// (kDense, kRows). kHubLabels is complete (mathematically exact on
  /// connected graphs) but re-associates the two label half-sums, so its
  /// values can drift from the canonical rows in the last ulp — it
  /// reports false and the bench verifies the ~1e-12 relative envelope.
  bool exact() const;

  /// Distance estimate between two nodes, in milliseconds. Exact backends
  /// return the dense-matrix value; kLandmarks returns its upper bound;
  /// kHubLabels the label-path distance; kCoords the coordinate
  /// prediction. Symmetric, zero on the diagonal.
  double Distance(NodeIndex u, NodeIndex v) const;

  /// All distances from u, written to out[0..size()). For the rows
  /// backend this is the primary bulk interface: u's row (built on the
  /// first request), copied.
  void FillRow(NodeIndex u, std::span<double> out) const;

  /// Gonzalez's farthest-point order (placement::KCenterFarthest): node
  /// 0 first, then repeatedly the node farthest from those already
  /// chosen (ties to the lowest id); the first k nodes in selection
  /// order. Requires 1 <= k <= size(). Every backend but kRows folds each
  /// chosen node's FillRow into the distances to the chosen set. kRows
  /// gets the same order bit for bit from a pruned sweep
  /// (DijkstraKernel::RunBoundedCanonical) that settles only the nodes
  /// whose distance to the set can still fall, and builds no row; it
  /// throws diaca::Error naming the first node that node 0 cannot reach
  /// when the graph is disconnected.
  std::vector<NodeIndex> FarthestPoints(std::int32_t k) const;

  struct Bounds {
    double lower;
    double upper;
  };
  /// Sandwich lower <= d(u,v) <= upper. Exact backends pin both sides to
  /// the exact value. kLandmarks / kHubLabels return their raw sandwich
  /// inflated by the build-time repair scales (bit-identical to the raw
  /// sandwich on metric substrates; holds with ~repair_permille/1000
  /// probability on measured non-metric matrices). kCoords has no
  /// guarantee: both sides carry the point estimate and the error
  /// envelope must be measured (bench_oracle).
  Bounds DistanceBounds(NodeIndex u, NodeIndex v) const;

  /// The sketch sandwich BEFORE repair-scale inflation (the pure
  /// triangle-inequality bounds for kLandmarks, the point estimate for
  /// kHubLabels / kCoords, exact for exact backends). Diagnostic surface
  /// for measuring how badly a non-metric substrate breaks the raw
  /// certificate versus the repaired one (bench_oracle reports both).
  Bounds RawDistanceBounds(NodeIndex u, NodeIndex v) const;

  /// Pivot node ids (kLandmarks) or beacon ids (kCoords); empty otherwise.
  std::span<const NodeIndex> landmarks() const;

  /// The adopted matrix (kDense), nullptr otherwise. Lets dense-path
  /// consumers (core::Problem) keep their historical bit-exact fast path.
  const LatencyMatrix* dense_matrix() const;

  OracleStats stats() const;

 private:
  struct Impl;
  explicit DistanceOracle(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace diaca::net
