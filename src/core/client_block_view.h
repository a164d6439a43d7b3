// Client-block view: the solver-facing contract for the |C| x |S|
// client-to-server latency block.
//
// net::DistanceOracle broke the O(n^2) substrate wall, but Problem
// still materialized the full client block, so at 1M clients x 1k
// servers the assignment step itself retained the ~8 GB the oracle was
// built to avoid. ClientBlockView redesigns that contract: solvers
// no longer assume a resident block; they consume the data through
//
//   * cs(c, s) / FillRow(c)  — random access for spot lookups and
//                              row-at-a-time consumers (capacitated
//                              nearest, the exact solver's block copy);
//   * GatherColumn / FillColumn / ForEachColumn — column access for the
//                              server-major passes (greedy candidate
//                              lists, LFB batch scans);
//   * GatherAssigned / FoldAssignedMax — the assigned diagonal
//                              d(c, a_c), O(|C|) values: everything the
//                              eccentricity folds, distributed greedy and
//                              the incremental evaluator read;
//   * FillNearest / FillColumnMax — per-client nearest servers and
//                              certified column maxima (the pairwise
//                              lower bound's filters).
//
// Two backends implement it:
//
//   * MaterializedView — wraps the padded d_cs block Problem has always
//     carried. Every accessor resolves to the same loads the solvers used
//     to issue against Problem::cs_row, so results are bit-identical to
//     the historical path.
//   * OracleTileView — never holds the block. It retains only the |S|
//     substrate server rows (gathered once from a net::DistanceOracle,
//     O((n + |C|) + n * |S|) state, independent of |C| x |S|) and
//     synthesizes the values a caller asks for on demand: rows by the
//     SIMD broadcast-add kernel, columns by the gather-add kernel.
//     Because every synthesized double is computed from the same operands
//     the materialized build used (d(c,s) = access(c) + row_s[attach(c)],
//     a single IEEE addition), assignments are bit-identical across the
//     two backends at every tile size and thread count.
//
// Thread safety: views are shared const (Problem copies alias one view).
// All accessors are safe to call concurrently; the usage counters are
// relaxed atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/simd/kernels.h"
#include "core/types.h"
#include "net/distance_oracle.h"

namespace diaca::core {

/// Monotonic usage counters, snapshotted by SolverRegistry::Solve into
/// SolveStats (the tiles_pruned delta per solve).
struct ClientBlockStats {
  /// Always 0 (no accessor synthesizes tiles); kept only because the
  /// repository benchmark reads it.
  std::int64_t tiles_loaded = 0;
  /// FillRow calls on a lazy backend.
  std::int64_t rows_filled = 0;
  /// Column accesses served (GatherColumn, FillColumn, ForEachColumn,
  /// GatherAssigned, FillNearest; both backends).
  std::int64_t columns_gathered = 0;
  /// Always 0, like tiles_loaded, and kept for the same reader.
  std::int64_t tile_bytes_peak = 0;
  /// Work units a certified bound skipped without touching their exact
  /// values: whole tile_clients-sized client ranges rejected by the
  /// FoldAssignedMax predicate (lazy backends only — a resident block has
  /// nothing to synthesize) plus 512-entry candidate blocks the greedy
  /// scans retired without gathering (every backend, credited through
  /// CountPrunedTiles). Unlike the solver outputs this counter is
  /// telemetry, not part of the bit-determinism contract.
  std::int64_t tiles_pruned = 0;
};

/// Options for lazy backends (MaterializedView ignores them).
struct TileOptions {
  /// Clients per certified skip block of FoldAssignedMax on
  /// OracleTileView, clamped to [1, |C|]: the fold rejects a whole block
  /// when none of its clients can raise its server's running maximum.
  /// Results never depend on the value.
  std::int32_t tile_clients = 8192;
  /// Master switch for the certified filter-and-refine paths
  /// (cutoff-seeded candidate scans, assigned-fold block rejection). Off
  /// forces every bound-gated path to do the full exact work — slower,
  /// bit-identical output — which is how the tier-1 smoke validates the
  /// certification.
  bool bound_pruning = true;
};

class ClientBlockView {
 public:
  virtual ~ClientBlockView() = default;
  ClientBlockView(const ClientBlockView&) = delete;
  ClientBlockView& operator=(const ClientBlockView&) = delete;

  std::int32_t num_clients() const { return num_clients_; }
  std::int32_t num_servers() const { return num_servers_; }

  /// Doubles between consecutive rows: simd::PaddedStride(num_servers()),
  /// pad lanes 0.0 — the layout the SIMD kernels run on.
  std::size_t server_stride() const { return server_stride_; }

  /// True when the whole padded block is resident (raw_block() != nullptr).
  bool materialized() const { return raw_block_ != nullptr; }

  /// The resident padded block, or nullptr on lazy backends. Fast paths
  /// that need contiguous multi-row access branch on this once and fall
  /// back to the accessors below.
  const double* raw_block() const { return raw_block_; }

  /// Client-to-server latency d(c, s). O(1) on both backends (lazy
  /// backends compute one addition); inline load when materialized.
  double cs(ClientIndex c, ServerIndex s) const {
    if (raw_block_ != nullptr) {
      return raw_block_[static_cast<std::size_t>(c) * server_stride_ +
                        static_cast<std::size_t>(s)];
    }
    return CsSlow(c, s);
  }

  /// Write client c's padded row into out[0..server_stride()): the
  /// num_servers() latencies then 0.0 pad lanes.
  void FillRow(ClientIndex c, double* out) const;

  /// out[i] = cs(ids[i], s) for i in [0, count) — the server-major gather
  /// the greedy candidate lists stream.
  void GatherColumn(ServerIndex s, const ClientIndex* ids, std::size_t count,
                    double* out) const;

  /// out[c] = cs(c, s) for every client — the full-column scan of the LFB
  /// batch collection.
  void FillColumn(ServerIndex s, double* out) const;

  /// Hand every column, restricted to the clients in `ids`, to fn(s, col)
  /// exactly once, with col[i] = cs(ids[i], s) for i in [0, ids.size())
  /// (valid only during fn) — the server-major pass that builds greedy's
  /// candidate lists. Passing every client yields full columns; passing
  /// a subset (greedy's still-unassigned clients) costs O(|ids|) per
  /// column, so a pass over survivors shrinks with them. Columns fan out
  /// across the global pool, so fn runs CONCURRENTLY for distinct servers
  /// and must only write per-server state. The view picks the traversal
  /// its layout favors: a resident block fills simd::kPadWidth columns
  /// (one cache line of each listed row) per row-major pass instead of
  /// striding the block once per server; lazy backends gather one column
  /// at a time (GatherColumn's kernel) into a single per-thread buffer.
  /// Either way the doubles are GatherColumn's.
  void ForEachColumn(
      std::span<const ClientIndex> ids,
      const std::function<void(ServerIndex, const double*)>& fn) const;

  /// Certified column maxima: cs(c, s) <= out[s] for every client c and
  /// server s in [0, num_servers()). Exact on a resident block (one
  /// row-major pass); OracleTileView writes fl(max access delay + the
  /// column's exact maximum substrate leg), a monotone IEEE add of exact
  /// aggregates, so the bound holds bitwise with no slack term.
  void FillColumnMax(double* out) const;

  /// out[c] = cs(c, assign[c]) for every client with assign[c] >= 0
  /// (out[c] = -1.0 otherwise — the repo-wide "unused" sentinel). The
  /// sparse exact gather of the assigned diagonal: O(|C|) loads, never a
  /// synthesized row.
  void GatherAssigned(const ServerIndex* assign, double* out) const;

  /// Eccentricity fold, bounds-first: far[s] = max(far[s], cs(c, s)) over
  /// every client with assign[c] == s, bit-identical to the full
  /// MaxAbsorbScatter pass at any pruning rate (max is exact, and a
  /// skipped block of tile_clients clients is certified to leave every
  /// far[s] unchanged: fl(access(c) + max substrate leg of a_c) <=
  /// far[a_c] held for each of its clients, and far only grows). Pruned
  /// blocks count into tiles_pruned; surviving blocks refine through the
  /// sparse assigned gather.
  void FoldAssignedMax(const ServerIndex* assign, double* far) const;

  /// Per-client nearest server, bit-identical to running
  /// simd::ArgMinFirst over every exact row: server_out[c] = the LOWEST
  /// server index attaining min_s cs(c, s), dist_out[c] = that minimum.
  /// OracleTileView factorizes the scan per attachment node (each node's
  /// column minimum plus an ulp-window candidate set refined exactly per
  /// client), turning the O(|C| x |S|) row scans into
  /// O(n x |S| + |C|) work.
  void FillNearest(ServerIndex* server_out, double* dist_out) const;

  /// The full padded block as a fresh vector (|C| rows of
  /// server_stride()). The escape hatch for consumers that genuinely need
  /// random row access over the whole block (the exact solver's
  /// branch-and-bound); O(|C| x |S|) memory by definition — callers own
  /// that trade.
  std::vector<double> MaterializeBlock() const;

  ClientBlockStats stats() const;

  /// Credit `n` 512-entry candidate blocks as pruned. Solvers call this
  /// when a certified bound retires candidate lanes before they are
  /// gathered (greedy's bucket scans): the lanes were never requested, so
  /// only the caller knows how many were avoided. Telemetry only — feeds
  /// ClientBlockStats::tiles_pruned.
  void CountPrunedTiles(std::int64_t n) const;

 protected:
  ClientBlockView(std::int32_t num_clients, std::int32_t num_servers,
                  const TileOptions& tile);

  /// Lazy-backend hooks; never called while raw_block_ is set.
  virtual double CsSlow(ClientIndex c, ServerIndex s) const = 0;
  virtual void FillRowSlow(ClientIndex c, double* out) const = 0;
  virtual void GatherColumnSlow(ServerIndex s, const ClientIndex* ids,
                                std::size_t count, double* out) const = 0;
  /// Full column without an id list (out[c] = cs(c, s) for all clients).
  virtual void FillColumnSlow(ServerIndex s, double* out) const = 0;
  /// Column maxima; the default is one exact row-major pass over the
  /// resident rows (only MaterializedView reaches it).
  virtual void FillColumnMaxSlow(double* out) const;
  /// Assigned-diagonal gather; default walks cs().
  virtual void GatherAssignedSlow(const ServerIndex* assign,
                                  double* out) const;
  /// Eccentricity fold; default is the unpruned sparse gather + max pass.
  virtual void FoldAssignedMaxSlow(const ServerIndex* assign,
                                   double* far) const;
  /// Nearest-server scan; default is simd::ArgMinFirst per row (resident
  /// rows fan out over the global pool in client chunks).
  virtual void FillNearestSlow(ServerIndex* server_out,
                               double* dist_out) const;

  bool bound_pruning() const { return tile_.bound_pruning; }

  std::int32_t num_clients_;
  std::int32_t num_servers_;
  std::size_t server_stride_;
  TileOptions tile_;
  /// Set by MaterializedView; nullptr on lazy backends.
  const double* raw_block_ = nullptr;

 private:
  mutable std::atomic<std::int64_t> rows_filled_{0};
  mutable std::atomic<std::int64_t> columns_gathered_{0};
  mutable std::atomic<std::int64_t> tiles_pruned_{0};
};

/// The historical backend: owns the padded |C| x server_stride block.
class MaterializedView final : public ClientBlockView {
 public:
  /// Adopts `padded_block`: num_clients rows of PaddedStride(num_servers)
  /// doubles, pad lanes 0.0 (the layout Problem's constructors build).
  MaterializedView(std::int32_t num_clients, std::int32_t num_servers,
                   std::vector<double> padded_block);

 protected:
  double CsSlow(ClientIndex c, ServerIndex s) const override;
  void FillRowSlow(ClientIndex c, double* out) const override;
  void GatherColumnSlow(ServerIndex s, const ClientIndex* ids,
                        std::size_t count, double* out) const override;
  void FillColumnSlow(ServerIndex s, double* out) const override;

 private:
  std::vector<double> block_;
};

/// The streaming backend: synthesizes client rows from O(n * |S|) server
///-row state pulled once from a distance oracle.
class OracleTileView final : public ClientBlockView {
 public:
  /// Clients sitting directly on substrate nodes:
  /// d(c, s) = d_substrate(client_nodes[c], server_nodes[s]). Matches the
  /// matrix/oracle Problem constructors bit-for-bit (exact oracle
  /// backends; estimated backends match an estimated materialized build).
  /// Queries |S| oracle rows at construction, then drops the oracle.
  static std::shared_ptr<OracleTileView> FromOracle(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes,
      std::span<const net::NodeIndex> client_nodes,
      const TileOptions& tile = {});

  /// Attached clients (the streaming-cloud shape, data/streaming.h):
  /// d(c, s) = access_ms[c] + d_substrate(attach[c], server_nodes[s]).
  /// The addition uses the same operand order as the materialized cloud
  /// build, so the synthesized block is bit-identical to it.
  static std::shared_ptr<OracleTileView> FromAttachments(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes,
      std::span<const net::NodeIndex> attach, std::span<const double> access_ms,
      const TileOptions& tile = {});

  /// The |S| x |S| server block captured during construction (dense
  /// row-major, zero diagonal) — Problem::FromView consumes it so the
  /// oracle is queried exactly once.
  std::span<const double> server_block() const { return ss_block_; }

 protected:
  double CsSlow(ClientIndex c, ServerIndex s) const override;
  void FillRowSlow(ClientIndex c, double* out) const override;
  void GatherColumnSlow(ServerIndex s, const ClientIndex* ids,
                        std::size_t count, double* out) const override;
  void FillColumnSlow(ServerIndex s, double* out) const override;
  void FillColumnMaxSlow(double* out) const override;
  void GatherAssignedSlow(const ServerIndex* assign,
                          double* out) const override;
  void FoldAssignedMaxSlow(const ServerIndex* assign,
                           double* far) const override;
  void FillNearestSlow(ServerIndex* server_out,
                       double* dist_out) const override;

 private:
  OracleTileView(std::int32_t num_clients, std::int32_t num_servers,
                 const TileOptions& tile);
  static std::shared_ptr<OracleTileView> Build(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes,
      std::span<const net::NodeIndex> attach_nodes,
      std::span<const double> access_ms, const TileOptions& tile);

  /// base_row_[c]: index of client c's substrate node among the distinct
  /// attachment nodes (first-appearance order).
  std::vector<std::int32_t> base_row_;
  /// Per-client access delay; empty when clients sit on substrate nodes
  /// (no addition is performed, preserving the matrix path's bits).
  std::vector<double> access_;
  /// Node-major server distances: one padded row (server_stride doubles,
  /// pads 0.0) per distinct attachment node — row fills stream it.
  std::vector<double> node_rows_;
  /// Server-major mirror: |S| rows of num_rows_ doubles — column gathers
  /// stay inside one compact row instead of striding node_rows_.
  std::vector<double> server_cols_;
  /// |S| x |S| dense server block (see server_block()).
  std::vector<double> ss_block_;
  std::int32_t num_rows_ = 0;  ///< distinct attachment nodes

  /// Exact per-server maximum substrate leg over the attachment nodes,
  /// computed once at build, and the largest access delay (0.0 when
  /// clients sit on substrate nodes).
  std::vector<double> leg_max_;
  double access_max_ = 0.0;

  /// Factorized nearest-server structure (FillNearest), built lazily on
  /// first use: per attachment node, its column minimum, and the
  /// ascending list of servers whose column entry sits within the
  /// ulp-collapse window of that minimum — the only servers any client on
  /// the node could tie with under IEEE rounding of access + leg.
  void BuildNearestIndex() const;
  mutable std::once_flag nearest_once_;
  mutable std::vector<double> node_min_;
  mutable std::vector<ServerIndex> node_argmin_;
  mutable std::vector<std::int32_t> cand_begin_;  ///< num_rows_ + 1 offsets
  mutable std::vector<ServerIndex> cand_list_;
};

}  // namespace diaca::core
