// Client-block view: the solver-facing contract for the |C| x |S|
// client-to-server latency block.
//
// net::DistanceOracle broke the O(n^2) substrate wall, but Problem
// still materialized the full client block, so at 1M clients x 1k
// servers the assignment step itself retained the ~8 GB the oracle was
// built to avoid. ClientBlockView redesigns that contract: solvers
// never ask whether the block is resident; they consume the data through
//
//   * cs(c, s) / Row(c, scratch) — random access for spot lookups and
//                              row-at-a-time consumers (capacitated
//                              nearest and LFB, the pairwise bound);
//                              FillRow(c) is Row's always-copying form;
//   * MaterializeBlock(ids)  — the resident block (or a sub-block over
//                              a client list), cut row by row: every
//                              resident block built from an oracle is
//                              an OracleTileView's rows;
//   * GatherColumn / ForEachColumn — column access over a client list
//                              for the server-major passes (greedy
//                              candidate lists, LFB batch scans);
//   * GatherAssigned / FoldAssignedMax — the assigned diagonal
//                              d(c, a_c), O(|C|) values: everything the
//                              eccentricity folds, distributed greedy and
//                              the incremental evaluator read;
//   * FillNearest / FillColumnMax — per-client nearest servers and
//                              certified column maxima (the pairwise
//                              lower bound's filters);
//   * ForEachColumnFloors   — per attachment row, each column's exact
//                              minimum and client count (greedy's
//                              round-1 bound; lazy backends only);
//   * Subset(ids)           — the view over a client list, streamed
//                              when this view streams (the control
//                              plane's member sub-problems).
//
// Two backends implement it, and each implements every accessor:
//
//   * MaterializedView — owns a padded |C| x server_stride block (dense
//     matrices, FromBlocks, sub-blocks cut with MaterializeBlock).
//   * OracleTileView — never holds the block. It retains only the |S|
//     substrate server rows (gathered once from a net::DistanceOracle,
//     O((n + |C|) + n * |S|) state, independent of |C| x |S|) and
//     synthesizes the values a caller asks for on demand: rows by the
//     SIMD broadcast-add kernel, columns by the gather-add kernel. It is
//     the only code that turns oracle server rows into client distances,
//     by one formula for every client: d(c,s) = access(c) +
//     row_s[attach(c)], a single IEEE addition. A client on a substrate
//     node is an attached client with access delay 0.0, and 0.0 + leg is
//     the leg bit for bit for every leg >= +0.0. Every oracle-built
//     resident block is its MaterializeBlock, so assignments are
//     bit-identical across the two backends by construction, at every
//     thread count. Its subsets share those server rows with it,
//     immutable, and hold only their members' O(|ids|) row indices and
//     access delays.
//
// Dispatch: the accessors that feed the usage counters are non-virtual;
// they count and forward to a protected *Impl hook. The rest (cs, Row,
// ForEachColumnFloors, FillColumnMax, materialized) are virtual
// themselves. The base class never branches on residency.
// cs() on a resident block is a virtual call, not an inline load: with
// an inline load, paper-sweep pairs read no faster (docs/performance.md).
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
  /// Rows synthesized on a lazy backend (FillRow calls plus
  /// MaterializeBlock rows).
  std::int64_t rows_filled = 0;
  /// Column accesses served (GatherColumn, ForEachColumn,
  /// GatherAssigned, FoldAssignedMax, FillNearest; both backends). The
  /// O(|C|) diagonal accessors and FillNearest count one each.
  std::int64_t columns_gathered = 0;
  /// Always 0, like tiles_loaded, and kept for the same reader.
  std::int64_t tile_bytes_peak = 0;
  /// 512-entry candidate blocks the greedy scans retired without
  /// gathering, on every backend (credited through CountPrunedTiles).
  /// Unlike the solver outputs this counter is telemetry, not part of
  /// the bit-determinism contract.
  std::int64_t tiles_pruned = 0;
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

  /// True when the whole padded block is resident (a MaterializedView).
  /// For tests and diagnostics; solvers read through the accessors.
  virtual bool materialized() const = 0;

  /// Client-to-server latency d(c, s). O(1) on both backends (lazy
  /// backends compute one addition).
  virtual double cs(ClientIndex c, ServerIndex s) const = 0;

  /// Client c's padded row (server_stride() doubles, pad lanes 0.0): the
  /// resident row itself, or `scratch` (server_stride() doubles) filled
  /// as FillRow fills it. Valid while the view lives and `scratch` is
  /// not rewritten.
  virtual const double* Row(ClientIndex c, double* scratch) const = 0;

  /// Write client c's padded row into out[0..server_stride()): the
  /// num_servers() latencies then 0.0 pad lanes.
  void FillRow(ClientIndex c, double* out) const;

  /// out[i] = cs(ids[i], s) for i in [0, count) — the server-major gather
  /// the greedy candidate lists stream (a bucket's lanes, a batch window,
  /// and, at a list's first read, the whole column over the clients the
  /// first build counted it over: the doubles ForEachColumn handed it)
  /// and LFB's batch scan over its still-unassigned clients.
  void GatherColumn(ServerIndex s, const ClientIndex* ids, std::size_t count,
                    double* out) const;

  /// Hand every column, restricted to the clients in `ids`, to fn(s, col)
  /// exactly once, with col[i] = cs(ids[i], s) for i in [0, ids.size())
  /// (valid only during fn) — the server-major pass of greedy's list
  /// builds: over every client a first build only counts each column
  /// into buckets (unless round 1 runs on ForEachColumnFloors); over a
  /// subset (greedy's still-unassigned clients) a rebuild counts and
  /// scatters it. A subset costs O(|ids|) per column,
  /// so a pass over survivors shrinks with them. Columns fan out
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

  /// fn(s, floors, counts, m) of ForEachColumnFloors.
  using ColumnFloorsFn = std::function<void(
      ServerIndex, const double*, const std::int32_t*, std::size_t)>;

  /// Column floors per attachment row — the bound greedy's round 1 reads
  /// instead of counting every column. The clients in `ids` are grouped
  /// by the substrate node a lazy backend synthesizes them from; with m
  /// occupied rows, taken in the order their nodes first appear among
  /// all clients, fn(s, floors, counts, m) runs once per server, with
  /// counts[k] the clients of `ids` on row k (they sum to ids.size())
  /// and floors[k] the minimum of cs(c, s) over them, bit for bit: it is
  /// fl(the row's smallest access delay + its substrate leg), cs's
  /// operands in cs's order, and IEEE addition is monotone. Costs one
  /// O(|ids|) grouping pass, then O(m) per server — never a column.
  /// Returns false without calling fn when the view has no rows (a
  /// resident block) or more than max_rows of them are occupied. Servers
  /// fan out across the global pool, so fn runs CONCURRENTLY for distinct
  /// servers and must only write per-server state; floors and counts are
  /// valid only during fn.
  virtual bool ForEachColumnFloors(std::span<const ClientIndex> ids,
                                   std::size_t max_rows,
                                   const ColumnFloorsFn& fn) const = 0;

  /// Certified column maxima: cs(c, s) <= out[s] for every client c and
  /// server s in [0, num_servers()). Exact on a resident block (one
  /// row-major pass); OracleTileView writes fl(max access delay + the
  /// column's exact maximum substrate leg), a monotone IEEE add of exact
  /// aggregates, so the bound holds bitwise with no slack term.
  virtual void FillColumnMax(double* out) const = 0;

  /// out[c] = cs(c, assign[c]) for every client with assign[c] >= 0
  /// (out[c] = -1.0 otherwise — the repo-wide "unused" sentinel). The
  /// sparse exact gather of the assigned diagonal: O(|C|) loads, never a
  /// synthesized row.
  void GatherAssigned(const ServerIndex* assign, double* out) const;

  /// Eccentricity fold: far[s] = max(far[s], cs(c, s)) over every client
  /// with assign[c] == s (unassigned clients, assign[c] < 0, are
  /// skipped), bit-identical to the serial MaxAbsorbScatter pass since max
  /// is exact. A resident block folds client chunks in parallel into
  /// private maxima and merges them in chunk order; OracleTileView folds
  /// serially through the sparse assigned gather, O(|C|) loads.
  void FoldAssignedMax(const ServerIndex* assign, double* far) const;

  /// Per-client nearest server, bit-identical to running
  /// simd::ArgMinFirst over every exact row: server_out[c] = the LOWEST
  /// server index attaining min_s cs(c, s), dist_out[c] = that minimum.
  /// OracleTileView factorizes the scan per attachment node (each node's
  /// column minimum plus an ulp-window candidate set refined exactly per
  /// client), turning the O(|C| x |S|) row scans into
  /// O(n x |S| + |C|) work.
  void FillNearest(ServerIndex* server_out, double* dist_out) const;

  /// The padded rows of the clients in `ids`, in that order, as a fresh
  /// vector: row i (server_stride() doubles) is FillRow(ids[i])'s, pad
  /// lanes 0.0, so it is a MaterializedView's block over those clients.
  /// The one builder of resident blocks from oracle rows: Problem's
  /// oracle constructor and the materialized client cloud cut their
  /// block from an OracleTileView's rows, the exact solver its search
  /// copy, a MaterializedView's Subset its members' sub-block.
  /// Rows fill in 4096-row chunks across the global pool, each chunk
  /// owning its rows; a lazy backend counts every row into rows_filled
  /// (once per chunk).
  /// O(|ids| x |S|) memory by definition — callers own that trade.
  /// Throws diaca::Error when an id lies outside [0, num_clients()).
  std::vector<double> MaterializeBlock(std::span<const ClientIndex> ids) const;

  /// MaterializeBlock over every client, in index order.
  std::vector<double> MaterializeBlock() const;

  /// The view over the clients in `ids`, in that order: its client i is
  /// ids[i], and every accessor returns the bits this view returns for
  /// ids[i]. An OracleTileView's subset streams too: it shares this
  /// view's substrate rows (never copied, never filled) and copies only
  /// the members' row indices and access delays, O(|ids|). A
  /// MaterializedView's is a MaterializedView of MaterializeBlock(ids).
  /// The subset owns what it reads and outlives this view. Throws
  /// diaca::Error when `ids` is empty or an id lies outside
  /// [0, num_clients()).
  virtual std::shared_ptr<const ClientBlockView> Subset(
      std::span<const ClientIndex> ids) const = 0;

  ClientBlockStats stats() const;

  /// Credit `n` 512-entry candidate blocks as pruned. Solvers call this
  /// when a certified bound retires candidate lanes before they are
  /// gathered (greedy's bucket scans): the lanes were never requested, so
  /// only the caller knows how many were avoided. Telemetry only — feeds
  /// ClientBlockStats::tiles_pruned.
  void CountPrunedTiles(std::int64_t n) const;

 protected:
  ClientBlockView(std::int32_t num_clients, std::int32_t num_servers);

  /// Backend hooks of the counted accessors, named after them.
  /// Rows of the clients in `ids` into out (row i at out + i *
  /// server_stride()); a lazy backend counts them into rows_filled.
  virtual void FillRowsImpl(std::span<const ClientIndex> ids,
                            double* out) const = 0;
  virtual void GatherColumnImpl(ServerIndex s, const ClientIndex* ids,
                                std::size_t count, double* out) const = 0;
  /// ForEachColumn's task: ColumnGroupWidth() columns from s0 on over
  /// `ids`, column j at out + j * ids.size(); columns past num_servers()
  /// are never read.
  virtual std::int32_t ColumnGroupWidth() const = 0;
  virtual void GatherColumnGroupImpl(ServerIndex s0,
                                     std::span<const ClientIndex> ids,
                                     double* out) const = 0;
  virtual void GatherAssignedImpl(const ServerIndex* assign,
                                  double* out) const = 0;
  virtual void FoldAssignedMaxImpl(const ServerIndex* assign,
                                   double* far) const = 0;
  virtual void FillNearestImpl(ServerIndex* server_out,
                               double* dist_out) const = 0;

  void CountRowsFilled(std::int64_t n) const;

  std::int32_t num_clients_;
  std::int32_t num_servers_;
  std::size_t server_stride_;

 private:
  mutable std::atomic<std::int64_t> rows_filled_{0};
  mutable std::atomic<std::int64_t> columns_gathered_{0};
  mutable std::atomic<std::int64_t> tiles_pruned_{0};
};

/// The resident backend: owns the padded |C| x server_stride block.
class MaterializedView final : public ClientBlockView {
 public:
  /// Adopts `padded_block`: num_clients rows of PaddedStride(num_servers)
  /// doubles, pad lanes 0.0 (the layout Problem's constructors build).
  MaterializedView(std::int32_t num_clients, std::int32_t num_servers,
                   std::vector<double> padded_block);

  bool materialized() const override { return true; }
  double cs(ClientIndex c, ServerIndex s) const override {
    return RowAt(c)[s];
  }
  const double* Row(ClientIndex c, double* scratch) const override;
  bool ForEachColumnFloors(std::span<const ClientIndex> ids,
                           std::size_t max_rows,
                           const ColumnFloorsFn& fn) const override;
  void FillColumnMax(double* out) const override;
  std::shared_ptr<const ClientBlockView> Subset(
      std::span<const ClientIndex> ids) const override;

 protected:
  void FillRowsImpl(std::span<const ClientIndex> ids,
                    double* out) const override;
  void GatherColumnImpl(ServerIndex s, const ClientIndex* ids,
                        std::size_t count, double* out) const override;
  std::int32_t ColumnGroupWidth() const override;
  void GatherColumnGroupImpl(ServerIndex s0, std::span<const ClientIndex> ids,
                             double* out) const override;
  void GatherAssignedImpl(const ServerIndex* assign,
                          double* out) const override;
  void FoldAssignedMaxImpl(const ServerIndex* assign,
                           double* far) const override;
  void FillNearestImpl(ServerIndex* server_out,
                       double* dist_out) const override;

 private:
  const double* RowAt(ClientIndex c) const {
    return block_.data() + static_cast<std::size_t>(c) * server_stride_;
  }

  std::vector<double> block_;
};

/// The streaming backend: synthesizes client rows from O(n * |S|) server
///-row state pulled once from a distance oracle.
class OracleTileView final : public ClientBlockView {
 public:
  /// Attached clients (the streaming-cloud and churn shape,
  /// data/streaming.h, data/churn.h):
  /// d(c, s) = access_ms[c] + d_substrate(attach[c], server_nodes[s]).
  /// Clients sitting on substrate nodes pass access delays of 0.0
  /// (Problem::FromOracleTiled), which matches the matrix/oracle Problem
  /// constructors bit for bit (exact oracle backends; estimated backends
  /// match an estimated materialized build). Queries |S| oracle rows at
  /// construction, then drops the oracle. Throws diaca::Error naming the
  /// client when an access delay is negative or NaN (oracle legs are
  /// >= 0, so every cell is then >= 0).
  static std::shared_ptr<OracleTileView> FromAttachments(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes,
      std::span<const net::NodeIndex> attach,
      std::span<const double> access_ms);

  /// The |S| x |S| server block captured during construction (dense
  /// row-major, zero diagonal) — Problem::FromView consumes it so the
  /// oracle is queried exactly once.
  std::span<const double> server_block() const { return rows_->ss_block; }

  bool materialized() const override { return false; }
  double cs(ClientIndex c, ServerIndex s) const override;
  const double* Row(ClientIndex c, double* scratch) const override;
  bool ForEachColumnFloors(std::span<const ClientIndex> ids,
                           std::size_t max_rows,
                           const ColumnFloorsFn& fn) const override;
  /// A subset writes its parent's bounds: they cover every member.
  void FillColumnMax(double* out) const override;
  std::shared_ptr<const ClientBlockView> Subset(
      std::span<const ClientIndex> ids) const override;

 protected:
  void FillRowsImpl(std::span<const ClientIndex> ids,
                    double* out) const override;
  void GatherColumnImpl(ServerIndex s, const ClientIndex* ids,
                        std::size_t count, double* out) const override;
  std::int32_t ColumnGroupWidth() const override;
  void GatherColumnGroupImpl(ServerIndex s0, std::span<const ClientIndex> ids,
                             double* out) const override;
  void GatherAssignedImpl(const ServerIndex* assign,
                          double* out) const override;
  void FoldAssignedMaxImpl(const ServerIndex* assign,
                           double* far) const override;
  void FillNearestImpl(ServerIndex* server_out,
                       double* dist_out) const override;

 private:
  /// The substrate-row state, built once from the oracle and shared,
  /// immutable, by a view and every subset cut from it.
  struct RowState {
    std::int32_t num_rows = 0;  ///< distinct attachment nodes
    /// Node-major server distances: one padded row (server_stride
    /// doubles, pads 0.0) per distinct attachment node — row fills
    /// stream it.
    std::vector<double> node_rows;
    /// Server-major mirror: |S| rows of num_rows doubles — column gathers
    /// stay inside one compact row instead of striding node_rows.
    std::vector<double> server_cols;
    /// |S| x |S| dense server block (see server_block()).
    std::vector<double> ss_block;
    /// Exact per-server maximum substrate leg over the attachment nodes.
    std::vector<double> leg_max;
  };

  OracleTileView(std::int32_t num_clients, std::int32_t num_servers,
                 std::shared_ptr<const RowState> rows);

  /// Server s's legs to every attachment row, and row r's padded legs
  /// to every server.
  const double* ServerColumn(ServerIndex s) const {
    return rows_->server_cols.data() +
           static_cast<std::size_t>(s) *
               static_cast<std::size_t>(rows_->num_rows);
  }
  const double* NodeRow(std::size_t r) const {
    return rows_->node_rows.data() + r * server_stride_;
  }

  std::shared_ptr<const RowState> rows_;
  /// base_row_[c]: index of client c's substrate node among the distinct
  /// attachment nodes of the view the rows were built for
  /// (first-appearance order there).
  std::vector<std::int32_t> base_row_;
  /// Per-client access delay (0.0 for a client on a substrate node).
  std::vector<double> access_;
  /// The rows this view's clients occupy, in the order their nodes first
  /// appear among them: every row for the view the rows were built for,
  /// its members' rows for a subset. ForEachColumnFloors' row order.
  std::vector<std::int32_t> row_order_;
  /// The largest access delay; a subset keeps its parent's, which bounds
  /// every member's.
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
  mutable std::vector<std::int32_t> cand_begin_;  ///< num_rows + 1 offsets
  mutable std::vector<ServerIndex> cand_list_;
};

}  // namespace diaca::core
