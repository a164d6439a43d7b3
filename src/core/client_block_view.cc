#include "core/client_block_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace diaca::core {

ClientBlockView::ClientBlockView(std::int32_t num_clients,
                                 std::int32_t num_servers)
    : num_clients_(num_clients),
      num_servers_(num_servers),
      server_stride_(
          simd::PaddedStride(static_cast<std::size_t>(num_servers))) {
  DIACA_CHECK_MSG(num_clients > 0, "client block needs at least one client");
  DIACA_CHECK_MSG(num_servers > 0, "client block needs at least one server");
}

void ClientBlockView::FillRow(ClientIndex c, double* out) const {
  FillRowsImpl({&c, 1}, out);
}

void ClientBlockView::GatherColumn(ServerIndex s, const ClientIndex* ids,
                                   std::size_t count, double* out) const {
  GatherColumnImpl(s, ids, count, out);
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::ForEachColumn(
    std::span<const ClientIndex> ids,
    const std::function<void(ServerIndex, const double*)>& fn) const {
  const std::size_t n = ids.size();
  const std::int32_t width = ColumnGroupWidth();
  const std::int64_t groups = (num_servers_ + width - 1) / width;
  GlobalPool().ParallelFor(0, groups, 1, [&](std::int64_t gb,
                                             std::int64_t ge) {
    thread_local std::vector<double> cols;
    cols.resize(static_cast<std::size_t>(width) * n);
    for (std::int64_t g = gb; g < ge; ++g) {
      const auto s0 = static_cast<ServerIndex>(g * width);
      const ServerIndex s1 = std::min(num_servers_, s0 + width);
      GatherColumnGroupImpl(s0, ids, cols.data());
      columns_gathered_.fetch_add(s1 - s0, std::memory_order_relaxed);
      for (ServerIndex s = s0; s < s1; ++s) {
        fn(s, cols.data() + static_cast<std::size_t>(s - s0) * n);
      }
    }
  });
}

void ClientBlockView::CountPrunedTiles(std::int64_t n) const {
  tiles_pruned_.fetch_add(n, std::memory_order_relaxed);
}

void ClientBlockView::CountRowsFilled(std::int64_t n) const {
  rows_filled_.fetch_add(n, std::memory_order_relaxed);
}

void ClientBlockView::GatherAssigned(const ServerIndex* assign,
                                     double* out) const {
  GatherAssignedImpl(assign, out);
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::FoldAssignedMax(const ServerIndex* assign,
                                      double* far) const {
  FoldAssignedMaxImpl(assign, far);
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::FillNearest(ServerIndex* server_out,
                                  double* dist_out) const {
  FillNearestImpl(server_out, dist_out);
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<double> ClientBlockView::MaterializeBlock(
    std::span<const ClientIndex> ids) const {
  const std::size_t stride = server_stride_;
  std::vector<double> block(ids.size() * stride);
  // Each chunk owns its output rows, and a lazy backend counts them once
  // per chunk, since per-row atomics from every lane contend.
  GlobalPool().ParallelFor(
      0, static_cast<std::int64_t>(ids.size()), 4096,
      [&](std::int64_t b, std::int64_t e) {
        const std::span<const ClientIndex> chunk =
            ids.subspan(static_cast<std::size_t>(b),
                        static_cast<std::size_t>(e - b));
        for (const ClientIndex c : chunk) {
          DIACA_CHECK_MSG(c >= 0 && c < num_clients_,
                          "client " << c << " outside a block of "
                                    << num_clients_ << " clients");
        }
        FillRowsImpl(chunk,
                     block.data() + static_cast<std::size_t>(b) * stride);
      });
  return block;
}

std::vector<double> ClientBlockView::MaterializeBlock() const {
  std::vector<ClientIndex> all(static_cast<std::size_t>(num_clients_));
  std::iota(all.begin(), all.end(), 0);
  return MaterializeBlock(all);
}

ClientBlockStats ClientBlockView::stats() const {
  ClientBlockStats s;
  s.rows_filled = rows_filled_.load(std::memory_order_relaxed);
  s.columns_gathered = columns_gathered_.load(std::memory_order_relaxed);
  s.tiles_pruned = tiles_pruned_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// MaterializedView

namespace {

// Below this many clients FoldAssignedMax folds serially — the work
// wouldn't cover the fan-out cost.
constexpr std::int64_t kFoldGrain = 2048;

}  // namespace

MaterializedView::MaterializedView(std::int32_t num_clients,
                                   std::int32_t num_servers,
                                   std::vector<double> padded_block)
    : ClientBlockView(num_clients, num_servers),
      block_(std::move(padded_block)) {
  DIACA_CHECK_MSG(
      block_.size() == static_cast<std::size_t>(num_clients) * server_stride_,
      "padded block is " << block_.size() << " doubles, expected "
                         << static_cast<std::size_t>(num_clients) *
                                server_stride_);
}

const double* MaterializedView::Row(ClientIndex c, double*) const {
  return RowAt(c);
}

void MaterializedView::FillRowsImpl(std::span<const ClientIndex> ids,
                                    double* out) const {
  for (const ClientIndex c : ids) {
    std::memcpy(out, RowAt(c), server_stride_ * sizeof(double));
    out += server_stride_;
  }
}

void MaterializedView::GatherColumnImpl(ServerIndex s, const ClientIndex* ids,
                                        std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) out[i] = cs(ids[i], s);
}

std::int32_t MaterializedView::ColumnGroupWidth() const {
  // One cache line of every listed row: a column group starting at a
  // multiple of kPadWidth never crosses the padded stride.
  return static_cast<std::int32_t>(simd::kPadWidth);
}

void MaterializedView::GatherColumnGroupImpl(ServerIndex s0,
                                             std::span<const ClientIndex> ids,
                                             double* out) const {
  // Transpose one 64-byte line per listed row; pad lanes land in columns
  // nobody reads.
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double* line = RowAt(ids[i]) + s0;
    for (std::size_t j = 0; j < simd::kPadWidth; ++j) out[j * n + i] = line[j];
  }
}

bool MaterializedView::ForEachColumnFloors(std::span<const ClientIndex>,
                                           std::size_t,
                                           const ColumnFloorsFn&) const {
  return false;  // a resident block has no attachment rows
}

void MaterializedView::FillColumnMax(double* out) const {
  // One exact row-major pass over the resident rows.
  const auto servers = static_cast<std::size_t>(num_servers_);
  std::fill(out, out + servers, -std::numeric_limits<double>::infinity());
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const double* row = RowAt(c);
    for (std::size_t s = 0; s < servers; ++s) out[s] = std::max(out[s], row[s]);
  }
}

void MaterializedView::GatherAssignedImpl(const ServerIndex* assign,
                                          double* out) const {
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const ServerIndex s = assign[c];
    out[c] = s >= 0 ? cs(c, s) : -1.0;
  }
}

void MaterializedView::FoldAssignedMaxImpl(const ServerIndex* assign,
                                           double* far) const {
  ThreadPool& pool = GlobalPool();
  if (pool.num_threads() == 1 || num_clients_ <= kFoldGrain) {
    simd::MaxAbsorbScatter(far, assign, block_.data(), server_stride_, 0,
                           num_clients_);
    return;
  }
  // Chunked max-merge: each chunk folds its clients into a private buffer
  // owned by its chunk slot; the buffers are merged after the fork-join,
  // in chunk order, with no lock anywhere. `max` is exact, so the merged
  // maxima are bit-identical to the serial scan regardless.
  const auto servers = static_cast<std::size_t>(num_servers_);
  std::vector<std::vector<double>> locals(static_cast<std::size_t>(
      (num_clients_ + kFoldGrain - 1) / kFoldGrain));
  pool.ParallelFor(0, num_clients_, kFoldGrain, [&](std::int64_t b,
                                                    std::int64_t e) {
    auto& local = locals[static_cast<std::size_t>(b / kFoldGrain)];
    local.assign(servers, -std::numeric_limits<double>::infinity());
    simd::MaxAbsorbScatter(local.data(), assign, block_.data(),
                           server_stride_, b, e);
  });
  for (const std::vector<double>& local : locals) {
    for (std::size_t s = 0; s < servers; ++s) {
      far[s] = std::max(far[s], local[s]);
    }
  }
}

void MaterializedView::FillNearestImpl(ServerIndex* server_out,
                                       double* dist_out) const {
  // Per-client writes: any chunking is bit-identical to the serial scan.
  GlobalPool().ParallelFor(0, num_clients_, 4096, [&](std::int64_t cb,
                                                       std::int64_t ce) {
    for (auto c = static_cast<std::int32_t>(cb); c < ce; ++c) {
      const simd::ArgResult r = simd::ArgMinFirst(
          RowAt(c), static_cast<std::size_t>(num_servers_));
      server_out[c] = static_cast<ServerIndex>(r.index);
      dist_out[c] = r.value;
    }
  });
}

std::shared_ptr<const ClientBlockView> MaterializedView::Subset(
    std::span<const ClientIndex> ids) const {
  return std::make_shared<MaterializedView>(
      static_cast<std::int32_t>(ids.size()), num_servers_,
      MaterializeBlock(ids));
}

// ---------------------------------------------------------------------------
// OracleTileView

namespace {

// Attachment rows per task of FromAttachments' column-to-row transpose:
// the block's destination lines stay cache-resident across the server
// loop.
constexpr std::int64_t kTransposeRows = 64;

}  // namespace

OracleTileView::OracleTileView(std::int32_t num_clients,
                               std::int32_t num_servers,
                               std::shared_ptr<const RowState> rows)
    : ClientBlockView(num_clients, num_servers), rows_(std::move(rows)) {}

std::shared_ptr<OracleTileView> OracleTileView::FromAttachments(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes,
    std::span<const net::NodeIndex> attach,
    std::span<const double> access_ms) {
  DIACA_OBS_SPAN("core.view.build");
  DIACA_CHECK_MSG(attach.size() == access_ms.size(),
                  "attach list has " << attach.size() << " clients but "
                                     << access_ms.size() << " access delays");
  for (std::size_t c = 0; c < access_ms.size(); ++c) {
    DIACA_CHECK_MSG(access_ms[c] >= 0.0,
                    "client " << c << " has access delay " << access_ms[c]
                              << " ms (must be a non-negative number)");
  }
  const net::NodeIndex n = oracle.size();
  DIACA_CHECK_MSG(!server_nodes.empty(), "server list must not be empty");
  DIACA_CHECK_MSG(!attach.empty(), "client list must not be empty");
  for (net::NodeIndex s : server_nodes) {
    DIACA_CHECK_MSG(s >= 0 && s < n,
                    "server node " << s << " outside substrate of size " << n);
  }
  const auto num_clients = static_cast<std::int32_t>(attach.size());
  const auto num_servers = static_cast<std::int32_t>(server_nodes.size());
  const std::size_t stride =
      simd::PaddedStride(static_cast<std::size_t>(num_servers));

  // Distinct attachment nodes in first-appearance order: the synthesized
  // state scales with the substrate, never with |C|.
  std::vector<std::int32_t> base_row(attach.size());
  std::vector<net::NodeIndex> node_of_row;
  {
    std::vector<std::int32_t> row_of(static_cast<std::size_t>(n), -1);
    for (std::size_t c = 0; c < attach.size(); ++c) {
      const net::NodeIndex node = attach[c];
      DIACA_CHECK_MSG(node >= 0 && node < n, "client node "
                                                 << node
                                                 << " outside substrate of size "
                                                 << n);
      std::int32_t& r = row_of[static_cast<std::size_t>(node)];
      if (r < 0) {
        r = static_cast<std::int32_t>(node_of_row.size());
        node_of_row.push_back(node);
      }
      base_row[c] = r;
    }
  }
  auto state = std::make_shared<RowState>();
  state->num_rows = static_cast<std::int32_t>(node_of_row.size());
  const auto rows = static_cast<std::size_t>(state->num_rows);
  state->node_rows.assign(rows * stride, 0.0);
  state->server_cols.assign(static_cast<std::size_t>(num_servers) * rows, 0.0);
  state->leg_max.assign(static_cast<std::size_t>(num_servers), 0.0);
  state->ss_block.assign(
      static_cast<std::size_t>(num_servers) * static_cast<std::size_t>(num_servers),
      0.0);

  // One oracle row per server — the only shortest-path work. On the
  // rows backend this is each server row's first request, so the pool's
  // lanes build the rows in parallel. Each task owns its server's column,
  // leg bound and server-block row, so the fan-out is write-disjoint.
  GlobalPool().ParallelFor(
      0, num_servers, 1, [&](std::int64_t sb, std::int64_t se) {
        std::vector<double> row(static_cast<std::size_t>(n));
        for (std::int64_t s = sb; s < se; ++s) {
          const auto si = static_cast<std::size_t>(s);
          oracle.FillRow(server_nodes[si], row);
          double* col = state->server_cols.data() + si * rows;
          double cmax = -std::numeric_limits<double>::infinity();
          for (std::size_t r = 0; r < rows; ++r) {
            const double d = row[static_cast<std::size_t>(node_of_row[r])];
            col[r] = d;
            cmax = std::max(cmax, d);
          }
          state->leg_max[si] = cmax;
          double* ss = state->ss_block.data() +
                       si * static_cast<std::size_t>(num_servers);
          for (std::int32_t b = 0; b < num_servers; ++b) {
            ss[static_cast<std::size_t>(b)] =
                s == b ? 0.0
                       : row[static_cast<std::size_t>(
                             server_nodes[static_cast<std::size_t>(b)])];
          }
        }
      });
  // The node-major mirror, transposed from the columns in blocks of rows:
  // each lane writes whole rows of its own. Writing it from the
  // per-server tasks above would have every lane storing into every
  // row's cache lines.
  GlobalPool().ParallelFor(
      0, static_cast<std::int64_t>(rows), kTransposeRows,
      [&](std::int64_t rb, std::int64_t re) {
        const auto r0 = static_cast<std::size_t>(rb);
        const auto r1 = static_cast<std::size_t>(re);
        for (std::size_t s = 0; s < static_cast<std::size_t>(num_servers);
             ++s) {
          const double* col = state->server_cols.data() + s * rows;
          for (std::size_t r = r0; r < r1; ++r) {
            state->node_rows[r * stride + s] = col[r];
          }
        }
      });

  auto view = std::shared_ptr<OracleTileView>(
      new OracleTileView(num_clients, num_servers, std::move(state)));
  view->base_row_ = std::move(base_row);
  view->access_.assign(access_ms.begin(), access_ms.end());
  view->row_order_.resize(rows);
  std::iota(view->row_order_.begin(), view->row_order_.end(), 0);
  for (const double a : view->access_) {
    view->access_max_ = std::max(view->access_max_, a);
  }
  return view;
}

std::shared_ptr<const ClientBlockView> OracleTileView::Subset(
    std::span<const ClientIndex> ids) const {
  auto sub = std::shared_ptr<OracleTileView>(new OracleTileView(
      static_cast<std::int32_t>(ids.size()), num_servers_, rows_));
  sub->base_row_.resize(ids.size());
  sub->access_.resize(ids.size());
  std::vector<char> seen(static_cast<std::size_t>(rows_->num_rows), 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ClientIndex c = ids[i];
    DIACA_CHECK_MSG(c >= 0 && c < num_clients_,
                    "client " << c << " outside a block of " << num_clients_
                              << " clients");
    const std::int32_t r = base_row_[static_cast<std::size_t>(c)];
    sub->base_row_[i] = r;
    sub->access_[i] = access_[static_cast<std::size_t>(c)];
    if (seen[static_cast<std::size_t>(r)] == 0) {
      seen[static_cast<std::size_t>(r)] = 1;
      sub->row_order_.push_back(r);
    }
  }
  sub->access_max_ = access_max_;
  return sub;
}

double OracleTileView::cs(ClientIndex c, ServerIndex s) const {
  // Same operand order as the materialized build: access + substrate leg.
  return access_[static_cast<std::size_t>(c)] +
         ServerColumn(s)[base_row_[static_cast<std::size_t>(c)]];
}

const double* OracleTileView::Row(ClientIndex c, double* scratch) const {
  FillRow(c, scratch);
  return scratch;
}

void OracleTileView::FillRowsImpl(std::span<const ClientIndex> ids,
                                  double* out) const {
  for (const ClientIndex c : ids) {
    const double* base = NodeRow(
        static_cast<std::size_t>(base_row_[static_cast<std::size_t>(c)]));
    // Broadcast-add over the whole padded row would pollute the pad lanes
    // (access + 0.0 != 0.0), so the kernel covers the server lanes and
    // the pads are re-zeroed — they stay inert for max/sum kernels.
    simd::BroadcastAdd(out, base, access_[static_cast<std::size_t>(c)],
                       static_cast<std::size_t>(num_servers_));
    std::fill(out + num_servers_, out + server_stride_, 0.0);
    out += server_stride_;
  }
  CountRowsFilled(static_cast<std::int64_t>(ids.size()));
}

void OracleTileView::GatherColumnImpl(ServerIndex s, const ClientIndex* ids,
                                      std::size_t count, double* out) const {
  simd::GatherPlus(out, ServerColumn(s), base_row_.data(), access_.data(),
                   ids, count);
}

std::int32_t OracleTileView::ColumnGroupWidth() const { return 1; }

void OracleTileView::GatherColumnGroupImpl(ServerIndex s0,
                                           std::span<const ClientIndex> ids,
                                           double* out) const {
  GatherColumnImpl(s0, ids.data(), ids.size(), out);
}

void OracleTileView::FillColumnMax(double* out) const {
  // Exact substrate-leg maxima from the build, lifted by the largest
  // access delay with one monotone IEEE add each.
  const std::vector<double>& leg_max = rows_->leg_max;
  for (std::size_t s = 0; s < leg_max.size(); ++s) {
    out[s] = access_max_ + leg_max[s];
  }
}

void OracleTileView::GatherAssignedImpl(const ServerIndex* assign,
                                        double* out) const {
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const ServerIndex s = assign[c];
    out[c] = s >= 0 ? cs(c, s) : -1.0;
  }
}

void OracleTileView::FoldAssignedMaxImpl(const ServerIndex* assign,
                                         double* far) const {
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const ServerIndex s = assign[c];
    if (s >= 0) far[s] = std::max(far[s], cs(c, s));
  }
}

bool OracleTileView::ForEachColumnFloors(std::span<const ClientIndex> ids,
                                         std::size_t max_rows,
                                         const ColumnFloorsFn& fn) const {
  // Group the clients by row: each row's client count and its smallest
  // access delay.
  const auto rows = static_cast<std::size_t>(rows_->num_rows);
  std::vector<std::int32_t> row_count(rows, 0);
  std::vector<double> row_access(rows, std::numeric_limits<double>::infinity());
  for (const ClientIndex c : ids) {
    const auto r =
        static_cast<std::size_t>(base_row_[static_cast<std::size_t>(c)]);
    ++row_count[r];
    row_access[r] =
        std::min(row_access[r], access_[static_cast<std::size_t>(c)]);
  }
  // Compact to the occupied rows, in first-appearance order.
  std::vector<std::int32_t> occupied;
  std::vector<std::int32_t> counts;
  std::vector<double> access_floor;
  for (const std::int32_t row : row_order_) {
    const auto r = static_cast<std::size_t>(row);
    if (row_count[r] == 0) continue;
    if (occupied.size() == max_rows) return false;
    occupied.push_back(row);
    counts.push_back(row_count[r]);
    access_floor.push_back(row_access[r]);
  }
  const std::size_t m = occupied.size();
  GlobalPool().ParallelFor(0, num_servers_, 1, [&](std::int64_t sb,
                                                   std::int64_t se) {
    thread_local std::vector<double> floors;
    floors.resize(m);
    for (std::int64_t s = sb; s < se; ++s) {
      const double* col = ServerColumn(static_cast<ServerIndex>(s));
      for (std::size_t k = 0; k < m; ++k) {
        // cs's operands in cs's order.
        floors[k] =
            access_floor[k] + col[static_cast<std::size_t>(occupied[k])];
      }
      fn(static_cast<ServerIndex>(s), floors.data(), counts.data(), m);
    }
  });
  return true;
}

void OracleTileView::BuildNearestIndex() const {
  // Per attachment node: exact column minimum m_r, its first server, and
  // the ascending candidate list of servers within the ulp-collapse
  // window. Soundness of the window: if fl(a + col_s) == fl(a + m_r) for
  // some access a in [0, amax], both sums round to the same v, so
  // col_s - m_r <= ulp(v) <= ulp(fl(amax + m_r)) (fl and ulp are
  // monotone for non-negative doubles). W doubles that bound and the
  // threshold is widened one more ulp against the rounding of m_r + W —
  // over-inclusion only costs refine time, never correctness.
  const auto rows = static_cast<std::size_t>(rows_->num_rows);
  const auto servers = static_cast<std::size_t>(num_servers_);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  node_min_.resize(rows);
  node_argmin_.resize(rows);
  cand_begin_.assign(rows + 1, 0);
  cand_list_.clear();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = NodeRow(r);
    const simd::ArgResult m = simd::ArgMinFirst(row, servers);
    node_min_[r] = m.value;
    node_argmin_[r] = static_cast<ServerIndex>(m.index);
    const double vmax = access_max_ + m.value;
    const double w = 2.0 * (std::nextafter(vmax, kInf) - vmax);
    const double threshold = std::nextafter(m.value + w, kInf);
    for (std::size_t s = 0; s < servers; ++s) {
      if (row[s] <= threshold) {
        cand_list_.push_back(static_cast<ServerIndex>(s));
      }
    }
    cand_begin_[r + 1] = static_cast<std::int32_t>(cand_list_.size());
  }
}

void OracleTileView::FillNearestImpl(ServerIndex* server_out,
                                     double* dist_out) const {
  std::call_once(nearest_once_, [&] { BuildNearestIndex(); });
  const std::int32_t* base = base_row_.data();
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const auto r = static_cast<std::size_t>(base[c]);
    const double a = access_[static_cast<std::size_t>(c)];
    const double dmin = a + node_min_[r];
    const std::int32_t b = cand_begin_[r];
    const std::int32_t e = cand_begin_[r + 1];
    ServerIndex winner = node_argmin_[r];
    if (e - b > 1) {
      // Lowest-index server whose rounded sum collapses onto the minimum;
      // the argmin itself is always a candidate, so the scan never fails.
      const double* row = NodeRow(r);
      for (std::int32_t i = b; i < e; ++i) {
        const ServerIndex s = cand_list_[static_cast<std::size_t>(i)];
        if (a + row[static_cast<std::size_t>(s)] == dmin) {
          winner = s;
          break;
        }
      }
    }
    server_out[c] = winner;
    dist_out[c] = dmin;
  }
}

}  // namespace diaca::core
