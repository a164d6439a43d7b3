#include "core/client_block_view.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace diaca::core {

ClientBlockView::ClientBlockView(std::int32_t num_clients,
                                 std::int32_t num_servers,
                                 const TileOptions& tile)
    : num_clients_(num_clients),
      num_servers_(num_servers),
      server_stride_(
          simd::PaddedStride(static_cast<std::size_t>(num_servers))),
      tile_(tile) {
  DIACA_CHECK_MSG(num_clients > 0, "client block needs at least one client");
  DIACA_CHECK_MSG(num_servers > 0, "client block needs at least one server");
}

void ClientBlockView::FillRow(ClientIndex c, double* out) const {
  if (raw_block_ != nullptr) {
    std::memcpy(out,
                raw_block_ + static_cast<std::size_t>(c) * server_stride_,
                server_stride_ * sizeof(double));
    return;
  }
  FillRowSlow(c, out);
  rows_filled_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::GatherColumn(ServerIndex s, const ClientIndex* ids,
                                   std::size_t count, double* out) const {
  if (raw_block_ != nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = raw_block_[static_cast<std::size_t>(ids[i]) * server_stride_ +
                          static_cast<std::size_t>(s)];
    }
  } else {
    GatherColumnSlow(s, ids, count, out);
  }
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::FillColumn(ServerIndex s, double* out) const {
  if (raw_block_ != nullptr) {
    const double* p = raw_block_ + static_cast<std::size_t>(s);
    for (std::int32_t c = 0; c < num_clients_; ++c) {
      out[c] = p[static_cast<std::size_t>(c) * server_stride_];
    }
    columns_gathered_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  FillColumnSlow(s, out);
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::ForEachColumn(
    std::span<const ClientIndex> ids,
    const std::function<void(ServerIndex, const double*)>& fn) const {
  const std::size_t n = ids.size();
  // Servers per task: one cache line of every listed resident row (a
  // column group starting at a multiple of kPadWidth never crosses the
  // padded stride), or a single column gathered by the lazy backend.
  const std::int32_t width =
      raw_block_ != nullptr ? static_cast<std::int32_t>(simd::kPadWidth) : 1;
  const std::int64_t groups = (num_servers_ + width - 1) / width;
  GlobalPool().ParallelFor(0, groups, 1, [&](std::int64_t gb,
                                             std::int64_t ge) {
    thread_local std::vector<double> cols;
    cols.resize(static_cast<std::size_t>(width) * n);
    for (std::int64_t g = gb; g < ge; ++g) {
      const auto s0 = static_cast<ServerIndex>(g * width);
      const ServerIndex s1 = std::min(num_servers_, s0 + width);
      if (raw_block_ != nullptr) {
        // Transpose one 64-byte line per listed row; pad lanes land in
        // columns nobody reads.
        const double* base = raw_block_ + static_cast<std::size_t>(s0);
        for (std::size_t i = 0; i < n; ++i) {
          const double* row =
              base + static_cast<std::size_t>(ids[i]) * server_stride_;
          for (std::size_t j = 0; j < simd::kPadWidth; ++j) {
            cols[j * n + i] = row[j];
          }
        }
      } else {
        GatherColumnSlow(s0, ids.data(), n, cols.data());
      }
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

void ClientBlockView::FillColumnMax(double* out) const {
  FillColumnMaxSlow(out);
}

void ClientBlockView::FillColumnMaxSlow(double* out) const {
  // No backend structure: one exact row-major pass over the resident rows.
  const auto servers = static_cast<std::size_t>(num_servers_);
  std::fill(out, out + servers, -std::numeric_limits<double>::infinity());
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const double* row = raw_block_ + static_cast<std::size_t>(c) * server_stride_;
    for (std::size_t s = 0; s < servers; ++s) {
      out[s] = std::max(out[s], row[s]);
    }
  }
}

void ClientBlockView::GatherAssigned(const ServerIndex* assign,
                                     double* out) const {
  GatherAssignedSlow(assign, out);
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::GatherAssignedSlow(const ServerIndex* assign,
                                         double* out) const {
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const ServerIndex s = assign[c];
    out[c] = s >= 0 ? cs(c, s) : -1.0;
  }
}

void ClientBlockView::FoldAssignedMax(const ServerIndex* assign,
                                      double* far) const {
  if (raw_block_ != nullptr) {
    simd::MaxAbsorbScatter(far, assign, raw_block_, server_stride_, 0,
                           num_clients_);
    return;
  }
  FoldAssignedMaxSlow(assign, far);
}

void ClientBlockView::FoldAssignedMaxSlow(const ServerIndex* assign,
                                          double* far) const {
  // Unpruned sparse fold: one exact gather of the assigned diagonal, then
  // the serial ascending max pass (exact under any association, but kept
  // serial and ascending so the fold is order-identical to the scatter).
  thread_local std::vector<double> diag;
  diag.resize(static_cast<std::size_t>(num_clients_));
  GatherAssignedSlow(assign, diag.data());
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const ServerIndex s = assign[c];
    if (s < 0) continue;
    far[s] = std::max(far[s], diag[static_cast<std::size_t>(c)]);
  }
}

void ClientBlockView::FillNearest(ServerIndex* server_out,
                                  double* dist_out) const {
  FillNearestSlow(server_out, dist_out);
  columns_gathered_.fetch_add(1, std::memory_order_relaxed);
}

void ClientBlockView::FillNearestSlow(ServerIndex* server_out,
                                      double* dist_out) const {
  const auto scan = [&](const double* row, std::int32_t c) {
    const simd::ArgResult r =
        simd::ArgMinFirst(row, static_cast<std::size_t>(num_servers_));
    server_out[c] = static_cast<ServerIndex>(r.index);
    dist_out[c] = r.value;
  };
  if (raw_block_ != nullptr) {
    // Per-client writes: any chunking is bit-identical to the serial scan.
    GlobalPool().ParallelFor(0, num_clients_, 4096, [&](std::int64_t cb,
                                                         std::int64_t ce) {
      for (auto c = static_cast<std::int32_t>(cb); c < ce; ++c) {
        scan(raw_block_ + static_cast<std::size_t>(c) * server_stride_, c);
      }
    });
    return;
  }
  thread_local std::vector<double> row;
  row.resize(server_stride_);
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    FillRowSlow(c, row.data());
    scan(row.data(), c);
  }
}

std::vector<double> ClientBlockView::MaterializeBlock() const {
  std::vector<double> block(static_cast<std::size_t>(num_clients_) *
                            server_stride_);
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    FillRow(c, block.data() + static_cast<std::size_t>(c) * server_stride_);
  }
  return block;
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

MaterializedView::MaterializedView(std::int32_t num_clients,
                                   std::int32_t num_servers,
                                   std::vector<double> padded_block)
    : ClientBlockView(num_clients, num_servers, TileOptions{}),
      block_(std::move(padded_block)) {
  DIACA_CHECK_MSG(
      block_.size() == static_cast<std::size_t>(num_clients) * server_stride_,
      "padded block is " << block_.size() << " doubles, expected "
                         << static_cast<std::size_t>(num_clients) *
                                server_stride_);
  raw_block_ = block_.data();
}

// The Slow hooks are unreachable while raw_block_ is set, but they stay
// correct implementations rather than traps.
double MaterializedView::CsSlow(ClientIndex c, ServerIndex s) const {
  return block_[static_cast<std::size_t>(c) * server_stride_ +
                static_cast<std::size_t>(s)];
}

void MaterializedView::FillRowSlow(ClientIndex c, double* out) const {
  std::memcpy(out, block_.data() + static_cast<std::size_t>(c) * server_stride_,
              server_stride_ * sizeof(double));
}

void MaterializedView::GatherColumnSlow(ServerIndex s, const ClientIndex* ids,
                                        std::size_t count, double* out) const {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = block_[static_cast<std::size_t>(ids[i]) * server_stride_ +
                    static_cast<std::size_t>(s)];
  }
}

void MaterializedView::FillColumnSlow(ServerIndex s, double* out) const {
  const double* p = block_.data() + static_cast<std::size_t>(s);
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    out[c] = p[static_cast<std::size_t>(c) * server_stride_];
  }
}

// ---------------------------------------------------------------------------
// OracleTileView

OracleTileView::OracleTileView(std::int32_t num_clients,
                               std::int32_t num_servers,
                               const TileOptions& tile)
    : ClientBlockView(num_clients, num_servers, tile) {}

std::shared_ptr<OracleTileView> OracleTileView::FromOracle(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes,
    std::span<const net::NodeIndex> client_nodes, const TileOptions& tile) {
  return Build(oracle, server_nodes, client_nodes, {}, tile);
}

std::shared_ptr<OracleTileView> OracleTileView::FromAttachments(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes,
    std::span<const net::NodeIndex> attach, std::span<const double> access_ms,
    const TileOptions& tile) {
  DIACA_CHECK_MSG(attach.size() == access_ms.size(),
                  "attach list has " << attach.size() << " clients but "
                                     << access_ms.size() << " access delays");
  return Build(oracle, server_nodes, attach, access_ms, tile);
}

std::shared_ptr<OracleTileView> OracleTileView::Build(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes,
    std::span<const net::NodeIndex> attach_nodes,
    std::span<const double> access_ms, const TileOptions& tile) {
  DIACA_OBS_SPAN("core.view.build");
  const net::NodeIndex n = oracle.size();
  DIACA_CHECK_MSG(!server_nodes.empty(), "server list must not be empty");
  DIACA_CHECK_MSG(!attach_nodes.empty(), "client list must not be empty");
  for (net::NodeIndex s : server_nodes) {
    DIACA_CHECK_MSG(s >= 0 && s < n,
                    "server node " << s << " outside substrate of size " << n);
  }
  const auto num_clients = static_cast<std::int32_t>(attach_nodes.size());
  const auto num_servers = static_cast<std::int32_t>(server_nodes.size());
  auto view = std::shared_ptr<OracleTileView>(
      new OracleTileView(num_clients, num_servers, tile));
  const std::size_t stride = view->server_stride_;

  // Distinct attachment nodes in first-appearance order: the synthesized
  // state scales with the substrate, never with |C|.
  view->base_row_.resize(attach_nodes.size());
  std::vector<net::NodeIndex> node_of_row;
  {
    std::unordered_map<net::NodeIndex, std::int32_t> row_of;
    row_of.reserve(static_cast<std::size_t>(n));
    for (std::size_t c = 0; c < attach_nodes.size(); ++c) {
      const net::NodeIndex node = attach_nodes[c];
      DIACA_CHECK_MSG(node >= 0 && node < n, "client node "
                                                 << node
                                                 << " outside substrate of size "
                                                 << n);
      const auto [it, inserted] = row_of.try_emplace(
          node, static_cast<std::int32_t>(node_of_row.size()));
      if (inserted) node_of_row.push_back(node);
      view->base_row_[c] = it->second;
    }
  }
  view->num_rows_ = static_cast<std::int32_t>(node_of_row.size());
  view->access_.assign(access_ms.begin(), access_ms.end());

  const auto rows = static_cast<std::size_t>(view->num_rows_);
  view->node_rows_.assign(rows * stride, 0.0);
  view->server_cols_.assign(static_cast<std::size_t>(num_servers) * rows, 0.0);
  view->leg_max_.assign(static_cast<std::size_t>(num_servers), 0.0);
  for (const double a : view->access_) {
    view->access_max_ = std::max(view->access_max_, a);
  }
  view->ss_block_.assign(
      static_cast<std::size_t>(num_servers) * static_cast<std::size_t>(num_servers),
      0.0);

  // One oracle row per server — the only shortest-path work. Each task
  // owns its server's column/row slots, so the fan-out is write-disjoint.
  GlobalPool().ParallelFor(
      0, num_servers, 1, [&](std::int64_t sb, std::int64_t se) {
        std::vector<double> row(static_cast<std::size_t>(n));
        for (std::int64_t s = sb; s < se; ++s) {
          const auto si = static_cast<std::size_t>(s);
          oracle.FillRow(server_nodes[si], row);
          double* col = view->server_cols_.data() + si * rows;
          double cmax = -std::numeric_limits<double>::infinity();
          for (std::size_t r = 0; r < rows; ++r) {
            const double d = row[static_cast<std::size_t>(node_of_row[r])];
            col[r] = d;
            view->node_rows_[r * stride + si] = d;
            cmax = std::max(cmax, d);
          }
          view->leg_max_[si] = cmax;
          double* ss = view->ss_block_.data() +
                       si * static_cast<std::size_t>(num_servers);
          for (std::int32_t b = 0; b < num_servers; ++b) {
            ss[static_cast<std::size_t>(b)] =
                s == b ? 0.0
                       : row[static_cast<std::size_t>(
                             server_nodes[static_cast<std::size_t>(b)])];
          }
        }
      });

  return view;
}

double OracleTileView::CsSlow(ClientIndex c, ServerIndex s) const {
  const double base =
      server_cols_[static_cast<std::size_t>(s) *
                       static_cast<std::size_t>(num_rows_) +
                   static_cast<std::size_t>(base_row_[static_cast<std::size_t>(c)])];
  // Same operand order as the materialized build: access + substrate leg.
  return access_.empty() ? base
                         : access_[static_cast<std::size_t>(c)] + base;
}

void OracleTileView::FillRowSlow(ClientIndex c, double* out) const {
  const double* base =
      node_rows_.data() +
      static_cast<std::size_t>(base_row_[static_cast<std::size_t>(c)]) *
          server_stride_;
  if (access_.empty()) {
    std::memcpy(out, base, server_stride_ * sizeof(double));
    return;
  }
  // Broadcast-add over the whole padded row would pollute the pad lanes
  // (access + 0.0 != 0.0), so the kernel covers the server lanes and the
  // pads are re-zeroed — they stay inert for max/sum kernels.
  simd::BroadcastAdd(out, base, access_[static_cast<std::size_t>(c)],
                     static_cast<std::size_t>(num_servers_));
  for (std::size_t s = static_cast<std::size_t>(num_servers_);
       s < server_stride_; ++s) {
    out[s] = 0.0;
  }
}

void OracleTileView::GatherColumnSlow(ServerIndex s, const ClientIndex* ids,
                                      std::size_t count, double* out) const {
  simd::GatherPlus(out,
                   server_cols_.data() + static_cast<std::size_t>(s) *
                                             static_cast<std::size_t>(num_rows_),
                   base_row_.data(),
                   access_.empty() ? nullptr : access_.data(), ids, count);
}

void OracleTileView::FillColumnSlow(ServerIndex s, double* out) const {
  simd::GatherPlus(out,
                   server_cols_.data() + static_cast<std::size_t>(s) *
                                             static_cast<std::size_t>(num_rows_),
                   base_row_.data(),
                   access_.empty() ? nullptr : access_.data(), nullptr,
                   static_cast<std::size_t>(num_clients_));
}

void OracleTileView::FillColumnMaxSlow(double* out) const {
  // Exact substrate-leg maxima from the build, lifted by the largest
  // access delay with one monotone IEEE add each.
  for (std::size_t s = 0; s < leg_max_.size(); ++s) {
    out[s] = access_.empty() ? leg_max_[s] : access_max_ + leg_max_[s];
  }
}

void OracleTileView::GatherAssignedSlow(const ServerIndex* assign,
                                        double* out) const {
  const auto rows = static_cast<std::size_t>(num_rows_);
  const double* cols = server_cols_.data();
  const std::int32_t* base = base_row_.data();
  if (access_.empty()) {
    for (std::int32_t c = 0; c < num_clients_; ++c) {
      const ServerIndex s = assign[c];
      out[c] = s >= 0 ? cols[static_cast<std::size_t>(s) * rows +
                             static_cast<std::size_t>(base[c])]
                      : -1.0;
    }
    return;
  }
  for (std::int32_t c = 0; c < num_clients_; ++c) {
    const ServerIndex s = assign[c];
    out[c] = s >= 0 ? access_[static_cast<std::size_t>(c)] +
                          cols[static_cast<std::size_t>(s) * rows +
                               static_cast<std::size_t>(base[c])]
                    : -1.0;
  }
}

void OracleTileView::FoldAssignedMaxSlow(const ServerIndex* assign,
                                         double* far) const {
  // Bounds-first fold over blocks of tile_clients clients. A block is
  // skippable when every assigned client already satisfies
  //   fl(access(c) + leg_max[a_c]) <= far[a_c]:
  // then d(c, a_c) <= that bound <= far[a_c], and since far only grows
  // during the fold the max is a no-op for the whole block — skipping is
  // bit-identical. The test touches only cache-resident arrays (access,
  // assign, leg_max, far); surviving blocks refine through the direct
  // assigned gather.
  const std::int32_t tile_clients =
      std::clamp(tile_.tile_clients, 1, num_clients_);
  const auto rows = static_cast<std::size_t>(num_rows_);
  const double* cols = server_cols_.data();
  const std::int32_t* base = base_row_.data();
  const bool prune = bound_pruning();
  std::int64_t pruned = 0;
  for (std::int32_t begin = 0; begin < num_clients_; begin += tile_clients) {
    const std::int32_t end = std::min(num_clients_, begin + tile_clients);
    if (prune) {
      bool skip = true;
      for (std::int32_t c = begin; c < end; ++c) {
        const ServerIndex s = assign[c];
        if (s < 0) continue;
        const double hi =
            access_.empty()
                ? leg_max_[static_cast<std::size_t>(s)]
                : access_[static_cast<std::size_t>(c)] +
                      leg_max_[static_cast<std::size_t>(s)];
        if (!(hi <= far[s])) {
          skip = false;
          break;
        }
      }
      if (skip) {
        ++pruned;
        continue;
      }
    }
    for (std::int32_t c = begin; c < end; ++c) {
      const ServerIndex s = assign[c];
      if (s < 0) continue;
      const double leg = cols[static_cast<std::size_t>(s) * rows +
                              static_cast<std::size_t>(base[c])];
      const double d =
          access_.empty() ? leg : access_[static_cast<std::size_t>(c)] + leg;
      far[s] = std::max(far[s], d);
    }
  }
  if (pruned > 0) CountPrunedTiles(pruned);
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
  const auto rows = static_cast<std::size_t>(num_rows_);
  const auto servers = static_cast<std::size_t>(num_servers_);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  node_min_.resize(rows);
  node_argmin_.resize(rows);
  cand_begin_.assign(rows + 1, 0);
  cand_list_.clear();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = node_rows_.data() + r * server_stride_;
    const simd::ArgResult m = simd::ArgMinFirst(row, servers);
    node_min_[r] = m.value;
    node_argmin_[r] = static_cast<ServerIndex>(m.index);
    if (!access_.empty()) {
      const double vmax = access_max_ + m.value;
      const double w = 2.0 * (std::nextafter(vmax, kInf) - vmax);
      const double threshold = std::nextafter(m.value + w, kInf);
      for (std::size_t s = 0; s < servers; ++s) {
        if (row[s] <= threshold) {
          cand_list_.push_back(static_cast<ServerIndex>(s));
        }
      }
    }
    cand_begin_[r + 1] = static_cast<std::int32_t>(cand_list_.size());
  }
}

void OracleTileView::FillNearestSlow(ServerIndex* server_out,
                                     double* dist_out) const {
  std::call_once(nearest_once_, [&] { BuildNearestIndex(); });
  const std::int32_t* base = base_row_.data();
  if (access_.empty()) {
    // No per-client rounding: every client on node r shares its exact
    // column minimum and first-index winner.
    for (std::int32_t c = 0; c < num_clients_; ++c) {
      const auto r = static_cast<std::size_t>(base[c]);
      server_out[c] = node_argmin_[r];
      dist_out[c] = node_min_[r];
    }
    return;
  }
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
      const double* row = node_rows_.data() + r * server_stride_;
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
