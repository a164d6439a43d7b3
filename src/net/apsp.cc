#include "net/apsp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "net/dijkstra.h"
#include "net/graph.h"
#include "obs/obs.h"

namespace diaca::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Process default, kAuto until overridden (CLI --apsp / benches).
std::atomic<int> g_default_backend{static_cast<int>(ApspBackend::kAuto)};

// Measured cost of one Dijkstra heap/relaxation step relative to one
// blocked-FW relaxation (default build, 1 thread, bench_apsp on the
// net/dijkstra.h kernel: 1.1 on the dense 1000-node case, 456 against
// 253 ms, and 1.1 on the dense 5000-node case, 83.2 against 38.0 s;
// BENCH_apsp.json's older lazy-heap engine gave 1.3, 1.1 and 2.8 on the
// sparse 10000-node case — see docs/performance.md). 2.0 sits above the
// dense measurements, so near the crossover kAuto leans toward the
// blocked engine. Only the kAuto decision depends on it — both backends
// are correct at any size — so a miscalibration costs time, never
// results.
constexpr double kDijkstraStepCostRatio = 2.0;

}  // namespace

const char* ApspBackendName(ApspBackend backend) {
  switch (backend) {
    case ApspBackend::kAuto:
      return "auto";
    case ApspBackend::kDijkstra:
      return "dijkstra";
    case ApspBackend::kBlocked:
      return "blocked";
  }
  return "unknown";
}

ApspBackend ParseApspBackend(const std::string& name) {
  if (name == "auto") return ApspBackend::kAuto;
  if (name == "dijkstra") return ApspBackend::kDijkstra;
  if (name == "blocked") return ApspBackend::kBlocked;
  throw Error("unknown APSP backend '" + name +
              "' (expected auto|dijkstra|blocked)");
}

ApspBackend DefaultApspBackend() {
  return static_cast<ApspBackend>(
      g_default_backend.load(std::memory_order_relaxed));
}

void SetDefaultApspBackend(ApspBackend backend) {
  g_default_backend.store(static_cast<int>(backend),
                          std::memory_order_relaxed);
}

ApspEngine::ApspEngine(const ApspOptions& options) : options_(options) {
  DIACA_CHECK_MSG(options_.tile > 0 &&
                      options_.tile % simd::kPadWidth == 0,
                  "APSP tile must be a positive multiple of "
                      << simd::kPadWidth << ", got " << options_.tile);
}

ApspBackend ApspEngine::ChooseBackend(NodeIndex n, std::size_t num_edges) {
  if (n < kBlockedFloor) return ApspBackend::kDijkstra;
  // Blocked FW streams n^3 tile updates; n Dijkstras touch ~(m + n) heap
  // steps of log n each. Compare n^2 against the calibrated per-step
  // ratio; pure in (n, m), so kAuto is reproducible at every thread count
  // and SIMD backend.
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(num_edges);
  return nd * nd < kDijkstraStepCostRatio * (md + nd) * std::log2(nd)
             ? ApspBackend::kBlocked
             : ApspBackend::kDijkstra;
}

ApspBackend ApspEngine::ResolveBackend(NodeIndex n,
                                       std::size_t num_edges) const {
  return options_.backend == ApspBackend::kAuto
             ? ChooseBackend(n, num_edges)
             : options_.backend;
}

LatencyMatrix ApspEngine::Solve(const Graph& graph) const {
  DIACA_OBS_SPAN("net.apsp.solve");
  const NodeIndex n = graph.size();
  const ApspBackend backend = ResolveBackend(n, graph.num_edges());
  LatencyMatrix out(n);
  if (backend == ApspBackend::kBlocked) {
    SeedInfinite(out);
    for (NodeIndex u = 0; u < n; ++u) {
      double* row = out.MutableRow(u);
      // Arcs are stored in both directions, so this seeds the full
      // symmetric adjacency; min keeps the shortest parallel edge.
      const Graph::Arcs arcs = graph.OutArcs(u);
      for (std::size_t a = 0; a < arcs.size(); ++a) {
        row[arcs.to[a]] = std::min(row[arcs.to[a]], arcs.length[a]);
      }
    }
    RunBlocked(out);
  } else {
    SolveDijkstra(graph, out);
  }
  return out;
}

void ApspEngine::SolveDijkstra(const Graph& graph, LatencyMatrix& out) const {
  DIACA_OBS_SPAN("net.apsp.dijkstra");
  const NodeIndex n = graph.size();
  // One kernel run per source (net/dijkstra.h). Source u owns exactly the
  // cells {(u,v), (v,u) : v > u}, so chunks never collide, and each run
  // is a pure function of (graph, u), so the matrix is bit-identical at
  // every thread count and chunk grain. Each chunk owns its kernel
  // scratch and distance row; the grain > 1 amortizes their allocation
  // over a run of sources.
  constexpr std::int64_t kGrain = 16;
  GlobalPool().ParallelFor(0, n, kGrain, [&](std::int64_t cb,
                                             std::int64_t ce) {
    DijkstraKernel kernel(graph);
    std::vector<double> dist(static_cast<std::size_t>(n));
    for (std::int64_t ui = cb; ui < ce; ++ui) {
      const auto u = static_cast<NodeIndex>(ui);
      kernel.Run(u, dist);
      double* row_u = out.MutableRow(u);
      for (NodeIndex v = u + 1; v < n; ++v) {
        const double d = dist[static_cast<std::size_t>(v)];
        if (d == Graph::kInfinity) {
          throw Error("graph is disconnected: no path " + std::to_string(u) +
                      " -> " + std::to_string(v));
        }
        row_u[v] = d;
        out.MutableRow(v)[u] = d;
      }
    }
  });
}

void ApspEngine::SeedInfinite(LatencyMatrix& matrix) {
  const NodeIndex n = matrix.size();
  const std::size_t stride = matrix.stride();
  for (NodeIndex u = 0; u < n; ++u) {
    double* row = matrix.MutableRow(u);
    std::fill(row, row + stride, kInf);
    row[u] = 0.0;
  }
}

void ApspEngine::RunBlocked(LatencyMatrix& matrix) const {
  DIACA_OBS_SPAN("net.apsp.blocked");
  const auto n = static_cast<std::size_t>(matrix.size());
  const std::size_t stride = matrix.stride();
  const std::size_t tile = options_.tile;
  // Row, column and k blocks share one grid over the logical n. k and row
  // ranges clamp to n (pad rows do not exist); column ranges extend to the
  // stride but stop at the grid edge nb * tile, so every tile is a whole
  // number of vector lanes wide and the +inf pad columns inside the last
  // block ride through the elimination untouched (min against aik + inf).
  // PaddedStride may add one extra anti-aliasing pad quantum beyond
  // nb * tile; those lanes are never read or written here and are restored
  // with the rest of the padding below.
  const std::size_t nb = (n + tile - 1) / tile;
  const std::size_t padded_cols = std::min(stride, nb * tile);
  double* base = matrix.MutableRow(0);
  ThreadPool& pool = GlobalPool();
  const auto row_begin = [&](std::size_t blk) { return blk * tile; };
  const auto row_end = [&](std::size_t blk) {
    return std::min(n, (blk + 1) * tile);
  };
  const auto col_end = [&](std::size_t blk) {
    return std::min(padded_cols, (blk + 1) * tile);
  };
  double diag_s = 0.0;
  double panel_s = 0.0;
  double remainder_s = 0.0;
  for (std::size_t kb = 0; kb < nb; ++kb) {
    const std::size_t k0 = row_begin(kb);
    const std::size_t kw = row_end(kb) - k0;
    double* diag = base + k0 * stride + k0;
    const std::size_t diag_cols = col_end(kb) - k0;

    // Phase 1 — diagonal: D[kb][kb] relaxed against itself (fully
    // aliased; MinPlusTileUpdate reproduces the scalar k-outermost order).
    Timer t_diag;
    simd::MinPlusTileUpdate(diag, stride, diag, stride, diag, stride, kw,
                            diag_cols, kw);
    diag_s += t_diag.ElapsedSeconds();

    // Phase 2 — panels: row tiles D[kb][J] (read the finalized diagonal +
    // themselves) and column tiles D[I][kb] (themselves + the diagonal).
    // All 2(nb-1) tiles write disjoint memory, so they fan out freely;
    // bit-identity needs no ordering.
    Timer t_panel;
    const auto panels = static_cast<std::int64_t>(2 * (nb - 1));
    pool.ParallelFor(0, panels, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t idx = b; idx < e; ++idx) {
        const auto half = static_cast<std::size_t>(nb - 1);
        const auto pos = static_cast<std::size_t>(idx);
        if (pos < half) {
          const std::size_t jb = pos < kb ? pos : pos + 1;
          const std::size_t j0 = row_begin(jb);
          double* c = base + k0 * stride + j0;
          simd::MinPlusTileUpdate(c, stride, diag, stride, c, stride, kw,
                                  col_end(jb) - j0, kw);
        } else {
          const std::size_t off = pos - half;
          const std::size_t ib = off < kb ? off : off + 1;
          const std::size_t i0 = row_begin(ib);
          double* c = base + i0 * stride + k0;
          simd::MinPlusTileUpdate(c, stride, c, stride, diag, stride,
                                  row_end(ib) - i0, diag_cols, kw);
        }
      }
    });
    panel_s += t_panel.ElapsedSeconds();

    // Phase 3 — remainder: D[I][J] against the finalized panels. Disjoint
    // writes, read-only inputs: deterministic at any thread count.
    Timer t_rem;
    const auto rem =
        static_cast<std::int64_t>((nb - 1) * (nb - 1));
    pool.ParallelFor(0, rem, 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t idx = b; idx < e; ++idx) {
        const auto side = nb - 1;
        const std::size_t io = static_cast<std::size_t>(idx) / side;
        const std::size_t jo = static_cast<std::size_t>(idx) % side;
        const std::size_t ib = io < kb ? io : io + 1;
        const std::size_t jb = jo < kb ? jo : jo + 1;
        const std::size_t i0 = row_begin(ib);
        const std::size_t j0 = row_begin(jb);
        simd::MinPlusTileUpdate(base + i0 * stride + j0, stride,
                                base + i0 * stride + k0, stride,
                                base + k0 * stride + j0, stride,
                                row_end(ib) - i0, col_end(jb) - j0, kw);
      }
    });
    remainder_s += t_rem.ElapsedSeconds();
  }

  // Tile grid and per-cell update counts are fixed by (n, stride, tile),
  // so the accounting is analytic: nb^2 tiles per k-block, and every
  // padded cell is relaxed once per k (read c, read b, write c).
  const double total_s = diag_s + panel_s + remainder_s;
  const double bytes = 24.0 * static_cast<double>(n) *
                       static_cast<double>(n) *
                       static_cast<double>(padded_cols);
  DIACA_OBS_COUNT("net.apsp.tiles",
                  static_cast<std::int64_t>(nb * nb * nb));
  DIACA_OBS_COUNT("net.apsp.bytes", static_cast<std::int64_t>(bytes));
  DIACA_OBS_GAUGE_SET("net.apsp.diag_ms", diag_s * 1e3);
  DIACA_OBS_GAUGE_SET("net.apsp.panel_ms", panel_s * 1e3);
  DIACA_OBS_GAUGE_SET("net.apsp.remainder_ms", remainder_s * 1e3);
  DIACA_OBS_GAUGE_SET("net.apsp.effective_gbps",
                      total_s > 0.0 ? bytes / total_s / 1e9 : 0.0);

  // Restore the 0.0 pad-lane invariant and reject disconnected inputs
  // with the same message shape as the Dijkstra path.
  const auto nn = static_cast<NodeIndex>(n);
  for (NodeIndex u = 0; u < nn; ++u) {
    double* row = matrix.MutableRow(u);
    std::fill(row + n, row + stride, 0.0);
    for (NodeIndex v = u + 1; v < nn; ++v) {
      if (std::isinf(row[v])) {
        throw Error("graph is disconnected: no path " + std::to_string(u) +
                    " -> " + std::to_string(v));
      }
    }
  }
}

}  // namespace diaca::net
