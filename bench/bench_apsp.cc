// APSP-engine report: blocked SIMD Floyd–Warshall vs the pooled Dijkstra
// engine vs the pre-engine per-source-allocating lazy-heap Dijkstra (a
// frozen copy kept below), on Waxman substrates of increasing size.
//
//   bench_apsp [--nodes=0] [--alpha=A] [--beta=B] [--servers=50]
//              [--reps=2] [--seed=2011] [--tile=64] [--json-out=path]
//
// --nodes=0 (default) runs the committed three-case suite
// (1k dense / 5k dense-ish / 10k sparse); a positive --nodes runs that
// single size with --alpha/--beta. The report starts with an end-to-end
// phase (streaming generate -> APSP -> placement -> greedy assign) so the
// recorded peak RSS reflects the production path — one padded matrix —
// before the comparison phases hold two matrices side by side.
//
// Shape checks: the engine Dijkstra is bit-identical to the legacy code,
// both engines agree to 1e-9 relative, and on a >= 5000-node dense-ish
// case the blocked engine clears the 3x bar against the legacy baseline.
// --json-out writes the machine-readable report committed as
// BENCH_apsp.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/experiment.h"
#include "bench_util/rss.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/greedy.h"
#include "core/problem.h"
#include "data/waxman.h"
#include "net/apsp.h"
#include "net/graph.h"
#include "obs/json.h"
#include "placement/placement.h"

namespace {

using namespace diaca;

// ---------------------------------------------------------------------------
// Legacy baseline: the pre-engine Graph::AllPairsShortestPaths body, kept
// here frozen — one lazy binary-heap Dijkstra per source (stale entries
// skipped on pop), allocating a fresh distance vector and heap every
// time, writing through the checked Set(). This is the loop
// ApspEngine::SolveDijkstra replaced, and the one Graph::ShortestPathsFrom
// ran before both moved onto net/dijkstra.h's kernel. It reads the
// graph's arcs in the same insertion order the historical per-node arc
// lists held them.
// ---------------------------------------------------------------------------

std::vector<double> LegacyShortestPathsFrom(const net::Graph& graph,
                                            net::NodeIndex source) {
  std::vector<double> dist(static_cast<std::size_t>(graph.size()),
                           net::Graph::kInfinity);
  dist[static_cast<std::size_t>(source)] = 0.0;
  using Item = std::pair<double, net::NodeIndex>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    const net::Graph::Arcs arcs = graph.OutArcs(u);
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      const double nd = d + arcs.length[a];
      if (nd < dist[static_cast<std::size_t>(arcs.to[a])]) {
        dist[static_cast<std::size_t>(arcs.to[a])] = nd;
        heap.emplace(nd, arcs.to[a]);
      }
    }
  }
  return dist;
}

net::LatencyMatrix LegacyAllPairs(const net::Graph& graph) {
  const net::NodeIndex n = graph.size();
  net::LatencyMatrix out(n);
  for (net::NodeIndex u = 0; u < n; ++u) {
    const std::vector<double> dist = LegacyShortestPathsFrom(graph, u);
    for (net::NodeIndex v = u + 1; v < n; ++v) {
      out.Set(u, v, dist[static_cast<std::size_t>(v)]);
    }
  }
  return out;
}

struct CaseSpec {
  std::int32_t nodes;
  double alpha;
  double beta;
};

struct CaseResult {
  CaseSpec spec;
  std::size_t edges = 0;
  const char* auto_backend = "";
  double legacy_ms = 0.0;    // 0 when skipped (nodes > 5000)
  double dijkstra_ms = 0.0;
  double blocked_ms = 0.0;
  bool identical = true;     // engine Dijkstra vs legacy, bitwise
  double max_rel_err = 0.0;  // blocked vs engine Dijkstra
};

double TimeBestOfMs(std::int64_t reps,
                    const std::function<net::LatencyMatrix()>& run,
                    net::LatencyMatrix* out) {
  double best_ms = std::numeric_limits<double>::infinity();
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    Timer timer;
    net::LatencyMatrix m = run();
    best_ms = std::min(best_ms, timer.ElapsedMillis());
    *out = std::move(m);
  }
  return best_ms;
}

bool BitwiseEqual(const net::LatencyMatrix& a, const net::LatencyMatrix& b) {
  const net::NodeIndex n = a.size();
  for (net::NodeIndex u = 0; u < n; ++u) {
    const double* ra = a.Row(u);
    const double* rb = b.Row(u);
    for (net::NodeIndex v = 0; v < n; ++v) {
      if (ra[v] != rb[v]) return false;
    }
  }
  return true;
}

double MaxRelErr(const net::LatencyMatrix& a, const net::LatencyMatrix& b) {
  const net::NodeIndex n = a.size();
  double worst = 0.0;
  for (net::NodeIndex u = 0; u < n; ++u) {
    const double* ra = a.Row(u);
    const double* rb = b.Row(u);
    for (net::NodeIndex v = 0; v < n; ++v) {
      const double scale = std::max({std::abs(ra[v]), std::abs(rb[v]), 1.0});
      worst = std::max(worst, std::abs(ra[v] - rb[v]) / scale);
    }
  }
  return worst;
}

struct EndToEnd {
  CaseSpec spec;
  std::int32_t servers = 0;
  const char* backend = "";
  double generate_apsp_ms = 0.0;
  double solve_ms = 0.0;
  double matrix_mb = 0.0;
  double peak_rss_mb = 0.0;
};

void WriteJson(const std::string& path, std::uint64_t seed, std::size_t tile,
               const EndToEnd& e2e, const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  using obs::internal::AppendJsonNumber;
  using obs::internal::AppendJsonString;
  os << "{\n  \"backend\": ";
  AppendJsonString(os, simd::BackendName(simd::ActiveBackend()));
  os << ",\n  \"threads\": 1,\n  \"tile\": " << tile
     << ",\n  \"seed\": " << seed << ",\n";
  os << "  \"end_to_end\": {\"nodes\": " << e2e.spec.nodes << ", \"alpha\": ";
  AppendJsonNumber(os, e2e.spec.alpha);
  os << ", \"beta\": ";
  AppendJsonNumber(os, e2e.spec.beta);
  os << ", \"servers\": " << e2e.servers << ", \"apsp_backend\": ";
  AppendJsonString(os, e2e.backend);
  os << ",\n                  \"generate_apsp_ms\": ";
  AppendJsonNumber(os, e2e.generate_apsp_ms);
  os << ", \"solve_ms\": ";
  AppendJsonNumber(os, e2e.solve_ms);
  os << ", \"matrix_mb\": ";
  AppendJsonNumber(os, e2e.matrix_mb);
  os << ", \"peak_rss_mb\": ";
  AppendJsonNumber(os, e2e.peak_rss_mb);
  os << "},\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    os << "    {\"nodes\": " << c.spec.nodes << ", \"edges\": " << c.edges
       << ", \"alpha\": ";
    AppendJsonNumber(os, c.spec.alpha);
    os << ", \"beta\": ";
    AppendJsonNumber(os, c.spec.beta);
    os << ", \"auto_backend\": ";
    AppendJsonString(os, c.auto_backend);
    // The legacy baseline is skipped on large cases; a skipped run gets
    // "legacy": "skipped" and NO legacy_ms / speedup fields, instead of
    // the misleading zeros the old schema emitted.
    if (c.legacy_ms > 0.0) {
      os << ",\n     \"legacy\": \"run\", \"legacy_ms\": ";
      AppendJsonNumber(os, c.legacy_ms);
    } else {
      os << ",\n     \"legacy\": \"skipped\"";
    }
    os << ", \"dijkstra_ms\": ";
    AppendJsonNumber(os, c.dijkstra_ms);
    os << ", \"blocked_ms\": ";
    AppendJsonNumber(os, c.blocked_ms);
    if (c.legacy_ms > 0.0) {
      os << ",\n     \"blocked_speedup_vs_legacy\": ";
      AppendJsonNumber(os, c.legacy_ms / c.blocked_ms);
      os << ", \"dijkstra_speedup_vs_legacy\": ";
      AppendJsonNumber(os, c.legacy_ms / c.dijkstra_ms);
    }
    os << ",\n     \"identical\": " << (c.identical ? "true" : "false")
       << ", \"max_rel_err\": ";
    AppendJsonNumber(os, c.max_rel_err);
    os << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"nodes", "alpha", "beta", "servers", "reps",
                                 "seed", "tile", "json-out"});
  const auto nodes = static_cast<std::int32_t>(flags.GetInt("nodes", 0));
  const double alpha = flags.GetDouble("alpha", 0.8);
  const double beta = flags.GetDouble("beta", 0.35);
  const auto servers = static_cast<std::int32_t>(flags.GetInt("servers", 50));
  const std::int64_t reps = flags.GetInt("reps", 2);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2011));
  const auto tile = static_cast<std::size_t>(flags.GetInt("tile", 64));
  const std::string json_out = flags.GetString("json-out", "");
  // Single-core throughput report: the engine's pool parallelism is
  // covered by the determinism grid, not timed here.
  SetGlobalThreads(1);

  // Committed suite: a dense 1k warm-up, the dense-ish 5k case the 3x bar
  // is measured on, and a sparse 10k case sitting on the Dijkstra side of
  // the crossover (legacy is skipped there — per-source Dijkstra at 10k
  // is the engine's own backend, and the quadratic output alone is 800
  // MB per copy).
  std::vector<CaseSpec> specs;
  if (nodes > 0) {
    specs.push_back({nodes, alpha, beta});
  } else {
    specs.push_back({1000, 0.8, 0.35});
    specs.push_back({5000, 0.8, 0.35});
    specs.push_back({10000, 0.25, 0.1});
  }

  // --- Phase 1: end-to-end on the largest case, FIRST, so peak RSS is
  // the production path's (generate streams into one matrix; the solve
  // adds only O(n * servers) state), not the comparison phases' two
  // matrices.
  const CaseSpec largest =
      *std::max_element(specs.begin(), specs.end(),
                        [](const CaseSpec& a, const CaseSpec& b) {
                          return a.nodes < b.nodes;
                        });
  EndToEnd e2e;
  e2e.spec = largest;
  e2e.servers = std::min<std::int32_t>(servers, largest.nodes / 2);
  {
    data::WaxmanParams params;
    params.num_nodes = largest.nodes;
    params.alpha = largest.alpha;
    params.beta = largest.beta;
    // Resolve kAuto up front (one O(n) counting pass) so the report can
    // name the backend the production path takes.
    std::size_t edges = 0;
    data::ForEachWaxmanEdge(
        params, seed,
        [&edges](net::NodeIndex, net::NodeIndex, double) { ++edges; });
    net::ApspOptions apsp;
    apsp.tile = tile;
    apsp.backend = net::ApspEngine::ChooseBackend(largest.nodes, edges);
    e2e.backend = net::ApspBackendName(apsp.backend);
    Timer gen;
    const net::LatencyMatrix matrix =
        data::GenerateWaxmanMatrix(params, seed, apsp);
    e2e.generate_apsp_ms = gen.ElapsedMillis();
    Timer solve;
    Rng rng(seed);
    const auto server_nodes =
        placement::RandomPlacement(matrix, e2e.servers, rng);
    const core::Problem problem =
        core::Problem::WithClientsEverywhere(matrix, server_nodes);
    const core::Assignment assignment = core::GreedyAssign(problem);
    e2e.solve_ms = solve.ElapsedMillis();
    e2e.matrix_mb = static_cast<double>(matrix.size()) *
                    static_cast<double>(matrix.stride()) * 8.0 / (1024 * 1024);
    if (assignment.size() == 0) return 1;  // keep the solve live
  }
  e2e.peak_rss_mb = benchutil::PeakRssMb();
  std::cout << "end-to-end " << largest.nodes
            << " nodes: generate+apsp "
            << FormatDouble(e2e.generate_apsp_ms / 1e3, 1) << "s, solve "
            << FormatDouble(e2e.solve_ms / 1e3, 1) << "s, matrix "
            << FormatDouble(e2e.matrix_mb, 0) << " MB, peak RSS "
            << FormatDouble(e2e.peak_rss_mb, 0) << " MB\n";

  // --- Phase 2: engine comparison per case. At most two matrices live at
  // any moment (the reference and the one under test).
  std::vector<CaseResult> results;
  Table table({"nodes", "edges", "auto", "legacy-ms", "dijkstra-ms",
               "blocked-ms", "blocked-x", "rel-err"});
  for (const CaseSpec& spec : specs) {
    CaseResult r;
    r.spec = spec;
    data::WaxmanParams params;
    params.num_nodes = spec.nodes;
    params.alpha = spec.alpha;
    params.beta = spec.beta;
    const net::Graph graph = data::GenerateWaxmanTopology(params, seed);
    r.edges = graph.num_edges();
    r.auto_backend = net::ApspBackendName(
        net::ApspEngine::ChooseBackend(spec.nodes, r.edges));
    const std::int64_t case_reps = spec.nodes > 1000 ? 1 : reps;

    net::ApspOptions dij;
    dij.backend = net::ApspBackend::kDijkstra;
    dij.tile = tile;
    net::LatencyMatrix dijkstra_out(1);
    r.dijkstra_ms = TimeBestOfMs(
        case_reps, [&] { return net::ApspEngine(dij).Solve(graph); },
        &dijkstra_out);

    if (spec.nodes <= 5000) {
      net::LatencyMatrix legacy_out(1);
      r.legacy_ms = TimeBestOfMs(case_reps, [&] { return LegacyAllPairs(graph); },
                                 &legacy_out);
      r.identical = BitwiseEqual(legacy_out, dijkstra_out);
    }

    {
      net::ApspOptions blk;
      blk.backend = net::ApspBackend::kBlocked;
      blk.tile = tile;
      net::LatencyMatrix blocked_out(1);
      r.blocked_ms = TimeBestOfMs(
          case_reps, [&] { return net::ApspEngine(blk).Solve(graph); },
          &blocked_out);
      r.max_rel_err = MaxRelErr(blocked_out, dijkstra_out);
    }

    results.push_back(r);
    table.Row()
        .Cell(std::to_string(spec.nodes))
        .Cell(std::to_string(r.edges))
        .Cell(r.auto_backend)
        .Cell(r.legacy_ms > 0.0 ? FormatDouble(r.legacy_ms, 1) : "-")
        .Cell(FormatDouble(r.dijkstra_ms, 1))
        .Cell(FormatDouble(r.blocked_ms, 1))
        .Cell(r.legacy_ms > 0.0
                  ? FormatDouble(r.legacy_ms / r.blocked_ms, 2)
                  : "-")
        .Cell(FormatDouble(r.max_rel_err, 12));
  }
  std::cout << "engine comparison (" << simd::BackendName(simd::ActiveBackend())
            << " backend, 1 thread, tile " << tile << "):\n";
  table.Print(std::cout);

  // --- Shape checks.
  bool ok = true;
  bool identical = true;
  double worst_rel = 0.0;
  for (const CaseResult& r : results) {
    identical &= r.identical;
    worst_rel = std::max(worst_rel, r.max_rel_err);
  }
  ok &= benchutil::CheckShape(
      identical,
      "engine Dijkstra output is bit-identical to the legacy per-source code");
  ok &= benchutil::CheckShape(
      worst_rel <= 1e-9,
      "blocked and Dijkstra engines agree to 1e-9 relative");

  const auto big = std::find_if(results.begin(), results.end(),
                                [](const CaseResult& r) {
                                  return r.spec.nodes >= 5000 &&
                                         r.legacy_ms > 0.0;
                                });
  if (big != results.end()) {
    ok &= benchutil::CheckShape(
        big->legacy_ms / big->blocked_ms >= 3.0,
        "blocked engine >= 3x over pre-engine Dijkstra on the >= 5000-node "
        "case");
  } else {
    std::cout << "[SHAPE] SKIP blocked 3x bar (needs a >= 5000-node case "
                 "with the legacy baseline)\n";
  }
  if (e2e.matrix_mb >= 100.0) {
    ok &= benchutil::CheckShape(
        e2e.peak_rss_mb <= 1.5 * e2e.matrix_mb + 256.0,
        "end-to-end peak RSS is dominated by the single padded matrix");
  } else {
    std::cout << "[SHAPE] SKIP peak-RSS bar (matrix too small to dominate "
                 "the process baseline)\n";
  }

  if (!json_out.empty()) {
    WriteJson(json_out, seed, tile, e2e, results);
    std::cout << "wrote " << json_out << "\n";
  }
  return ok ? 0 : 1;
}
