// APSP report: Graph::AllPairsShortestPaths (one shortest-path kernel run
// per source) vs the pre-kernel per-source-allocating lazy-heap Dijkstra
// (a frozen copy kept below), on Waxman substrates of increasing size.
//
//   bench_apsp [--nodes=0] [--alpha=A] [--beta=B] [--servers=50]
//              [--reps=2] [--seed=2011] [--json-out=path]
//
// --nodes=0 (default) runs the committed three-case suite
// (1k dense / 5k dense-ish / 10k sparse); a positive --nodes runs that
// single size with --alpha/--beta. The report starts with an end-to-end
// phase (generate -> APSP -> placement -> greedy assign) so the recorded
// peak RSS reflects the production path — one padded matrix plus the
// graph — before the comparison phase holds two matrices side by side.
//
// Shape checks: the route's output is bit-identical to the legacy code,
// and a >= 100 MB matrix dominates the end-to-end peak RSS. --json-out
// writes the machine-readable report committed as BENCH_apsp.json.
#include <algorithm>
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
#include "net/graph.h"
#include "obs/json.h"
#include "placement/placement.h"

namespace {

using namespace diaca;

// ---------------------------------------------------------------------------
// Legacy baseline: the historical serial Graph::AllPairsShortestPaths
// body, kept here frozen — one lazy binary-heap Dijkstra per source (stale entries
// skipped on pop), allocating a fresh distance vector and heap every
// time, writing through the checked Set(). This is the loop the pooled
// all-pairs route replaced, and the one Graph::ShortestPathsFrom ran
// before both moved onto net/dijkstra.h's kernel. It reads the
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
  double legacy_ms = 0.0;  // 0 when skipped (nodes > 5000)
  double apsp_ms = 0.0;
  bool identical = true;   // route vs legacy, bitwise
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

struct EndToEnd {
  CaseSpec spec;
  std::int32_t servers = 0;
  double generate_apsp_ms = 0.0;
  double solve_ms = 0.0;
  double matrix_mb = 0.0;
  double peak_rss_mb = 0.0;
};

void WriteJson(const std::string& path, std::uint64_t seed,
               const EndToEnd& e2e, const std::vector<CaseResult>& cases) {
  std::ofstream os(path);
  using obs::internal::AppendJsonNumber;
  using obs::internal::AppendJsonString;
  os << "{\n  \"backend\": ";
  AppendJsonString(os, simd::BackendName(simd::ActiveBackend()));
  os << ",\n  \"threads\": 1,\n  \"seed\": " << seed << ",\n";
  os << "  \"end_to_end\": {\"nodes\": " << e2e.spec.nodes << ", \"alpha\": ";
  AppendJsonNumber(os, e2e.spec.alpha);
  os << ", \"beta\": ";
  AppendJsonNumber(os, e2e.spec.beta);
  os << ", \"servers\": " << e2e.servers
     << ",\n                  \"generate_apsp_ms\": ";
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
    // The legacy baseline is skipped on large cases; a skipped run gets
    // "legacy": "skipped" and NO legacy_ms / speedup fields, instead of
    // the misleading zeros the old schema emitted.
    if (c.legacy_ms > 0.0) {
      os << ",\n     \"legacy\": \"run\", \"legacy_ms\": ";
      AppendJsonNumber(os, c.legacy_ms);
    } else {
      os << ",\n     \"legacy\": \"skipped\"";
    }
    os << ", \"apsp_ms\": ";
    AppendJsonNumber(os, c.apsp_ms);
    if (c.legacy_ms > 0.0) {
      os << ", \"speedup_vs_legacy\": ";
      AppendJsonNumber(os, c.legacy_ms / c.apsp_ms);
    }
    os << ",\n     \"identical\": " << (c.identical ? "true" : "false")
       << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"nodes", "alpha", "beta", "servers", "reps",
                                 "seed", "json-out"});
  const auto nodes = static_cast<std::int32_t>(flags.GetInt("nodes", 0));
  const double alpha = flags.GetDouble("alpha", 0.8);
  const double beta = flags.GetDouble("beta", 0.35);
  const auto servers = static_cast<std::int32_t>(flags.GetInt("servers", 50));
  const std::int64_t reps = flags.GetInt("reps", 2);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2011));
  const std::string json_out = flags.GetString("json-out", "");
  // Single-core throughput report: the route's pool parallelism is
  // covered by the determinism grid, not timed here.
  SetGlobalThreads(1);

  // Committed suite: a dense 1k warm-up, a dense-ish 5k case, and a
  // sparse 10k case (legacy is skipped there: the quadratic output alone
  // is 800 MB per copy).
  std::vector<CaseSpec> specs;
  if (nodes > 0) {
    specs.push_back({nodes, alpha, beta});
  } else {
    specs.push_back({1000, 0.8, 0.35});
    specs.push_back({5000, 0.8, 0.35});
    specs.push_back({10000, 0.25, 0.1});
  }

  // --- Phase 1: end-to-end on the largest case, FIRST, so peak RSS is
  // the production path's (the graph and one matrix; the solve adds only
  // O(n * servers) state), not the comparison phase's two matrices.
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
    Timer gen;
    const net::LatencyMatrix matrix = data::GenerateWaxmanMatrix(params, seed);
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

  // --- Phase 2: route against legacy per case. At most two matrices live
  // at any moment (the reference and the one under test).
  std::vector<CaseResult> results;
  Table table({"nodes", "edges", "legacy-ms", "apsp-ms", "speedup"});
  for (const CaseSpec& spec : specs) {
    CaseResult r;
    r.spec = spec;
    data::WaxmanParams params;
    params.num_nodes = spec.nodes;
    params.alpha = spec.alpha;
    params.beta = spec.beta;
    const net::Graph graph = data::GenerateWaxmanTopology(params, seed);
    r.edges = graph.num_edges();
    const std::int64_t case_reps = spec.nodes > 1000 ? 1 : reps;

    net::LatencyMatrix apsp_out(1);
    r.apsp_ms = TimeBestOfMs(
        case_reps, [&] { return graph.AllPairsShortestPaths(); }, &apsp_out);

    if (spec.nodes <= 5000) {
      net::LatencyMatrix legacy_out(1);
      r.legacy_ms = TimeBestOfMs(case_reps, [&] { return LegacyAllPairs(graph); },
                                 &legacy_out);
      r.identical = BitwiseEqual(legacy_out, apsp_out);
    }

    results.push_back(r);
    table.Row()
        .Cell(std::to_string(spec.nodes))
        .Cell(std::to_string(r.edges))
        .Cell(r.legacy_ms > 0.0 ? FormatDouble(r.legacy_ms, 1) : "-")
        .Cell(FormatDouble(r.apsp_ms, 1))
        .Cell(r.legacy_ms > 0.0 ? FormatDouble(r.legacy_ms / r.apsp_ms, 2)
                                : "-");
  }
  std::cout << "APSP against legacy (1 thread):\n";
  table.Print(std::cout);

  // --- Shape checks.
  bool ok = true;
  bool identical = true;
  for (const CaseResult& r : results) identical &= r.identical;
  ok &= benchutil::CheckShape(
      identical,
      "AllPairsShortestPaths output is bit-identical to the legacy "
      "per-source code");
  if (e2e.matrix_mb >= 100.0) {
    ok &= benchutil::CheckShape(
        e2e.peak_rss_mb <= 1.5 * e2e.matrix_mb + 256.0,
        "end-to-end peak RSS is dominated by the single padded matrix");
  } else {
    std::cout << "[SHAPE] SKIP peak-RSS bar (matrix too small to dominate "
                 "the process baseline)\n";
  }

  if (!json_out.empty()) {
    WriteJson(json_out, seed, e2e, results);
    std::cout << "wrote " << json_out << "\n";
  }
  return ok ? 0 : 1;
}
