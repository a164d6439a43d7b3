// Kernel-layer report: per-kernel nanoseconds per call for the scalar
// reference vs the portable vector backend at the sizes the solvers call
// with, plus the end-to-end single-thread greedy speedup against the
// pre-kernel scalar solver (a faithful copy of the gather-based
// implementation kept below), on one deterministic Meridian-like
// instance.
//
//   bench_kernels [--nodes=1796] [--servers=50] [--reps=7] [--seed=2011]
//                 [--json-out=path]
//
// The legacy and kernel greedy assignments are checked element-wise
// identical (the kernel layer's bit-exactness contract), and at the
// default Meridian scale (>= 1796 nodes) the greedy speedup is
// SHAPE-checked against the 2x bar. --json-out writes the machine-readable
// report committed as BENCH_kernels.json.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "bench_util/rss.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/simd/kernels.h"
#include "common/simd/simd.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/capacity.h"
#include "core/greedy.h"
#include "core/problem.h"
#include "data/synthetic.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "placement/placement.h"

namespace {

using namespace diaca;

// ---------------------------------------------------------------------------
// Legacy baseline: the pre-kernel GreedyAssign, verbatim except for the
// dropped observability spans. Every candidate term gathers through
// problem.client_block().cs(list[pos], s) instead of a contiguous distance array, and the
// reach refresh is a scalar loop — this is exactly what the kernel layer
// replaced, so (legacy ms) / (kernel ms) is the end-to-end win.
// ---------------------------------------------------------------------------

struct LegacyServerBest {
  double len = 0.0;
  std::int64_t pos = -1;
};

core::Assignment LegacyGreedyAssign(const core::Problem& problem,
                                    const core::AssignOptions& options = {}) {
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  core::CheckCapacityFeasible(problem, options);
  ThreadPool& pool = GlobalPool();

  std::vector<std::vector<core::ClientIndex>> lists(
      static_cast<std::size_t>(num_servers));
  pool.ParallelFor(0, num_servers, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t si = b; si < e; ++si) {
      const auto s = static_cast<core::ServerIndex>(si);
      auto& list = lists[static_cast<std::size_t>(s)];
      list.resize(static_cast<std::size_t>(num_clients));
      std::iota(list.begin(), list.end(), 0);
      std::sort(list.begin(), list.end(),
                [&problem, s](core::ClientIndex a, core::ClientIndex b2) {
                  const double da = problem.client_block().cs(a, s);
                  const double db = problem.client_block().cs(b2, s);
                  return da != db ? da < db : a < b2;
                });
    }
  });

  core::Assignment a(static_cast<std::size_t>(num_clients));
  std::vector<double> far(static_cast<std::size_t>(num_servers), -1.0);
  std::vector<std::int32_t> remaining(static_cast<std::size_t>(num_servers));
  for (core::ServerIndex s = 0; s < num_servers; ++s) {
    remaining[static_cast<std::size_t>(s)] =
        options.capacitated() ? options.CapacityOf(s)
                              : std::numeric_limits<std::int32_t>::max();
  }
  std::vector<double> reach(static_cast<std::size_t>(num_servers), 0.0);
  std::vector<LegacyServerBest> bests(static_cast<std::size_t>(num_servers));
  double max_len = 0.0;
  std::int32_t num_assigned = 0;

  while (num_assigned < num_clients) {
    const auto scan_server = [&](std::int64_t si) -> double {
      const auto s = static_cast<core::ServerIndex>(si);
      auto& best = bests[static_cast<std::size_t>(si)];
      best = LegacyServerBest{};
      if (remaining[static_cast<std::size_t>(si)] <= 0) {
        return std::numeric_limits<double>::infinity();
      }
      auto& list = lists[static_cast<std::size_t>(si)];
      std::size_t write = 0;
      for (std::size_t pos = 0; pos < list.size(); ++pos) {
        const core::ClientIndex c = list[pos];
        if (a[c] == core::kUnassigned) list[write++] = c;
      }
      list.resize(write);

      const double server_reach = reach[static_cast<std::size_t>(si)];
      const std::int32_t room = remaining[static_cast<std::size_t>(si)];
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t pos = 0; pos < list.size(); ++pos) {
        const double d = problem.client_block().cs(list[pos], s);
        const double len = std::max(
            {2.0 * d, num_assigned > 0 ? d + server_reach : 0.0, max_len});
        const double delta_l = len - max_len;
        const auto delta_n =
            std::min(static_cast<std::int32_t>(pos) + 1, room);
        const double cost = delta_l / static_cast<double>(delta_n);
        if (cost < best_cost) {
          best_cost = cost;
          best.len = len;
          best.pos = static_cast<std::int64_t>(pos);
        }
      }
      return best_cost;
    };
    const ThreadPool::Extremum chosen =
        pool.ParallelMinReduce(0, num_servers, 1, scan_server);
    const auto best_server = static_cast<core::ServerIndex>(chosen.index);
    const LegacyServerBest& best = bests[static_cast<std::size_t>(best_server)];

    auto& list = lists[static_cast<std::size_t>(best_server)];
    auto& room = remaining[static_cast<std::size_t>(best_server)];
    const auto batch_size = static_cast<std::size_t>(best.pos) + 1;
    const auto take =
        std::min<std::size_t>(batch_size, static_cast<std::size_t>(room));
    for (std::size_t i = batch_size - take; i < batch_size; ++i) {
      a[list[i]] = best_server;
      far[static_cast<std::size_t>(best_server)] =
          std::max(far[static_cast<std::size_t>(best_server)],
                   problem.client_block().cs(list[i], best_server));
      ++num_assigned;
    }
    if (options.capacitated()) room -= static_cast<std::int32_t>(take);
    max_len = std::max(max_len, best.len);

    const double fb = far[static_cast<std::size_t>(best_server)];
    for (core::ServerIndex s = 0; s < num_servers; ++s) {
      reach[static_cast<std::size_t>(s)] =
          std::max(reach[static_cast<std::size_t>(s)],
                   problem.ss(s, best_server) + fb);
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// Per-kernel timing at solver sizes: every row kernel over n = 16, 80 and
// 256 lanes (the server counts the workloads span), the client-block
// view's column gathers (32 survivor ids, one 200k-client column through
// an identity id list). `bytes` matches the byte accounting of the
// kernels' own simd.kernels.bytes_scanned counter.
// ---------------------------------------------------------------------------

struct KernelWorkload {
  const char* name;
  std::size_t n;                       // lanes per call
  std::size_t bytes;                   // per invocation
  std::function<double()> run;         // returns a value to keep live
};

struct KernelRow {
  const char* name = "";
  std::size_t n = 0;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  double speedup = 1.0;
};

// Nanoseconds per call under the scalar and the portable backend. The
// samples alternate between the two backends, so drift on a shared host
// hits both sides alike; each side keeps its best of `reps` samples of
// ~5 ms.
void TimeBothBackends(const KernelWorkload& w, std::int64_t reps,
                      double* sink, KernelRow* row) {
  // Calibrate an inner count so each timed sample is ~5ms even for the
  // cheap kernels.
  simd::SetBackend(simd::Backend::kScalar);
  std::int64_t inner = 1;
  for (;;) {
    Timer probe;
    double acc = 0.0;
    for (std::int64_t i = 0; i < inner; ++i) acc += w.run();
    *sink += acc;
    const double s = probe.ElapsedSeconds();
    if (s >= 5e-3 || inner >= (1 << 22)) break;
    inner *= 4;
  }
  const auto sample_ns = [&](simd::Backend backend) {
    simd::SetBackend(backend);
    Timer timer;
    double acc = 0.0;
    for (std::int64_t i = 0; i < inner; ++i) acc += w.run();
    *sink += acc;
    return timer.ElapsedSeconds() / static_cast<double>(inner) * 1e9;
  };
  row->scalar_ns = std::numeric_limits<double>::infinity();
  row->simd_ns = std::numeric_limits<double>::infinity();
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    row->scalar_ns =
        std::min(row->scalar_ns, sample_ns(simd::Backend::kScalar));
    row->simd_ns =
        std::min(row->simd_ns, sample_ns(simd::Backend::kPortable));
  }
  row->speedup = row->scalar_ns / row->simd_ns;
}

double TimeBestOfMs(std::int64_t reps, core::Assignment* out,
                    const std::function<core::Assignment()>& run) {
  double best_ms = std::numeric_limits<double>::infinity();
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    Timer timer;
    core::Assignment a = run();
    best_ms = std::min(best_ms, timer.ElapsedMillis());
    *out = std::move(a);
  }
  return best_ms;
}

void WriteJson(const std::string& path, std::int32_t nodes,
               std::int32_t servers, std::uint64_t seed,
               const std::vector<KernelRow>& rows, double legacy_ms,
               double simd_ms, double speedup, bool identical) {
  std::ofstream os(path);
  using obs::internal::AppendJsonNumber;
  using obs::internal::AppendJsonString;
  os << "{\n  \"backend\": ";
  AppendJsonString(os, simd::BackendName(simd::ActiveBackend()));
  os << ",\n  \"instance\": {\"nodes\": " << nodes
     << ", \"servers\": " << servers << ", \"seed\": " << seed << "},\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "    {\"name\": ";
    AppendJsonString(os, rows[i].name);
    os << ", \"n\": " << rows[i].n << ", \"scalar_ns\": ";
    AppendJsonNumber(os, rows[i].scalar_ns);
    os << ", \"simd_ns\": ";
    AppendJsonNumber(os, rows[i].simd_ns);
    os << ", \"speedup\": ";
    AppendJsonNumber(os, rows[i].speedup);
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"greedy\": {\"legacy_ms\": ";
  AppendJsonNumber(os, legacy_ms);
  os << ", \"simd_ms\": ";
  AppendJsonNumber(os, simd_ms);
  os << ", \"speedup\": ";
  AppendJsonNumber(os, speedup);
  os << ", \"identical\": " << (identical ? "true" : "false")
     << "},\n  \"peak_rss_mb\": ";
  AppendJsonNumber(os, benchutil::PeakRssMb());
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"nodes", "servers", "reps", "seed",
                                 "json-out"});
  const auto nodes = static_cast<std::int32_t>(flags.GetInt("nodes", 1796));
  const auto servers = static_cast<std::int32_t>(flags.GetInt("servers", 50));
  const std::int64_t reps = flags.GetInt("reps", 7);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2011));
  const std::string json_out = flags.GetString("json-out", "");
  // The target of this report is single-core throughput: the kernel layer
  // composes with (and is orthogonal to) the PR 1 thread pool.
  SetGlobalThreads(1);

  // --- Per-kernel ns per call at solver sizes. Row buffers are padded
  // like a client-block row; the gathers read one substrate column of a
  // 2000-node graph through 200k client attachments.
  constexpr std::size_t kRowSizes[] = {16, 80, 256};
  constexpr std::size_t kMaxRow = 256;
  constexpr std::size_t kClients = 200000;
  constexpr std::size_t kSubstrateNodes = 2000;
  constexpr std::size_t kIdGather = 32;
  Rng rng(seed);
  const std::size_t padded = simd::PaddedStride(kMaxRow);
  std::vector<double> row(padded, 0.0);
  std::vector<double> far(padded, 0.0);
  std::vector<double> acc(padded, 0.0);
  std::vector<double> out(padded, 0.0);
  for (std::size_t i = 0; i < kMaxRow; ++i) {
    row[i] = rng.NextUniform(0.0, 250.0);
    far[i] = rng.NextUniform(0.0, 1.0) < 0.3 ? -1.0
                                             : rng.NextUniform(0.0, 250.0);
    acc[i] = rng.NextUniform(0.0, 250.0);
  }
  std::vector<double> col(kSubstrateNodes);
  for (double& x : col) x = rng.NextUniform(0.0, 250.0);
  std::vector<std::int32_t> attach(kClients);
  std::vector<double> access(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    attach[c] = static_cast<std::int32_t>(rng.NextBounded(kSubstrateNodes));
    access[c] = rng.NextUniform(0.0, 20.0);
  }
  std::vector<std::int32_t> ids(kIdGather);
  for (std::int32_t& id : ids) {
    id = static_cast<std::int32_t>(rng.NextBounded(kClients));
  }
  std::sort(ids.begin(), ids.end());
  std::vector<std::int32_t> every(kClients);
  std::iota(every.begin(), every.end(), 0);
  std::vector<double> column(kClients);

  std::vector<KernelWorkload> workloads;
  for (const std::size_t n : kRowSizes) {
    workloads.push_back({"max_plus_reduce", n, 16 * n, [&, n] {
      return simd::MaxPlusReduce(row.data(), far.data(), n, 1.0);
    }});
    workloads.push_back({"max_accumulate_plus", n, 24 * n, [&, n] {
      simd::MaxAccumulatePlus(acc.data(), row.data(), 1.0, n);
      return acc[0];
    }});
    workloads.push_back({"min_plus_accumulate", n, 24 * n, [&, n] {
      simd::MinPlusAccumulate(acc.data(), row.data(), 1.0, n);
      return acc[0];
    }});
    workloads.push_back({"min_plus_reduce", n, 16 * n, [&, n] {
      return simd::MinPlusReduce(row.data(), acc.data(), n);
    }});
    workloads.push_back({"broadcast_add", n, 16 * n, [&, n] {
      simd::BroadcastAdd(out.data(), row.data(), 1.0, n);
      return out[0];
    }});
  }
  workloads.push_back({"gather_plus_ids", kIdGather, 24 * kIdGather, [&] {
    simd::GatherPlus(column.data(), col.data(), attach.data(), access.data(),
                     ids.data(), kIdGather);
    return column[0];
  }});
  workloads.push_back({"gather_plus_column", kClients, 24 * kClients, [&] {
    simd::GatherPlus(column.data(), col.data(), attach.data(), access.data(),
                     every.data(), kClients);
    return column[0];
  }});

  std::vector<KernelRow> rows;
  double sink = 0.0;
  Table kernel_table({"kernel", "n", "scalar-ns", "simd-ns", "speedup"});
  double simd_gbps_sum = 0.0;
  for (const KernelWorkload& w : workloads) {
    KernelRow r;
    r.name = w.name;
    r.n = w.n;
    TimeBothBackends(w, reps, &sink, &r);
    simd_gbps_sum += static_cast<double>(w.bytes) / r.simd_ns;
    rows.push_back(r);
    kernel_table.Row()
        .Cell(r.name)
        .Cell(std::to_string(r.n))
        .Cell(FormatDouble(r.scalar_ns, 1))
        .Cell(FormatDouble(r.simd_ns, 1))
        .Cell(FormatDouble(r.speedup, 2));
  }
  std::cout << "kernel ns per call at solver sizes (scalar vs "
            << simd::BackendName(simd::Backend::kPortable) << " backend):\n";
  kernel_table.Print(std::cout);
  DIACA_OBS_GAUGE_SET(
      "simd.kernels.effective_gbps",
      simd_gbps_sum / static_cast<double>(workloads.size()));

  // --- End-to-end: legacy (pre-kernel) greedy vs the kernel greedy on
  // one instance, single-threaded.
  data::SyntheticParams params;
  params.num_nodes = nodes;
  params.num_clusters = std::max(4, nodes / 30);
  Timer setup;
  const net::LatencyMatrix matrix = data::GenerateSyntheticInternet(params, seed);
  const auto server_nodes = placement::KCenterGreedy(matrix, servers);
  const core::Problem problem =
      core::Problem::WithClientsEverywhere(matrix, server_nodes);
  std::cout << "instance: " << nodes << " nodes, " << servers
            << " servers (setup " << FormatDouble(setup.ElapsedSeconds(), 1)
            << "s), 1 thread\n";

  core::Assignment legacy;
  const double legacy_ms =
      TimeBestOfMs(reps, &legacy, [&] { return LegacyGreedyAssign(problem); });
  core::Assignment vectorized;
  const double simd_ms = TimeBestOfMs(
      reps, &vectorized, [&] { return core::GreedyAssign(problem); });
  const bool identical = legacy == vectorized;
  const double speedup = legacy_ms / simd_ms;

  Table e2e({"solver", "best-ms", "speedup", "identical"});
  e2e.Row().Cell("greedy-legacy").Cell(FormatDouble(legacy_ms, 2)).Cell("1.00")
      .Cell("-");
  e2e.Row()
      .Cell("greedy-kernels")
      .Cell(FormatDouble(simd_ms, 2))
      .Cell(FormatDouble(speedup, 2))
      .Cell(identical ? "yes" : "NO");
  e2e.Print(std::cout);

  bool ok = benchutil::CheckShape(
      identical, "kernel greedy assignment is element-wise identical to the "
                 "legacy scalar solver");
  if (nodes >= 1796) {
    ok &= benchutil::CheckShape(
        speedup >= 2.0,
        "greedy >= 2x single-thread speedup over the pre-kernel solver");
  } else {
    std::cout << "[SHAPE] SKIP greedy 2x speedup bar (needs >= 1796 nodes; "
                 "have "
              << nodes << ")\n";
  }

  std::cout << "peak RSS " << FormatDouble(benchutil::PeakRssMb(), 0)
            << " MB\n";
  if (!json_out.empty()) {
    WriteJson(json_out, nodes, servers, seed, rows, legacy_ms, simd_ms,
              speedup, identical);
    std::cout << "wrote " << json_out << "\n";
  }
  return ok ? 0 : 1;
}
