// Distance-oracle report: sublinear-memory solves at client scales no
// dense matrix can reach, plus the accuracy envelope of the estimated
// backends.
//
//   bench_oracle [--clients=0] [--substrate-nodes=5000] [--servers=16]
//                [--parity-nodes=1000] [--quality-nodes=2000]
//                [--landmarks=16] [--seed=2011] [--rss-budget-mb=0]
//                [--tiled-servers=0] [--json-out=path]
//
// Three phases:
//   1. parity — rows backend vs the dense matrix on a Waxman graph:
//      the Problem blocks (every client-to-server and server-to-server
//      distance) must match BITWISE, and greedy must return the identical
//      assignment. This is the acceptance gate for using rows as a
//      drop-in dense replacement.
//   2. quality — landmark, coordinate, and hub-label backends plan an
//      assignment on their estimates; the plan is then scored against
//      ground truth (exact rows / the dense matrix). Reports the
//      planned-vs-true objective gap, the median relative error of raw
//      distance estimates, and the sandwich violation fraction both raw
//      (pre-repair) and as served by DistanceBounds (post-repair), on a
//      routed Waxman graph and a measured-style meridian-like matrix.
//      Hub labels must match the exact rows up to re-association; the
//      repaired landmark sandwich must hold near its calibrated
//      quantile even where the raw one collapses.
//   3. scale — streaming client clouds (10k / 100k / 1M clients by
//      default) attached to a --substrate-nodes Waxman substrate, solved
//      end to end through the rows oracle. Records wall time, peak RSS,
//      and the dense-equivalent footprint; the >= 100k cases must stay
//      under 10% of dense (and under --rss-budget-mb when given).
//   4. tiled — the same cloud solved twice at the largest client scale
//      (--tiled-servers servers; 0 = auto: 1000 at the 1M committed
//      scale, 64 otherwise): once streaming the client block through
//      core::OracleTileView (never materializing |C|x|S|) and once with
//      the materialized block, plus an unpruned streamed control that
//      certifies bound pruning as a pure accelerator (identical
//      assignment, bitwise objective, tiles_pruned > 0, prune_speedup
//      reported). The assignments must be identical; the report records
//      the runtime ratio, the tiled stage's peak RSS, the block
//      footprint the streamed run avoided, and the pruned solve's work
//      counters (columns gathered, lists counted in round 1, buckets
//      refined). This phase runs
//      LAST — peak RSS is process-monotonic, and the materialized
//      control's multi-GB block would poison every scale-phase RSS
//      reading that came after it; the scale footprints (hundreds of
//      MB) are in turn negligible next to the tiled stage's own
//      multi-GB working set at the committed 1M x 1000 shape.
//
// --clients=N runs a single scale case instead of the committed suite.
// --json-out writes the machine-readable report committed as
// BENCH_oracle.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "bench_util/rss.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/greedy.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/problem.h"
#include "data/streaming.h"
#include "data/synthetic.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "net/graph.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "placement/placement.h"

namespace {

using namespace diaca;

struct ParityResult {
  std::int32_t nodes = 0;
  bool blocks_bitwise = false;
  bool assignment_identical = false;
  bool objective_bitwise = false;
  std::int64_t row_builds = 0;
};

struct QualityResult {
  const char* substrate = "";
  const char* backend = "";
  double exact_d = 0.0;    // greedy objective planned on exact distances
  double planned_d = 0.0;  // objective the estimated plan BELIEVES it has
  double true_d = 0.0;     // ground-truth objective of the estimated plan
  double gap = 0.0;        // (true_d - exact_d) / exact_d
  double median_rel_err = 0.0;
  // lower <= truth <= upper on sampled pairs, reported both for the raw
  // sketch sandwich and for the repaired one DistanceBounds serves.
  // Raw bounds are guaranteed only on routed (metric) graphs;
  // measured-style matrices violate the triangle inequality and break
  // them wholesale. The repaired sandwich must hold near its calibrated
  // quantile on every substrate.
  bool sandwich_ok = true;
  double sandwich_violations = 0.0;      // post-repair (DistanceBounds)
  double sandwich_violations_raw = 0.0;  // pre-repair (RawDistanceBounds)
};

struct ScaleResult {
  std::int64_t clients = 0;
  double build_ms = 0.0;
  double greedy_ms = 0.0;
  double nearest_ms = 0.0;
  double greedy_d = 0.0;
  double nearest_d = 0.0;
  double peak_rss_mb = 0.0;
  double dense_equiv_mb = 0.0;
  double rss_fraction = 0.0;
  std::int64_t row_builds = 0;
};

bool BitwiseProblemEqual(const core::Problem& a, const core::Problem& b) {
  if (a.num_clients() != b.num_clients() ||
      a.num_servers() != b.num_servers()) {
    return false;
  }
  for (core::ClientIndex c = 0; c < a.num_clients(); ++c) {
    for (core::ServerIndex s = 0; s < a.num_servers(); ++s) {
      if (a.client_block().cs(c, s) != b.client_block().cs(c, s)) return false;
    }
  }
  for (core::ServerIndex x = 0; x < a.num_servers(); ++x) {
    for (core::ServerIndex y = 0; y < a.num_servers(); ++y) {
      if (a.ss(x, y) != b.ss(x, y)) return false;
    }
  }
  return true;
}

ParityResult RunParity(std::int32_t nodes, std::uint64_t seed) {
  ParityResult r;
  r.nodes = nodes;
  data::WaxmanParams params;
  params.num_nodes = nodes;
  const net::Graph graph = data::GenerateWaxmanTopology(params, seed);
  const net::LatencyMatrix matrix = graph.AllPairsShortestPaths();

  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  opt.row_cache_capacity = 8;  // force evictions: results must not care
  const net::DistanceOracle rows = net::DistanceOracle::FromGraph(graph, opt);

  const std::vector<net::NodeIndex> servers =
      placement::KCenterGreedy(matrix, std::min<std::int32_t>(20, nodes / 4));
  const core::Problem dense_problem =
      core::Problem::WithClientsEverywhere(matrix, servers);
  const core::Problem rows_problem =
      core::Problem::WithClientsEverywhere(rows, servers);

  r.blocks_bitwise = BitwiseProblemEqual(dense_problem, rows_problem);
  const core::Assignment a_dense = core::GreedyAssign(dense_problem);
  const core::Assignment a_rows = core::GreedyAssign(rows_problem);
  r.assignment_identical = a_dense.server_of == a_rows.server_of;
  r.objective_bitwise =
      core::MaxInteractionPathLength(dense_problem, a_dense) ==
      core::MaxInteractionPathLength(rows_problem, a_rows);
  r.row_builds = rows.stats().row_builds;
  return r;
}

// Median of |est - true| / true over a deterministic sample of pairs.
// `sandwich_violations` / `raw_violations` get the fraction of sampled
// pairs where the repaired / raw sketch bounds fail to bracket the
// truth (nonzero for raw bounds whenever the underlying distances
// violate the triangle inequality; the repaired fraction must stay near
// the calibrated quantile).
double MedianRelErr(const net::DistanceOracle& est,
                    const net::DistanceOracle& truth, std::uint64_t seed,
                    double* sandwich_violations, double* raw_violations) {
  Rng rng(seed);
  const net::NodeIndex n = truth.size();
  std::vector<double> errs;
  std::int64_t checked = 0;
  std::int64_t violated = 0;
  std::int64_t raw_violated = 0;
  constexpr std::int32_t kPairs = 4000;
  for (std::int32_t i = 0; i < kPairs; ++i) {
    const auto u = static_cast<net::NodeIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<net::NodeIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    const double t = truth.Distance(u, v);
    if (t <= 0.0) continue;
    errs.push_back(std::abs(est.Distance(u, v) - t) / t);
    // The landmark and hub-label sandwiches are certificates; coords
    // bounds are the point estimate on both sides and are exempt.
    if (est.backend() == net::OracleBackend::kLandmarks ||
        est.backend() == net::OracleBackend::kHubLabels) {
      const auto [lo, hi] = est.DistanceBounds(u, v);
      const auto [rlo, rhi] = est.RawDistanceBounds(u, v);
      ++checked;
      if (!(lo <= t + 1e-9 && t <= hi + 1e-9)) ++violated;
      if (!(rlo <= t + 1e-9 && t <= rhi + 1e-9)) ++raw_violated;
    }
  }
  *sandwich_violations =
      checked > 0 ? static_cast<double>(violated) / checked : 0.0;
  *raw_violations =
      checked > 0 ? static_cast<double>(raw_violated) / checked : 0.0;
  std::sort(errs.begin(), errs.end());
  return errs.empty() ? 0.0 : errs[errs.size() / 2];
}

// Plan on `est`, score against `truth`; exact_d is the greedy objective
// when planning directly on the truth (the best this pipeline does).
QualityResult RunQualityCase(const char* substrate_name,
                             const net::DistanceOracle& est,
                             const net::DistanceOracle& truth,
                             std::span<const net::NodeIndex> servers,
                             std::uint64_t seed) {
  QualityResult q;
  q.substrate = substrate_name;
  q.backend = net::OracleBackendName(est.backend());

  const core::Problem exact_problem =
      core::Problem::WithClientsEverywhere(truth, servers);
  const core::Assignment exact_a = core::GreedyAssign(exact_problem);
  q.exact_d = core::MaxInteractionPathLength(exact_problem, exact_a);

  const core::Problem est_problem =
      core::Problem::WithClientsEverywhere(est, servers);
  const core::Assignment est_a = core::GreedyAssign(est_problem);
  q.planned_d = core::MaxInteractionPathLength(est_problem, est_a);
  q.true_d = core::MaxInteractionPathLengthExact(truth, est_problem, est_a);
  q.gap = q.exact_d > 0.0 ? (q.true_d - q.exact_d) / q.exact_d : 0.0;

  q.median_rel_err =
      MedianRelErr(est, truth, seed ^ 0x5151, &q.sandwich_violations,
                   &q.sandwich_violations_raw);
  q.sandwich_ok = q.sandwich_violations == 0.0;
  return q;
}

struct TiledResult {
  std::int64_t clients = 0;
  std::int32_t servers = 0;
  double tiled_build_ms = 0.0;
  double tiled_greedy_ms = 0.0;
  double tiled_rss_mb = 0.0;  // peak RSS at the end of the tiled stage
  double mat_build_ms = 0.0;
  double mat_greedy_ms = 0.0;
  double mat_rss_mb = 0.0;
  double runtime_ratio = 0.0;   // tiled greedy / materialized greedy
  double block_equiv_mb = 0.0;  // the |C| x stride block tiling avoided
  // Bound-driven filter-and-refine telemetry: the pruned streamed solve
  // vs an unpruned streamed control. Pruning must be a pure
  // accelerator — identical assignment, bitwise objective — and must
  // actually engage (tiles_pruned > 0). columns_gathered is the column
  // work the pruned greedy solve still did; round1_counts the lists its
  // round 1 counted on attachment-row floors, and bucket_refines the
  // buckets it sorted (core.greedy.* counters, recorded around that
  // solve alone).
  std::int64_t tiles_pruned = 0;
  std::int64_t columns_gathered = 0;
  std::int64_t round1_counts = 0;
  std::int64_t bucket_refines = 0;
  double unpruned_greedy_ms = 0.0;
  double prune_speedup = 0.0;  // unpruned greedy / pruned greedy
  bool prune_identical = false;
  // Per-stripe row-cache traffic during the tiled stage (build + greedy),
  // one entry per shard of the rows oracle's striped LRU.
  std::vector<std::int64_t> shard_hits;
  std::vector<std::int64_t> shard_misses;
  bool assignment_identical = false;
  bool objective_bitwise = false;
};

// Tiled solve first, materialized control second: PeakRssMb() never
// decreases, so the tiled reading must be taken before the |C| x |S|
// block is ever allocated in this process.
TiledResult RunTiled(std::int32_t substrate_nodes, std::int64_t clients,
                     std::int32_t k, std::uint64_t seed) {
  TiledResult r;
  r.clients = clients;
  r.servers = k;
  data::ClientCloudParams params;
  params.substrate.num_nodes = substrate_nodes;
  params.num_clients = clients;
  params.materialize_block = false;

  const net::Graph graph =
      data::GenerateWaxmanTopology(params.substrate, seed);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  opt.row_cache_capacity = static_cast<std::size_t>(k) + 1;
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> servers =
      placement::KCenterFarthest(oracle, k);

  core::Assignment tiled_a(0);
  double tiled_d = 0.0;
  const net::OracleStats before = oracle.stats();  // placement traffic
  {
    Timer build;
    const data::ClientCloud cloud =
        data::BuildClientCloud(params, seed, oracle, servers);
    r.tiled_build_ms = build.ElapsedMillis();
    r.block_equiv_mb =
        static_cast<double>(clients) *
        static_cast<double>(cloud.problem.client_block().server_stride()) *
        sizeof(double) / (1024.0 * 1024.0);
    const std::int64_t gathered_before =
        cloud.problem.client_block().stats().columns_gathered;
    const bool metrics_were_on = obs::MetricsEnabled();
    obs::SetMetricsEnabled(true);
    obs::Counter& round1 =
        obs::Registry::Default().GetCounter("core.greedy.round1_counts");
    obs::Counter& refines =
        obs::Registry::Default().GetCounter("core.greedy.bucket_refines");
    const std::int64_t round1_before = round1.Value();
    const std::int64_t refines_before = refines.Value();
    Timer t;
    tiled_a = core::GreedyAssign(cloud.problem);
    r.tiled_greedy_ms = t.ElapsedMillis();
    r.columns_gathered =
        cloud.problem.client_block().stats().columns_gathered -
        gathered_before;
    r.round1_counts = round1.Value() - round1_before;
    r.bucket_refines = refines.Value() - refines_before;
    obs::SetMetricsEnabled(metrics_were_on);
    tiled_d = core::MaxInteractionPathLength(cloud.problem, tiled_a);
    r.tiles_pruned = cloud.problem.client_block().stats().tiles_pruned;
    // The tiled stage's own per-shard row-cache traffic, with the
    // placement phase's warmup subtracted out.
    const net::OracleStats after = oracle.stats();
    for (std::size_t i = 0; i < after.shard_hits.size(); ++i) {
      r.shard_hits.push_back(after.shard_hits[i] -
                             (i < before.shard_hits.size()
                                  ? before.shard_hits[i]
                                  : 0));
      r.shard_misses.push_back(after.shard_misses[i] -
                               (i < before.shard_misses.size()
                                    ? before.shard_misses[i]
                                    : 0));
    }
  }
  r.tiled_rss_mb = benchutil::PeakRssMb();

  // Unpruned streamed control: bound pruning must change nothing but the
  // wall clock.
  {
    const data::ClientCloud cloud =
        data::BuildClientCloud(params, seed, oracle, servers);
    core::AssignOptions no_prune;
    no_prune.bound_pruning = false;
    Timer t;
    const core::Assignment a = core::GreedyAssign(cloud.problem, no_prune);
    r.unpruned_greedy_ms = t.ElapsedMillis();
    r.prune_identical =
        a.server_of == tiled_a.server_of &&
        core::MaxInteractionPathLength(cloud.problem, a) == tiled_d;
  }
  r.prune_speedup = r.tiled_greedy_ms > 0.0
                        ? r.unpruned_greedy_ms / r.tiled_greedy_ms
                        : 0.0;

  params.materialize_block = true;
  {
    Timer build;
    const data::ClientCloud cloud =
        data::BuildClientCloud(params, seed, oracle, servers);
    r.mat_build_ms = build.ElapsedMillis();
    Timer t;
    const core::Assignment mat_a = core::GreedyAssign(cloud.problem);
    r.mat_greedy_ms = t.ElapsedMillis();
    r.assignment_identical = mat_a.server_of == tiled_a.server_of;
    r.objective_bitwise =
        core::MaxInteractionPathLength(cloud.problem, mat_a) == tiled_d;
  }
  r.mat_rss_mb = benchutil::PeakRssMb();
  r.runtime_ratio =
      r.mat_greedy_ms > 0.0 ? r.tiled_greedy_ms / r.mat_greedy_ms : 0.0;
  return r;
}

ScaleResult RunScale(const data::ClientCloudParams& params, std::int32_t k,
                     std::uint64_t seed) {
  ScaleResult r;
  r.clients = params.num_clients;
  Timer build;
  const net::Graph graph =
      data::GenerateWaxmanTopology(params.substrate, seed);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  opt.row_cache_capacity = static_cast<std::size_t>(k) + 1;
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> servers =
      placement::KCenterFarthest(oracle, k);
  const data::ClientCloud cloud =
      data::BuildClientCloud(params, seed, oracle, servers);
  r.build_ms = build.ElapsedMillis();

  {
    Timer t;
    const core::Assignment a = core::GreedyAssign(cloud.problem);
    r.greedy_ms = t.ElapsedMillis();
    r.greedy_d = core::MaxInteractionPathLength(cloud.problem, a);
  }
  {
    Timer t;
    const core::Assignment a = core::NearestServerAssign(cloud.problem);
    r.nearest_ms = t.ElapsedMillis();
    r.nearest_d = core::MaxInteractionPathLength(cloud.problem, a);
  }
  r.peak_rss_mb = benchutil::PeakRssMb();
  r.dense_equiv_mb = data::DenseEquivalentMb(params.substrate.num_nodes +
                                             params.num_clients);
  r.rss_fraction = r.peak_rss_mb / r.dense_equiv_mb;
  r.row_builds = oracle.stats().row_builds;
  return r;
}

void WriteJson(const std::string& path, std::uint64_t seed,
               const ParityResult& parity,
               const std::vector<QualityResult>& quality,
               const TiledResult& tiled,
               const std::vector<ScaleResult>& scale) {
  std::ofstream os(path);
  using obs::internal::AppendJsonNumber;
  using obs::internal::AppendJsonString;
  os << "{\n  \"seed\": " << seed << ",\n";
  os << "  \"parity\": {\"nodes\": " << parity.nodes
     << ", \"blocks_bitwise\": " << (parity.blocks_bitwise ? "true" : "false")
     << ", \"assignment_identical\": "
     << (parity.assignment_identical ? "true" : "false")
     << ", \"objective_bitwise\": "
     << (parity.objective_bitwise ? "true" : "false")
     << ", \"row_builds\": " << parity.row_builds << "},\n";
  os << "  \"quality\": [\n";
  for (std::size_t i = 0; i < quality.size(); ++i) {
    const QualityResult& q = quality[i];
    os << "    {\"substrate\": ";
    AppendJsonString(os, q.substrate);
    os << ", \"backend\": ";
    AppendJsonString(os, q.backend);
    os << ", \"exact_d\": ";
    AppendJsonNumber(os, q.exact_d);
    os << ", \"planned_d\": ";
    AppendJsonNumber(os, q.planned_d);
    os << ", \"true_d\": ";
    AppendJsonNumber(os, q.true_d);
    os << ",\n     \"quality_gap\": ";
    AppendJsonNumber(os, q.gap);
    os << ", \"median_rel_err\": ";
    AppendJsonNumber(os, q.median_rel_err);
    os << ", \"sandwich_violation_frac_raw\": ";
    AppendJsonNumber(os, q.sandwich_violations_raw);
    os << ", \"sandwich_violation_frac\": ";
    AppendJsonNumber(os, q.sandwich_violations);
    os << "}"
       << (i + 1 < quality.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"tiled\": {\"clients\": " << tiled.clients
     << ", \"servers\": " << tiled.servers << ", \"tiled_build_ms\": ";
  AppendJsonNumber(os, tiled.tiled_build_ms);
  os << ", \"tiled_greedy_ms\": ";
  AppendJsonNumber(os, tiled.tiled_greedy_ms);
  os << ", \"tiled_rss_mb\": ";
  AppendJsonNumber(os, tiled.tiled_rss_mb);
  os << ",\n   \"materialized_build_ms\": ";
  AppendJsonNumber(os, tiled.mat_build_ms);
  os << ", \"materialized_greedy_ms\": ";
  AppendJsonNumber(os, tiled.mat_greedy_ms);
  os << ", \"materialized_rss_mb\": ";
  AppendJsonNumber(os, tiled.mat_rss_mb);
  os << ",\n   \"runtime_ratio\": ";
  AppendJsonNumber(os, tiled.runtime_ratio);
  os << ", \"block_equiv_mb\": ";
  AppendJsonNumber(os, tiled.block_equiv_mb);
  os << ",\n   \"tiles_pruned\": " << tiled.tiles_pruned
     << ", \"columns_gathered\": " << tiled.columns_gathered;
  // Counters compiled out (DIACA_OBS=0) never advance: no measurement.
#if DIACA_OBS
  os << ", \"round1_counts\": " << tiled.round1_counts
     << ", \"bucket_refines\": " << tiled.bucket_refines;
#else
  os << ", \"round1_counts\": null, \"bucket_refines\": null";
#endif
  os << ", \"unpruned_greedy_ms\": ";
  AppendJsonNumber(os, tiled.unpruned_greedy_ms);
  os << ", \"prune_speedup\": ";
  AppendJsonNumber(os, tiled.prune_speedup);
  os << ", \"pruned_vs_unpruned_identical\": "
     << (tiled.prune_identical ? "true" : "false");
  os << ",\n   \"shard_hits\": [";
  for (std::size_t i = 0; i < tiled.shard_hits.size(); ++i) {
    os << (i ? ", " : "") << tiled.shard_hits[i];
  }
  os << "], \"shard_misses\": [";
  for (std::size_t i = 0; i < tiled.shard_misses.size(); ++i) {
    os << (i ? ", " : "") << tiled.shard_misses[i];
  }
  os << "], \"shard_hit_rate\": [";
  for (std::size_t i = 0; i < tiled.shard_hits.size(); ++i) {
    const double total =
        static_cast<double>(tiled.shard_hits[i] + tiled.shard_misses[i]);
    os << (i ? ", " : "");
    AppendJsonNumber(os, total > 0.0 ? tiled.shard_hits[i] / total : 0.0);
  }
  os << "],\n   \"assignment_identical\": "
     << (tiled.assignment_identical ? "true" : "false")
     << ", \"objective_bitwise\": "
     << (tiled.objective_bitwise ? "true" : "false") << "},\n";
  os << "  \"scale\": [\n";
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const ScaleResult& s = scale[i];
    os << "    {\"clients\": " << s.clients << ", \"build_ms\": ";
    AppendJsonNumber(os, s.build_ms);
    os << ", \"greedy_ms\": ";
    AppendJsonNumber(os, s.greedy_ms);
    os << ", \"nearest_ms\": ";
    AppendJsonNumber(os, s.nearest_ms);
    os << ",\n     \"greedy_d\": ";
    AppendJsonNumber(os, s.greedy_d);
    os << ", \"nearest_d\": ";
    AppendJsonNumber(os, s.nearest_d);
    os << ", \"row_builds\": " << s.row_builds;
    os << ",\n     \"peak_rss_mb\": ";
    AppendJsonNumber(os, s.peak_rss_mb);
    os << ", \"dense_equiv_mb\": ";
    AppendJsonNumber(os, s.dense_equiv_mb);
    os << ", \"rss_fraction\": ";
    AppendJsonNumber(os, s.rss_fraction);
    os << "}" << (i + 1 < scale.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"clients", "substrate-nodes", "servers", "parity-nodes",
                     "quality-nodes", "landmarks", "seed", "rss-budget-mb",
                     "tiled-servers", "json-out"});
  const std::int64_t clients_flag = flags.GetInt("clients", 0);
  const auto substrate_nodes =
      static_cast<std::int32_t>(flags.GetInt("substrate-nodes", 5000));
  const auto servers = static_cast<std::int32_t>(flags.GetInt("servers", 16));
  const auto parity_nodes =
      static_cast<std::int32_t>(flags.GetInt("parity-nodes", 1000));
  const auto quality_nodes =
      static_cast<std::int32_t>(flags.GetInt("quality-nodes", 2000));
  const auto num_landmarks =
      static_cast<std::int32_t>(flags.GetInt("landmarks", 16));
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2011));
  const double rss_budget_mb = flags.GetDouble("rss-budget-mb", 0.0);
  const auto tiled_servers_flag =
      static_cast<std::int32_t>(flags.GetInt("tiled-servers", 0));
  const std::string json_out = flags.GetString("json-out", "");
  bool ok = true;

  // --- Phase 1: rows-vs-dense parity.
  const ParityResult parity = RunParity(parity_nodes, seed);
  std::cout << "parity (" << parity.nodes << "-node waxman): blocks "
            << (parity.blocks_bitwise ? "bitwise" : "DIFFER") << ", greedy "
            << (parity.assignment_identical ? "identical" : "DIFFERS")
            << ", objective "
            << (parity.objective_bitwise ? "bitwise" : "DIFFERS") << ", "
            << parity.row_builds << " row builds\n";
  ok &= benchutil::CheckShape(
      parity.blocks_bitwise,
      "rows backend matches dense matrix bitwise on every problem block");
  ok &= benchutil::CheckShape(
      parity.assignment_identical && parity.objective_bitwise,
      "greedy on rows-backed problem reproduces the dense solve exactly");

  // --- Phase 2: estimated-backend quality, on a routed graph and a
  // measured-style matrix.
  std::vector<QualityResult> quality;
  {
    data::WaxmanParams params;
    params.num_nodes = quality_nodes;
    const net::Graph graph = data::GenerateWaxmanTopology(params, seed + 1);
    net::OracleOptions rows_opt;
    rows_opt.backend = net::OracleBackend::kRows;
    rows_opt.row_cache_capacity = static_cast<std::size_t>(quality_nodes);
    const net::DistanceOracle truth =
        net::DistanceOracle::FromGraph(graph, rows_opt);
    const std::vector<net::NodeIndex> sv =
        placement::KCenterFarthest(truth, servers);
    // Hub labels only build from a sparse graph, so they appear on the
    // routed substrate but not the measured matrix below.
    for (const net::OracleBackend backend :
         {net::OracleBackend::kLandmarks, net::OracleBackend::kCoords,
          net::OracleBackend::kHubLabels}) {
      net::OracleOptions opt;
      opt.backend = backend;
      opt.num_landmarks = num_landmarks;
      opt.coord_beacons = num_landmarks;
      opt.seed = seed;
      const net::DistanceOracle est =
          net::DistanceOracle::FromGraph(graph, opt);
      quality.push_back(RunQualityCase("waxman", est, truth, sv, seed));
    }
  }
  {
    data::SyntheticParams params = data::SyntheticParams::MeridianLike();
    params.num_nodes = std::min<std::int32_t>(quality_nodes, 1500);
    const net::LatencyMatrix matrix =
        data::GenerateSyntheticInternet(params, seed + 2);
    const net::DistanceOracle truth =
        net::DistanceOracle::FromMatrix(matrix);
    const std::vector<net::NodeIndex> sv =
        placement::KCenterFarthest(truth, servers);
    for (const net::OracleBackend backend :
         {net::OracleBackend::kLandmarks, net::OracleBackend::kCoords}) {
      net::OracleOptions opt;
      opt.backend = backend;
      opt.num_landmarks = num_landmarks;
      opt.coord_beacons = num_landmarks;
      opt.seed = seed;
      const net::DistanceOracle est =
          net::DistanceOracle::FromMatrix(matrix, opt);
      quality.push_back(RunQualityCase("meridian-like", est, truth, sv, seed));
    }
  }
  Table qtable({"substrate", "backend", "exact-D", "planned-D", "true-D",
                "gap", "med-rel-err", "tiv-raw", "tiv-repaired"});
  bool graph_sandwich = true;
  for (const QualityResult& q : quality) {
    if (std::string(q.substrate) == "waxman") graph_sandwich &= q.sandwich_ok;
    qtable.Row()
        .Cell(q.substrate)
        .Cell(q.backend)
        .Cell(FormatDouble(q.exact_d, 1))
        .Cell(FormatDouble(q.planned_d, 1))
        .Cell(FormatDouble(q.true_d, 1))
        .Cell(FormatDouble(q.gap, 3))
        .Cell(FormatDouble(q.median_rel_err, 3))
        .Cell(FormatDouble(q.sandwich_violations_raw, 3))
        .Cell(FormatDouble(q.sandwich_violations, 3));
  }
  std::cout << "estimated-backend quality (plan on estimate, score on "
               "truth):\n";
  qtable.Print(std::cout);
  ok &= benchutil::CheckShape(
      graph_sandwich,
      "sketch bounds sandwich the true distance on every sampled pair of "
      "the routed graph (raw matrix substrates may violate the triangle "
      "inequality)");
  for (const QualityResult& q : quality) {
    ok &= benchutil::CheckShape(
        std::isfinite(q.true_d) && q.true_d > 0.0,
        std::string("finite quality evaluation for ") + q.substrate + "/" +
            q.backend);
    if (std::string(q.backend) == "hublabels") {
      ok &= benchutil::CheckShape(
          q.median_rel_err < 1e-9,
          "hub-label distances match the exact rows up to re-association");
    }
    // The repaired sandwich must stay near its calibrated quantile even
    // where the raw certificate collapses (meridian-like raw violation
    // is ~95%).
    if (std::string(q.backend) == "landmarks") {
      ok &= benchutil::CheckShape(
          q.sandwich_violations <= 0.05,
          std::string("repaired landmark sandwich holds on ") + q.substrate +
              " (raw violation " + FormatDouble(q.sandwich_violations_raw, 3) +
              ", repaired " + FormatDouble(q.sandwich_violations, 3) + ")");
    }
  }

  std::vector<std::int64_t> scales;
  if (clients_flag > 0) {
    scales.push_back(clients_flag);
  } else {
    scales = {10000, 100000, 1000000};
  }

  // --- Phase 3: tiled vs materialized client block at the largest scale.
  // --- Phase 3: streaming scale on the rows backend.
  std::vector<ScaleResult> scale;
  Table stable({"clients", "build-s", "greedy-s", "nearest-s", "greedy-D",
                "nearest-D", "rss-MB", "dense-MB", "fraction"});
  for (const std::int64_t m : scales) {
    data::ClientCloudParams params;
    params.substrate.num_nodes = substrate_nodes;
    params.num_clients = m;
    const ScaleResult r = RunScale(params, servers, seed);
    scale.push_back(r);
    stable.Row()
        .Cell(std::to_string(r.clients))
        .Cell(FormatDouble(r.build_ms / 1e3, 2))
        .Cell(FormatDouble(r.greedy_ms / 1e3, 2))
        .Cell(FormatDouble(r.nearest_ms / 1e3, 2))
        .Cell(FormatDouble(r.greedy_d, 1))
        .Cell(FormatDouble(r.nearest_d, 1))
        .Cell(FormatDouble(r.peak_rss_mb, 0))
        .Cell(FormatDouble(r.dense_equiv_mb, 0))
        .Cell(FormatDouble(r.rss_fraction, 6));
  }
  std::cout << "streaming scale (" << substrate_nodes << "-node substrate, "
            << servers << " servers, rows backend):\n";
  stable.Print(std::cout);
  for (const ScaleResult& r : scale) {
    if (r.clients >= 100000) {
      ok &= benchutil::CheckShape(
          r.rss_fraction < 0.10,
          "peak RSS under 10% of the dense-equivalent footprint at " +
              std::to_string(r.clients) + " clients");
    }
    ok &= benchutil::CheckShape(
        r.greedy_d <= r.nearest_d + 1e-9,
        "greedy no worse than nearest-server at " +
            std::to_string(r.clients) + " clients");
    if (rss_budget_mb > 0.0) {
      ok &= benchutil::CheckShape(
          r.peak_rss_mb <= rss_budget_mb,
          "peak RSS within the --rss-budget-mb=" +
              std::to_string(static_cast<std::int64_t>(rss_budget_mb)) +
              " hard budget at " + std::to_string(r.clients) + " clients");
    }
  }

  // --- Phase 4: tiled vs materialized client block at the largest scale.
  // Auto server count: 1000 at the committed 1M scale so the avoided
  // block is the acceptance shape (1M x 1000 -> 7.6 GB); 64 at smaller
  // smoke scales to keep the materialized control cheap.
  const std::int32_t tiled_servers =
      tiled_servers_flag > 0 ? tiled_servers_flag
                             : (scales.back() >= 1000000 ? 1000 : 64);
  const TiledResult tiled =
      RunTiled(substrate_nodes, scales.back(), tiled_servers, seed);
  std::cout << "tiled client block (" << tiled.clients << " clients, "
            << tiled.servers << " servers): greedy "
            << (tiled.assignment_identical ? "identical" : "DIFFERS")
            << ", objective "
            << (tiled.objective_bitwise ? "bitwise" : "DIFFERS") << "\n";
  Table ttable({"block", "build-s", "greedy-s", "rss-MB"});
  ttable.Row()
      .Cell("tiled")
      .Cell(FormatDouble(tiled.tiled_build_ms / 1e3, 2))
      .Cell(FormatDouble(tiled.tiled_greedy_ms / 1e3, 2))
      .Cell(FormatDouble(tiled.tiled_rss_mb, 0));
  ttable.Row()
      .Cell("materialized")
      .Cell(FormatDouble(tiled.mat_build_ms / 1e3, 2))
      .Cell(FormatDouble(tiled.mat_greedy_ms / 1e3, 2))
      .Cell(FormatDouble(tiled.mat_rss_mb, 0));
  ttable.Print(std::cout);
  std::cout << "  runtime ratio " << FormatDouble(tiled.runtime_ratio, 2)
            << "x, block equivalent " << FormatDouble(tiled.block_equiv_mb, 0)
            << " MB avoided\n";
  std::cout << "  filter-and-refine: " << tiled.tiles_pruned
            << " tiles pruned, " << tiled.columns_gathered
            << " columns gathered, " << tiled.round1_counts
            << " lists counted in round 1, " << tiled.bucket_refines
            << " buckets refined, unpruned control "
            << FormatDouble(tiled.unpruned_greedy_ms / 1e3, 2) << " s ("
            << FormatDouble(tiled.prune_speedup, 2) << "x speedup), results "
            << (tiled.prune_identical ? "identical" : "DIFFER") << "\n";
  std::cout << "  row-cache shards hit/miss:";
  for (std::size_t i = 0; i < tiled.shard_hits.size(); ++i) {
    std::cout << " " << tiled.shard_hits[i] << "/" << tiled.shard_misses[i];
  }
  std::cout << "\n";
  ok &= benchutil::CheckShape(
      tiled.assignment_identical && tiled.objective_bitwise,
      "greedy on the streamed client block reproduces the materialized "
      "solve exactly");
  ok &= benchutil::CheckShape(
      tiled.prune_identical,
      "bound pruning changes neither the assignment nor the objective "
      "(bitwise) on the streamed solve");
  ok &= benchutil::CheckShape(
      tiled.tiles_pruned > 0,
      "bound pruning engages on the streamed solve (tiles_pruned > 0)");
  // At smoke scales the avoided block (tens of MB) drowns in the RSS the
  // earlier phases already accumulated, so the memory claim is only
  // checkable at the committed multi-GB shape.
  if (tiled.block_equiv_mb >= 1024.0) {
    ok &= benchutil::CheckShape(
        tiled.tiled_rss_mb < tiled.block_equiv_mb,
        "tiled-phase peak RSS below the |C| x |S| block equivalent it "
        "streams instead of materializing");
  }

  if (!json_out.empty()) {
    WriteJson(json_out, seed, parity, quality, tiled, scale);
    std::cout << "wrote " << json_out << "\n";
  }
  return ok ? 0 : 1;
}
