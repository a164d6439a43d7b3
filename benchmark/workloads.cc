#include "workloads.h"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench_util/rss.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/lower_bound.h"
#include "core/metrics.h"
#include "core/problem.h"
#include "core/solver_registry.h"
#include "data/churn.h"
#include "data/streaming.h"
#include "data/waxman.h"
#include "dia/control_plane.h"
#include "net/distance_oracle.h"
#include "net/graph.h"
#include "obs/obs.h"
#include "placement/placement.h"
#include "sim/faults.h"
#include "spans.h"

namespace diaca::benchmark {
namespace {

/// Median of the values (0 for none).
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(obs::NowNs() - start_ns) * 1e-9;
}

struct SolverSpec {
  const char* name;
  const char* span;  ///< benchmark span name (a literal, as spans require)
};
constexpr std::array<SolverSpec, 4> kSolvers = {{{"greedy", "solve.greedy"},
                                                 {"dg", "solve.dg"},
                                                 {"lfb", "solve.lfb"},
                                                 {"nearest", "solve.nearest"}}};
const SolverSpec& kGreedy = kSolvers[0];

/// Reps of the traced/untraced greedy pair behind bench.tracing_overhead.
constexpr int kOverheadPairs = 3;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over the little-endian bytes of each server index, continuing
/// from `hash` so a sequence of assignments folds into one fingerprint.
std::uint64_t Fnv1a(std::uint64_t hash, const core::Assignment& a) {
  for (core::ServerIndex s : a.server_of) {
    const auto v = static_cast<std::uint32_t>(s);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xffu;
      hash *= kFnvPrime;
    }
  }
  return hash;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The lower bound is a super-optimum over exact sums; allow only
/// floating-point association noise above a heuristic's objective.
bool BoundHolds(double bound, double objective) {
  return bound <= objective * (1.0 + 1e-12);
}

/// Output checks, timing samples and spans of one run.
class Harness {
 public:
  explicit Harness(bool trace) { spans.set_enabled(trace); }

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "check failed: " << what << "\n";
    }
  }

  /// Timed SolverRegistry::Solve plus the per-solve output checks. When
  /// `delta` is set it receives the ClientBlockStats counters the solve
  /// added (tile_bytes_peak, a high-water mark, is reported absolute).
  core::SolveResult Solve(const SolverSpec& solver, const core::Problem& problem,
                          const core::SolveOptions& options, double* seconds,
                          core::ClientBlockStats* delta = nullptr) {
    const core::ClientBlockStats before = problem.client_block().stats();
    core::SolveResult result;
    {
      Span span(spans, solver.span);
      const std::int64_t start = obs::NowNs();
      result = core::SolverRegistry::Default().Solve(solver.name, problem,
                                                     options);
      *seconds = SecondsSince(start);
    }
    if (delta != nullptr) {
      const core::ClientBlockStats after = problem.client_block().stats();
      delta->tiles_loaded = after.tiles_loaded - before.tiles_loaded;
      delta->rows_filled = after.rows_filled - before.rows_filled;
      delta->columns_gathered = after.columns_gathered - before.columns_gathered;
      delta->tiles_pruned = after.tiles_pruned - before.tiles_pruned;
      delta->tile_bytes_peak = after.tile_bytes_peak;
    }
    const std::string name = solver.name;
    Expect(result.assignment.size() ==
                   static_cast<std::size_t>(problem.num_clients()) &&
               result.assignment.IsComplete(),
           name + ": assignment is complete");
    double objective = 0.0;
    {
      Span span(spans, "core.metrics.objective");
      const std::int64_t start = obs::NowNs();
      objective = core::MaxInteractionPathLength(problem, result.assignment);
      if (&solver == &kGreedy) samples["objective"].push_back(SecondsSince(start));
    }
    Expect(SameBits(objective, result.stats.max_len),
           name + ": MaxInteractionPathLength equals SolveStats::max_len bitwise");
    return result;
  }

  /// Every output recorded under `key` must repeat the first bit for bit.
  void ExpectRepeat(const std::string& key, std::uint64_t hash) {
    const auto [it, inserted] = first_hash_.emplace(key, hash);
    if (!inserted) Expect(it->second == hash, key + ": repeat is bit-identical");
  }

  SpanRecorder spans;
  /// Timing samples in seconds, by name.
  std::map<std::string, std::vector<double>> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

 private:
  std::map<std::string, std::uint64_t> first_hash_;
};

/// Certified lower bound (§V) over the `limit` clients farthest from
/// their nearest server, or over every client when there are no more than
/// `limit`. Each pair term of the bound over a client subset is a term of
/// the bound over all clients, so the subset bound never exceeds the
/// optimum: it certifies every heuristic's objective at a cost of
/// O(limit^2 |S|) instead of O(|C|^2 |S|). The most remote clients are
/// the ones whose pairs set the bound.
double CertifiedLowerBound(const core::Problem& problem, std::int32_t limit) {
  const std::int32_t n = problem.num_clients();
  if (n <= limit) return core::InteractivityLowerBound(problem);
  const core::ClientBlockView& view = problem.client_block();
  std::vector<core::ServerIndex> nearest(static_cast<std::size_t>(n));
  std::vector<double> dist(static_cast<std::size_t>(n));
  view.FillNearest(nearest.data(), dist.data());
  std::vector<core::ClientIndex> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  std::nth_element(ids.begin(), ids.begin() + limit, ids.end(),
                   [&dist](core::ClientIndex a, core::ClientIndex b) {
                     const double da = dist[static_cast<std::size_t>(a)];
                     const double db = dist[static_cast<std::size_t>(b)];
                     return da != db ? da > db : a < b;
                   });
  ids.resize(static_cast<std::size_t>(limit));
  std::sort(ids.begin(), ids.end());

  const auto servers = static_cast<std::size_t>(problem.num_servers());
  std::vector<double> row(view.server_stride());
  std::vector<double> d_cs(ids.size() * servers);
  std::vector<net::NodeIndex> client_nodes(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    view.FillRow(ids[i], row.data());
    std::copy_n(row.begin(), servers, d_cs.begin() + i * servers);
    client_nodes[i] = problem.client_node(ids[i]);
  }
  std::vector<double> d_ss(servers * servers);
  for (std::size_t a = 0; a < servers; ++a) {
    std::copy_n(problem.ss_row(static_cast<core::ServerIndex>(a)), servers,
                d_ss.begin() + a * servers);
  }
  const std::vector<net::NodeIndex> server_nodes(problem.server_nodes().begin(),
                                                 problem.server_nodes().end());
  return core::InteractivityLowerBound(core::Problem::FromBlocks(
      server_nodes, std::move(client_nodes), d_cs, d_ss));
}

/// Set-up stage times of the last set-up, in seconds.
struct StageTimes {
  double waxman = 0.0;
  double distances = 0.0;
  double placement = 0.0;
  double clients = 0.0;
};

/// One built workload instance. Which members are set depends on the
/// workload; the control plane keeps references into `trace` and `live`,
/// so an Instance never moves once built.
struct Instance {
  std::unique_ptr<net::DistanceOracle> oracle;  // cloud-*, churn
  std::optional<net::LatencyMatrix> matrix;     // paper-sweep
  std::vector<net::NodeIndex> servers;
  std::optional<data::ClientCloud> cloud;   // cloud-*
  data::ChurnTrace trace;                   // churn
  std::optional<data::ChurnProblem> live;   // churn: every trace instance
  std::optional<data::ChurnProblem> boot;   // churn: the epoch-0 members
  sim::FaultPlan faults;                    // churn
  net::OracleStats oracle_stats;            // after set-up

  /// The problem the heuristics plan (cloud-*, churn).
  const core::Problem& problem() const {
    return cloud ? cloud->problem : boot->problem;
  }
};

/// Every workload runs on one fixed substrate per size, the way the
/// paper evaluates on fixed measured matrices; --seed drives what varies
/// on top of it (client populations, placements, churn). A new substrate
/// per seed also changes its edge count, and with it the APSP cost.
constexpr std::uint64_t kSubstrateSeed = 2011;

bool IsCloud(const std::string& workload) {
  return workload == "cloud-tiled" || workload == "cloud-resident";
}

/// The churn trace: the control-plane scenario of a 100k-client,
/// 300-epoch run scaled to the configured clients and epochs (arrivals
/// in proportion, flash crowd, diurnal wave and quiet tail at the same
/// fractions of the run).
data::ChurnParams ChurnParamsFor(const Scale& scale) {
  const std::int32_t e = scale.churn_epochs;
  data::ChurnParams p;
  p.epochs = e;
  p.arrivals_per_epoch = 600.0 * scale.churn_clients / 100000.0;
  p.departure_prob = 0.004;
  p.move_prob = 0.002;
  p.flashes = {{e / 5, e / 4, 8.0}};
  p.wave_period_epochs = std::max(1, e / 3);
  p.wave_amplitude = 0.5;
  p.churn_until_epoch = e * 9 / 10;
  return p;
}

dia::ControlPlaneParams ControlParamsFor(const Instance& inst) {
  dia::ControlPlaneParams p;
  p.migration_cap = 64;
  p.hysteresis_epochs = 2;
  p.hysteresis_eps = 0.02;
  p.faults = &inst.faults;
  return p;
}

std::unique_ptr<Instance> BuildInstance(const RunOptions& o, Harness& h,
                                        StageTimes* stages) {
  const Scale& scale = o.scale;
  const bool cloud = IsCloud(o.workload);
  const bool sweep = o.workload == "paper-sweep";
  auto inst = std::make_unique<Instance>();

  data::WaxmanParams waxman;
  waxman.num_nodes = cloud   ? scale.cloud_nodes
                     : sweep ? scale.sweep_nodes
                             : scale.churn_nodes;
  std::optional<net::Graph> graph;
  {
    Span span(h.spans, "data.waxman.generate");
    const std::int64_t start = obs::NowNs();
    graph.emplace(data::GenerateWaxmanTopology(waxman, kSubstrateSeed));
    stages->waxman = SecondsSince(start);
  }
  if (sweep) {
    Span span(h.spans, "net.apsp.solve");
    const std::int64_t start = obs::NowNs();
    inst->matrix.emplace(graph->AllPairsShortestPaths());
    stages->distances = SecondsSince(start);
    return inst;  // placement and the problem are per trial
  }
  {
    Span span(h.spans, "net.oracle.build");
    const std::int64_t start = obs::NowNs();
    inst->oracle = std::make_unique<net::DistanceOracle>(
        net::DistanceOracle::FromGraph(*graph, net::OracleOptions{}));
    stages->distances = SecondsSince(start);
  }
  graph.reset();
  {
    Span span(h.spans, "placement.kcenter");
    const std::int64_t start = obs::NowNs();
    inst->servers = placement::KCenterFarthest(
        *inst->oracle, cloud ? scale.cloud_servers : scale.churn_servers);
    stages->placement = SecondsSince(start);
  }
  {
    Span span(h.spans, "data.clients.build");
    const std::int64_t start = obs::NowNs();
    if (cloud) {
      data::ClientCloudParams params;
      params.substrate = waxman;
      params.num_clients = scale.cloud_clients;
      params.materialize_block = o.workload == "cloud-resident";
      inst->cloud.emplace(
          data::BuildClientCloud(params, o.seed, *inst->oracle, inst->servers));
    } else {
      inst->trace = data::GenerateChurnTrace(ChurnParamsFor(scale),
                                             scale.churn_clients,
                                             inst->oracle->size(), o.seed);
      inst->live.emplace(
          data::BuildChurnProblem(inst->trace, *inst->oracle, inst->servers));
      data::ChurnTrace boot;
      boot.instances.assign(
          inst->trace.instances.begin(),
          inst->trace.instances.begin() + inst->trace.initial_count);
      boot.initial_count = inst->trace.initial_count;
      inst->boot.emplace(
          data::BuildChurnProblem(boot, *inst->oracle, inst->servers));
      // Server slot 2 crashes mid-run and recovers a few epochs later.
      const double epoch_ms = dia::ControlPlaneParams{}.epoch_ms;
      const double crash = 2.0 * scale.churn_epochs / 5.0 + 0.5;
      inst->faults.Crash(2, crash * epoch_ms,
                         (crash + std::max(2, scale.churn_epochs / 15)) *
                             epoch_ms);
    }
    stages->clients = SecondsSince(start);
  }
  inst->oracle_stats = inst->oracle->stats();
  return inst;
}

/// What a run observes besides timing samples.
struct Observed {
  StageTimes stages;
  net::OracleStats oracle;
  std::map<std::string, core::ClientBlockStats> view;  // per solver
  std::map<std::string, core::SolveStats> stats;       // per solver
  /// Greedy's objective, and that objective over the certified lower
  /// bound (means over the trials on paper-sweep).
  double greedy_objective_ms = 0.0;
  double greedy_norm = 0.0;
  /// Peak RSS once the first instance has been built and measured
  /// (paper-sweep: at the end of the run, its trials rebuild problems).
  double peak_rss_mb = 0.0;
  // Control plane (churn), from the last ControlPlaneReport.
  double evaluations_per_epoch = 0.0;
  std::int64_t proposals = 0;
  std::int64_t migrations = 0;
  std::int64_t forced_moves = 0;
  double degraded_frac = 0.0;
  // Existing obs instrumentation, per request of the traced window.
  std::map<std::string, double> obs_per_request;
  double busy_frac = 0.0;
  double tracing_overhead = 0.0;
};

/// obs counters read per request in traced runs, with the per-layer
/// metric name each one is reported under.
constexpr std::array<std::pair<const char*, const char*>, 9> kObsCounters = {{
    {"core.greedy.reach_cache.refreshes", "core.greedy.reach_cache.refreshes"},
    {"core.incremental.cache_hits", "core.incremental.cache_hits"},
    {"core.incremental.cache_misses", "core.incremental.cache_misses"},
    {"reoptimize.evaluations", "reoptimize.evaluations"},
    {"pool.chunks_stolen", "common.pool.chunks_stolen"},
    {"pool.chunks_inline", "common.pool.chunks_inline"},
    {"pool.caller_waits", "common.pool.caller_waits"},
    {"simd.kernels.calls", "common.simd.calls"},
    {"simd.kernels.bytes_scanned", "common.simd.bytes_scanned"},
}};

std::map<std::string, std::int64_t> SnapshotObsCounters() {
  std::map<std::string, std::int64_t> values;
  for (const auto& [counter, metric] : kObsCounters) {
    values[counter] = obs::Registry::Default().GetCounter(counter).Value();
  }
  return values;
}

/// Seconds of the traced window during which obs spans are recorded (the
/// pool records one span per chunk, tens of MB per second of trace).
constexpr double kObsSpanSeconds = 1.0;

/// Switch the existing obs metrics on for the traced window, and obs
/// tracing for its first kObsSpanSeconds (ending at a request boundary).
class ObsWindow {
 public:
  void Begin() {
    obs::SetMetricsEnabled(true);
    obs::SetTracingEnabled(true);
    before_ = SnapshotObsCounters();
    start_ns_ = obs::NowNs();
  }

  /// Call between requests: ends span recording once its time is up.
  void AfterRequest() {
    if (spans_end_ns_ == 0 && SecondsSince(start_ns_) >= kObsSpanSeconds) {
      obs::SetTracingEnabled(false);
      spans_end_ns_ = obs::NowNs();
    }
  }

  /// Close the window over `requests` requests: counter deltas per
  /// request, and pool busy time from the pool.chunk spans recorded.
  void End(std::int64_t requests, int threads, Observed* out) {
    if (spans_end_ns_ == 0) {
      obs::SetTracingEnabled(false);
      spans_end_ns_ = obs::NowNs();
    }
    const std::int64_t end_ns = spans_end_ns_;
    const auto after = SnapshotObsCounters();
    for (const auto& [counter, metric] : kObsCounters) {
      out->obs_per_request[metric] =
          static_cast<double>(after.at(counter) - before_.at(counter)) /
          static_cast<double>(requests);
    }
    std::ostringstream trace;
    obs::Tracer::Default().WriteChromeTrace(trace);
    events_ = trace.str();
    double busy_us = 0.0;
    std::istringstream lines(events_);
    std::string line;
    const double begin_us = static_cast<double>(start_ns_) / 1e3;
    const double end_us = static_cast<double>(end_ns) / 1e3;
    while (std::getline(lines, line)) {
      if (line.find("\"name\": \"pool.chunk\"") == std::string::npos) continue;
      const std::size_t ts = line.find("\"ts\": ");
      const std::size_t dur = line.find("\"dur\": ");
      if (ts == std::string::npos || dur == std::string::npos) continue;
      const double ts_us = std::stod(line.substr(ts + 6));
      if (ts_us >= begin_us && ts_us <= end_us) {
        busy_us += std::stod(line.substr(dur + 7));
      }
    }
    out->busy_frac = busy_us / (threads * (end_us - begin_us));
  }

  /// The obs Chrome trace taken at End().
  const std::string& events() const { return events_; }

 private:
  std::map<std::string, std::int64_t> before_;
  std::int64_t start_ns_ = 0;
  std::int64_t spans_end_ns_ = 0;
  std::string events_;
};

/// bench.tracing_overhead: greedy on one problem, alternating obs off and
/// on, as the ratio of the traced to the untraced median.
double TracingOverhead(Harness& h, const core::Problem& problem,
                       const core::SolveOptions& options) {
  std::vector<double> off;
  std::vector<double> on;
  for (int i = 0; i < kOverheadPairs; ++i) {
    for (bool traced : {false, true}) {
      obs::SetMetricsEnabled(traced);
      obs::SetTracingEnabled(traced);
      double seconds = 0.0;
      h.Solve(kGreedy, problem, options, &seconds);
      (traced ? on : off).push_back(seconds);
    }
  }
  obs::SetMetricsEnabled(false);
  obs::SetTracingEnabled(false);
  return Median(on) / Median(off);
}

void RecordControl(const dia::ControlPlaneReport& report, Observed* out) {
  const auto epochs = static_cast<double>(report.epochs.size());
  out->evaluations_per_epoch =
      static_cast<double>(report.total_evaluations) / epochs;
  out->proposals = 0;
  for (const dia::ControlEpochReport& e : report.epochs) {
    out->proposals += e.proposals;
  }
  out->migrations = report.total_migrations;
  out->forced_moves = report.total_forced_moves;
  out->degraded_frac = report.degraded_epochs / epochs;
}

std::vector<Metric> LayerMetrics(const Harness& h, const Observed& o) {
  auto median = [&h](const char* name) { return Median(h.samples.at(name)); };
  std::vector<Metric> m = {
      {"data.waxman.generate_s", o.stages.waxman, "s"},
      {"net.distances.build_s", o.stages.distances, "s"},
      {"placement.place_s", o.stages.placement, "s"},
      {"data.clients.build_s", o.stages.clients, "s"},
      {"net.oracle.row_builds", static_cast<double>(o.oracle.row_builds), "count"},
      {"net.oracle.cache_hits", static_cast<double>(o.oracle.row_cache_hits), "count"},
      {"core.dg.solve_s", median("dg"), "s"},
      {"core.lfb.solve_s", median("lfb"), "s"},
      {"core.nearest.solve_s", median("nearest"), "s"},
      {"core.lower_bound_s", median("lower_bound"), "s"},
      {"core.metrics.objective_s", median("objective"), "s"},
      {"core.greedy.objective_ms", o.greedy_objective_ms, "ms"},
  };
  for (const SolverSpec& s : kSolvers) {
    const std::string alg = s.name;
    const core::ClientBlockStats& v = o.view.at(alg);
    m.push_back({"core." + alg + ".iterations",
                 static_cast<double>(o.stats.at(alg).iterations), "count"});
    m.push_back({"core.view." + alg + ".columns_gathered",
                 static_cast<double>(v.columns_gathered), "count"});
    m.push_back({"core.view." + alg + ".rows_filled",
                 static_cast<double>(v.rows_filled), "count"});
    m.push_back({"core.view." + alg + ".tiles_loaded",
                 static_cast<double>(v.tiles_loaded), "count"});
    m.push_back({"core.view." + alg + ".tiles_pruned",
                 static_cast<double>(v.tiles_pruned), "count"});
    m.push_back({"core.view." + alg + ".tile_bytes_peak",
                 static_cast<double>(v.tile_bytes_peak), "bytes"});
  }
  m.push_back({"core.dg.modifications",
               static_cast<double>(o.stats.at("dg").modifications), "count"});
  m.push_back({"dia.control.evaluations_per_epoch", o.evaluations_per_epoch, "count"});
  m.push_back({"dia.control.proposals", static_cast<double>(o.proposals), "count"});
  m.push_back({"dia.control.migrations", static_cast<double>(o.migrations), "count"});
  m.push_back({"dia.control.forced_moves", static_cast<double>(o.forced_moves), "count"});
  m.push_back({"dia.control.degraded_frac", o.degraded_frac, "ratio"});
  for (const auto& [counter, metric] : kObsCounters) {
    const bool bytes = std::string(metric).ends_with("bytes_scanned");
    m.push_back({metric, o.obs_per_request.at(metric),
                 bytes ? "bytes/req" : "count/req"});
  }
  m.push_back({"common.pool.busy_frac", o.busy_frac, "ratio"});
  m.push_back({"bench.tracing_overhead", o.tracing_overhead, "ratio"});
  return m;
}

std::vector<Metric> EndToEndMetrics(const Harness& h,
                                    const std::vector<double>& setup_s,
                                    const Observed& o) {
  auto ms = [&h](const char* name) { return Median(h.samples.at(name)) * 1e3; };
  return {
      {"setup_s", Median(setup_s), "s"},
      {"greedy_ms", ms("greedy"), "ms"},
      {"request_ms", ms("request"), "ms"},
      {"peak_rss_mb", o.peak_rss_mb, "MB"},
      {"greedy_norm", o.greedy_norm, "ratio"},
  };
}

/// cloud-tiled, cloud-resident and churn: plan one fixed problem in a
/// closed loop. A request is the greedy plan plus its certified bound
/// (plus, on churn, one control-plane run); traced runs also time the
/// other heuristics. The run sets up `setups` times and measures an equal
/// slice of the window on each fresh instance: a memory-bound pass can
/// settle into one of two speeds for the life of an allocation, and
/// sampling several instances keeps one allocation from setting the run.
RunOutput RunFixedProblem(const RunOptions& o, Harness& h) {
  const bool churn = o.workload == "churn";
  const int setups = o.trace ? 1 : o.scale.setups;
  const core::SolveOptions options;
  Observed observed;
  RunOutput out;
  std::vector<double> setup_s;
  std::int64_t requests = 0;
  for (int i = 0; i < setups; ++i) {
    std::unique_ptr<Instance> inst;  // one instance resident at a time
    {
      h.spans.set_request(i);
      Span span(h.spans, "setup");
      const std::int64_t start = obs::NowNs();
      inst = BuildInstance(o, h, &observed.stages);
      setup_s.push_back(SecondsSince(start));
    }
    const core::Problem& problem = inst->problem();

    // Warm-up. The first instance solves with every heuristic, which fixes
    // the fingerprints and the deterministic per-solve counters; later
    // instances warm up greedy and must reproduce its plan.
    std::map<std::string, double> objective;
    for (const SolverSpec& s : kSolvers) {
      if (i > 0 && &s != &kGreedy) continue;
      double seconds = 0.0;
      core::ClientBlockStats delta;
      const core::SolveResult r = h.Solve(s, problem, options, &seconds, &delta);
      const std::uint64_t hash = Fnv1a(kFnvOffset, r.assignment);
      h.ExpectRepeat(s.name, hash);
      objective[s.name] = r.stats.max_len;
      if (i == 0) {
        observed.view[s.name] = delta;
        observed.stats[s.name] = r.stats;
        out.fingerprints.push_back({s.name, hash, r.stats.max_len});
      }
    }
    const double bound = CertifiedLowerBound(problem, o.scale.bound_clients);
    h.ExpectRepeat("lower bound", std::bit_cast<std::uint64_t>(bound));
    observed.greedy_norm = objective.at("greedy") / bound;
    observed.greedy_objective_ms = objective.at("greedy");
    observed.oracle = inst->oracle_stats;
    const dia::ControlPlaneParams control =
        churn ? ControlParamsFor(*inst) : dia::ControlPlaneParams{};

    ObsWindow window;
    if (o.trace) window.Begin();
    const std::int64_t start = obs::NowNs();
    const std::int64_t first_request = requests;
    while (requests == first_request || SecondsSince(start) < o.seconds / setups) {
      h.spans.set_request(requests);
      Span span(h.spans, "request");
      // A planning request: the greedy plan plus its certified bound.
      // Traced runs also time the other heuristics (per-layer metrics).
      double request_s = 0.0;
      for (const SolverSpec& s : kSolvers) {
        if (!o.trace && &s != &kGreedy) continue;
        double seconds = 0.0;
        const core::SolveResult r = h.Solve(s, problem, options, &seconds);
        h.samples[s.name].push_back(seconds);
        if (&s == &kGreedy) request_s += seconds;
        h.ExpectRepeat(s.name, Fnv1a(kFnvOffset, r.assignment));
      }
      {
        Span bound_span(h.spans, "core.lower_bound");
        const std::int64_t bound_start = obs::NowNs();
        const double again = CertifiedLowerBound(problem, o.scale.bound_clients);
        const double seconds = SecondsSince(bound_start);
        h.samples["lower_bound"].push_back(seconds);
        request_s += seconds;
        h.Expect(SameBits(again, bound), "lower bound: repeat is bit-identical");
        for (const auto& [name, value] : objective) {
          h.Expect(BoundHolds(bound, value), "lower bound <= " + name + " objective");
        }
      }
      if (churn) {
        Span run_span(h.spans, "dia.control.run");
        const std::int64_t run_start = obs::NowNs();
        const dia::ControlPlane plane(inst->live->problem, inst->trace, control);
        const dia::ControlPlaneReport report = plane.Run();
        const double seconds = SecondsSince(run_start);
        h.samples["request"].push_back(seconds /
                                       static_cast<double>(report.epochs.size()));
        h.Expect(!report.cap_ever_exceeded &&
                     report.max_migrations_per_epoch <= control.migration_cap,
                 "control plane: migration cap never exceeded");
        h.Expect(report.converged, "control plane: converged");
        h.Expect(SameBits(report.epochs.front().objective, objective.at("greedy")),
                 "control plane: epoch 0 boots to the greedy plan");
        const std::uint64_t hash = Fnv1a(kFnvOffset, report.final_assignment);
        h.ExpectRepeat("control", hash);
        if (requests == 0) {
          out.fingerprints.push_back({"control", hash, report.epochs.back().objective});
        }
        RecordControl(report, &observed);
      } else {
        h.samples["request"].push_back(request_s);
      }
      ++requests;
      if (o.trace) window.AfterRequest();
    }
    // Later set-ups can land beside chunks the allocator kept from earlier
    // ones (the peak then reads 1022 or 1145 MB on cloud-resident at one
    // seed), so the peak is taken once the first instance is done.
    if (i == 0) observed.peak_rss_mb = benchutil::PeakRssMb();
    if (!o.trace && i == setups - 1) {
      // The other heuristics must plan this instance as they did the first.
      for (const SolverSpec& s : kSolvers) {
        if (&s == &kGreedy) continue;
        double seconds = 0.0;
        const core::SolveResult r = h.Solve(s, problem, options, &seconds);
        h.ExpectRepeat(s.name, Fnv1a(kFnvOffset, r.assignment));
      }
    }
    if (o.trace) {
      window.End(requests, o.threads, &observed);
      observed.tracing_overhead = TracingOverhead(h, problem, options);
      out.metrics = LayerMetrics(h, observed);
      if (!o.trace_path.empty()) {
        h.spans.WriteChromeTrace(o.trace_path, window.events());
      }
    }
  }
  if (!o.trace) out.metrics = EndToEndMetrics(h, setup_s, observed);
  return out;
}

/// paper-sweep: the paper's §V loop over a dense APSP matrix — every
/// request is one trial (random placement, problem, four heuristics,
/// lower bound), and a run covers whole sweeps of trials.
RunOutput RunSweep(const RunOptions& o, Harness& h) {
  const Scale& scale = o.scale;
  const int setups = o.trace ? 1 : scale.setups;
  const auto trials = static_cast<std::int32_t>(scale.sweep_k.size()) *
                      scale.placements_per_k;
  Observed observed;
  std::unique_ptr<Instance> inst;

  struct Trial {
    std::optional<core::Problem> problem;
    core::SolveOptions options;
    double place_s = 0.0;
    double build_s = 0.0;
  };
  auto make_trial = [&](std::int32_t t) {
    Trial trial;
    const std::int32_t k =
        scale.sweep_k[static_cast<std::size_t>(t / scale.placements_per_k)];
    {
      Span span(h.spans, "placement.random");
      const std::int64_t start = obs::NowNs();
      Rng rng(o.seed + static_cast<std::uint64_t>(t));
      inst->servers = placement::RandomPlacement(*inst->matrix, k, rng);
      trial.place_s = SecondsSince(start);
    }
    {
      Span span(h.spans, "core.problem.build");
      const std::int64_t start = obs::NowNs();
      trial.problem.emplace(
          core::Problem::WithClientsEverywhere(*inst->matrix, inst->servers));
      trial.build_s = SecondsSince(start);
    }
    if (t % 2 == 1) {  // odd trials are capacitated at ceil(1.5 |C| / k)
      const std::int32_t n = trial.problem->num_clients();
      trial.options.assign.capacity = (3 * n + 2 * k - 1) / (2 * k);
    }
    return trial;
  };

  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    inst.reset();
    h.spans.set_request(i);
    Span span(h.spans, "setup");
    const std::int64_t start = obs::NowNs();
    inst = BuildInstance(o, h, &observed.stages);
    setup_s.push_back(SecondsSince(start));
  }

  RunOutput out;
  std::map<std::string, std::uint64_t> sweep_hash;
  std::map<std::string, double> objective_sum;
  double norm_sum = 0.0;
  std::vector<double> place_s;
  std::vector<double> build_s;
  // Timing samples per trial, by name. Trial cost depends on k, so a
  // median across trials would jump between k groups from run to run;
  // the run reports the mean over trials of each trial's median.
  std::map<std::string, std::vector<std::vector<double>>> per_trial;
  auto record = [&](const std::string& name, std::int32_t t, double seconds) {
    auto& trial_samples = per_trial[name];
    trial_samples.resize(static_cast<std::size_t>(trials));
    trial_samples[static_cast<std::size_t>(t)].push_back(seconds);
  };

  ObsWindow window;
  if (o.trace) window.Begin();
  const std::int64_t start = obs::NowNs();
  std::int64_t requests = 0;
  for (std::int32_t sweep = 0; sweep == 0 || SecondsSince(start) < o.seconds; ++sweep) {
    for (std::int32_t t = 0; t < trials; ++t, ++requests) {
      h.spans.set_request(requests);
      Span span(h.spans, "request");
      const Trial trial = make_trial(t);
      const core::Problem& problem = *trial.problem;
      place_s.push_back(trial.place_s);
      build_s.push_back(trial.build_s);
      double request_s = trial.place_s + trial.build_s;
      std::map<std::string, double> objective;
      for (const SolverSpec& s : kSolvers) {
        const std::string key = std::to_string(t) + "/" + s.name;
        double seconds = 0.0;
        core::ClientBlockStats delta;
        core::SolveResult r = h.Solve(s, problem, trial.options, &seconds, &delta);
        h.ExpectRepeat(key, Fnv1a(kFnvOffset, r.assignment));
        if (sweep == 0 && t == 0) {
          observed.view[s.name] = delta;
          observed.stats[s.name] = r.stats;
        }
        for (std::int32_t rep = 0; rep < scale.sweep_reps; ++rep) {
          r = h.Solve(s, problem, trial.options, &seconds);
          h.ExpectRepeat(key, Fnv1a(kFnvOffset, r.assignment));
          if (rep == 0 && &s == &kGreedy) request_s += seconds;
          record(s.name, t, seconds);
        }
        if (trial.options.assign.capacitated()) {
          h.Expect(core::MaxServerLoad(problem, r.assignment) <=
                       trial.options.assign.capacity,
                   key + ": capacity respected");
        }
        objective[s.name] = r.stats.max_len;
        if (sweep == 0) {
          const auto [it, inserted] = sweep_hash.emplace(s.name, kFnvOffset);
          it->second = Fnv1a(it->second, r.assignment);
          objective_sum[s.name] += r.stats.max_len;
        }
      }
      double bound = 0.0;
      {
        Span bound_span(h.spans, "core.lower_bound");
        const std::int64_t bound_start = obs::NowNs();
        bound = core::InteractivityLowerBound(problem);
        const double seconds = SecondsSince(bound_start);
        record("lower_bound", t, seconds);
        request_s += seconds;
      }
      for (const auto& [name, value] : objective) {
        h.Expect(BoundHolds(bound, value), std::to_string(t) +
                                               ": lower bound <= " + name +
                                               " objective");
      }
      if (sweep == 0) norm_sum += objective.at("greedy") / bound;
      record("request", t, request_s);
      if (o.trace) window.AfterRequest();
    }
  }
  for (const SolverSpec& s : kSolvers) {
    out.fingerprints.push_back(
        {s.name, sweep_hash.at(s.name), objective_sum.at(s.name) / trials});
  }
  for (const auto& [name, trial_samples] : per_trial) {
    double sum = 0.0;
    for (const std::vector<double>& samples : trial_samples) sum += Median(samples);
    h.samples[name] = {sum / trials};
  }
  observed.greedy_norm = norm_sum / trials;
  observed.greedy_objective_ms = objective_sum.at("greedy") / trials;
  observed.peak_rss_mb = benchutil::PeakRssMb();

  if (o.trace) {
    window.End(requests, o.threads, &observed);
    const Trial first = make_trial(0);
    observed.tracing_overhead = TracingOverhead(h, *first.problem, first.options);
    observed.stages.placement = Median(place_s);
    observed.stages.clients = Median(build_s);
    out.metrics = LayerMetrics(h, observed);
    if (!o.trace_path.empty()) h.spans.WriteChromeTrace(o.trace_path, window.events());
  } else {
    out.metrics = EndToEndMetrics(h, setup_s, observed);
  }
  return out;
}

/// Compare fingerprints against the pins file: a `seed N` line, then
/// `workload solver hash objective_ms` rows. Pins apply only at full
/// scale and the pinned seed.
void CheckPins(const RunOptions& o, const RunOutput& run, Harness& h) {
  if (o.pins_path.empty() || std::string(o.scale.name) != "full") return;
  std::ifstream in(o.pins_path);
  h.Expect(static_cast<bool>(in), "pins file '" + o.pins_path + "' is readable");
  if (!in) return;
  std::string line;
  std::uint64_t pinned_seed = 0;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string first;
    if (!(row >> first) || first[0] == '#') continue;
    if (first == "seed") {
      row >> pinned_seed;
      continue;
    }
    std::string solver;
    std::string hash;
    std::string objective;
    row >> solver >> hash >> objective;
    if (first != o.workload || o.seed != pinned_seed) continue;
    const auto it = std::find_if(
        run.fingerprints.begin(), run.fingerprints.end(),
        [&solver](const Fingerprint& f) { return f.solver == solver; });
    h.Expect(it != run.fingerprints.end() &&
                 it->hash == std::stoull(hash, nullptr, 16) &&
                 SameBits(it->objective_ms, std::stod(objective)),
             o.workload + "/" + solver + ": matches the pinned output");
  }
}

}  // namespace

Scale SmokeScale() {
  Scale s;
  s.name = "smoke";
  s.cloud_nodes = 300;
  s.cloud_servers = 32;
  s.cloud_clients = 20000;
  s.sweep_nodes = 300;
  s.sweep_k = {10, 20};
  s.placements_per_k = 2;
  s.sweep_reps = 1;
  s.churn_nodes = 300;
  s.churn_servers = 16;
  s.churn_clients = 20000;
  s.churn_epochs = 20;
  s.bound_clients = 300;
  s.setups = 2;
  return s;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cloud-tiled", "cloud-resident",
                                                 "paper-sweep", "churn"};
  return names;
}

RunOutput RunWorkload(const RunOptions& o) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    throw Error("unknown workload '" + o.workload +
                "' (expected cloud-tiled|cloud-resident|paper-sweep|churn)");
  }
  SetGlobalThreads(o.threads);
  Harness h(o.trace);
  RunOutput out =
      o.workload == "paper-sweep" ? RunSweep(o, h) : RunFixedProblem(o, h);
  CheckPins(o, out, h);
  out.attempted = h.attempted;
  out.failed = h.failed;
  return out;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i of 4 at
  // j = i*m // 4 clamped to [1, n-1], interpolated by delta = i*m - 4*j.
  auto cut = [&](std::int64_t i) {
    const std::int64_t m = n + 1;
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(2), cut(3)};
}

}  // namespace diaca::benchmark
