// diaca — command-line front end to libdiaca.
//
// Subcommands compose into the paper's pipeline over plain text files:
//
//   diaca generate --dataset=meridian --seed=1 --out=world.txt
//   diaca place    --matrix=world.txt --method=kcenter-b --servers=80
//                  --out=servers.txt
//   diaca assign   --matrix=world.txt --servers=servers.txt
//                  --algorithm=greedy [--capacity=N] --out=assignment.txt
//   diaca evaluate --matrix=world.txt --servers=servers.txt
//                  --assignment=assignment.txt
//   diaca schedule --matrix=world.txt --servers=servers.txt
//                  --assignment=assignment.txt
//
// Matrices use the dense format of data/loader.h; a server file lists the
// server node ids; an assignment file has one `client_node server_node`
// pair per line. Clients sit at every node (the paper's §V setup).
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/rss.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/lower_bound.h"
#include "core/metrics.h"
#include "core/solver_registry.h"
#include "core/sync_schedule.h"
#include "data/churn.h"
#include "data/loader.h"
#include "data/streaming.h"
#include "data/waxman.h"
#include "dia/control_plane.h"
#include "dia/dynamic_session.h"
#include "dia/session.h"
#include "obs/json.h"
#include "net/distance_oracle.h"
#include "data/synthetic.h"
#include "placement/placement.h"
#include "sim/faults.h"

namespace {

using namespace diaca;

int Usage() {
  std::cerr <<
      "usage: diaca "
      "<generate|place|assign|evaluate|schedule|simulate|cloud|churn>\n"
      "             [flags]\n"
      "  generate --out=FILE [--dataset=meridian|mit|small] [--nodes=N]\n"
      "           [--clusters=K] [--seed=S]\n"
      "  place    --matrix=FILE --servers=K --out=FILE\n"
      "           [--method=random|kcenter-a|kcenter-b] [--seed=S]\n"
      "  assign   {--matrix=FILE | --graph=FILE} --servers=FILE --out=FILE\n"
      "           [--algorithm=nearest|lfb|greedy|dg|single|exact]\n"
      "           [--capacity=N]\n"
      "  evaluate {--matrix=FILE | --graph=FILE} --servers=FILE\n"
      "           --assignment=FILE\n"
      "  schedule --matrix=FILE --servers=FILE --assignment=FILE\n"
      "  simulate --matrix=FILE --servers=FILE --assignment=FILE\n"
      "           [--duration-ms=T] [--ops-per-second=R] [--seed=S]\n"
      "           [--failover=repair|resolve|nearest]\n"
      "  cloud    [--nodes=N] [--clients=M] [--servers=K] [--seed=S]\n"
      "           [--algorithm=...] [--block=materialized|tiled]\n"
      "           [--rss-budget-mb=MB] — streaming\n"
      "           build + solve of a client cloud attached to a Waxman\n"
      "           substrate; never holds an O(n^2) matrix (reports peak\n"
      "           RSS vs dense equivalent; --block=tiled also skips the\n"
      "           |C|x|S| client block)\n"
      "  churn    [--nodes=N] [--clients=M] [--servers=K] [--seed=S]\n"
      "           [--epochs=E] [--epoch-ms=T] [--churn=SPEC]\n"
      "           [--migration-cap=N] [--hysteresis=K] [--hysteresis-eps=E]\n"
      "           [--deadline-evals=N] [--oracle-every=E] [--capacity=N]\n"
      "           [--rss-budget-mb=MB] [--json-out=FILE] — online control\n"
      "           plane: epoch loop over a seeded churn trace with capped\n"
      "           migrations, hysteresis, and graceful degradation\n"
      "           (docs/CLI.md;\n"
      "           --churn items: arrive@R; depart@P; move@P;\n"
      "           flash@E-E:xF; wave@P:aF; until@E — --faults crash\n"
      "           node indices name server slots here)\n"
      "  --graph=FILE takes a sparse `u v length_ms` edge list and routes\n"
      "  distances through the --oracle backend instead of a dense\n"
      "  matrix:\n"
      "  --oracle=BACKEND[:key=val,...] with BACKEND one of\n"
      "  dense|rows|landmarks|coords|hublabels (dense: historical full\n"
      "  matrix; rows: exact lazy Dijkstra rows, sublinear memory;\n"
      "  hublabels: pruned 2-hop labels, exact up to re-association;\n"
      "  landmarks/coords: estimates — evaluate also reports the true\n"
      "  path length). Each backend takes only its own keys: cache=N,\n"
      "  shards=N (rows), landmarks=K, rsamples=N, rq=N (landmarks),\n"
      "  beacons=N, rounds=N, dims=N (coords), k=N, rsamples=N, rq=N\n"
      "  (hublabels), seed=N (all; grammar in docs/CLI.md).\n"
      "  assign/evaluate/cloud accept --block=materialized|tiled\n"
      "  (tiled streams the client block through the oracle instead of\n"
      "  materializing |C|x|S|; assignments are bit-identical) and\n"
      "  --prune=on|off (bound-driven filter-and-refine in the solvers;\n"
      "  results are bit-identical either way, off only disables the\n"
      "  accelerator — see docs/performance.md).\n"
      "  every command also accepts --threads=N, --faults=SPEC (inject\n"
      "  server crashes, latency spikes, loss bursts, and partitions —\n"
      "  see docs/resilience.md; simulate then runs the fault-aware\n"
      "  session and reports the degradation timeline),\n"
      "  --metrics-out=FILE (metrics JSON at exit) and --trace-out=FILE\n"
      "  (Chrome trace)\n";
  return 2;
}

// --name as an int32 in [lo, INT32_MAX]. Flags::GetInt parses an int64,
// so a bare cast would wrap an out-of-range value (4294967300 -> 4)
// instead of rejecting it.
std::int32_t GetInt32(const Flags& flags, const std::string& name,
                      std::int32_t default_value, std::int32_t lo) {
  constexpr std::int32_t hi = std::numeric_limits<std::int32_t>::max();
  const std::int64_t value = flags.GetInt(name, default_value);
  if (value < lo || value > hi) {
    throw Error("--" + name + " must be in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got " + std::to_string(value));
  }
  return static_cast<std::int32_t>(value);
}

// True when the user picked an oracle backend on the command line;
// commands with a different built-in default (cloud) only override when
// they did not.
bool OracleConfiguredExplicitly(const Flags& flags) {
  return flags.Has("oracle");
}

// Oracle configuration from --oracle BACKEND[:key=val,...]. Without it:
// the dense backend with the OracleOptions defaults for every key. The
// sketch seed follows --seed unless the spec pins its own.
net::OracleOptions OracleOptionsFromFlags(const Flags& flags) {
  const std::string spec = flags.GetString("oracle", "");
  net::OracleOptions opt;
  if (flags.Has("oracle")) {
    opt = net::ParseOracleSpec(spec);
  } else {
    opt.backend = net::OracleBackend::kDense;
  }
  if (spec.find("seed=") == std::string::npos) {
    opt.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  }
  return opt;
}

// --block=materialized|tiled; returns true for tiled.
bool TiledBlockRequested(const Flags& flags) {
  const std::string block = flags.GetString("block", "materialized");
  if (block == "materialized") return false;
  if (block != "tiled") {
    throw Error("unknown --block mode '" + block +
                "' (expected materialized|tiled)");
  }
  return true;
}

// --prune=on|off (default on): bound-driven filter-and-refine in the
// solvers. A pure accelerator — results are
// bit-identical either way. Commands parse it once, before any load or
// build, so a typo fails fast.
bool PruneRequested(const Flags& flags) {
  const std::string prune = flags.GetString("prune", "on");
  if (prune == "on") return true;
  if (prune == "off") return false;
  throw Error("unknown --prune mode '" + prune + "' (expected on|off)");
}

// --rss-budget-mb=MB, parsed before the run it gates (nullopt when unset).
std::optional<double> RssBudgetMb(const Flags& flags) {
  if (!flags.Has("rss-budget-mb")) return std::nullopt;
  return flags.GetDouble("rss-budget-mb", 0.0);
}

// The --rss-budget-mb gate of cloud and churn, checked against the peak
// RSS their report tables print: a breach is a hard error that names the
// budget. Returns the exit status (1 on a breach).
int CheckRssBudget(std::optional<double> budget_mb, double rss_mb) {
  if (!budget_mb) return 0;
  if (rss_mb > *budget_mb) {
    std::cerr << "error: peak RSS " << rss_mb << " MB exceeds --rss-budget-mb "
              << *budget_mb << " MB\n";
    return 1;
  }
  std::cout << "peak RSS within budget (" << rss_mb << " <= " << *budget_mb
            << " MB)\n";
  return 0;
}

std::vector<net::NodeIndex> LoadNodeList(const std::string& path,
                                         net::NodeIndex limit) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::vector<net::NodeIndex> nodes;
  std::int64_t v = 0;
  while (in >> v) {
    DIACA_CHECK_MSG(v >= 0 && v < limit, "node id " << v << " out of range");
    nodes.push_back(static_cast<net::NodeIndex>(v));
  }
  DIACA_CHECK_MSG(!nodes.empty(), "empty node list in '" << path << "'");
  return nodes;
}

core::Assignment LoadAssignment(const std::string& path,
                                const core::Problem& problem) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  // Map client node -> server list index.
  std::map<net::NodeIndex, core::ServerIndex> server_index;
  for (core::ServerIndex s = 0; s < problem.num_servers(); ++s) {
    server_index[problem.server_node(s)] = s;
  }
  core::Assignment a(static_cast<std::size_t>(problem.num_clients()));
  std::int64_t client_node = 0;
  std::int64_t server_node = 0;
  while (in >> client_node >> server_node) {
    DIACA_CHECK_MSG(client_node >= 0 && client_node < problem.num_clients(),
                    "client node " << client_node << " out of range");
    const auto it = server_index.find(static_cast<net::NodeIndex>(server_node));
    DIACA_CHECK_MSG(it != server_index.end(),
                    "node " << server_node << " is not a server");
    a[static_cast<core::ClientIndex>(client_node)] = it->second;
  }
  DIACA_CHECK_MSG(a.IsComplete(), "assignment file misses some clients");
  return a;
}

void SaveAssignment(const std::string& path, const core::Problem& problem,
                    const core::Assignment& a) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  for (core::ClientIndex c = 0; c < problem.num_clients(); ++c) {
    out << problem.client_node(c) << " " << problem.server_node(a[c]) << "\n";
  }
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  DIACA_CHECK_MSG(!out.empty(), "--out is required");
  net::LatencyMatrix matrix(1);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  if (flags.Has("nodes")) {
    data::SyntheticParams params;
    params.num_nodes = GetInt32(flags, "nodes", 300, 2);
    params.num_clusters = GetInt32(flags, "clusters", 10, 1);
    matrix = data::GenerateSyntheticInternet(params, seed);
  } else {
    matrix = data::MakeNamedDataset(flags.GetString("dataset", "small"), seed);
  }
  data::SaveDenseMatrix(matrix, out);
  std::cout << "wrote " << matrix.size() << "-node matrix to " << out << "\n";
  return 0;
}

int CmdPlace(const Flags& flags) {
  const net::LatencyMatrix matrix =
      data::LoadDenseMatrix(flags.GetString("matrix", ""));
  const std::int32_t k = GetInt32(flags, "servers", 10, 1);
  const std::string method = flags.GetString("method", "kcenter-b");
  const std::string out = flags.GetString("out", "");
  DIACA_CHECK_MSG(!out.empty(), "--out is required");
  std::vector<net::NodeIndex> servers;
  if (method == "random") {
    Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
    servers = placement::RandomPlacement(matrix, k, rng);
  } else if (method == "kcenter-a") {
    servers = placement::KCenterHochbaumShmoys(matrix, k);
  } else if (method == "kcenter-b") {
    servers = placement::KCenterGreedy(matrix, k);
  } else {
    throw Error("unknown placement method '" + method + "'");
  }
  std::ofstream file(out);
  if (!file) throw Error("cannot open '" + out + "' for writing");
  for (net::NodeIndex s : servers) file << s << "\n";
  std::cout << "placed " << k << " servers (" << method
            << "), K-center objective "
            << placement::KCenterObjective(matrix, servers) << " ms\n";
  return 0;
}

// Substrate resolution shared by assign/evaluate: --matrix loads the
// historical dense format; --graph loads a sparse edge list and routes
// every distance through the --oracle backend (so a rows-backend run
// never materializes the O(n^2) closure). --block=tiled additionally
// skips the |C| x |S| client block: the problem streams tiles from the
// oracle's server rows instead (bit-identical assignments).
core::Problem LoadProblemForSolve(const Flags& flags) {
  const bool tiled = TiledBlockRequested(flags);
  const std::string graph_path = flags.GetString("graph", "");
  if (!graph_path.empty()) {
    DIACA_CHECK_MSG(flags.GetString("matrix", "").empty(),
                    "--matrix and --graph are mutually exclusive");
    const net::Graph graph = data::LoadGraphTriples(graph_path);
    const net::DistanceOracle oracle =
        net::DistanceOracle::FromGraph(graph, OracleOptionsFromFlags(flags));
    const auto servers =
        LoadNodeList(flags.GetString("servers", ""), oracle.size());
    if (tiled) {
      std::vector<net::NodeIndex> clients(
          static_cast<std::size_t>(oracle.size()));
      std::iota(clients.begin(), clients.end(), 0);
      return core::Problem::FromOracleTiled(oracle, servers, clients);
    }
    return core::Problem::WithClientsEverywhere(oracle, servers);
  }
  if (tiled) {
    throw Error("--block=tiled needs --graph (a dense --matrix is already "
                "materialized; tiling it would only add copies)");
  }
  const net::LatencyMatrix matrix =
      data::LoadDenseMatrix(flags.GetString("matrix", ""));
  const auto servers =
      LoadNodeList(flags.GetString("servers", ""), matrix.size());
  return core::Problem::WithClientsEverywhere(matrix, servers);
}

int CmdAssign(const Flags& flags) {
  // Validate the algorithm name before the (possibly large) matrix load,
  // so a typo fails fast with the valid set.
  const std::string algorithm = flags.GetString("algorithm", "greedy");
  const core::SolverRegistry& registry = core::SolverRegistry::Default();
  if (!registry.Has(algorithm)) {
    throw Error("unknown algorithm '" + algorithm + "' (expected " +
                registry.NamesJoined() + ")");
  }
  const bool prune = PruneRequested(flags);
  const std::string out = flags.GetString("out", "");
  DIACA_CHECK_MSG(!out.empty(), "--out is required");
  const core::Problem problem = LoadProblemForSolve(flags);
  core::SolveOptions options;
  options.assign.capacity =
      GetInt32(flags, "capacity", core::AssignOptions::kUnlimitedCapacity,
               core::AssignOptions::kUnlimitedCapacity);
  options.assign.bound_pruning = prune;

  const core::SolveResult result = registry.Solve(algorithm, problem, options);
  SaveAssignment(out, problem, result.assignment);
  std::cout << algorithm << ": max interaction path " << result.stats.max_len
            << " ms\n";
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  // evaluate runs no solver, so --prune changes nothing here, but a
  // typo still fails like it does for assign.
  (void)PruneRequested(flags);
  const core::Problem problem = LoadProblemForSolve(flags);
  const core::Assignment a =
      LoadAssignment(flags.GetString("assignment", ""), problem);
  const double d = core::MaxInteractionPathLength(problem, a);
  // On an estimated backend the problem blocks hold approximations, so d
  // is the *planned* objective; score the plan against ground truth with
  // exact rows over the same graph (|S| Dijkstras, no matrix).
  double true_d = d;
  bool estimated = false;
  const std::string graph_path = flags.GetString("graph", "");
  if (!graph_path.empty()) {
    net::OracleOptions rows = OracleOptionsFromFlags(flags);
    estimated = rows.backend != net::OracleBackend::kDense &&
                rows.backend != net::OracleBackend::kRows;
    if (estimated) {
      rows.backend = net::OracleBackend::kRows;
      const net::DistanceOracle truth = net::DistanceOracle::FromGraph(
          data::LoadGraphTriples(graph_path), rows);
      true_d = core::MaxInteractionPathLengthExact(truth, problem, a);
    }
  }
  const double lb = core::InteractivityLowerBound(problem);
  const double lb3 = core::TripleEnhancedLowerBound(problem);
  Table table({"metric", "value"});
  table.Row().Cell("max interaction path (ms)").Cell(d);
  if (estimated) {
    table.Row().Cell("max interaction path, true (ms)").Cell(true_d);
  }
  table.Row().Cell("mean interaction path (ms)").Cell(
      core::MeanInteractionPathLength(problem, a));
  table.Row().Cell("pairwise lower bound (ms)").Cell(lb);
  table.Row().Cell("triple-enhanced bound (ms)").Cell(lb3);
  table.Row().Cell("normalized interactivity").Cell(
      core::NormalizedInteractivity(d, lb));
  table.Row().Cell("normalized vs triple bound").Cell(
      core::NormalizedInteractivity(d, lb3));
  table.Row().Cell("max server load").Cell(
      static_cast<std::int64_t>(core::MaxServerLoad(problem, a)));
  table.Print(std::cout);
  return 0;
}

// Fault-injected simulate: a --faults plan needs failover epochs, the
// repair solver, and degradation sampling, so the run goes through the
// dynamic session (which derives its own initial assignment the same way
// a live session would).
int CmdSimulateFaulted(const Flags& flags, const net::LatencyMatrix& matrix,
                       const core::Problem& problem,
                       const sim::FaultPlan& plan) {
  dia::DynamicSessionParams params;
  params.workload.duration_ms = flags.GetDouble("duration-ms", 5000.0);
  params.workload.ops_per_second = flags.GetDouble("ops-per-second", 1.0);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  params.failover =
      dia::ParseFailoverStrategy(flags.GetString("failover", "repair"));
  params.faults = &plan;
  std::vector<core::ClientIndex> members(
      static_cast<std::size_t>(problem.num_clients()));
  std::iota(members.begin(), members.end(), 0);
  const dia::DynamicDiaSession session(matrix, problem, members, {}, params);
  const dia::DynamicSessionReport report = session.Run();

  Table table({"metric", "value"});
  table.Row().Cell("epochs").Cell(static_cast<std::int64_t>(report.epochs));
  table.Row().Cell("server crashes").Cell(
      static_cast<std::int64_t>(report.failovers.size()));
  table.Row().Cell("operations issued").Cell(
      static_cast<std::int64_t>(report.ops_issued));
  table.Row().Cell("min intact-path fraction").Cell(
      report.min_intact_fraction);
  double restore = 0.0;
  for (const dia::FailoverRecord& f : report.failovers) {
    restore = std::max(restore, f.time_to_restore_ms);
  }
  table.Row().Cell("max time to restore (ms)").Cell(restore);
  table.Row().Cell("operations lost").Cell(
      static_cast<std::int64_t>(report.ops_lost));
  table.Row().Cell("messages cut by faults").Cell(
      static_cast<std::int64_t>(report.messages_cut));
  table.Row().Cell("snapshot retries").Cell(
      static_cast<std::int64_t>(report.snapshot_retries));
  table.Print(std::cout);
  std::cout << (report.final_states_converged ? "session converged\n"
                                              : "session DIVERGED\n");
  return report.final_states_converged ? 0 : 1;
}

int CmdSimulate(const Flags& flags) {
  const net::LatencyMatrix matrix =
      data::LoadDenseMatrix(flags.GetString("matrix", ""));
  const auto servers =
      LoadNodeList(flags.GetString("servers", ""), matrix.size());
  const core::Problem problem =
      core::Problem::WithClientsEverywhere(matrix, servers);
  if (const sim::FaultPlan* plan = sim::GlobalFaultPlan()) {
    return CmdSimulateFaulted(flags, matrix, problem, *plan);
  }
  const core::Assignment a =
      LoadAssignment(flags.GetString("assignment", ""), problem);
  const core::SyncSchedule schedule = core::ComputeSyncSchedule(problem, a);

  dia::SessionParams params;
  params.workload.duration_ms = flags.GetDouble("duration-ms", 5000.0);
  params.workload.ops_per_second = flags.GetDouble("ops-per-second", 1.0);
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const dia::DiaSession session(matrix, problem, a, schedule, params);
  const dia::SessionReport report = session.Run();

  Table table({"metric", "value"});
  table.Row().Cell("delta / interaction time (ms)").Cell(report.delta);
  table.Row().Cell("operations issued").Cell(
      static_cast<std::int64_t>(report.ops_issued));
  table.Row().Cell("measured interaction min (ms)").Cell(
      report.interaction_time.min());
  table.Row().Cell("measured interaction max (ms)").Cell(
      report.interaction_time.max());
  table.Row().Cell("consistency probes").Cell(
      static_cast<std::int64_t>(report.consistency_samples));
  table.Row().Cell("divergent probes").Cell(
      static_cast<std::int64_t>(report.consistency_mismatches));
  table.Row().Cell("fairness violations").Cell(
      static_cast<std::int64_t>(report.fairness_violations));
  table.Row().Cell("messages").Cell(
      static_cast<std::int64_t>(report.messages_sent));
  table.Print(std::cout);
  std::cout << (report.clean() ? "session clean\n"
                               : "session saw violations\n");
  return report.clean() ? 0 : 1;
}

int CmdSchedule(const Flags& flags) {
  const net::LatencyMatrix matrix =
      data::LoadDenseMatrix(flags.GetString("matrix", ""));
  const auto servers =
      LoadNodeList(flags.GetString("servers", ""), matrix.size());
  const core::Problem problem =
      core::Problem::WithClientsEverywhere(matrix, servers);
  const core::Assignment a =
      LoadAssignment(flags.GetString("assignment", ""), problem);
  const core::SyncSchedule schedule = core::ComputeSyncSchedule(problem, a);
  std::cout << "delta (interaction time for every pair): " << schedule.delta
            << " ms\n";
  Table table({"server node", "offset vs client clock (ms)"});
  for (core::ServerIndex s = 0; s < problem.num_servers(); ++s) {
    table.Row()
        .Cell(static_cast<std::int64_t>(problem.server_node(s)))
        .Cell(schedule.server_offset[static_cast<std::size_t>(s)]);
  }
  table.Print(std::cout);
  const auto feasibility = core::CheckSyncSchedule(problem, a, schedule);
  std::cout << "feasible: " << (feasibility.feasible ? "yes" : "no") << "\n";
  return 0;
}

// Streaming client-cloud pipeline: Waxman substrate + M attached clients,
// rows-oracle distances, farthest-point placement, one solver run. The
// point is what it never does — materialize anything O(n^2) — so the
// report closes with peak RSS against the dense-equivalent footprint.
int CmdCloud(const Flags& flags) {
  const std::string algorithm = flags.GetString("algorithm", "greedy");
  const core::SolverRegistry& registry = core::SolverRegistry::Default();
  if (!registry.Has(algorithm)) {
    throw Error("unknown algorithm '" + algorithm + "' (expected " +
                registry.NamesJoined() + ")");
  }
  const bool prune = PruneRequested(flags);
  const std::optional<double> rss_budget = RssBudgetMb(flags);
  data::ClientCloudParams params;
  params.substrate.num_nodes = GetInt32(flags, "nodes", 2000, 2);
  params.num_clients = flags.GetInt("clients", 100000);
  params.materialize_block = !TiledBlockRequested(flags);
  const std::int32_t k = GetInt32(flags, "servers", 16, 1);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  Timer build;
  const net::Graph graph =
      data::GenerateWaxmanTopology(params.substrate, seed);
  // The cloud pipeline exists for the sublinear path, so it defaults to
  // rows even though the process default is dense; an explicit --oracle
  // still wins.
  net::OracleOptions opt = OracleOptionsFromFlags(flags);
  if (!OracleConfiguredExplicitly(flags)) {
    opt.backend = net::OracleBackend::kRows;
  }
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(graph, opt);
  const auto server_nodes = placement::KCenterFarthest(oracle, k);
  const data::ClientCloud cloud =
      data::BuildClientCloud(params, seed, oracle, server_nodes);
  const double build_ms = build.ElapsedMillis();

  Timer solve;
  core::SolveOptions solve_options;
  solve_options.assign.bound_pruning = prune;
  const core::SolveResult result =
      registry.Solve(algorithm, cloud.problem, solve_options);
  const double solve_ms = solve.ElapsedMillis();

  const double rss_mb = benchutil::PeakRssMb();
  const double dense_mb = data::DenseEquivalentMb(
      params.substrate.num_nodes + params.num_clients);
  const net::OracleStats stats = oracle.stats();
  Table table({"metric", "value"});
  table.Row().Cell("substrate nodes").Cell(
      static_cast<std::int64_t>(params.substrate.num_nodes));
  table.Row().Cell("clients").Cell(params.num_clients);
  table.Row().Cell("servers").Cell(static_cast<std::int64_t>(k));
  table.Row().Cell("distances backend").Cell(
      net::OracleBackendName(opt.backend));
  table.Row().Cell("client block").Cell(
      params.materialize_block ? "materialized" : "tiled");
  table.Row().Cell("build (ms)").Cell(build_ms);
  table.Row().Cell(algorithm + " solve (ms)").Cell(solve_ms);
  table.Row().Cell("max interaction path (ms)").Cell(result.stats.max_len);
  table.Row().Cell("oracle row builds").Cell(stats.row_builds);
  table.Row().Cell("tiles pruned").Cell(result.stats.tiles_pruned);
  if (!params.materialize_block) {
    table.Row().Cell("client block equivalent (MB)").Cell(
        static_cast<double>(params.num_clients) *
        static_cast<double>(cloud.problem.client_block().server_stride()) *
        sizeof(double) / (1024.0 * 1024.0));
  }
  table.Row().Cell("peak RSS (MB)").Cell(rss_mb);
  table.Row().Cell("dense-equivalent matrix (MB)").Cell(dense_mb);
  table.Row().Cell("RSS / dense equivalent").Cell(rss_mb / dense_mb);
  table.Print(std::cout);
  return CheckRssBudget(rss_budget, rss_mb);
}

// Online control plane: Waxman substrate, K-center servers, a seeded
// churn trace, then the epoch loop under the migration-cap / hysteresis /
// deadline SLOs. --faults joins in as chaos (crash node indices name
// server slots 0..K-1 here, not substrate nodes). --json-out dumps the
// per-epoch timeline for scripts and CI.
int CmdChurn(const Flags& flags) {
  data::ChurnParams churn;
  if (flags.Has("churn")) {
    churn = data::ParseChurnSpec(flags.GetString("churn", ""));
  }
  churn.epochs = GetInt32(flags, "epochs", churn.epochs, 1);
  const std::int32_t initial = GetInt32(flags, "clients", 10000, 1);
  const std::int32_t k = GetInt32(flags, "servers", 16, 1);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const std::optional<double> rss_budget = RssBudgetMb(flags);

  Timer build;
  data::WaxmanParams substrate;
  substrate.num_nodes = GetInt32(flags, "nodes", 2000, 2);
  const net::Graph graph = data::GenerateWaxmanTopology(substrate, seed);
  // Sublinear path by default, like cloud; an explicit --oracle wins.
  net::OracleOptions opt = OracleOptionsFromFlags(flags);
  if (!OracleConfiguredExplicitly(flags)) {
    opt.backend = net::OracleBackend::kRows;
  }
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(graph, opt);
  const auto server_nodes = placement::KCenterFarthest(oracle, k);
  const data::ChurnTrace trace =
      data::GenerateChurnTrace(churn, initial, oracle.size(), seed);
  const data::ChurnProblem instance =
      data::BuildChurnProblem(trace, oracle, server_nodes);
  const double build_ms = build.ElapsedMillis();

  dia::ControlPlaneParams params;
  params.assign.capacity =
      GetInt32(flags, "capacity", core::AssignOptions::kUnlimitedCapacity,
               core::AssignOptions::kUnlimitedCapacity);
  params.migration_cap = GetInt32(flags, "migration-cap", 16, 0);
  params.hysteresis_epochs = GetInt32(flags, "hysteresis", 2, 1);
  params.hysteresis_eps = flags.GetDouble("hysteresis-eps", 1e-6);
  params.deadline_evals = flags.GetInt("deadline-evals", -1);
  params.epoch_ms = flags.GetDouble("epoch-ms", 1000.0);
  params.oracle_every = GetInt32(flags, "oracle-every", 0, 0);
  params.faults = sim::GlobalFaultPlan();

  Timer run;
  const dia::ControlPlane plane(instance.problem, trace, params);
  const dia::ControlPlaneReport report = plane.Run();
  const double run_ms = run.ElapsedMillis();

  const dia::ControlEpochReport& last = report.epochs.back();
  Table table({"metric", "value"});
  table.Row().Cell("epochs").Cell(
      static_cast<std::int64_t>(report.epochs.size()));
  table.Row().Cell("initial members").Cell(
      static_cast<std::int64_t>(trace.initial_count));
  table.Row().Cell("peak members").Cell(
      static_cast<std::int64_t>(trace.peak_active));
  table.Row().Cell("client instances").Cell(
      static_cast<std::int64_t>(trace.instances.size()));
  table.Row().Cell("final members").Cell(
      static_cast<std::int64_t>(last.members));
  table.Row().Cell("migrations (capped)").Cell(report.total_migrations);
  table.Row().Cell("max migrations / epoch").Cell(
      static_cast<std::int64_t>(report.max_migrations_per_epoch));
  table.Row().Cell("migration cap").Cell(
      static_cast<std::int64_t>(params.migration_cap));
  table.Row().Cell("forced moves (liveness)").Cell(report.total_forced_moves);
  table.Row().Cell("degraded epochs").Cell(
      static_cast<std::int64_t>(report.degraded_epochs));
  table.Row().Cell("longest degraded run").Cell(
      static_cast<std::int64_t>(report.longest_degraded_run));
  table.Row().Cell("epochs to recover").Cell(
      static_cast<std::int64_t>(report.recover_epochs));
  table.Row().Cell("candidate evaluations").Cell(report.total_evaluations);
  table.Row().Cell("final objective (ms)").Cell(last.objective);
  table.Row().Cell("build (ms)").Cell(build_ms);
  table.Row().Cell("run (ms)").Cell(run_ms);
  const double rss_mb = benchutil::PeakRssMb();
  table.Row().Cell("peak RSS (MB)").Cell(rss_mb);
  table.Print(std::cout);
  std::cout << (report.cap_ever_exceeded ? "migration cap EXCEEDED\n"
                                         : "migration cap honored\n")
            << (report.converged ? "assignment converged\n"
                                 : "assignment NOT converged\n");
  const int rss_status = CheckRssBudget(rss_budget, rss_mb);

  const std::string json_out = flags.GetString("json-out", "");
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) throw Error("cannot open '" + json_out + "' for writing");
    using obs::internal::AppendJsonNumber;
    using obs::internal::AppendJsonString;
    out << "{\n  \"migration_cap\": " << params.migration_cap
        << ",\n  \"hysteresis_epochs\": " << params.hysteresis_epochs
        << ",\n  \"cap_ever_exceeded\": "
        << (report.cap_ever_exceeded ? "true" : "false")
        << ",\n  \"converged\": " << (report.converged ? "true" : "false")
        << ",\n  \"degraded_epochs\": " << report.degraded_epochs
        << ",\n  \"recover_epochs\": " << report.recover_epochs
        << ",\n  \"total_migrations\": " << report.total_migrations
        << ",\n  \"total_forced_moves\": " << report.total_forced_moves
        << ",\n  \"epochs\": [\n";
    for (std::size_t i = 0; i < report.epochs.size(); ++i) {
      const dia::ControlEpochReport& e = report.epochs[i];
      out << "    {\"epoch\": " << e.epoch << ", \"members\": " << e.members
          << ", \"servers_up\": " << e.servers_up
          << ", \"arrivals\": " << e.arrivals
          << ", \"departures\": " << e.departures
          << ", \"moves\": " << e.mobility_moves
          << ", \"migrations\": " << e.migrations
          << ", \"forced_moves\": " << e.forced_moves
          << ", \"stranded\": " << e.stranded
          << ", \"degraded\": " << (e.degraded ? "true" : "false")
          << ", \"reason\": ";
      AppendJsonString(out, dia::DegradedReasonName(e.reason));
      out << ", \"evaluations\": " << e.evaluations << ", \"objective\": ";
      AppendJsonNumber(out, e.objective);
      out << ", \"oracle_objective\": ";
      AppendJsonNumber(out, e.oracle_objective);
      out << "}" << (i + 1 < report.epochs.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote epoch timeline to " << json_out << "\n";
  }
  return report.cap_ever_exceeded ? 1 : rss_status;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    const Flags flags(argc - 1, argv + 1,
                      {"out", "dataset", "nodes", "clusters", "seed", "matrix",
                       "servers", "method", "algorithm", "capacity",
                       "assignment", "duration-ms", "ops-per-second",
                       "failover", "graph", "clients", "oracle", "block",
                       "prune", "rss-budget-mb", "epochs", "epoch-ms", "churn",
                       "migration-cap", "hysteresis", "hysteresis-eps",
                       "deadline-evals", "oracle-every", "json-out"});
    // A malformed --oracle spec fails up front, whichever command runs.
    if (flags.Has("oracle")) {
      (void)net::ParseOracleSpec(flags.GetString("oracle", ""));
    }
    if (command == "generate") return CmdGenerate(flags);
    if (command == "place") return CmdPlace(flags);
    if (command == "assign") return CmdAssign(flags);
    if (command == "evaluate") return CmdEvaluate(flags);
    if (command == "schedule") return CmdSchedule(flags);
    if (command == "simulate") return CmdSimulate(flags);
    if (command == "cloud") return CmdCloud(flags);
    if (command == "churn") return CmdChurn(flags);
    return Usage();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
