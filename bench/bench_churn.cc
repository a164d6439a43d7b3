// Churn control-plane report: the quality-vs-migration-cost frontier of
// budgeted epoch re-optimization against repeated full re-solves.
//
//   bench_churn [--scale=small|committed] [--seed=2011] [--json-out=path]
//
// Scenarios (committed scale):
//   waxman-churn-10k    10k clients on a routed Waxman substrate, 50
//                       epochs of Poisson arrivals / departures / mobility
//   meridian-churn-10k  the same churn over the measured-style meridian
//                       matrix (triangle-inequality violations included)
//   waxman-churn-100k   100k clients, 32 servers, heavier arrival rate
//   chaos-flash-crash   a flash crowd colliding with a mid-epoch server
//                       crash, then a quiet tail — the recovery and
//                       convergence story
//
// Strategies per scenario:
//   budgeted     ControlPlane, migration cap + hysteresis (the PR's SLO
//                configuration)
//   nohyst       the same cap with hysteresis disabled (K = 1) — shows
//                what the consecutive-epoch rule saves in migrations
//   full-greedy  a fresh full greedy solve every epoch; migrations =
//                clients whose home changed between consecutive solves.
//                The quality oracle and the migration-cost ceiling.
//
// Shape checks ([SHAPE] lines): the migration cap is honored in 100% of
// epochs; the budgeted plane stays within 10% of the fresh-greedy
// objective on the waxman/meridian 10k scenarios; the chaos scenario
// degrades, recovers, and converges; and the first scenario's budgeted
// run is bit-identical at 1 and 4 threads.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/problem.h"
#include "core/types.h"
#include "data/churn.h"
#include "data/synthetic.h"
#include "data/waxman.h"
#include "dia/control_plane.h"
#include "net/distance_oracle.h"
#include "obs/json.h"
#include "placement/placement.h"
#include "sim/faults.h"

namespace {

using namespace diaca;

struct Scenario {
  std::string name;
  std::string substrate;  // "waxman" or "meridian"
  std::int32_t nodes = 2000;
  std::int32_t clients = 10000;
  std::int32_t servers = 16;
  std::string churn_spec;
  std::int32_t epochs = 50;
  std::int32_t migration_cap = 16;
  // Minimum per-move gain (ms). A meaningful margin, not float noise:
  // with a near-zero epsilon the proposal stream on 10k-client instances
  // chases ~0.02 ms gains forever and the quiet tail never converges.
  double hysteresis_eps = 0.02;
  std::int32_t oracle_every = 5;
  // Server slot crashed mid-run ([start, end) in epoch units); < 0 = none.
  std::int32_t crash_server = -1;
  double crash_start_epoch = 0.0;
  double crash_end_epoch = 0.0;
  bool quality_gate = false;  // budgeted must stay within 10% of greedy
  bool chaos_gate = false;    // must degrade, recover, and converge
};

struct StrategyResult {
  std::string name;
  std::int64_t migrations = 0;
  std::int32_t max_migrations_per_epoch = 0;
  bool cap_ever_exceeded = false;
  std::int64_t forced_moves = 0;
  std::int32_t degraded_epochs = 0;
  std::int32_t recover_epochs = 0;
  bool converged = false;
  double final_objective = 0.0;
  /// max over sampled epochs of live objective / fresh-greedy objective;
  /// empty when no epoch was sampled (oracle_every = 0).
  std::optional<double> max_oracle_ratio;
  double run_ms = 0.0;
};

struct ScenarioResult {
  Scenario scenario;
  std::vector<StrategyResult> strategies;
  bool determinism_checked = false;
  bool determinism_identical = false;
};

constexpr double kEpochMs = 1000.0;

StrategyResult FromReport(const std::string& name,
                          const dia::ControlPlaneReport& report,
                          double run_ms) {
  StrategyResult r;
  r.name = name;
  r.migrations = report.total_migrations;
  r.max_migrations_per_epoch = report.max_migrations_per_epoch;
  r.cap_ever_exceeded = report.cap_ever_exceeded;
  r.forced_moves = report.total_forced_moves;
  r.degraded_epochs = report.degraded_epochs;
  r.recover_epochs = report.recover_epochs;
  r.converged = report.converged;
  r.final_objective = report.epochs.back().objective;
  for (const dia::ControlEpochReport& e : report.epochs) {
    if (e.oracle_objective > 0.0) {
      r.max_oracle_ratio = std::max(r.max_oracle_ratio.value_or(0.0),
                                    e.objective / e.oracle_objective);
    }
  }
  r.run_ms = run_ms;
  return r;
}

// The migration-cost ceiling: a fresh full greedy solve every epoch, with
// migrations counted as clients whose home changed between consecutive
// solves (arrivals and departures excluded — they move in any strategy).
StrategyResult RunGreedyReplay(const core::Problem& problem,
                               const data::ChurnTrace& trace) {
  Timer timer;
  StrategyResult r;
  r.name = "full-greedy";
  const auto num_clients = static_cast<std::size_t>(problem.num_clients());
  std::vector<char> member(num_clients, 0);
  std::vector<core::ClientIndex> members;
  for (std::int32_t c = 0; c < trace.initial_count; ++c) {
    member[static_cast<std::size_t>(c)] = 1;
    members.push_back(c);
  }
  double objective = 0.0;
  core::Assignment a =
      dia::FreshGreedyAssignment(problem, members, {}, &objective);
  for (const data::ChurnEpochEvents& events : trace.epochs) {
    const std::vector<char> prev_member = member;
    for (const std::int32_t c : events.departures) {
      member[static_cast<std::size_t>(c)] = 0;
    }
    for (const data::ChurnMove& move : events.moves) {
      member[static_cast<std::size_t>(move.from)] = 0;
      member[static_cast<std::size_t>(move.to)] = 1;
    }
    for (const std::int32_t c : events.arrivals) {
      member[static_cast<std::size_t>(c)] = 1;
    }
    members.clear();
    for (std::size_t c = 0; c < num_clients; ++c) {
      if (member[c] != 0) members.push_back(static_cast<core::ClientIndex>(c));
    }
    const core::Assignment next =
        dia::FreshGreedyAssignment(problem, members, {}, &objective);
    std::int32_t epoch_migrations = 0;
    for (std::size_t c = 0; c < num_clients; ++c) {
      if (prev_member[c] != 0 && member[c] != 0 &&
          next[static_cast<core::ClientIndex>(c)] !=
              a[static_cast<core::ClientIndex>(c)]) {
        ++epoch_migrations;
      }
    }
    r.migrations += epoch_migrations;
    r.max_migrations_per_epoch =
        std::max(r.max_migrations_per_epoch, epoch_migrations);
    a = next;
  }
  r.final_objective = objective;
  r.max_oracle_ratio = 1.0;
  r.run_ms = timer.ElapsedMillis();
  return r;
}

ScenarioResult RunScenario(const Scenario& sc, std::uint64_t seed,
                           bool check_determinism) {
  std::cout << "=== " << sc.name << ": " << sc.clients << " clients, "
            << sc.servers << " servers, " << sc.epochs << " epochs ===\n";
  Timer build;
  net::DistanceOracle oracle = [&] {
    if (sc.substrate == "meridian") {
      return net::DistanceOracle::FromMatrix(
          data::MakeNamedDataset("meridian", seed));
    }
    data::WaxmanParams substrate;
    substrate.num_nodes = sc.nodes;
    net::OracleOptions opt;
    opt.backend = net::OracleBackend::kRows;
    opt.seed = seed;
    return net::DistanceOracle::FromGraph(
        data::GenerateWaxmanTopology(substrate, seed), opt);
  }();
  const auto server_nodes = placement::KCenterFarthest(oracle, sc.servers);
  data::ChurnParams churn = data::ParseChurnSpec(sc.churn_spec);
  churn.epochs = sc.epochs;
  const data::ChurnTrace trace =
      data::GenerateChurnTrace(churn, sc.clients, oracle.size(), seed);
  const data::ChurnProblem instance =
      data::BuildChurnProblem(trace, oracle, server_nodes);
  std::cout << "  built " << trace.instances.size() << " instances (peak "
            << trace.peak_active << " active) in " << build.ElapsedMillis()
            << " ms\n";

  sim::FaultPlan plan;
  dia::ControlPlaneParams params;
  params.migration_cap = sc.migration_cap;
  params.hysteresis_epochs = 2;
  params.hysteresis_eps = sc.hysteresis_eps;
  params.oracle_every = sc.oracle_every;
  params.epoch_ms = kEpochMs;
  if (sc.crash_server >= 0) {
    plan.Crash(sc.crash_server, sc.crash_start_epoch * kEpochMs,
               sc.crash_end_epoch * kEpochMs);
    params.faults = &plan;
  }

  ScenarioResult result;
  result.scenario = sc;
  const dia::ControlPlane plane(instance.problem, trace, params);
  Timer budgeted_timer;
  const dia::ControlPlaneReport budgeted = plane.Run();
  result.strategies.push_back(
      FromReport("budgeted", budgeted, budgeted_timer.ElapsedMillis()));

  dia::ControlPlaneParams nohyst_params = params;
  nohyst_params.hysteresis_epochs = 1;
  const dia::ControlPlane nohyst_plane(instance.problem, trace, nohyst_params);
  Timer nohyst_timer;
  const dia::ControlPlaneReport nohyst = nohyst_plane.Run();
  result.strategies.push_back(
      FromReport("nohyst", nohyst, nohyst_timer.ElapsedMillis()));

  result.strategies.push_back(RunGreedyReplay(instance.problem, trace));

  if (check_determinism) {
    // The SLO machinery must not cost the determinism contract: the same
    // run at 1 and 4 threads has to be bit-identical, epoch by epoch.
    SetGlobalThreads(1);
    const dia::ControlPlaneReport serial = plane.Run();
    SetGlobalThreads(4);
    const dia::ControlPlaneReport wide = plane.Run();
    SetGlobalThreads(0);
    result.determinism_checked = true;
    result.determinism_identical =
        serial.final_assignment == wide.final_assignment &&
        serial.epochs.size() == wide.epochs.size();
    for (std::size_t i = 0;
         result.determinism_identical && i < serial.epochs.size(); ++i) {
      result.determinism_identical =
          serial.epochs[i].objective == wide.epochs[i].objective &&
          serial.epochs[i].migrations == wide.epochs[i].migrations;
    }
  }

  Table table({"strategy", "migrations", "max/epoch", "forced", "degraded",
               "recover", "final-d", "vs-greedy", "converged", "ms"});
  for (const StrategyResult& s : result.strategies) {
    table.Row()
        .Cell(s.name)
        .Cell(s.migrations)
        .Cell(static_cast<std::int64_t>(s.max_migrations_per_epoch))
        .Cell(s.forced_moves)
        .Cell(static_cast<std::int64_t>(s.degraded_epochs))
        .Cell(static_cast<std::int64_t>(s.recover_epochs))
        .Cell(s.final_objective)
        .Cell(s.max_oracle_ratio ? FormatDouble(*s.max_oracle_ratio) : "-")
        .Cell(s.converged ? "yes" : "no")
        .Cell(s.run_ms);
  }
  table.Print(std::cout);
  return result;
}

void WriteJson(const std::string& path, std::uint64_t seed,
               const std::vector<ScenarioResult>& results) {
  std::ofstream os(path);
  using obs::internal::AppendJsonNumber;
  using obs::internal::AppendJsonString;
  os << "{\n  \"seed\": " << seed << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    os << "    {\"name\": ";
    AppendJsonString(os, r.scenario.name);
    os << ", \"clients\": " << r.scenario.clients
       << ", \"servers\": " << r.scenario.servers
       << ", \"epochs\": " << r.scenario.epochs
       << ", \"migration_cap\": " << r.scenario.migration_cap << ",\n";
    if (r.determinism_checked) {
      os << "     \"threads_1_vs_4_identical\": "
         << (r.determinism_identical ? "true" : "false") << ",\n";
    }
    os << "     \"strategies\": [\n";
    for (std::size_t j = 0; j < r.strategies.size(); ++j) {
      const StrategyResult& s = r.strategies[j];
      os << "      {\"name\": ";
      AppendJsonString(os, s.name);
      os << ", \"migrations\": " << s.migrations
         << ", \"max_migrations_per_epoch\": " << s.max_migrations_per_epoch
         << ", \"cap_ever_exceeded\": "
         << (s.cap_ever_exceeded ? "true" : "false")
         << ", \"forced_moves\": " << s.forced_moves
         << ",\n       \"degraded_epochs\": " << s.degraded_epochs
         << ", \"recover_epochs\": " << s.recover_epochs
         << ", \"converged\": " << (s.converged ? "true" : "false")
         << ", \"final_objective\": ";
      AppendJsonNumber(os, s.final_objective);
      os << ", \"max_vs_greedy\": ";
      if (s.max_oracle_ratio) {
        AppendJsonNumber(os, *s.max_oracle_ratio);
      } else {
        os << "null";
      }
      os << ", \"run_ms\": ";
      AppendJsonNumber(os, s.run_ms);
      os << "}" << (j + 1 < r.strategies.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"scale", "seed", "json-out"});
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2011));
  const std::string scale = flags.GetString("scale", "committed");

  std::vector<Scenario> scenarios;
  if (scale == "small") {
    Scenario s;
    s.name = "waxman-churn-small";
    s.substrate = "waxman";
    s.nodes = 300;
    s.clients = 500;
    s.servers = 8;
    s.epochs = 12;
    s.churn_spec = "arrive@8; depart@0.02; move@0.01";
    s.migration_cap = 8;
    s.oracle_every = 3;
    s.quality_gate = true;
    scenarios.push_back(s);
    Scenario chaos;
    chaos.name = "chaos-small";
    chaos.substrate = "waxman";
    chaos.nodes = 300;
    chaos.clients = 400;
    chaos.servers = 8;
    chaos.epochs = 16;
    chaos.churn_spec = "arrive@8; depart@0.02; flash@3-5:x6; until@10";
    chaos.migration_cap = 8;
    chaos.oracle_every = 0;
    chaos.crash_server = 1;
    chaos.crash_start_epoch = 4.5;
    chaos.crash_end_epoch = 8.0;
    chaos.chaos_gate = true;
    scenarios.push_back(chaos);
  } else if (scale == "committed") {
    Scenario waxman;
    waxman.name = "waxman-churn-10k";
    waxman.substrate = "waxman";
    waxman.nodes = 2000;
    waxman.clients = 10000;
    waxman.servers = 16;
    waxman.epochs = 50;
    waxman.churn_spec = "arrive@60; depart@0.004; move@0.002";
    waxman.quality_gate = true;
    scenarios.push_back(waxman);

    Scenario meridian = waxman;
    meridian.name = "meridian-churn-10k";
    meridian.substrate = "meridian";
    scenarios.push_back(meridian);

    Scenario large;
    large.name = "waxman-churn-100k";
    large.substrate = "waxman";
    large.nodes = 5000;
    large.clients = 100000;
    large.servers = 32;
    large.epochs = 20;
    large.churn_spec = "arrive@300; depart@0.002; move@0.001";
    large.migration_cap = 64;
    large.oracle_every = 10;
    scenarios.push_back(large);

    Scenario chaos;
    chaos.name = "chaos-flash-crash";
    chaos.substrate = "waxman";
    chaos.nodes = 2000;
    chaos.clients = 10000;
    chaos.servers = 16;
    chaos.epochs = 40;
    chaos.churn_spec = "arrive@60; depart@0.004; flash@8-12:x8; until@25";
    chaos.oracle_every = 0;
    chaos.crash_server = 2;
    chaos.crash_start_epoch = 10.5;
    chaos.crash_end_epoch = 16.0;
    chaos.chaos_gate = true;
    scenarios.push_back(chaos);
  } else {
    std::cerr << "unknown --scale '" << scale
              << "' (expected small|committed)\n";
    return 2;
  }

  std::vector<ScenarioResult> results;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    results.push_back(RunScenario(scenarios[i], seed, i == 0));
  }

  bool ok = true;
  for (const ScenarioResult& r : results) {
    for (const StrategyResult& s : r.strategies) {
      if (s.name == "full-greedy") continue;
      ok &= benchutil::CheckShape(
          !s.cap_ever_exceeded && s.max_migrations_per_epoch <=
                                      r.scenario.migration_cap,
          r.scenario.name + "/" + s.name + ": migration cap honored in "
          "every epoch");
    }
    if (r.scenario.quality_gate) {
      const StrategyResult& budgeted = r.strategies.front();
      const double ratio = budgeted.max_oracle_ratio.value_or(
          std::numeric_limits<double>::infinity());
      ok &= benchutil::CheckShape(
          ratio <= 1.10,
          r.scenario.name + ": budgeted plane within 10% of repeated full "
          "greedy (max ratio " + std::to_string(ratio) + ")");
    }
    if (r.scenario.chaos_gate) {
      const StrategyResult& budgeted = r.strategies.front();
      ok &= benchutil::CheckShape(
          budgeted.degraded_epochs > 0,
          r.scenario.name + ": chaos actually degraded some epochs");
      ok &= benchutil::CheckShape(
          budgeted.converged,
          r.scenario.name + ": plane recovered and converged after chaos");
    }
    if (r.determinism_checked) {
      ok &= benchutil::CheckShape(
          r.determinism_identical,
          r.scenario.name + ": bit-identical at 1 and 4 threads");
    }
  }

  const std::string json_out = flags.GetString("json-out", "");
  if (!json_out.empty()) {
    WriteJson(json_out, seed, results);
    std::cout << "wrote " << json_out << "\n";
  }
  return ok ? 0 : 1;
}
