// Extension experiment (§VI): live reconfiguration of a running DIA.
// Clients join a running session in waves; each wave triggers an epoch
// with an incrementally repaired assignment (Distributed-Greedy seeded by
// the live one) and a fresh synchronization schedule. We measure the
// transition cost — transient divergence probes, timewarp stragglers,
// duplicate deliveries from the handover overlap — against churn
// intensity, and verify the session always converges and ends at the
// same interactivity a from-scratch assignment would give.
//
//   bench_reconfiguration [--nodes=100] [--servers=4] [--joiners=30]
//                         [--duration-ms=8000] [--seed=S]
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_util/experiment.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/distributed_greedy.h"
#include "core/metrics.h"
#include "data/synthetic.h"
#include "dia/dynamic_session.h"
#include "placement/placement.h"

namespace {
using namespace diaca;
}

int main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"nodes", "servers", "joiners", "duration-ms", "seed"});
  const auto nodes = static_cast<std::int32_t>(flags.GetInt("nodes", 100));
  const auto num_servers = static_cast<std::int32_t>(flags.GetInt("servers", 4));
  const auto joiners = static_cast<std::int32_t>(flags.GetInt("joiners", 30));
  const double duration = flags.GetDouble("duration-ms", 8000.0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2011));

  Timer timer;
  data::SyntheticParams world;
  world.num_nodes = nodes;
  world.num_clusters = 5;
  const net::LatencyMatrix matrix = data::GenerateSyntheticInternet(world, seed);
  const auto server_nodes = placement::KCenterGreedy(matrix, num_servers);
  const core::Problem problem =
      core::Problem::WithClientsEverywhere(matrix, server_nodes);

  // Shuffled split into initial members and joiners.
  std::vector<core::ClientIndex> all(static_cast<std::size_t>(nodes));
  std::iota(all.begin(), all.end(), 0);
  Rng rng(seed + 1);
  rng.Shuffle(std::span<core::ClientIndex>(all));
  const std::vector<core::ClientIndex> initial(
      all.begin(), all.end() - joiners);
  const std::vector<core::ClientIndex> pool(all.end() - joiners, all.end());

  std::cout << "Live reconfiguration under churn (" << nodes << " nodes, "
            << num_servers << " servers, " << joiners
            << " joiners over the first half of a "
            << duration / 1000.0 << " s session)\n";
  Table table({"join waves", "epochs", "transient divergence", "stragglers",
               "dup deliveries", "final delta (ms)", "converged"});

  bool always_converged = true;
  double low_churn_divergence = 0.0;
  double high_churn_divergence = 0.0;
  double final_delta = 0.0;
  for (std::int32_t waves : {1, 5, 15}) {
    std::vector<dia::MembershipEvent> joins;
    for (std::int32_t j = 0; j < joiners; ++j) {
      const std::int32_t wave = j % waves;
      joins.push_back({500.0 + (duration / 2.0 - 500.0) * wave /
                                   std::max(1, waves - 1),
                       pool[static_cast<std::size_t>(j)]});
    }
    std::sort(joins.begin(), joins.end(),
              [](const dia::MembershipEvent& a, const dia::MembershipEvent& b) {
                return a.at_ms < b.at_ms;
              });
    // Collapse same-time joins into shared epochs? The session builds one
    // epoch per event; same-time events are fine (zero-length epochs).
    dia::DynamicSessionParams params;
    params.workload.duration_ms = duration;
    params.workload.ops_per_second = 1.0;
    params.seed = seed + 2;
    const dia::DynamicDiaSession session(matrix, problem, initial, joins,
                                         params);
    const dia::DynamicSessionReport report = session.Run();
    const double divergence =
        report.consistency_samples == 0
            ? 0.0
            : static_cast<double>(report.consistency_mismatches) /
                  static_cast<double>(report.consistency_samples);
    table.Row()
        .Cell(static_cast<std::int64_t>(waves))
        .Cell(static_cast<std::int64_t>(report.epochs))
        .Cell(FormatDouble(divergence * 100.0, 1) + "%")
        .Cell(static_cast<std::int64_t>(report.late_server_executions))
        .Cell(static_cast<std::int64_t>(report.duplicate_deliveries))
        .Cell(report.final_epoch_delta, 1)
        .Cell(report.final_states_converged ? "yes" : "NO");
    always_converged &= report.final_states_converged;
    if (waves == 1) low_churn_divergence = divergence;
    if (waves == 15) high_churn_divergence = divergence;
    final_delta = report.final_epoch_delta;
  }
  table.Print(std::cout);

  // Reference: what a from-scratch assignment over the final member set
  // achieves (the dynamic path must not end up materially worse).
  const core::Assignment from_scratch =
      core::DistributedGreedyAssign(problem).assignment;
  const double scratch_delta =
      core::MaxInteractionPathLength(problem, from_scratch);
  std::cout << "from-scratch Distributed-Greedy over the final membership: "
            << FormatDouble(scratch_delta, 1) << " ms\n";

  benchutil::CheckShape(always_converged,
                        "every churn level converges to identical replica "
                        "histories");
  benchutil::CheckShape(low_churn_divergence <= high_churn_divergence + 0.02,
                        "transient divergence grows (weakly) with churn "
                        "intensity");
  benchutil::CheckShape(final_delta <= scratch_delta * 1.2 + 1e-9,
                        "incremental epoch repair ends within 20% of a "
                        "from-scratch assignment");

  // Full churn: interleaved joins and leaves.
  {
    std::vector<dia::MembershipEvent> events;
    double t = 500.0;
    for (std::int32_t j = 0; j < joiners; ++j) {
      events.push_back({t, pool[static_cast<std::size_t>(j)],
                        dia::MembershipKind::kJoin});
      t += 120.0;
      if (j % 3 == 2) {
        // Every third joiner churns straight back out.
        events.push_back({t, pool[static_cast<std::size_t>(j)],
                          dia::MembershipKind::kLeave});
        t += 120.0;
      }
    }
    dia::DynamicSessionParams params;
    params.workload.duration_ms = duration;
    params.workload.ops_per_second = 1.0;
    params.seed = seed + 3;
    const dia::DynamicDiaSession session(matrix, problem, initial, events,
                                         params);
    const dia::DynamicSessionReport report = session.Run();
    std::cout << "\ninterleaved join/leave churn: " << report.epochs
              << " epochs, "
              << FormatDouble(report.consistency_samples == 0
                                  ? 0.0
                                  : 100.0 *
                                        static_cast<double>(
                                            report.consistency_mismatches) /
                                        static_cast<double>(
                                            report.consistency_samples),
                              1)
              << "% transient divergence, converged="
              << (report.final_states_converged ? "yes" : "NO") << "\n";
    benchutil::CheckShape(report.final_states_converged,
                          "interleaved join/leave churn still converges");
  }

  // Server-failure failover: kill servers one by one mid-session.
  {
    std::vector<dia::ServerFailure> failures;
    for (core::ServerIndex s = 0; s + 1 < num_servers; ++s) {
      failures.push_back(
          {duration * 0.25 + duration * 0.5 * s / std::max(1, num_servers - 1),
           s});
    }
    dia::DynamicSessionParams params;
    params.workload.duration_ms = duration;
    params.workload.ops_per_second = 1.0;
    params.seed = seed + 4;
    const dia::DynamicDiaSession session(matrix, problem, initial, {},
                                         params, failures);
    const dia::DynamicSessionReport report = session.Run();
    std::cout << "cascading failures down to 1 server: " << report.epochs
              << " epochs, "
              << report.ops_ignored_by_dead_servers
              << " ops hit dead servers, "
              << report.snapshot_ops_transferred
              << " snapshot ops for failover resync, final delta "
              << FormatDouble(report.final_epoch_delta, 1)
              << " ms, converged="
              << (report.final_states_converged ? "yes" : "NO") << "\n";
    benchutil::CheckShape(report.final_states_converged,
                          "cascading server failures never lose history "
                          "(failover snapshots close the delivery gap)");
  }
  std::cout << "\ntotal time: " << FormatDouble(timer.ElapsedSeconds(), 1)
            << "s\n";
  return 0;
}
