#include "core/sync_schedule.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "core/metrics.h"

namespace diaca::core {

SyncSchedule ComputeSyncSchedule(const Problem& problem, const Assignment& a) {
  DIACA_CHECK_MSG(a.IsComplete(), "schedule requires a complete assignment");
  const std::vector<double> far = ServerEccentricities(problem, a);
  const double max_path = MaxPathFromEccentricities(problem, far);

  SyncSchedule schedule;
  schedule.delta = max_path;
  schedule.server_offset.resize(static_cast<std::size_t>(problem.num_servers()));
  // Longest ingress distance to s: max over clients c' of
  // d(c',A(c')) + d(A(c'),s) = max over used servers t of d(s,t) + far(t),
  // the reach of s (f + d == d + f bit for bit).
  for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
    schedule.server_offset[static_cast<std::size_t>(s)] =
        max_path - MaxServerReach(problem, far, s);
  }
  return schedule;
}

SyncFeasibility CheckSyncSchedule(const Problem& problem, const Assignment& a,
                                  const SyncSchedule& schedule,
                                  double tolerance) {
  DIACA_CHECK(a.IsComplete());
  DIACA_CHECK(schedule.server_offset.size() ==
              static_cast<std::size_t>(problem.num_servers()));
  SyncFeasibility result;
  result.worst_operation_slack = -std::numeric_limits<double>::infinity();
  result.worst_update_slack = -std::numeric_limits<double>::infinity();

  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    const ServerIndex home = a[c];
    const double d_home = problem.client_block().cs(c, home);
    // Constraint (i): operation from c reaches every server s before the
    // server's simulation time passes t + δ.
    const double* row = problem.ss_row(home);
    for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
      const double slack = d_home + row[s] +
                           schedule.server_offset[static_cast<std::size_t>(s)] -
                           schedule.delta;
      result.worst_operation_slack =
          std::max(result.worst_operation_slack, slack);
    }
    // Constraint (ii): the state update from c's server arrives before c's
    // simulation time reaches the execution time. Δc,s = −Δs,c.
    const double slack =
        d_home - schedule.server_offset[static_cast<std::size_t>(home)];
    result.worst_update_slack = std::max(result.worst_update_slack, slack);
  }
  result.feasible = result.worst_operation_slack <= tolerance &&
                    result.worst_update_slack <= tolerance;
  return result;
}

double InteractionTime(const SyncSchedule& schedule) { return schedule.delta; }

}  // namespace diaca::core
