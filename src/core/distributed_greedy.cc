#include "core/distributed_greedy.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "core/capacity.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {
constexpr double kEps = 1e-9;
}

std::vector<double> EccentricitiesExcluding(const Problem& problem,
                                            const Assignment& a,
                                            ClientIndex exclude) {
  // The eccentricity fold skips unassigned clients, and max is exact, so
  // unassigning `exclude` in a copy gives the same bits as folding around
  // it — through the view's assigned-diagonal fold, never a row.
  Assignment rest = a;
  rest[exclude] = kUnassigned;
  return ServerEccentricities(problem, rest);
}

double PathLengthIfMoved(const Problem& problem, ClientIndex c,
                         ServerIndex candidate,
                         std::span<const double> far_excl) {
  const double d = problem.client_block().cs(c, candidate);
  // Self path 2d: c -> candidate -> candidate -> c; the fold adds the
  // best path through a used server, (d + row[t]) + far[t] — the same
  // association the former serial loop carried.
  return std::max(2.0 * d,
                  simd::MaxPlusReduce(problem.ss_row(candidate),
                                      far_excl.data(), far_excl.size(), d));
}

DgResult DistributedGreedyAssign(const Problem& problem,
                                 const AssignOptions& options,
                                 const Assignment* initial) {
  DIACA_OBS_SPAN("core.dg.solve");
  DgResult result;
  if (initial != nullptr) {
    DIACA_CHECK_MSG(initial->size() ==
                        static_cast<std::size_t>(problem.num_clients()),
                    "initial assignment size mismatch");
    DIACA_CHECK_MSG(initial->IsComplete(), "initial assignment incomplete");
    result.assignment = *initial;
  } else {
    result.assignment = NearestServerAssign(problem, options);
  }
  Assignment& a = result.assignment;

  std::vector<std::int32_t> load(static_cast<std::size_t>(problem.num_servers()), 0);
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    ++load[static_cast<std::size_t>(a[c])];
  }
  if (options.capacitated()) {
    CheckCapacityFeasible(problem, options);
    for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
      DIACA_CHECK_MSG(load[static_cast<std::size_t>(s)] <=
                          options.CapacityOf(s),
                      "initial assignment violates capacity of server " << s);
    }
  }

  double max_len = MaxInteractionPathLength(problem, a);
  std::int32_t mod_count = 0;
  // Safety valve: D is non-increasing and each round must strictly reduce
  // it to continue, but guard against pathological float plateaus anyway.
  const std::int64_t mod_limit =
      64LL * (problem.num_clients() + problem.num_servers() + 64);

  for (;;) {
    DIACA_OBS_SPAN("core.dg.round");
    ++result.rounds;
    DIACA_OBS_COUNT("core.dg.rounds", 1);
    const double round_start_len = max_len;
    const std::vector<ClientIndex> critical = CriticalClients(problem, a, kEps);
    DIACA_OBS_OBSERVE("core.dg.critical_set_size",
                      static_cast<double>(critical.size()));
    for (ClientIndex c : critical) {
      // The assignment may have changed since the critical set was taken;
      // re-check that c still lies on a longest path.
      const ServerIndex current = a[c];
      {
        const std::vector<double> far = ServerEccentricities(problem, a);
        const double d = problem.client_block().cs(c, current);
        const double via_c =
            std::max(2.0 * d, d + MaxServerReach(problem, far, current));
        if (via_c < max_len - kEps) continue;
      }
      const std::vector<double> far_excl =
          EccentricitiesExcluding(problem, a, c);
      // Candidate servers are scored independently (O(|S|) each), so the
      // scan fans out across the pool; the deterministic min-reduce keeps
      // the lowest-index server on ties, exactly like the serial ascending
      // scan with a strict `<`.
      const ThreadPool::Extremum best_move = GlobalPool().ParallelMinReduce(
          0, problem.num_servers(), 4, [&](std::int64_t si) {
            const auto s = static_cast<ServerIndex>(si);
            if (s == current) return std::numeric_limits<double>::infinity();
            if (options.capacitated() &&
                load[static_cast<std::size_t>(s)] >= options.CapacityOf(s)) {
              return std::numeric_limits<double>::infinity();
            }
            return PathLengthIfMoved(problem, c, s, far_excl);
          });
      const double best_len = best_move.value;
      const ServerIndex best_server =
          best_move.index < 0 ? kUnassigned
                              : static_cast<ServerIndex>(best_move.index);
      if (best_server == kUnassigned || best_len >= max_len - kEps) continue;

      // Reassign c. Paths not involving c cannot grow, so D is
      // non-increasing by construction.
      --load[static_cast<std::size_t>(current)];
      ++load[static_cast<std::size_t>(best_server)];
      a[c] = best_server;
      const double new_len = MaxInteractionPathLength(problem, a);
      DIACA_CHECK_MSG(new_len <= max_len + kEps,
                      "modification increased the objective");
      max_len = new_len;
      ++mod_count;
      DIACA_OBS_COUNT("core.dg.modifications", 1);
      result.modifications.push_back(
          {mod_count, c, current, best_server, max_len});
      DIACA_CHECK_MSG(mod_count <= mod_limit, "modification limit exceeded");
    }
    if (max_len >= round_start_len - kEps) break;  // no strict reduction
  }
  result.max_len = max_len;
  return result;
}

}  // namespace diaca::core
