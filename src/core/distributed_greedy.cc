#include "core/distributed_greedy.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "core/capacity.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {
constexpr double kEps = 1e-9;
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
  if (initial != nullptr) {
    DIACA_CHECK_MSG(initial->size() ==
                        static_cast<std::size_t>(problem.num_clients()),
                    "initial assignment size mismatch");
    DIACA_CHECK_MSG(initial->IsComplete(), "initial assignment incomplete");
  }
  // The evaluator keeps far(s) and each server's top two, so a critical
  // client's re-check, its far-without-c and every move cost O(|S|)
  // instead of a fold over all clients.
  IncrementalEvaluator evaluator(
      problem, initial != nullptr ? *initial
                                  : NearestServerAssign(problem, options));
  if (options.capacitated()) {
    CheckCapacityFeasible(problem, options);
    for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
      DIACA_CHECK_MSG(evaluator.LoadOf(s) <= options.CapacityOf(s),
                      "initial assignment violates capacity of server " << s);
    }
  }

  // D is always the pair fold over the evaluator's exact far(s), the
  // association MaxInteractionPathLength uses; CurrentMax() may sum the
  // maximal pair the other way and differ in the last bit.
  double max_len =
      MaxPathFromEccentricities(problem, evaluator.Eccentricities());
  DgResult result;
  std::int32_t mod_count = 0;
  // Safety valve: D is non-increasing and each round must strictly reduce
  // it to continue, but guard against pathological float plateaus anyway.
  const std::int64_t mod_limit =
      64LL * (problem.num_clients() + problem.num_servers() + 64);

  std::vector<double> far_excl;
  for (;;) {
    DIACA_OBS_SPAN("core.dg.round");
    ++result.rounds;
    DIACA_OBS_COUNT("core.dg.rounds", 1);
    const double round_start_len = max_len;
    const std::vector<ClientIndex> critical =
        CriticalClients(problem, evaluator.assignment(), kEps);
    DIACA_OBS_OBSERVE("core.dg.critical_set_size",
                      static_cast<double>(critical.size()));
    for (ClientIndex c : critical) {
      // The assignment may have changed since the critical set was taken;
      // re-check that c still lies on a longest path.
      const ServerIndex current = evaluator.ServerOf(c);
      const std::span<const double> far = evaluator.Eccentricities();
      const double d = problem.client_block().cs(c, current);
      const double via_c =
          std::max(2.0 * d, d + MaxServerReach(problem, far, current));
      if (via_c < max_len - kEps) continue;
      far_excl.assign(far.begin(), far.end());
      far_excl[static_cast<std::size_t>(current)] = evaluator.FarWithout(c);
      // Candidate servers are scored independently (O(|S|) each), so the
      // scan fans out across the pool; the deterministic min-reduce keeps
      // the lowest-index server on ties, exactly like the serial ascending
      // scan with a strict `<`.
      const ThreadPool::Extremum best_move = GlobalPool().ParallelMinReduce(
          0, problem.num_servers(), 4, [&](std::int64_t si) {
            const auto s = static_cast<ServerIndex>(si);
            if (s == current) return std::numeric_limits<double>::infinity();
            if (options.capacitated() &&
                evaluator.LoadOf(s) >= options.CapacityOf(s)) {
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
      evaluator.ApplyMove(c, best_server);
      const double new_len =
          MaxPathFromEccentricities(problem, evaluator.Eccentricities());
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
  result.assignment = evaluator.assignment();
  result.max_len = max_len;
  return result;
}

}  // namespace diaca::core
