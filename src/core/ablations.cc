#include "core/ablations.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "core/capacity.h"
#include "core/distributed_greedy.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"

namespace diaca::core {

Assignment BestSingleServerAssign(const Problem& problem,
                                  const AssignOptions& options) {
  if (options.capacitated()) {
    bool some_server_fits = false;
    for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
      some_server_fits |= options.CapacityOf(s) >= problem.num_clients();
    }
    if (!some_server_fits) {
      throw Error("no single server can hold all clients under the capacity");
    }
  }
  ServerIndex best = kUnassigned;
  double best_far = std::numeric_limits<double>::infinity();
  for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
    if (options.capacitated() &&
        options.CapacityOf(s) < problem.num_clients()) {
      continue;
    }
    double far = 0.0;
    for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
      far = std::max(far, problem.client_block().cs(c, s));
    }
    if (far < best_far) {
      best_far = far;
      best = s;
    }
  }
  DIACA_CHECK(best != kUnassigned);
  Assignment a(static_cast<std::size_t>(problem.num_clients()));
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) a[c] = best;
  return a;
}

Assignment SingleClientGreedyAssign(const Problem& problem,
                                    const AssignOptions& options) {
  CheckCapacityFeasible(problem, options);
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();

  Assignment a(static_cast<std::size_t>(num_clients));
  std::vector<double> far(static_cast<std::size_t>(num_servers), -1.0);
  std::vector<std::int32_t> load(static_cast<std::size_t>(num_servers), 0);
  double max_len = 0.0;
  for (std::int32_t assigned = 0; assigned < num_clients; ++assigned) {
    double best_len = std::numeric_limits<double>::infinity();
    ClientIndex best_client = kUnassigned;
    ServerIndex best_server = kUnassigned;
    for (ServerIndex s = 0; s < num_servers; ++s) {
      if (options.capacitated() &&
          load[static_cast<std::size_t>(s)] >= options.CapacityOf(s)) {
        continue;
      }
      const double reach = MaxServerReach(problem, far, s);
      for (ClientIndex c = 0; c < num_clients; ++c) {
        if (a[c] != kUnassigned) continue;
        const double d = problem.client_block().cs(c, s);
        const double len =
            std::max({2.0 * d, assigned > 0 ? d + reach : 0.0, max_len});
        if (len < best_len) {
          best_len = len;
          best_client = c;
          best_server = s;
        }
      }
    }
    DIACA_CHECK(best_client != kUnassigned);
    a[best_client] = best_server;
    far[static_cast<std::size_t>(best_server)] =
        std::max(far[static_cast<std::size_t>(best_server)],
                 problem.client_block().cs(best_client, best_server));
    ++load[static_cast<std::size_t>(best_server)];
    max_len = best_len;
  }
  return a;
}

LocalSearchResult FullLocalSearchAssign(const Problem& problem,
                                        const LocalSearchOptions& options,
                                        const Assignment* initial) {
  CheckCapacityFeasible(problem, options.assign);
  const Assignment seed = initial != nullptr
                              ? *initial
                              : NearestServerAssign(problem, options.assign);
  DIACA_CHECK(seed.IsComplete());
  IncrementalEvaluator evaluator(problem, seed);
  const std::int32_t num_servers = problem.num_servers();

  LocalSearchResult result;
  double current =
      MaxPathFromEccentricities(problem, evaluator.Eccentricities());
  std::vector<double> far_excl;
  std::vector<double> rest_if_top_leaves(static_cast<std::size_t>(num_servers));
  while (result.moves < options.max_moves) {
    const std::span<const double> far = evaluator.Eccentricities();
    far_excl.assign(far.begin(), far.end());
    // D over paths not touching server t's head (far(t) -> far without
    // it): shared by every client attaining far(t).
    for (ServerIndex t = 0; t < num_servers; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const ClientIndex head = evaluator.Farthest(t).second;
      if (head != kUnassigned) far_excl[ti] = evaluator.FarWithout(head);
      rest_if_top_leaves[ti] = MaxPathFromEccentricities(problem, far_excl);
      far_excl[ti] = far[ti];
    }

    double best_len = current;
    ClientIndex best_client = kUnassigned;
    ServerIndex best_server = kUnassigned;
    for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
      const ServerIndex home = evaluator.ServerOf(c);
      const auto hi = static_cast<std::size_t>(home);
      const bool is_top = problem.client_block().cs(c, home) >= far[hi];
      // Eccentricities with c removed (only c's home entry can change).
      far_excl[hi] = evaluator.FarWithout(c);
      const double rest = is_top ? rest_if_top_leaves[hi] : current;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        if (s == home) continue;
        if (options.assign.capacitated() &&
            evaluator.LoadOf(s) >= options.assign.CapacityOf(s)) {
          continue;
        }
        ++result.moves_evaluated;
        const double len = std::max(
            rest, PathLengthIfMoved(problem, c, s, far_excl));
        if (len < best_len - 1e-9) {
          best_len = len;
          best_client = c;
          best_server = s;
        }
      }
      far_excl[hi] = far[hi];  // restore patch
    }
    if (best_client == kUnassigned) {
      result.reached_local_optimum = true;
      break;
    }
    evaluator.ApplyMove(best_client, best_server);
    current = best_len;
    ++result.moves;
  }
  result.assignment = evaluator.assignment();
  result.max_len =
      MaxPathFromEccentricities(problem, evaluator.Eccentricities());
  DIACA_CHECK(std::abs(result.max_len - current) < 1e-6);
  return result;
}

SaResult SimulatedAnnealingAssign(const Problem& problem,
                                  const SaParams& params, Rng& rng,
                                  const Assignment* initial) {
  CheckCapacityFeasible(problem, params.assign);
  DIACA_CHECK(params.iterations > 0);
  DIACA_CHECK(params.initial_temperature_fraction > 0.0);
  DIACA_CHECK(params.final_temperature_fraction > 0.0 &&
              params.final_temperature_fraction <= 1.0);
  const std::int32_t num_servers = problem.num_servers();

  const Assignment seed = initial != nullptr
                              ? *initial
                              : NearestServerAssign(problem, params.assign);
  DIACA_CHECK(seed.IsComplete());
  IncrementalEvaluator evaluator(problem, seed);

  SaResult result;
  result.assignment = seed;
  result.max_len = evaluator.CurrentMax();
  double current_len = result.max_len;

  const double t0 = std::max(current_len, 1.0) *
                    params.initial_temperature_fraction;
  const double cooling =
      std::pow(params.final_temperature_fraction,
               1.0 / static_cast<double>(params.iterations));
  double temperature = t0;
  for (std::int64_t iter = 0; iter < params.iterations; ++iter) {
    temperature *= cooling;
    const auto c = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(problem.num_clients())));
    auto s = static_cast<ServerIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_servers - 1)));
    if (s >= evaluator.ServerOf(c)) ++s;  // uniform over other servers
    if (params.assign.capacitated() &&
        evaluator.LoadOf(s) >= params.assign.CapacityOf(s)) {
      continue;
    }
    const double candidate_len = evaluator.EvaluateMove(c, s);
    const double delta = candidate_len - current_len;
    const bool accept =
        delta <= 0.0 ||
        rng.NextDouble() < std::exp(-delta / std::max(temperature, 1e-12));
    if (accept) {
      current_len = evaluator.ApplyMove(c, s);
      ++result.accepted_moves;
      if (current_len < result.max_len) {
        result.max_len = current_len;
        result.assignment = evaluator.assignment();
      }
    }
  }
  return result;
}

}  // namespace diaca::core
