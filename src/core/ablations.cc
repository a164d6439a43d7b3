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

namespace {

/// Top-2 client distances per server (for O(1) "eccentricity excluding one
/// client" queries).
struct TopTwo {
  double first = -1.0;   // largest distance
  std::int32_t first_count = 0;
  double second = -1.0;  // largest distance strictly below `first`
};

std::vector<TopTwo> ComputeTopTwo(const Problem& problem, const Assignment& a) {
  std::vector<TopTwo> tops(static_cast<std::size_t>(problem.num_servers()));
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    TopTwo& top = tops[static_cast<std::size_t>(a[c])];
    const double d = problem.client_block().cs(c, a[c]);
    if (d > top.first) {
      top.second = top.first;
      top.first = d;
      top.first_count = 1;
    } else if (d == top.first) {
      ++top.first_count;
    } else if (d > top.second) {
      top.second = d;
    }
  }
  return tops;
}

}  // namespace

LocalSearchResult FullLocalSearchAssign(const Problem& problem,
                                        const LocalSearchOptions& options,
                                        const Assignment* initial) {
  CheckCapacityFeasible(problem, options.assign);
  LocalSearchResult result;
  result.assignment = initial != nullptr
                          ? *initial
                          : NearestServerAssign(problem, options.assign);
  DIACA_CHECK(result.assignment.IsComplete());
  Assignment& a = result.assignment;
  const std::int32_t num_servers = problem.num_servers();

  std::vector<std::int32_t> load(static_cast<std::size_t>(num_servers), 0);
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    ++load[static_cast<std::size_t>(a[c])];
  }

  double current = MaxInteractionPathLength(problem, a);
  while (result.moves < options.max_moves) {
    const std::vector<TopTwo> tops = ComputeTopTwo(problem, a);
    std::vector<double> far(static_cast<std::size_t>(num_servers));
    for (ServerIndex s = 0; s < num_servers; ++s) {
      far[static_cast<std::size_t>(s)] = tops[static_cast<std::size_t>(s)].first;
    }
    // D over paths not touching server t's top client (far(t) -> second):
    // shared by every client attaining far(t).
    std::vector<double> rest_if_top_leaves(
        static_cast<std::size_t>(num_servers));
    for (ServerIndex t = 0; t < num_servers; ++t) {
      std::vector<double> g = far;
      const TopTwo& top = tops[static_cast<std::size_t>(t)];
      g[static_cast<std::size_t>(t)] =
          top.first_count > 1 ? top.first : top.second;
      rest_if_top_leaves[static_cast<std::size_t>(t)] =
          MaxPathFromEccentricities(problem, g);
    }

    double best_len = current;
    ClientIndex best_client = kUnassigned;
    ServerIndex best_server = kUnassigned;
    std::vector<double> far_excl = far;  // patched per client below
    for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
      const ServerIndex home = a[c];
      const TopTwo& top = tops[static_cast<std::size_t>(home)];
      const double d_home = problem.client_block().cs(c, home);
      const bool is_top = d_home >= top.first;
      // Eccentricities with c removed (only c's home entry can change).
      const double home_far_excl =
          is_top ? (top.first_count > 1 ? top.first : top.second) : top.first;
      far_excl[static_cast<std::size_t>(home)] = home_far_excl;
      const double rest = is_top ? rest_if_top_leaves[static_cast<std::size_t>(home)]
                                 : current;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        if (s == home) continue;
        if (options.assign.capacitated() &&
            load[static_cast<std::size_t>(s)] >=
                options.assign.CapacityOf(s)) {
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
      far_excl[static_cast<std::size_t>(home)] =
          far[static_cast<std::size_t>(home)];  // restore patch
    }
    if (best_client == kUnassigned) {
      result.reached_local_optimum = true;
      break;
    }
    --load[static_cast<std::size_t>(a[best_client])];
    ++load[static_cast<std::size_t>(best_server)];
    a[best_client] = best_server;
    current = best_len;
    ++result.moves;
  }
  result.max_len = MaxInteractionPathLength(problem, a);
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
