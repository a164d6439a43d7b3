// Nearest-Server Assignment (§IV-A).
//
// Each client picks the server with the lowest latency to itself. Under
// metric latencies this is a 3-approximation of the optimal maximum
// interaction path length (Theorem 2), and the bound is tight (Fig. 4).
// With a capacity limit, a client falls back to its 2nd, 3rd, ... nearest
// server until it finds one with room (§IV-E); clients choose in client-
// index order.
#pragma once

#include <limits>
#include <vector>

#include "core/problem.h"
#include "core/types.h"

namespace diaca::core {

/// Throws diaca::Error if the capacity makes the instance infeasible
/// (capacity * |S| < |C|).
Assignment NearestServerAssign(const Problem& problem,
                               const AssignOptions& options = {});

/// Index of the server nearest to client c (lowest index wins ties).
ServerIndex NearestServerOf(const Problem& problem, ClientIndex c);

/// Client c's nearest server among those `eligible(s)` admits (lowest
/// index wins ties) and its distance, from one row read; {kUnassigned,
/// +inf} when no server is eligible.
struct NearestPick {
  ServerIndex server = kUnassigned;
  double distance = std::numeric_limits<double>::infinity();
};
template <typename Eligible>
NearestPick NearestEligibleServer(const Problem& problem, ClientIndex c,
                                  Eligible&& eligible) {
  thread_local std::vector<double> scratch;
  scratch.resize(problem.client_block().server_stride());
  const double* row = problem.client_block().Row(c, scratch.data());
  NearestPick best;
  for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
    const double d = row[static_cast<std::size_t>(s)];
    if (eligible(s) && d < best.distance) best = {s, d};
  }
  return best;
}

}  // namespace diaca::core
