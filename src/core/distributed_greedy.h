// Distributed-Greedy Assignment (§IV-D).
//
// Starts from an initial assignment (Nearest-Server by default, as in the
// paper's experiments) and repeatedly reassigns clients that lie on a
// longest interaction path: for such a client c every other server s'
// computes the maximum length L(s') of interaction paths involving c if c
// moved to it, and c moves to the minimizer when min L(s') < D. Because
// paths not involving c can only shrink when c leaves its server, every
// modification keeps D non-increasing; the algorithm stops when a full
// sweep over critical clients yields no strict reduction.
//
// This file is the sequential emulation (modifications are serialized, as
// the paper's concurrency control mandates); src/proto/ runs the same
// logic as an actual broadcast/token message-passing protocol and the two
// are cross-checked in tests.
//
// Capacitated variant (§IV-E): clients may only move to unsaturated
// servers; the capacitated Nearest-Server assignment seeds the search.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "core/types.h"

namespace diaca::core {

/// One executed assignment modification (for Fig. 9-style convergence
/// traces).
struct DgModification {
  std::int32_t index = 0;        ///< 1-based modification counter.
  ClientIndex client = 0;        ///< the reassigned client
  ServerIndex from = kUnassigned;
  ServerIndex to = kUnassigned;
  double max_len_after = 0.0;    ///< D after applying the modification
};

struct DgResult {
  Assignment assignment;
  double max_len = 0.0;
  /// Full sweeps over the critical-client set (SolveStats::iterations
  /// when solved through the registry).
  std::int32_t rounds = 0;
  std::vector<DgModification> modifications;
};

/// Run Distributed-Greedy. `initial` overrides the default Nearest-Server
/// seed (it must be complete and respect the capacity if capacitated).
/// Throws diaca::Error on infeasible capacity.
DgResult DistributedGreedyAssign(const Problem& problem,
                                 const AssignOptions& options = {},
                                 const Assignment* initial = nullptr);

/// Maximum length of interaction paths involving client c if it were
/// assigned to server `candidate`, given per-server eccentricities
/// `far_excl` computed over all clients except c (entries < 0 mean "no
/// other client"). Exposed for reuse by the message-passing protocol.
double PathLengthIfMoved(const Problem& problem, ClientIndex c,
                         ServerIndex candidate,
                         std::span<const double> far_excl);

}  // namespace diaca::core
