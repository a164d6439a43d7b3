// Solver-independent result and statistics vocabulary.
//
// Every assignment solver reports into the same SolveStats shape, so
// callers (CLI, benches, tests) compare heuristics without including
// solver-private headers. Fields a solver has nothing to say about stay
// at their zero defaults.
#pragma once

#include <cstdint>

#include "core/types.h"

namespace diaca::core {

/// Per-solve statistics, folded from the solvers' former private structs
/// (greedy iteration counts, DgResult rounds/modifications,
/// ExactResult::nodes_explored).
struct SolveStats {
  /// Outer-loop rounds: greedy batch iterations, longest-first batches,
  /// distributed-greedy sweeps. 1 for the one-shot solvers.
  std::int32_t iterations = 0;
  /// Executed single-client reassignments (distributed-greedy).
  std::int32_t modifications = 0;
  /// Branch-and-bound search nodes (exact solver).
  std::int64_t nodes_explored = 0;
  /// Work units (client blocks + 512-entry candidate blocks) the certified
  /// filter-and-refine bounds skipped without computing their exact
  /// values. Telemetry, not part of the determinism contract (see
  /// ClientBlockStats::tiles_pruned). Snapshotted from ClientBlockStats
  /// by SolverRegistry.
  std::int64_t tiles_pruned = 0;
  /// Clients moved off a healthy server (repair's bounded-migration
  /// phase, the churn control plane's capped re-optimization). Orphan
  /// re-homes forced by a failure are counted separately below — a
  /// migration SLO must not be consumed by liveness moves.
  std::int32_t migrations = 0;
  /// Orphans re-homed off a failed server (repair solver).
  std::int32_t orphans_rehomed = 0;
  /// Maximum interaction path length of the returned assignment (ms),
  /// as computed by core::MaxInteractionPathLength.
  double max_len = 0.0;
};

/// What SolverRegistry::Solve returns for every algorithm.
struct SolveResult {
  Assignment assignment;
  SolveStats stats;
};

}  // namespace diaca::core
