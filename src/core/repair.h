// Failover repair assignment: reassign only what a failure broke.
//
// When servers crash mid-session, the clients they hosted (the orphans)
// need a new home immediately; re-solving the whole instance from scratch
// both costs full-solve time and gratuitously moves clients the failure
// never touched. RepairAssign takes the pre-failure assignment and the
// failed-server set, seeds the orphans — hardest first — at their nearest
// survivors, then improves them by bottleneck descent on an
// IncrementalEvaluator over the surviving servers: while the objective
// (max interaction path length) falls, an endpoint of the argmax pair
// moves its farthest orphan, found from the evaluator's member lists.
// Capacities, when set, are respected throughout: a placement is only
// considered on survivors with remaining room, and survivor-only
// feasibility is checked up front.
//
// An optional bounded-migration mode then runs the same descent over
// every client, spending `migration_budget` moves of *unaffected* clients
// on the post-repair bottleneck. Budget 0 (the default) means the
// failure's blast radius is exactly the orphan set. ProposeReoptimization
// is that descent again, on a live evaluator it rolls back afterwards.
//
// Registered in core::SolverRegistry as "repair" (options.initial = the
// pre-failure assignment, options.failed_servers = the crash set).
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "core/solve_stats.h"
#include "core/types.h"

namespace diaca::core {

struct RepairOptions {
  AssignOptions assign;
  /// Servers that failed (indices into the problem's server list). May be
  /// empty, in which case the current assignment is returned unchanged.
  std::vector<ServerIndex> failed;
  /// How many unaffected clients may be moved after the orphans are
  /// re-homed (bounded-migration mode). Orphan moves never count here.
  std::int32_t migration_budget = 0;
};

struct RepairStats {
  std::int32_t orphans = 0;          ///< clients that lost their server
  std::int32_t orphan_improvements = 0;  ///< orphans moved off their seed
  std::int32_t migrations = 0;       ///< unaffected clients moved
  std::int64_t evaluations = 0;      ///< candidate placements scored
};

struct RepairResult {
  /// Complete assignment over the original problem's server indexing with
  /// no client on a failed server.
  Assignment assignment;
  /// iterations = orphans processed, modifications = all moves applied,
  /// max_len = objective over the surviving servers.
  SolveStats stats;
  RepairStats repair;
};

/// Repair `current` after the failures in `options.failed`. Throws
/// diaca::Error when `current` is incomplete or mis-sized, a failed index
/// is invalid or duplicated, every server failed, or (capacitated) the
/// survivors cannot hold all clients or already exceed their capacity.
RepairResult RepairAssign(const Problem& problem, const Assignment& current,
                          const RepairOptions& options);

class IncrementalEvaluator;

/// One proposed migration from the budgeted re-optimizer. Proposals are
/// sequential: the gain of move k assumes moves 0..k-1 were applied.
struct MoveProposal {
  ClientIndex client = -1;
  ServerIndex from = kUnassigned;
  ServerIndex to = kUnassigned;
  /// Objective drop when applied in sequence order (ms, >= min_gain).
  double gain = 0.0;
};

struct ReoptimizeOptions {
  AssignOptions assign;
  /// Per-server down mask (empty = all up). Down servers are never
  /// proposed as targets; clients already on them are not touched either
  /// (re-homing off a dead server is repair's job, not optimization).
  std::vector<char> down;
  /// Hard cap on proposals (the per-epoch migration SLO).
  std::int32_t max_moves = 0;
  /// A move must lower the objective by at least this much to be
  /// proposed (the control plane's hysteresis epsilon).
  double min_gain = 1e-9;
  /// Deterministic work deadline: candidate evaluations allowed (< 0 =
  /// unlimited). Deliberately not wall-clock — a wall-clock deadline
  /// would break bit-identical results across thread counts.
  std::int64_t eval_budget = -1;
};

struct ReoptimizeResult {
  /// Moves in application order (apply all, in order, or none).
  std::vector<MoveProposal> moves;
  std::int64_t evaluations = 0;
  /// True when the eval budget ran out before the bottleneck loop
  /// reached a local optimum or the move cap; the caller should treat
  /// the epoch as degraded.
  bool budget_exhausted = false;
  /// Objective after applying every proposed move.
  double projected_max_len = 0.0;
};

/// Propose up to `options.max_moves` single-client migrations that each
/// strictly lower the maximum interaction path length by at least
/// `options.min_gain`, spending the budget on the clients with the
/// largest projected interactivity gain (the argmax-pair witnesses: the
/// bottleneck descent of RepairAssign's bounded-migration phase, with
/// min_gain as its margin). The descent runs on `eval` itself inside a
/// checkpoint (IncrementalEvaluator::Checkpoint) that is rolled back on
/// every exit, exceptions included, so `eval` reads as it did before the
/// call; it must have no checkpoint open. Deterministic in (problem, eval
/// state, options) at every thread count.
ReoptimizeResult ProposeReoptimization(const Problem& problem,
                                       IncrementalEvaluator& eval,
                                       const ReoptimizeOptions& options);

}  // namespace diaca::core
