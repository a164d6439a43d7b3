// Churn control plane: a long-running assignment service over a moving
// client population (the ROADMAP's "online control plane" item).
//
// The paper solves client assignment once; production DIAs re-solve
// forever. ControlPlane runs a deterministic epoch loop over a churn
// trace (data/churn.h) and re-optimizes the live assignment each epoch
// under explicit robustness SLOs, so its failure mode is *bounded
// degradation*, never thrash:
//
//   * Migration cap — at most `migration_cap` controller-initiated moves
//     per epoch, spent on the clients with the largest projected
//     interactivity gain (core::ProposeReoptimization's bottleneck
//     witnesses, each its server's farthest client, cached in the
//     evaluator; the proposals are tried on the live evaluator and
//     rolled back, never on a copy). Forced re-homes off a crashed server
//     are liveness, not optimization, and are counted separately — a
//     crash must never eat the optimization budget.
//   * Hysteresis — a move is applied only after being proposed with a
//     gain of at least `hysteresis_eps` for `hysteresis_epochs`
//     consecutive epochs, so oscillating near-ties don't churn clients.
//   * Deadline with graceful degradation — the per-epoch optimization
//     work is bounded by `deadline_evals` *candidate evaluations* (a
//     deterministic work unit, deliberately not wall-clock: a wall-clock
//     deadline would break bit-identical runs across thread counts). On
//     overrun, or when a fault-plan crash lands strictly inside the
//     epoch, the plane serves the stale assignment, attaches arrivals to
//     their nearest healthy server, and marks the epoch degraded. Once
//     pressure subsides it provably converges back: every applied move
//     lowers the objective by >= hysteresis_eps and the objective is
//     bounded below, so the proposal stream dries up in finitely many
//     epochs.
//
// Faults reuse sim::FaultPlan as in-loop chaos; crash-window node
// indices name *server slots* (0 .. |S|-1 of the problem's server list),
// not substrate nodes. Everything is deterministic in (problem, trace,
// params) at every thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.h"
#include "core/types.h"
#include "data/churn.h"
#include "dia/dynamic_session.h"
#include "sim/faults.h"

namespace diaca::dia {

enum class DegradedReason {
  kNone = 0,
  /// A fault-plan crash started strictly inside the epoch: serve stale.
  kMidEpochFault,
  /// The evaluation budget ran out before optimization finished.
  kDeadline,
  /// Every server was down at the epoch boundary.
  kAllServersDown,
  /// No healthy server had room for a forced re-home or arrival.
  kInfeasible,
};
const char* DegradedReasonName(DegradedReason reason);

struct ControlPlaneParams {
  core::AssignOptions assign;
  /// Controller-initiated migrations allowed per epoch (the SLO).
  std::int32_t migration_cap = 16;
  /// Consecutive epochs a move must be proposed before it is applied
  /// (1 = no hysteresis).
  std::int32_t hysteresis_epochs = 2;
  /// Minimum objective gain (ms) for a move to be proposed at all.
  double hysteresis_eps = 1e-6;
  /// Per-epoch optimization deadline in candidate evaluations (< 0 =
  /// unlimited). Covers arrival placement and re-optimization.
  std::int64_t deadline_evals = -1;
  /// Epoch length for mapping fault-plan times onto epochs.
  double epoch_ms = 1000.0;
  /// Optional chaos (must outlive the run). Crash-window node indices
  /// are server slots 0 .. |S|-1.
  const sim::FaultPlan* faults = nullptr;
  /// Every this many epochs, also solve the members fresh with the full
  /// greedy solver and report the interactivity gap (0 = never). Pure
  /// measurement: does not consume the deadline or touch the live state.
  std::int32_t oracle_every = 0;
};

struct ControlEpochReport {
  std::int32_t epoch = 0;
  std::int32_t members = 0;
  std::int32_t servers_up = 0;
  std::int32_t arrivals = 0;
  std::int32_t departures = 0;
  std::int32_t mobility_moves = 0;
  /// Liveness moves: orphan re-homes off crashed servers plus stranded
  /// re-attachments. Not governed by the migration cap.
  std::int32_t forced_moves = 0;
  /// Controller-initiated migrations applied this epoch (<= cap).
  std::int32_t migrations = 0;
  /// Moves proposed by the re-optimizer this epoch (pre-hysteresis).
  std::int32_t proposals = 0;
  /// Hysteresis streaks still maturing at epoch end.
  std::int32_t pending = 0;
  /// Members currently without a home (every-server-down aftermath).
  std::int32_t stranded = 0;
  bool degraded = false;
  DegradedReason reason = DegradedReason::kNone;
  std::int64_t evaluations = 0;
  /// Maximum interaction path length over the attached members.
  double objective = 0.0;
  /// Fresh-greedy objective on the same members (-1 when not sampled).
  double oracle_objective = -1.0;
};

struct ControlPlaneReport {
  std::vector<ControlEpochReport> epochs;
  std::int32_t degraded_epochs = 0;
  std::int32_t longest_degraded_run = 0;
  /// Epochs from the first degraded epoch until the plane was
  /// non-degraded with nobody stranded again (time-to-recover; 0 when
  /// nothing ever degraded).
  std::int32_t recover_epochs = 0;
  std::int32_t max_migrations_per_epoch = 0;
  bool cap_ever_exceeded = false;
  /// True when the final epoch is non-degraded, nobody is stranded, and
  /// one unlimited-budget proposal round finds no further move winning
  /// by hysteresis_eps — the assignment has converged.
  bool converged = false;
  std::int64_t total_migrations = 0;
  std::int64_t total_forced_moves = 0;
  std::int64_t total_evaluations = 0;
  /// Final homes over every trace instance (kUnassigned = not a member
  /// or stranded).
  core::Assignment final_assignment;
  std::vector<core::ClientIndex> final_members;
};

class ControlPlane {
 public:
  /// `problem` must have one client per trace instance (see
  /// data::BuildChurnProblem); both must outlive the plane.
  ControlPlane(const core::Problem& problem, const data::ChurnTrace& trace,
               ControlPlaneParams params);

  /// Run the epoch loop: epoch 0 boots the initial members with the full
  /// greedy solver, then each trace epoch-event set is delivered at the
  /// next boundary. Returns trace.epochs.size() + 1 epoch reports.
  ControlPlaneReport Run() const;

 private:
  const core::Problem& problem_;
  const data::ChurnTrace& trace_;
  ControlPlaneParams params_;
};

/// Fresh full-greedy solve over just `members`: solves the member
/// sub-problem (core::Problem::Subset, in the order given; on a streamed
/// churn problem its view shares the server rows and fills no member
/// row), and scatters back into a full-width partial assignment
/// (kUnassigned elsewhere). The control plane's boot and oracle
/// baseline; also the "repeated full greedy" strategy of bench_churn.
/// `max_len_out`, when non-null, receives the sub-problem objective.
core::Assignment FreshGreedyAssignment(const core::Problem& problem,
                                       std::span<const core::ClientIndex> members,
                                       const core::AssignOptions& assign,
                                       double* max_len_out = nullptr);

/// Bridge a churn trace onto DynamicDiaSession vocabulary: epoch e's
/// events land at (e + 1) * epoch_ms; a mobility move becomes a leave of
/// the old instance plus a join of the new one at the same boundary.
std::vector<MembershipEvent> ChurnMembershipEvents(
    const data::ChurnTrace& trace, double epoch_ms);

}  // namespace diaca::dia
