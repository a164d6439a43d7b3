// Live reconfiguration of a running continuous DIA (§VI: "client
// assignment … can be adjusted promptly to adapt to system dynamics").
//
// A DynamicDiaSession runs the same replicated application as DiaSession,
// but the client population and the assignment change mid-flight through
// *epochs*. Each epoch e carries its own member set, assignment A_e and
// synchronization schedule (δ_e, Δ_e); an operation belongs to the epoch
// of its issue simulation time. Epoch boundaries come from the events
// themselves (membership changes, server failures, the crash windows of
// an attached fault plan), and the new epoch's operations use the new
// schedule from its boundary on. Old-epoch operations still in flight
// drain through the overlap delivery: a server pushes each operation it
// executes to the members homed at it both in the operation's epoch and
// in the current one.
//
// Joining clients bootstrap with a state snapshot (their new home server's
// op log) and then ride the normal update stream; clients whose home
// changes receive updates from both the op's epoch assignment and their
// current home (idempotent delivery — the replica dedups by op id), so no
// operation is ever missed. What *can* happen during a transition is a
// timewarp artifact: an old-epoch straggler executing against a server
// whose new-epoch offset ran ahead. The session counts exactly that
// disruption.
//
// Fault tolerance: server crashes — explicit ServerFailure events or
// crash windows of an attached sim::FaultPlan — trigger an *emergency*
// reconfiguration at the crash time, whose assignment comes from the
// selected FailoverStrategy (default: the core "repair" solver, which
// re-homes only the orphans). The session records a degradation
// timeline (the fraction of members with an intact interaction path),
// per-failover repair statistics, and time-to-restore; with a plan
// attached the transport switches to reliable (retransmitting) sends so
// transient faults cost latency and traffic, never acknowledged history.
// Without a plan, behavior and traces are bit-identical to the
// fault-free session.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/problem.h"
#include "core/sync_schedule.h"
#include "core/types.h"
#include "dia/workload.h"
#include "net/latency_matrix.h"
#include "sim/faults.h"

namespace diaca::dia {

enum class MembershipKind { kJoin, kLeave };

/// A membership change. Joins admit the client at the epoch boundary (its
/// first operations come at or after `at_ms`, bootstrapped by a state
/// snapshot); leaves remove it (it stops issuing; in-flight operations it
/// issued earlier still reach everyone, and stragglers addressed to it per
/// their op's epoch are still delivered — it was a participant then).
struct MembershipEvent {
  /// Wall-clock/simulation time of the epoch boundary.
  double at_ms = 0.0;
  /// Index into the session's potential-client list.
  core::ClientIndex client = 0;
  MembershipKind kind = MembershipKind::kJoin;
};

/// A server failing permanently at `at_ms`: it stops executing and
/// delivering from that moment; the epoch starting at the same time
/// reassigns its clients among the survivors. Operations already executed
/// elsewhere still reach every client through the overlap delivery (each
/// surviving server pushes to its *current* clients too), so a failure
/// costs disruption, never lost history.
struct ServerFailure {
  double at_ms = 0.0;
  core::ServerIndex server = 0;
};

/// How a failure epoch's assignment is produced.
enum class FailoverStrategy {
  /// core::RepairAssign over the pre-failure assignment: only orphans
  /// move (plus an optional bounded-migration budget). The default.
  kRepair,
  /// Full re-solve (seed + DistributedGreedyAssign) — the pre-repair
  /// behavior of this session, kept as the quality/cost baseline.
  kFullResolve,
  /// Orphans to their nearest surviving server, nobody else moves — the
  /// cheapest possible failover, quality floor.
  kNearest,
};

/// Parse "repair" | "resolve" | "nearest" (throws diaca::Error otherwise).
FailoverStrategy ParseFailoverStrategy(const std::string& name);
const char* FailoverStrategyName(FailoverStrategy strategy);

struct DynamicSessionParams {
  WorkloadParams workload;
  double consistency_sample_interval_ms = 250.0;
  std::uint64_t seed = 42;
  /// Assignment policy for server-failure epochs.
  FailoverStrategy failover = FailoverStrategy::kRepair;
  /// Bounded-migration budget handed to the repair solver: how many
  /// unaffected clients a failover may additionally move.
  std::int32_t repair_migration_budget = 0;
  /// Half-width of the window around each crash used for the
  /// interaction-time-inflation degradation metric.
  double recovery_window_ms = 750.0;
  /// Retransmission timeout of the reliable transport and the client-side
  /// retry cadence for snapshots whose source crashed. Only used when
  /// `faults` is attached.
  double retry_ms = 150.0;
  /// Optional fault plan (must outlive the session). Crash windows naming
  /// *server* nodes become failure/recovery epochs (the server process
  /// crashes; a colocated client keeps running); spikes, loss bursts and
  /// partitions act on the message transport, which switches to reliable
  /// sends. nullptr: fault-free transport, bit-identical to pre-fault
  /// builds.
  const sim::FaultPlan* faults = nullptr;
};

/// One server crash and the emergency reconfiguration that answered it.
struct FailoverRecord {
  double at_ms = 0.0;
  core::ServerIndex server = 0;  ///< global server index that crashed
  std::int32_t orphans = 0;      ///< clients that lost their home
  /// Unaffected clients whose home changed at the boundary (0 for the
  /// repair strategy unless a migration budget is set).
  std::int32_t moved_unaffected = 0;
  /// Wall-clock time of the failover assignment computation.
  double solve_wall_ms = 0.0;
  double delta_before = 0.0;  ///< schedule δ of the pre-crash epoch
  double delta_after = 0.0;   ///< schedule δ of the emergency epoch
  /// Simulation time from the crash until the last orphan finished its
  /// resync snapshot (0 when the crash orphaned nobody).
  double time_to_restore_ms = 0.0;
  /// Mean interaction time in (at_ms, at_ms + recovery_window_ms] divided
  /// by the mean in [at_ms - recovery_window_ms, at_ms] (1 when either
  /// window saw no deliveries).
  double interaction_inflation = 1.0;
};

/// Point on the graceful-degradation timeline.
struct DegradationSample {
  double at_ms = 0.0;
  /// Fraction of current members whose interaction path is intact: they
  /// are bootstrapped, not awaiting a failover resync, and their home is
  /// alive and unpartitioned from them.
  double intact_fraction = 1.0;
};

struct DynamicSessionReport {
  std::int32_t epochs = 0;
  std::uint64_t ops_issued = 0;
  OnlineStats interaction_time;          ///< all epochs
  OnlineStats final_epoch_interaction;   ///< steady state of the last epoch
  double final_epoch_delta = 0.0;        ///< analytic δ of the last epoch
  std::uint64_t late_server_executions = 0;
  std::uint64_t server_artifacts = 0;
  std::uint64_t client_artifacts = 0;
  std::uint64_t duplicate_deliveries = 0;  ///< overlap-window redundancy
  std::uint64_t snapshot_ops_transferred = 0;
  /// Operations that reached a server after it failed (ignored there).
  std::uint64_t ops_ignored_by_dead_servers = 0;
  std::uint64_t consistency_samples = 0;
  /// Probes that caught *transient* divergence (reconfiguration
  /// disruption; shrinks with gentler transitions).
  std::uint64_t consistency_mismatches = 0;
  /// After the session drained: do all members agree on the full history?
  /// The overlap-delivery design guarantees this (eventual consistency).
  bool final_states_converged = false;
  std::uint64_t messages_sent = 0;

  // --- fault-tolerance telemetry (empty/zero without failures) ----------
  std::vector<FailoverRecord> failovers;
  std::vector<DegradationSample> degradation;
  double min_intact_fraction = 1.0;
  /// Issued operations that never made it into the converged history
  /// (their carrier was severed before any server executed them). Never
  /// counts acknowledged operations.
  std::uint64_t ops_lost = 0;
  /// Client-side snapshot re-requests after a source crashed mid-transfer.
  std::uint64_t snapshot_retries = 0;
  /// Messages the fault plan severed on this session's transport.
  std::uint64_t messages_cut = 0;
};

class DynamicDiaSession {
 public:
  /// `problem` spans every potential client; `initial_members` lists the
  /// clients active from time 0; `events` must be sorted by time. A join
  /// must name a client that is not currently a member, a leave one that
  /// is; the membership may never become empty. Explicit `failures` and
  /// the fault plan's server-node crash windows merge into one failure
  /// timeline; a server may only die while active, and the active set may
  /// never become empty.
  DynamicDiaSession(const net::LatencyMatrix& matrix,
                    const core::Problem& problem,
                    std::vector<core::ClientIndex> initial_members,
                    std::vector<MembershipEvent> events,
                    DynamicSessionParams params,
                    std::vector<ServerFailure> failures = {});

  DynamicSessionReport Run() const;

 private:
  /// Server lifecycle boundaries merged from explicit failures and plan
  /// crash windows, time-sorted. Built and validated at construction.
  struct ServerEvent {
    double at_ms = 0.0;
    core::ServerIndex server = 0;
    bool recovery = false;  ///< false: crash; true: the server comes back
    bool permanent = false; ///< crash with no recovery scheduled
  };

  const net::LatencyMatrix& matrix_;
  const core::Problem& problem_;
  std::vector<core::ClientIndex> initial_members_;
  std::vector<MembershipEvent> events_;
  DynamicSessionParams params_;
  std::vector<ServerFailure> failures_;
  std::vector<ServerEvent> server_events_;
};

}  // namespace diaca::dia
