#include "dia/dynamic_session.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "core/distributed_greedy.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/solver_registry.h"
#include "dia/replicated_state.h"
#include "obs/obs.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace diaca::dia {

namespace {
constexpr double kEps = 1e-9;

using core::Assignment;
using core::ClientIndex;
using core::Problem;
using core::ServerIndex;

/// One configuration epoch: member set, active servers, assignment and
/// schedule. Clients and servers are addressed by their *global* ids
/// (indices into the session-wide Problem); the per-epoch sub-problem's
/// local indexing stays internal to this struct.
struct Epoch {
  double start = 0.0;  // issue-simtime boundary
  std::vector<ClientIndex> members;       // global ids, ascending
  std::vector<std::int32_t> local_of;     // global client -> local; -1 out
  std::vector<ServerIndex> active;        // global server ids, ascending
  std::vector<std::int32_t> server_local; // global server -> local; -1 dead
  Problem problem;                        // over (active, members)
  std::vector<ServerIndex> home;          // global server id per member slot
  core::SyncSchedule schedule;            // offsets in local server index

  bool IsMember(ClientIndex global) const {
    return local_of[static_cast<std::size_t>(global)] >= 0;
  }
  bool IsActive(ServerIndex global) const {
    return server_local[static_cast<std::size_t>(global)] >= 0;
  }
  ServerIndex HomeOf(ClientIndex global) const {
    return home[static_cast<std::size_t>(
        local_of[static_cast<std::size_t>(global)])];
  }
  double OffsetOf(ServerIndex global) const {
    return schedule.server_offset[static_cast<std::size_t>(
        server_local[static_cast<std::size_t>(global)])];
  }
};

/// Non-null for server-failure boundaries: which server just crashed and
/// which strategy computes the emergency assignment.
struct FailoverInput {
  FailoverStrategy strategy = FailoverStrategy::kRepair;
  ServerIndex failed = -1;  // global id of the crashed server
  std::int32_t migration_budget = 0;
};

Epoch MakeEpoch(const net::LatencyMatrix& matrix, const Problem& full,
                double start, std::vector<ClientIndex> members,
                std::vector<ServerIndex> active, const Epoch* previous,
                const FailoverInput* failover = nullptr,
                double* solve_wall_ms = nullptr) {
  std::sort(members.begin(), members.end());
  std::sort(active.begin(), active.end());
  DIACA_CHECK_MSG(!active.empty(), "no surviving servers");

  std::vector<std::int32_t> local_of(
      static_cast<std::size_t>(full.num_clients()), -1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    local_of[static_cast<std::size_t>(members[i])] =
        static_cast<std::int32_t>(i);
  }
  std::vector<std::int32_t> server_local(
      static_cast<std::size_t>(full.num_servers()), -1);
  std::vector<net::NodeIndex> server_nodes;
  server_nodes.reserve(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    server_local[static_cast<std::size_t>(active[i])] =
        static_cast<std::int32_t>(i);
    server_nodes.push_back(full.server_node(active[i]));
  }
  std::vector<net::NodeIndex> client_nodes;
  client_nodes.reserve(members.size());
  for (ClientIndex m : members) client_nodes.push_back(full.client_node(m));
  Problem problem(matrix, server_nodes, client_nodes);

  Timer timer;
  Assignment assignment(members.size());
  if (failover != nullptr && failover->strategy == FailoverStrategy::kRepair) {
    // Emergency repair runs on the *previous* epoch's problem: a failure
    // boundary never changes the member set, and once the repair empties
    // the dead server it is masked out of the objective (empty servers
    // have eccentricity < 0 and are skipped by every pair scan). The
    // repaired assignment is then re-indexed into this epoch's
    // survivor-only server numbering.
    DIACA_CHECK(previous != nullptr);
    DIACA_CHECK_MSG(previous->members == members,
                    "failure boundary must not change the member set");
    const ServerIndex failed_local =
        previous->server_local[static_cast<std::size_t>(failover->failed)];
    DIACA_CHECK_MSG(failed_local >= 0, "crashed server was not active");
    Assignment prev(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      prev[static_cast<ClientIndex>(i)] = previous->server_local
          [static_cast<std::size_t>(previous->home[i])];
    }
    core::SolveOptions options;
    options.initial = &prev;
    options.failed_servers = {failed_local};
    options.repair_migration_budget = failover->migration_budget;
    const core::SolveResult solved =
        core::Solve("repair", previous->problem, options);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const ServerIndex global = previous->active[static_cast<std::size_t>(
          solved.assignment[static_cast<ClientIndex>(i)])];
      assignment[static_cast<ClientIndex>(i)] =
          server_local[static_cast<std::size_t>(global)];
    }
  } else {
    // Survivors keep their homes, newcomers and orphans take the nearest
    // surviving server.
    Assignment seed(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const ClientIndex global = members[i];
      ServerIndex local = core::kUnassigned;
      if (previous != nullptr && previous->IsMember(global)) {
        const ServerIndex old_home = previous->HomeOf(global);
        local = server_local[static_cast<std::size_t>(old_home)];
      }
      if (local == core::kUnassigned || local < 0) {
        local = core::NearestServerOf(problem, static_cast<ClientIndex>(i));
      }
      seed[static_cast<ClientIndex>(i)] = local;
    }
    if (failover != nullptr &&
        failover->strategy == FailoverStrategy::kNearest) {
      // Quality floor: the seed itself, nobody else moves and no
      // improvement pass runs.
      assignment = std::move(seed);
    } else {
      // Membership boundaries, recovery boundaries, and the kFullResolve
      // failover strategy: re-solve from the seed with distributed greedy
      // (the session's steady-state reconfigurator).
      assignment =
          core::DistributedGreedyAssign(problem, {}, &seed).assignment;
    }
  }
  if (solve_wall_ms != nullptr) *solve_wall_ms = timer.ElapsedMillis();
  core::SyncSchedule schedule =
      core::ComputeSyncSchedule(problem, assignment);

  std::vector<ServerIndex> home(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    home[i] = active[static_cast<std::size_t>(
        assignment[static_cast<ClientIndex>(i)])];
  }
  return Epoch{start,
               std::move(members),
               std::move(local_of),
               std::move(active),
               std::move(server_local),
               std::move(problem),
               std::move(home),
               std::move(schedule)};
}

struct ServerNode {
  ReplicatedState state;
  double death_wall = -1.0;  // < 0: no explicit (permanent) failure
  explicit ServerNode(std::int32_t entities) : state(entities) {}
  bool AliveAt(double wall) const {
    return death_wall < 0.0 || wall < death_wall - kEps;
  }
};

struct ClientNode {
  ReplicatedState state;
  bool ready = false;  // initial member or snapshot received
  explicit ClientNode(std::int32_t entities) : state(entities) {}
};

}  // namespace

FailoverStrategy ParseFailoverStrategy(const std::string& name) {
  if (name == "repair") return FailoverStrategy::kRepair;
  if (name == "resolve") return FailoverStrategy::kFullResolve;
  if (name == "nearest") return FailoverStrategy::kNearest;
  throw Error("unknown failover strategy '" + name +
              "' (expected repair|resolve|nearest)");
}

const char* FailoverStrategyName(FailoverStrategy strategy) {
  switch (strategy) {
    case FailoverStrategy::kRepair: return "repair";
    case FailoverStrategy::kFullResolve: return "resolve";
    case FailoverStrategy::kNearest: return "nearest";
  }
  return "unknown";
}

DynamicDiaSession::DynamicDiaSession(const net::LatencyMatrix& matrix,
                                     const Problem& problem,
                                     std::vector<ClientIndex> initial_members,
                                     std::vector<MembershipEvent> events,
                                     DynamicSessionParams params,
                                     std::vector<ServerFailure> failures)
    : matrix_(matrix),
      problem_(problem),
      initial_members_(std::move(initial_members)),
      events_(std::move(events)),
      params_(std::move(params)),
      failures_(std::move(failures)) {
  DIACA_CHECK_MSG(!initial_members_.empty(), "need at least one client");
  double previous = 0.0;
  std::vector<bool> member(static_cast<std::size_t>(problem.num_clients()),
                           false);
  std::size_t member_count = 0;
  for (ClientIndex m : initial_members_) {
    DIACA_CHECK(m >= 0 && m < problem.num_clients());
    DIACA_CHECK_MSG(!member[static_cast<std::size_t>(m)], "duplicate member");
    member[static_cast<std::size_t>(m)] = true;
    ++member_count;
  }
  for (const MembershipEvent& event : events_) {
    DIACA_CHECK_MSG(event.at_ms >= previous, "events must be time-sorted");
    DIACA_CHECK(event.client >= 0 && event.client < problem.num_clients());
    auto is_member =
        static_cast<bool>(member[static_cast<std::size_t>(event.client)]);
    if (event.kind == MembershipKind::kJoin) {
      DIACA_CHECK_MSG(!is_member, "join of a current member");
      member[static_cast<std::size_t>(event.client)] = true;
      ++member_count;
    } else {
      DIACA_CHECK_MSG(is_member, "leave of a non-member");
      member[static_cast<std::size_t>(event.client)] = false;
      DIACA_CHECK_MSG(--member_count > 0, "membership may not become empty");
    }
    previous = event.at_ms;
  }

  // Merge explicit failures and plan crash windows into one validated
  // server-lifecycle timeline.
  previous = 0.0;
  for (const ServerFailure& failure : failures_) {
    DIACA_CHECK_MSG(failure.at_ms >= previous, "failures must be time-sorted");
    DIACA_CHECK(failure.server >= 0 && failure.server < problem.num_servers());
    server_events_.push_back(
        ServerEvent{failure.at_ms, failure.server, false, true});
    previous = failure.at_ms;
  }
  if (params_.faults != nullptr) {
    for (const sim::CrashWindow& window : params_.faults->crashes()) {
      ServerIndex crashed = -1;
      for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
        if (problem.server_node(s) == window.node) {
          crashed = s;
          break;
        }
      }
      if (crashed < 0) {
        throw Error("fault plan crashes node " + std::to_string(window.node) +
                    ", which is not a server node of this session");
      }
      const bool permanent = !std::isfinite(window.end_ms);
      server_events_.push_back(
          ServerEvent{window.start_ms, crashed, false, permanent});
      if (!permanent) {
        server_events_.push_back(
            ServerEvent{window.end_ms, crashed, true, false});
      }
    }
  }
  std::stable_sort(server_events_.begin(), server_events_.end(),
                   [](const ServerEvent& a, const ServerEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  std::vector<bool> down(static_cast<std::size_t>(problem.num_servers()),
                         false);
  std::int32_t up_count = problem.num_servers();
  for (const ServerEvent& event : server_events_) {
    const auto s = static_cast<std::size_t>(event.server);
    if (event.recovery) {
      DIACA_CHECK_MSG(down[s], "recovery of a server that is not down");
      down[s] = false;
      ++up_count;
    } else {
      DIACA_CHECK_MSG(!down[s],
                      "server " << event.server
                                << " crashes while already down (overlapping "
                                   "crash windows or duplicate failure)");
      down[s] = true;
      DIACA_CHECK_MSG(--up_count > 0, "all servers may not be down at once");
    }
  }
}

DynamicSessionReport DynamicDiaSession::Run() const {
  const std::int32_t num_clients = problem_.num_clients();
  const std::int32_t num_servers = problem_.num_servers();
  const sim::FaultPlan* plan = params_.faults;
  // Failure machinery (resync retries, degradation sampling) engages only
  // when something can actually fail; otherwise every trace stays
  // bit-identical to the fault-free session.
  const bool fault_aware = plan != nullptr || !server_events_.empty();

  // --- merge membership and server-lifecycle events into the timeline ----
  struct Boundary {
    double at_ms;
    const MembershipEvent* membership;  // exactly one of the two set
    const ServerEvent* server;
  };
  std::vector<Boundary> boundaries;
  for (const MembershipEvent& event : events_) {
    boundaries.push_back({event.at_ms, &event, nullptr});
  }
  for (const ServerEvent& event : server_events_) {
    boundaries.push_back({event.at_ms, nullptr, &event});
  }
  std::stable_sort(boundaries.begin(), boundaries.end(),
                   [](const Boundary& a, const Boundary& b) {
                     return a.at_ms < b.at_ms;
                   });

  DynamicSessionReport report;

  /// A server-failure boundary and the epoch it produced.
  struct FailureBoundary {
    double at_ms;
    ServerIndex server;
    std::size_t epoch_index;   // epoch starting at the crash
    std::size_t record_index;  // into report.failovers
  };
  std::vector<FailureBoundary> failure_boundaries;

  std::vector<Epoch> epochs;
  {
    std::vector<ServerIndex> all_servers(static_cast<std::size_t>(num_servers));
    for (ServerIndex s = 0; s < num_servers; ++s) {
      all_servers[static_cast<std::size_t>(s)] = s;
    }
    epochs.push_back(MakeEpoch(matrix_, problem_, 0.0, initial_members_,
                               all_servers, nullptr));
  }
  for (const Boundary& boundary : boundaries) {
    std::vector<ClientIndex> members = epochs.back().members;
    std::vector<ServerIndex> active = epochs.back().active;
    FailoverInput failover;
    const FailoverInput* failover_ptr = nullptr;
    if (boundary.membership != nullptr) {
      const MembershipEvent& event = *boundary.membership;
      if (event.kind == MembershipKind::kJoin) {
        members.push_back(event.client);
      } else {
        members.erase(
            std::find(members.begin(), members.end(), event.client));
      }
    } else if (boundary.server->recovery) {
      active.push_back(boundary.server->server);
    } else {
      active.erase(
          std::find(active.begin(), active.end(), boundary.server->server));
      failover.strategy = params_.failover;
      failover.failed = boundary.server->server;
      failover.migration_budget = params_.repair_migration_budget;
      failover_ptr = &failover;
    }
    double solve_wall_ms = 0.0;
    epochs.push_back(MakeEpoch(matrix_, problem_, boundary.at_ms,
                               std::move(members), std::move(active),
                               &epochs.back(), failover_ptr, &solve_wall_ms));
    if (failover_ptr != nullptr) {
      const Epoch& before = epochs[epochs.size() - 2];
      const Epoch& after = epochs.back();
      FailoverRecord record;
      record.at_ms = boundary.at_ms;
      record.server = failover.failed;
      record.solve_wall_ms = solve_wall_ms;
      record.delta_before = before.schedule.delta;
      record.delta_after = after.schedule.delta;
      for (ClientIndex m : after.members) {
        const ServerIndex old_home = before.HomeOf(m);
        if (old_home == failover.failed) {
          ++record.orphans;
        } else if (after.HomeOf(m) != old_home) {
          ++record.moved_unaffected;
        }
      }
      failure_boundaries.push_back({boundary.at_ms, failover.failed,
                                    epochs.size() - 1,
                                    report.failovers.size()});
      report.failovers.push_back(record);
    }
  }
  auto epoch_at = [&epochs](double issue_simtime) -> const Epoch& {
    std::size_t lo = 0;
    for (std::size_t e = 1; e < epochs.size(); ++e) {
      if (epochs[e].start <= issue_simtime + kEps) lo = e;
    }
    return epochs[lo];
  };
  const Epoch& last_epoch = epochs.back();

  sim::Simulator simulator;
  sim::Network network(simulator, matrix_);
  if (plan != nullptr) network.AttachFaultPlan(plan);
  report.epochs = static_cast<std::int32_t>(epochs.size());
  report.final_epoch_delta = last_epoch.schedule.delta;

  std::vector<ServerNode> servers;
  servers.reserve(static_cast<std::size_t>(num_servers));
  for (ServerIndex s = 0; s < num_servers; ++s) {
    servers.emplace_back(num_clients);
  }
  for (const ServerFailure& failure : failures_) {
    servers[static_cast<std::size_t>(failure.server)].death_wall =
        failure.at_ms;
  }
  std::vector<ClientNode> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (ClientIndex c = 0; c < num_clients; ++c) clients.emplace_back(num_clients);
  for (ClientIndex m : initial_members_) {
    clients[static_cast<std::size_t>(m)].ready = true;
  }

  // Alive = no explicit permanent failure has struck AND (no plan, or the
  // plan says the server's node is up at this wall time).
  auto server_alive = [&](ServerIndex s, double wall) {
    if (!servers[static_cast<std::size_t>(s)].AliveAt(wall)) return false;
    return plan == nullptr || plan->NodeUp(problem_.server_node(s), wall);
  };

  // With a fault plan attached the transport retransmits (rto = retry_ms)
  // so transient crashes, partitions and loss bursts cost latency, never
  // acknowledged history. Without one, this is exactly Network::Send.
  auto transport = [&](net::NodeIndex from, net::NodeIndex to,
                       std::function<void()> on_delivery,
                       std::uint64_t bytes) {
    if (plan != nullptr) {
      network.SendReliable(from, to, std::move(on_delivery), bytes,
                           params_.retry_ms);
    } else {
      network.Send(from, to, std::move(on_delivery), bytes);
    }
  };

  // --- failover-resync bookkeeping ---------------------------------------
  std::vector<char> sync_pending(static_cast<std::size_t>(num_clients), 0);
  std::vector<std::int64_t> pending_record(
      static_cast<std::size_t>(num_clients), -1);
  std::vector<double> inflate_before_sum(report.failovers.size(), 0.0);
  std::vector<double> inflate_after_sum(report.failovers.size(), 0.0);
  std::vector<std::uint64_t> inflate_before_n(report.failovers.size(), 0);
  std::vector<std::uint64_t> inflate_after_n(report.failovers.size(), 0);
  std::vector<OpId> issued_ids;

  auto sample_degradation = [&]() {
    const double now = simulator.Now();
    const Epoch& epoch = epoch_at(now);
    std::int32_t intact = 0;
    for (ClientIndex m : epoch.members) {
      const ClientNode& client = clients[static_cast<std::size_t>(m)];
      bool ok = client.ready && sync_pending[static_cast<std::size_t>(m)] == 0;
      if (ok) {
        const ServerIndex home = epoch.HomeOf(m);
        ok = server_alive(home, now);
        if (ok && plan != nullptr) {
          // The client's own machine must also be up and unpartitioned
          // from its home.
          ok = plan->NodeUp(problem_.client_node(m), now) &&
               !plan->Partitioned(problem_.client_node(m),
                                  problem_.server_node(home), now);
        }
      }
      if (ok) ++intact;
    }
    const double fraction =
        epoch.members.empty()
            ? 1.0
            : static_cast<double>(intact) /
                  static_cast<double>(epoch.members.size());
    report.degradation.push_back({now, fraction});
    report.min_intact_fraction =
        std::min(report.min_intact_fraction, fraction);
  };

  // --- delivery ----------------------------------------------------------
  auto deliver_to = [&](ClientIndex m, ServerIndex from, const Operation& op,
                        double exec_simtime) {
    transport(problem_.server_node(from), problem_.client_node(m),
              [&, m, op, exec_simtime]() {
                ClientNode& client = clients[static_cast<std::size_t>(m)];
                if (client.state.Contains(op.id)) {
                  ++report.duplicate_deliveries;
                  return;
                }
                const double now = simulator.Now();
                if (client.ready) client.state.AdvanceWatermark(now);
                client.state.InsertOp(op, exec_simtime);
                const double presented = std::max(exec_simtime, now);
                const double interaction = presented - op.issue_simtime;
                report.interaction_time.Add(interaction);
                if (&epoch_at(op.issue_simtime) == &last_epoch) {
                  report.final_epoch_interaction.Add(interaction);
                }
                if (fault_aware) {
                  for (std::size_t f = 0; f < report.failovers.size(); ++f) {
                    const double at = report.failovers[f].at_ms;
                    const double w = params_.recovery_window_ms;
                    if (now >= at - w && now <= at) {
                      inflate_before_sum[f] += interaction;
                      ++inflate_before_n[f];
                    } else if (now > at && now <= at + w) {
                      inflate_after_sum[f] += interaction;
                      ++inflate_after_n[f];
                    }
                  }
                }
              },
              64);
  };

  auto execute_at_server = [&](ServerIndex s, const Operation& op,
                               double exec_simtime, const Epoch& op_epoch) {
    ServerNode& server = servers[static_cast<std::size_t>(s)];
    if (!server_alive(s, simulator.Now())) {
      ++report.ops_ignored_by_dead_servers;
      return;
    }
    server.state.InsertOp(op, exec_simtime);
    server.state.AdvanceWatermark(exec_simtime);
    // Recipients: the op's epoch members homed at s, plus the *current*
    // epoch's members homed at s (handover/failover overlap; duplicates
    // dedup at the client).
    const Epoch& current = epoch_at(simulator.Now());
    std::vector<bool> sent(static_cast<std::size_t>(num_clients), false);
    for (const Epoch* epoch : {&op_epoch, &current}) {
      for (ClientIndex m : epoch->members) {
        if (epoch->HomeOf(m) == s && !sent[static_cast<std::size_t>(m)]) {
          sent[static_cast<std::size_t>(m)] = true;
          deliver_to(m, s, op, exec_simtime);
        }
      }
    }
  };

  auto server_receive = [&](ServerIndex s, const Operation& op) {
    if (!server_alive(s, simulator.Now())) {
      ++report.ops_ignored_by_dead_servers;
      return;
    }
    const Epoch& op_epoch = epoch_at(op.issue_simtime);
    if (!op_epoch.IsActive(s)) return;  // raced past its own epoch
    const double exec_simtime = op.issue_simtime + op_epoch.schedule.delta;
    const double exec_wall = exec_simtime - op_epoch.OffsetOf(s);
    if (exec_wall >= simulator.Now() - kEps) {
      simulator.At(std::max(exec_wall, simulator.Now()),
                   [&, s, op, exec_simtime]() {
                     execute_at_server(s, op, exec_simtime,
                                       epoch_at(op.issue_simtime));
                   });
    } else {
      // Straggler against a reconfigured offset: timewarp repair.
      ++report.late_server_executions;
      execute_at_server(s, op, exec_simtime, op_epoch);
    }
  };

  // --- issuance ----------------------------------------------------------
  const std::vector<ScheduledOp> schedule =
      GenerateWorkload(num_clients, params_.workload, params_.seed);
  for (const ScheduledOp& item : schedule) {
    const ClientIndex issuer = item.op.issuer;
    const Epoch& epoch = epoch_at(item.issue_wall_ms);
    if (!epoch.IsMember(issuer)) continue;  // not joined yet / departed
    ++report.ops_issued;
    if (fault_aware) issued_ids.push_back(item.op.id);
    simulator.At(item.issue_wall_ms, [&, item]() {
      Operation op = item.op;
      op.issue_simtime = simulator.Now();
      const Epoch& issue_epoch = epoch_at(op.issue_simtime);
      const ServerIndex home = issue_epoch.HomeOf(op.issuer);
      transport(problem_.client_node(op.issuer), problem_.server_node(home),
                [&, home, op]() {
                  const Epoch& forward_epoch = epoch_at(op.issue_simtime);
                  for (ServerIndex s : forward_epoch.active) {
                    if (s == home) continue;
                    transport(problem_.server_node(home),
                              problem_.server_node(s),
                              [&, s, op]() { server_receive(s, op); }, 64);
                  }
                  server_receive(home, op);
                },
                64);
    });
  }

  // --- snapshot pulls: join bootstrap and failover resync -----------------
  // A client pulls its *current* home's full op log. Dead servers never
  // reply (no zombie snapshots); when failures are in play a watchdog
  // re-requests from the then-current home every retry_ms until the
  // snapshot lands, so a source crashing mid-transfer delays the sync but
  // cannot wedge it. Completion marks the client ready and closes its
  // pending failover record, which is how time-to-restore is measured.
  std::function<void(ClientIndex)> pull_snapshot;  // recursive via watchdog
  pull_snapshot = [&](ClientIndex m) {
    // A client whose own machine is permanently down can never receive a
    // snapshot; retrying would keep the simulation alive forever. It
    // stays pending (its path is not intact) and its unexecuted ops count
    // as lost.
    if (params_.faults != nullptr &&
        !params_.faults->NodeUpEver(problem_.client_node(m),
                                    simulator.Now())) {
      return;
    }
    sync_pending[static_cast<std::size_t>(m)] = 1;
    const Epoch& epoch = epoch_at(simulator.Now());
    const ServerIndex home = epoch.HomeOf(m);
    transport(
        problem_.client_node(m), problem_.server_node(home),
        [&, m, home]() {
          if (!server_alive(home, simulator.Now())) return;
          const ServerNode& server = servers[static_cast<std::size_t>(home)];
          // Copy the log now (snapshot semantics).
          const auto log = server.state.log();
          report.snapshot_ops_transferred += log.size();
          transport(
              problem_.server_node(home), problem_.client_node(m),
              [&, m, log]() {
                ClientNode& client = clients[static_cast<std::size_t>(m)];
                for (const auto& entry : log) {
                  client.state.InsertOp(entry.op, entry.exec_simtime);
                }
                client.ready = true;
                if (sync_pending[static_cast<std::size_t>(m)] != 0) {
                  sync_pending[static_cast<std::size_t>(m)] = 0;
                  const std::int64_t record =
                      pending_record[static_cast<std::size_t>(m)];
                  if (record >= 0) {
                    FailoverRecord& failover =
                        report.failovers[static_cast<std::size_t>(record)];
                    failover.time_to_restore_ms =
                        std::max(failover.time_to_restore_ms,
                                 simulator.Now() - failover.at_ms);
                    pending_record[static_cast<std::size_t>(m)] = -1;
                  }
                }
              },
              64 + 32 * log.size());
        },
        64);
    if (fault_aware) {
      simulator.At(simulator.Now() + params_.retry_ms, [&, m]() {
        if (sync_pending[static_cast<std::size_t>(m)] != 0) {
          ++report.snapshot_retries;
          pull_snapshot(m);
        }
      });
    }
  };

  for (const MembershipEvent& join : events_) {
    if (join.kind != MembershipKind::kJoin) continue;
    simulator.At(join.at_ms, [&, join]() { pull_snapshot(join.client); });
  }

  // --- failover: orphaned clients resync from their repaired home ---------
  // An operation can be executed at the survivors just before the failure
  // boundary, when the orphan's delivery still routed through the dead
  // server. The post-failover snapshot repairs exactly that window
  // (everything else is a duplicate and dedups away).
  for (const FailureBoundary& failure : failure_boundaries) {
    simulator.At(failure.at_ms, [&, failure]() {
      DIACA_OBS_COUNT("fault.failovers", 1);
      const Epoch& before = epochs[failure.epoch_index - 1];
      const Epoch& after = epochs[failure.epoch_index];
      for (ClientIndex m : after.members) {
        if (!before.IsMember(m) || before.HomeOf(m) != failure.server) {
          continue;
        }
        pending_record[static_cast<std::size_t>(m)] =
            static_cast<std::int64_t>(failure.record_index);
        pull_snapshot(m);
      }
      sample_degradation();
    });
  }

  // --- recovery: a returning server refills its log from a live peer ------
  // Ops executed while it was down never reached it (the down epochs
  // excluded it from the fan-out), so it pulls a peer's log before taking
  // clients again; InsertOp dedups everything it already had.
  for (const ServerEvent& event : server_events_) {
    if (!event.recovery) continue;
    simulator.At(event.at_ms, [&, event]() {
      const double now = simulator.Now();
      const Epoch& epoch = epoch_at(now);
      ServerIndex peer = core::kUnassigned;
      for (ServerIndex s : epoch.active) {
        if (s != event.server && server_alive(s, now)) {
          peer = s;
          break;
        }
      }
      if (peer == core::kUnassigned) return;
      transport(
          problem_.server_node(event.server), problem_.server_node(peer),
          [&, event, peer]() {
            if (!server_alive(peer, simulator.Now())) return;
            const auto log =
                servers[static_cast<std::size_t>(peer)].state.log();
            report.snapshot_ops_transferred += log.size();
            transport(
                problem_.server_node(peer), problem_.server_node(event.server),
                [&, event, log]() {
                  if (!server_alive(event.server, simulator.Now())) return;
                  ServerNode& server =
                      servers[static_cast<std::size_t>(event.server)];
                  for (const auto& entry : log) {
                    server.state.InsertOp(entry.op, entry.exec_simtime);
                  }
                },
                64 + 32 * log.size());
          },
          64);
      sample_degradation();
    });
  }

  // --- consistency probes --------------------------------------------------
  const double horizon =
      params_.workload.duration_ms + last_epoch.schedule.delta;
  for (double t = params_.consistency_sample_interval_ms + 0.137; t < horizon;
       t += params_.consistency_sample_interval_ms) {
    simulator.At(t, [&]() {
      const double now = simulator.Now();
      const Epoch& epoch = epoch_at(now);
      bool mismatch = false;
      bool have_reference = false;
      std::uint64_t reference = 0;
      for (ClientIndex m : epoch.members) {
        ClientNode& client = clients[static_cast<std::size_t>(m)];
        if (!client.ready) continue;
        client.state.AdvanceWatermark(now);
        const std::uint64_t digest = client.state.Checksum(now);
        if (!have_reference) {
          reference = digest;
          have_reference = true;
        } else if (digest != reference) {
          mismatch = true;
        }
      }
      ++report.consistency_samples;
      if (mismatch) ++report.consistency_mismatches;
      if (fault_aware) sample_degradation();
    });
  }

  simulator.Run();

  for (const ServerNode& server : servers) {
    report.server_artifacts += server.state.artifacts();
  }
  for (const ClientNode& client : clients) {
    report.client_artifacts += client.state.artifacts();
  }
  report.messages_sent = network.messages_sent();
  report.messages_cut = network.messages_cut_by_faults();

  // Eventual consistency: with every message drained, all members of the
  // final epoch must agree on the entire history.
  report.final_states_converged = true;
  bool have_reference = false;
  std::uint64_t reference = 0;
  const double far_future = 10.0 * horizon + 1.0;
  for (ClientIndex m : last_epoch.members) {
    const ClientNode& client = clients[static_cast<std::size_t>(m)];
    if (!client.ready) continue;
    const std::uint64_t digest = client.state.Checksum(far_future);
    if (!have_reference) {
      reference = digest;
      have_reference = true;
    } else if (digest != reference) {
      report.final_states_converged = false;
    }
  }

  if (fault_aware) {
    // Interaction inflation per failover: mean interaction just after the
    // crash over the mean just before it.
    for (std::size_t f = 0; f < report.failovers.size(); ++f) {
      if (inflate_before_n[f] > 0 && inflate_after_n[f] > 0) {
        const double before = inflate_before_sum[f] /
                              static_cast<double>(inflate_before_n[f]);
        const double after =
            inflate_after_sum[f] / static_cast<double>(inflate_after_n[f]);
        if (before > kEps) {
          report.failovers[f].interaction_inflation = after / before;
        }
      }
    }
    // Lost operations: issued but present in no ready member's history and
    // no surviving server's log — their carrier was severed before any
    // server executed them.
    for (const OpId id : issued_ids) {
      bool present = false;
      for (ClientIndex m : last_epoch.members) {
        const ClientNode& client = clients[static_cast<std::size_t>(m)];
        if (client.ready && client.state.Contains(id)) {
          present = true;
          break;
        }
      }
      for (ServerIndex s = 0; !present && s < num_servers; ++s) {
        if (server_alive(s, far_future) &&
            servers[static_cast<std::size_t>(s)].state.Contains(id)) {
          present = true;
        }
      }
      if (!present) ++report.ops_lost;
    }
  }
  return report;
}

}  // namespace diaca::dia
