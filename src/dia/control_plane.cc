#include "dia/control_plane.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/error.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/repair.h"
#include "obs/obs.h"

namespace diaca::dia {

const char* DegradedReasonName(DegradedReason reason) {
  switch (reason) {
    case DegradedReason::kNone: return "none";
    case DegradedReason::kMidEpochFault: return "mid-epoch-fault";
    case DegradedReason::kDeadline: return "deadline";
    case DegradedReason::kAllServersDown: return "all-servers-down";
    case DegradedReason::kInfeasible: return "infeasible";
  }
  return "unknown";
}

ControlPlane::ControlPlane(const core::Problem& problem,
                           const data::ChurnTrace& trace,
                           ControlPlaneParams params)
    : problem_(problem), trace_(trace), params_(std::move(params)) {
  DIACA_CHECK_MSG(problem.num_clients() ==
                      static_cast<std::int32_t>(trace.instances.size()),
                  "control plane: problem has "
                      << problem.num_clients() << " clients but the trace has "
                      << trace.instances.size() << " instances");
  DIACA_CHECK_MSG(trace.initial_count > 0,
                  "control plane: trace has no initial members");
  DIACA_CHECK_MSG(params_.migration_cap >= 0,
                  "control plane: migration cap must be >= 0");
  DIACA_CHECK_MSG(params_.hysteresis_epochs >= 1,
                  "control plane: hysteresis needs at least one epoch");
  DIACA_CHECK_MSG(params_.hysteresis_eps > 0.0,
                  "control plane: hysteresis epsilon must be positive");
  DIACA_CHECK_MSG(params_.epoch_ms > 0.0,
                  "control plane: epoch length must be positive");
  if (params_.faults != nullptr) {
    // Crash-window node indices are server slots of this problem.
    params_.faults->ValidateNodes(problem.num_servers());
  }
}

ControlPlaneReport ControlPlane::Run() const {
  DIACA_OBS_SPAN("dia.control.run");
  const std::int32_t num_servers = problem_.num_servers();
  const std::int32_t num_clients = problem_.num_clients();
  const sim::FaultPlan* plan = params_.faults;
  const bool capacitated = params_.assign.capacitated();

  ControlPlaneReport report;
  // Membership and stranding flags, with running counts so no epoch has
  // to sum them over every trace instance.
  std::vector<char> member(static_cast<std::size_t>(num_clients), 0);
  std::vector<char> stranded(static_cast<std::size_t>(num_clients), 0);
  std::int32_t num_members = 0;
  std::int32_t num_stranded = 0;
  auto set_member = [&](core::ClientIndex c, char on) {
    num_members += on - member[static_cast<std::size_t>(c)];
    member[static_cast<std::size_t>(c)] = on;
  };
  auto set_stranded = [&](core::ClientIndex c, char on) {
    num_stranded += on - stranded[static_cast<std::size_t>(c)];
    stranded[static_cast<std::size_t>(c)] = on;
  };
  std::vector<char> down(static_cast<std::size_t>(num_servers), 0);
  std::vector<char> eligible(static_cast<std::size_t>(num_servers), 0);
  // Hysteresis streaks: (client, target) -> consecutive epochs proposed.
  // std::map for deterministic iteration; entries not re-proposed drop
  // out, which is exactly the "K *consecutive* epochs" semantics.
  std::map<std::pair<core::ClientIndex, core::ServerIndex>, std::int32_t>
      streaks;

  // Boot the initial members with the full greedy solver, then keep the
  // evaluator alive for the whole run — every later epoch is incremental.
  std::vector<core::ClientIndex> initial(
      static_cast<std::size_t>(trace_.initial_count));
  for (std::int32_t i = 0; i < trace_.initial_count; ++i) {
    initial[static_cast<std::size_t>(i)] = i;
    set_member(i, 1);
  }
  core::IncrementalEvaluator eval = [&] {
    DIACA_OBS_SPAN("dia.control.boot");
    return core::IncrementalEvaluator(
        problem_, FreshGreedyAssignment(problem_, initial, params_.assign),
        core::IncrementalEvaluator::AllowPartial{});
  }();

  auto has_room = [&](core::ServerIndex s) {
    return !capacitated ||
           eval.LoadOf(s) < params_.assign.CapacityOf(s);
  };
  /// Nearest healthy server with room by row distance (lowest index on
  /// ties); kUnassigned when none qualifies. The emergency path —
  /// mirrors the repair solver's nearest-survivor floor.
  auto nearest_up = [&](core::ClientIndex c) {
    return core::NearestEligibleServer(problem_, c, [&](core::ServerIndex s) {
             return down[static_cast<std::size_t>(s)] == 0 && has_room(s);
           }).server;
  };

  const auto total_epochs =
      static_cast<std::int32_t>(trace_.epochs.size()) + 1;
  for (std::int32_t e = 0; e < total_epochs; ++e) {
    const double t0 = static_cast<double>(e) * params_.epoch_ms;
    const double t1 = t0 + params_.epoch_ms;
    ControlEpochReport rep;
    rep.epoch = e;

    // --- server health at the boundary --------------------------------
    std::int32_t servers_up = 0;
    bool mid_epoch_fault = false;
    for (core::ServerIndex s = 0; s < num_servers; ++s) {
      down[static_cast<std::size_t>(s)] =
          plan != nullptr && !plan->NodeUp(s, t0) ? 1 : 0;
      if (down[static_cast<std::size_t>(s)] == 0) ++servers_up;
    }
    if (plan != nullptr) {
      for (const sim::CrashWindow& window : plan->crashes()) {
        if (window.start_ms > t0 && window.start_ms < t1) {
          mid_epoch_fault = true;
          break;
        }
      }
    }
    rep.servers_up = servers_up;
    auto degrade = [&](DegradedReason reason) {
      if (!rep.degraded) {
        rep.degraded = true;
        rep.reason = reason;
      }
    };
    /// Attach c to `target`, or strand it when there is none (the epoch
    /// then degrades as infeasible). True when c was placed.
    auto place = [&](core::ClientIndex c, core::ServerIndex target) {
      if (target == core::kUnassigned) {
        set_stranded(c, 1);
        degrade(DegradedReason::kInfeasible);
        return false;
      }
      eval.AddClient(c, target);
      set_stranded(c, 0);
      return true;
    };
    if (servers_up == 0) degrade(DegradedReason::kAllServersDown);
    // A crash landing strictly inside the epoch: the optimizer's input
    // would be stale before its output applied. Serve the stale
    // assignment, handle the fallout at the next boundary.
    if (mid_epoch_fault) degrade(DegradedReason::kMidEpochFault);

    // --- membership: departures and mobility-leaves first --------------
    std::vector<core::ClientIndex> joins;
    if (e > 0) {
      DIACA_OBS_SPAN("dia.control.membership");
      const data::ChurnEpochEvents& events =
          trace_.epochs[static_cast<std::size_t>(e - 1)];
      rep.arrivals = static_cast<std::int32_t>(events.arrivals.size());
      rep.departures = static_cast<std::int32_t>(events.departures.size());
      rep.mobility_moves = static_cast<std::int32_t>(events.moves.size());
      auto leave = [&](core::ClientIndex c) {
        set_member(c, 0);
        if (stranded[static_cast<std::size_t>(c)] != 0) {
          set_stranded(c, 0);
        } else {
          eval.RemoveClient(c);
        }
      };
      for (const std::int32_t c : events.departures) leave(c);
      for (const data::ChurnMove& move : events.moves) leave(move.from);
      joins.reserve(events.arrivals.size() + events.moves.size());
      for (const std::int32_t c : events.arrivals) joins.push_back(c);
      for (const data::ChurnMove& move : events.moves) {
        joins.push_back(move.to);
      }
    }

    // --- liveness: forced re-homes off servers that are now down -------
    // Mandatory moves, deliberately outside the migration cap: capping
    // them would trade liveness for the SLO. Nearest-healthy placement
    // (not best-add) — the emergency path must stay cheap and boring.
    // Every member is either attached or stranded, so with nobody
    // stranded and every down server empty the pass has nothing to do
    // and skips its scan over the trace instances.
    {
      DIACA_OBS_SPAN("dia.control.liveness");
      bool due = num_stranded > 0;
      for (core::ServerIndex s = 0; s < num_servers; ++s) {
        due = due ||
              (down[static_cast<std::size_t>(s)] != 0 && eval.LoadOf(s) > 0);
      }
      if (due && servers_up > 0) {
        for (core::ClientIndex c = 0; c < num_clients; ++c) {
          if (member[static_cast<std::size_t>(c)] == 0) continue;
          if (stranded[static_cast<std::size_t>(c)] == 0) {
            const core::ServerIndex home = eval.ServerOf(c);
            if (home == core::kUnassigned ||
                down[static_cast<std::size_t>(home)] == 0) {
              continue;
            }
            eval.RemoveClient(c);
          }
          // Re-home c off its down server, or re-attach a member a
          // previous outage left homeless now that servers are back.
          if (place(c, nearest_up(c))) ++rep.forced_moves;
        }
      } else if (due) {
        // Nothing to serve onto: strand every attached member and wait for
        // recovery. Degraded already recorded above.
        for (core::ClientIndex c = 0; c < num_clients; ++c) {
          if (member[static_cast<std::size_t>(c)] == 0 ||
              stranded[static_cast<std::size_t>(c)] != 0) {
            continue;
          }
          eval.RemoveClient(c);
          set_stranded(c, 1);
        }
      }
    }

    // --- arrivals (and mobility-joins) ---------------------------------
    {
      DIACA_OBS_SPAN("dia.control.arrivals");
      for (const core::ClientIndex c : joins) {
        set_member(c, 1);
        if (servers_up == 0) {
          set_stranded(c, 1);
          continue;
        }
        if (!rep.degraded && params_.deadline_evals >= 0 &&
            rep.evaluations + num_servers > params_.deadline_evals) {
          // Not enough budget left to place this arrival properly: degrade
          // and fall through to the greedy-attach floor.
          degrade(DegradedReason::kDeadline);
        }
        if (rep.degraded) {
          // Degraded floor: greedy-attach via nearest, no objective scans.
          place(c, nearest_up(c));
          continue;
        }
        // Healthy placement: the server whose attachment hurts the
        // objective least (first such server on exact ties). Each
        // eligible server counts as one evaluation.
        for (core::ServerIndex s = 0; s < num_servers; ++s) {
          const bool ok = down[static_cast<std::size_t>(s)] == 0 && has_room(s);
          eligible[static_cast<std::size_t>(s)] = ok ? 1 : 0;
          rep.evaluations += ok ? 1 : 0;
        }
        place(c, eval.BestAdd(c, eligible));
      }
    }

    // --- capped re-optimization under the deadline ---------------------
    if (!rep.degraded && params_.migration_cap > 0 && eval.num_active() > 0) {
      core::ReoptimizeOptions reopt;
      reopt.assign = params_.assign;
      reopt.down.assign(down.begin(), down.end());
      reopt.max_moves = params_.migration_cap;
      reopt.min_gain = params_.hysteresis_eps;
      reopt.eval_budget =
          params_.deadline_evals < 0
              ? -1
              : std::max<std::int64_t>(
                    0, params_.deadline_evals - rep.evaluations);
      const core::ReoptimizeResult proposed =
          core::ProposeReoptimization(problem_, eval, reopt);
      rep.evaluations += proposed.evaluations;
      rep.proposals = static_cast<std::int32_t>(proposed.moves.size());
      if (proposed.budget_exhausted) {
        degrade(DegradedReason::kDeadline);
      } else {
        // Hysteresis: re-proposed moves extend their streak, everything
        // else drops to zero (consecutive epochs, not cumulative).
        std::map<std::pair<core::ClientIndex, core::ServerIndex>,
                 std::int32_t>
            next_streaks;
        for (const core::MoveProposal& p : proposed.moves) {
          const auto key = std::make_pair(p.client, p.to);
          const auto it = streaks.find(key);
          next_streaks[key] = it == streaks.end() ? 1 : it->second + 1;
        }
        // Apply matured moves in proposal order, re-validated against
        // the live evaluator (the proposal round rolled its moves back,
        // and earlier matured moves may have shifted the landscape).
        for (const core::MoveProposal& p : proposed.moves) {
          if (rep.migrations >= params_.migration_cap) break;
          const auto key = std::make_pair(p.client, p.to);
          if (next_streaks[key] < params_.hysteresis_epochs) continue;
          if (!eval.IsActive(p.client) || eval.ServerOf(p.client) != p.from ||
              down[static_cast<std::size_t>(p.to)] != 0 || !has_room(p.to)) {
            next_streaks.erase(key);
            continue;
          }
          ++rep.evaluations;
          const double value = eval.EvaluateMove(p.client, p.to);
          if (value <= eval.CurrentMax() - params_.hysteresis_eps) {
            eval.ApplyMove(p.client, p.to);
            ++rep.migrations;
          }
          next_streaks.erase(key);  // applied or no longer improving
        }
        streaks = std::move(next_streaks);
        rep.pending = static_cast<std::int32_t>(streaks.size());
      }
    }
    if (rep.degraded) {
      // A degraded epoch evaluated nothing (or only partially): its
      // streak evidence is unreliable, so hysteresis starts over.
      streaks.clear();
    }

    // --- telemetry ------------------------------------------------------
    rep.members = num_members;
    rep.stranded = num_stranded;
    rep.objective = eval.CurrentMax();
    // Fresh-greedy oracle gap: pure measurement on healthy all-up epochs
    // (a fresh solve may use every server, so comparing it against a
    // degraded or partially-down plane would be apples to oranges).
    if (params_.oracle_every > 0 && e % params_.oracle_every == 0 &&
        !rep.degraded && servers_up == num_servers && num_stranded == 0) {
      std::vector<core::ClientIndex> current;
      current.reserve(static_cast<std::size_t>(num_members));
      for (core::ClientIndex c = 0; c < num_clients; ++c) {
        if (member[static_cast<std::size_t>(c)] != 0) current.push_back(c);
      }
      FreshGreedyAssignment(problem_, current, params_.assign,
                            &rep.oracle_objective);
      DIACA_OBS_OBSERVE("dia.control.oracle_gap_ms",
                        rep.objective - rep.oracle_objective);
    }

    DIACA_OBS_COUNT("dia.control.epochs", 1);
    DIACA_OBS_COUNT("dia.control.migrations", rep.migrations);
    DIACA_OBS_COUNT("dia.control.forced_moves", rep.forced_moves);
    if (rep.degraded) DIACA_OBS_COUNT("dia.control.degraded_epochs", 1);
    DIACA_OBS_GAUGE_SET("dia.control.objective_ms", rep.objective);

    report.total_migrations += rep.migrations;
    report.total_forced_moves += rep.forced_moves;
    report.total_evaluations += rep.evaluations;
    if (rep.degraded) ++report.degraded_epochs;
    report.max_migrations_per_epoch =
        std::max(report.max_migrations_per_epoch, rep.migrations);
    if (rep.migrations > params_.migration_cap) report.cap_ever_exceeded = true;
    report.epochs.push_back(rep);
  }

  // --- run-level rollups ------------------------------------------------
  std::int32_t run = 0;
  std::int32_t first_degraded = -1;
  std::int32_t recovered_at = -1;
  for (const ControlEpochReport& rep : report.epochs) {
    run = rep.degraded ? run + 1 : 0;
    report.longest_degraded_run = std::max(report.longest_degraded_run, run);
    if (rep.degraded && first_degraded < 0) first_degraded = rep.epoch;
    if (first_degraded >= 0 && recovered_at < 0 && !rep.degraded &&
        rep.stranded == 0) {
      recovered_at = rep.epoch;
    }
  }
  if (first_degraded >= 0) {
    report.recover_epochs = (recovered_at >= 0 ? recovered_at : total_epochs) -
                            first_degraded;
    DIACA_OBS_GAUGE_SET("dia.control.recover_epochs", report.recover_epochs);
  }

  // Convergence: non-degraded, nobody stranded, and no move left that
  // wins by the hysteresis epsilon (one unlimited proposal round). Every
  // applied migration lowered the objective by >= eps and the objective
  // is bounded below by 0, so once churn and faults stop this must be
  // reached in finitely many epochs.
  const ControlEpochReport& last = report.epochs.back();
  if (!last.degraded && last.stranded == 0 && eval.num_active() > 0) {
    core::ReoptimizeOptions check;
    check.assign = params_.assign;
    check.down.assign(down.begin(), down.end());
    check.max_moves = 1;
    check.min_gain = params_.hysteresis_eps;
    report.converged = core::ProposeReoptimization(problem_, eval, check)
                           .moves.empty();
  }

  report.final_assignment = eval.assignment();
  for (core::ClientIndex c = 0; c < num_clients; ++c) {
    if (member[static_cast<std::size_t>(c)] != 0) {
      report.final_members.push_back(c);
    }
  }
  return report;
}

core::Assignment FreshGreedyAssignment(
    const core::Problem& problem, std::span<const core::ClientIndex> members,
    const core::AssignOptions& assign, double* max_len_out) {
  DIACA_CHECK_MSG(!members.empty(), "fresh greedy: no members");
  const core::Problem sub = problem.Subset(members);
  core::SolveStats stats;
  const core::Assignment sub_assignment = core::GreedyAssign(sub, assign, &stats);
  if (max_len_out != nullptr) {
    *max_len_out = core::MaxInteractionPathLength(sub, sub_assignment);
  }
  core::Assignment full(static_cast<std::size_t>(problem.num_clients()));
  for (std::size_t i = 0; i < members.size(); ++i) {
    full[members[i]] = sub_assignment[static_cast<core::ClientIndex>(i)];
  }
  return full;
}

std::vector<MembershipEvent> ChurnMembershipEvents(
    const data::ChurnTrace& trace, double epoch_ms) {
  DIACA_CHECK_MSG(epoch_ms > 0.0, "epoch length must be positive");
  std::vector<MembershipEvent> events;
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const data::ChurnEpochEvents& epoch = trace.epochs[e];
    const double at = static_cast<double>(e + 1) * epoch_ms;
    for (const std::int32_t c : epoch.departures) {
      events.push_back(MembershipEvent{at, c, MembershipKind::kLeave});
    }
    for (const data::ChurnMove& move : epoch.moves) {
      events.push_back(MembershipEvent{at, move.from, MembershipKind::kLeave});
    }
    for (const std::int32_t c : epoch.arrivals) {
      events.push_back(MembershipEvent{at, c, MembershipKind::kJoin});
    }
    for (const data::ChurnMove& move : epoch.moves) {
      events.push_back(MembershipEvent{at, move.to, MembershipKind::kJoin});
    }
  }
  return events;
}

}  // namespace diaca::dia
