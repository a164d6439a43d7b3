#include "core/repair.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/error.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

// Strict-improvement threshold, matching the session's epoch comparisons.
constexpr double kEps = 1e-9;

// How RepairAssign's two phases and ProposeReoptimization differ.
struct DescentRules {
  std::span<const char> witnesses;  ///< per client; empty: any active client
  std::span<const char> closed;     ///< per server, never touched; empty: none
  double margin = kEps;             ///< a move must beat CurrentMax() - margin
  std::int64_t eval_budget = -1;    ///< evaluations allowed (< 0: unlimited)
};

// The move step of §IV-D's distributed greedy. Moving a client off server
// s can only lower the objective when s is an endpoint of the argmax pair
// and the client is s's farthest, so each round scores one witness per
// open anchor (pair_a, then pair_b when it differs; a closed anchor keeps
// its clients): the anchor's farthest client that `rules.witnesses`
// admits, lowest client on equal distances, against every open target
// with room, in ascending order. The round's best move is applied and
// passed to on_move(client, from, to, gain), which returns whether to go
// on. The descent ends at the first round without a move below the margin
// (every applied move strictly lowers the objective, so it terminates), or
// returns true when the budget runs out mid-round; that round's partial
// best is discarded, since a half-scanned round could differ from the full
// scan's choice.
template <typename OnMove>
bool DescendBottleneck(const Problem& problem, const AssignOptions& assign,
                       const DescentRules& rules, IncrementalEvaluator& eval,
                       std::int64_t& evaluations, OnMove&& on_move) {
  auto open = [&](ServerIndex s) {
    return rules.closed.empty() ||
           rules.closed[static_cast<std::size_t>(s)] == 0;
  };
  auto may_take = [&](ServerIndex s) {
    return open(s) &&
           (!assign.capacitated() || eval.LoadOf(s) < assign.CapacityOf(s));
  };
  auto may_witness = [&](ClientIndex c) {
    return rules.witnesses.empty() ||
           rules.witnesses[static_cast<std::size_t>(c)] != 0;
  };
  // The anchor's cached head when admitted, else a scan of its members.
  auto witness_of = [&](ServerIndex anchor) {
    const ClientIndex head = eval.Farthest(anchor).second;
    if (head < 0 || may_witness(head)) return head;
    IncrementalEvaluator::FarEntry best{-1.0, -1};
    for (const auto& entry : eval.Members(anchor)) {
      if (!may_witness(entry.second)) continue;
      if (entry.first > best.first ||
          (entry.first == best.first && entry.second < best.second)) {
        best = entry;
      }
    }
    return best.second;
  };
  while (true) {
    const ServerIndex pair_a = eval.MaxPairFirst();
    if (pair_a == kUnassigned) return false;
    const ServerIndex pair_b = eval.MaxPairSecond();
    ClientIndex best_client = -1;
    ServerIndex best_target = kUnassigned;
    double best_value = eval.CurrentMax() - rules.margin;
    const ServerIndex anchors[] = {pair_a, pair_b};
    const std::size_t num_anchors =
        pair_b != pair_a && pair_b != kUnassigned ? 2 : 1;
    for (const ServerIndex anchor : std::span(anchors, num_anchors)) {
      if (!open(anchor)) continue;
      const ClientIndex witness = witness_of(anchor);
      if (witness < 0) continue;
      for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
        if (s == anchor || !may_take(s)) continue;
        if (rules.eval_budget >= 0 && evaluations >= rules.eval_budget) {
          return true;
        }
        ++evaluations;
        const double value = eval.EvaluateMove(witness, s);
        if (value < best_value) {
          best_value = value;
          best_client = witness;
          best_target = s;
        }
      }
    }
    if (best_client < 0) return false;
    const ServerIndex from = eval.ServerOf(best_client);
    const double before = eval.CurrentMax();
    const double after = eval.ApplyMove(best_client, best_target);
    if (!on_move(best_client, from, best_target, before - after)) return false;
  }
}

}  // namespace

RepairResult RepairAssign(const Problem& problem, const Assignment& current,
                          const RepairOptions& options) {
  DIACA_OBS_SPAN("core.repair");
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  DIACA_CHECK_MSG(current.size() == static_cast<std::size_t>(num_clients),
                  "repair: current assignment has the wrong size");
  DIACA_CHECK_MSG(current.IsComplete(),
                  "repair: current assignment must be complete");

  std::vector<char> is_failed(static_cast<std::size_t>(num_servers), 0);
  for (const ServerIndex s : options.failed) {
    DIACA_CHECK_MSG(s >= 0 && s < num_servers,
                    "repair: failed server " << s << " out of range");
    DIACA_CHECK_MSG(is_failed[static_cast<std::size_t>(s)] == 0,
                    "repair: failed server " << s << " listed twice");
    is_failed[static_cast<std::size_t>(s)] = 1;
  }
  DIACA_CHECK_MSG(
      static_cast<std::int32_t>(options.failed.size()) < num_servers,
      "repair: every server failed — nothing to repair onto");

  std::vector<std::int32_t> load(static_cast<std::size_t>(num_servers), 0);
  for (ClientIndex c = 0; c < num_clients; ++c) {
    ++load[static_cast<std::size_t>(current[c])];
  }
  const bool capacitated = options.assign.capacitated();
  if (capacitated) {
    if (!options.assign.per_server_capacity.empty()) {
      DIACA_CHECK_MSG(options.assign.per_server_capacity.size() ==
                          static_cast<std::size_t>(num_servers),
                      "repair: per-server capacity vector size "
                          << options.assign.per_server_capacity.size()
                          << " != " << num_servers << " servers");
    }
    // Survivor-only feasibility: the failed servers' capacity is gone.
    std::int64_t surviving_capacity = 0;
    for (ServerIndex s = 0; s < num_servers; ++s) {
      if (is_failed[static_cast<std::size_t>(s)] != 0) continue;
      const std::int32_t cap = options.assign.CapacityOf(s);
      DIACA_CHECK_MSG(cap > 0,
                      "repair: capacity of server " << s << " must be positive");
      surviving_capacity += cap;
      if (load[static_cast<std::size_t>(s)] > cap) {
        throw Error("repair: surviving server " + std::to_string(s) +
                    " already exceeds its capacity in the current assignment");
      }
    }
    if (surviving_capacity < num_clients) {
      throw Error("infeasible after failures: surviving capacity " +
                  std::to_string(surviving_capacity) + " < " +
                  std::to_string(num_clients) + " clients");
    }
  }
  auto survives = [&](ServerIndex s) {
    return is_failed[static_cast<std::size_t>(s)] == 0;
  };

  std::vector<char> is_orphan(static_cast<std::size_t>(num_clients), 0);
  // Orphans ordered hardest-first: the client farthest from its nearest
  // survivor seeds and improves first, while placement is least
  // constrained (the longest-first idiom of §IV-B). Ties break on the
  // lower client index, so the order — and everything downstream — is
  // deterministic.
  std::vector<std::pair<double, ClientIndex>> orphan_order;
  for (ClientIndex c = 0; c < num_clients; ++c) {
    if (survives(current[c])) continue;
    is_orphan[static_cast<std::size_t>(c)] = 1;
    orphan_order.emplace_back(
        NearestEligibleServer(problem, c, survives).distance, c);
  }
  std::sort(orphan_order.begin(), orphan_order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });

  RepairResult result;
  result.repair.orphans = static_cast<std::int32_t>(orphan_order.size());
  DIACA_OBS_COUNT("repair.solves", 1);
  DIACA_OBS_COUNT("repair.orphans", result.repair.orphans);
  if (orphan_order.empty() && options.migration_budget <= 0) {
    result.assignment = current;
    result.stats.max_len = MaxInteractionPathLength(problem, current);
    return result;
  }

  // Seed every orphan at its nearest survivor with room (room always
  // exists: surviving capacity covers all clients).
  Assignment seeded = current;
  for (const auto& [unused, c] : orphan_order) {
    const ServerIndex best =
        NearestEligibleServer(problem, c, [&](ServerIndex s) {
          return survives(s) &&
                 (!capacitated || load[static_cast<std::size_t>(s)] <
                                      options.assign.CapacityOf(s));
        }).server;
    DIACA_CHECK(best != kUnassigned);
    seeded[c] = best;
    ++load[static_cast<std::size_t>(best)];
  }

  // Failed servers now hold no clients, so the evaluator's masked pair
  // scans (far < 0 lanes are skipped) score the survivor-only objective.
  IncrementalEvaluator eval(problem, seeded);

  // Bottleneck-driven improvement over the orphans: the descent moves the
  // anchors' farthest orphans. If an anchor's true witness is an
  // unaffected client, its orphan's move cannot reduce far(anchor) and the
  // exact evaluation rejects it; when no anchor's orphan move improves, no
  // orphan move can. This phase ignores the budget, keeping the result a
  // deterministic prefix of any budgeted run (budget never hurts).
  DescentRules rules;
  rules.witnesses = is_orphan;
  rules.closed = is_failed;
  DescendBottleneck(problem, options.assign, rules, eval,
                    result.repair.evaluations,
                    [&](ClientIndex, ServerIndex, ServerIndex, double) {
                      ++result.repair.orphan_improvements;
                      return true;
                    });

  // Bounded-migration mode: the descent over every client. Moves of
  // orphans are free; moves of unaffected clients consume the budget.
  std::int32_t budget = options.migration_budget;
  if (budget > 0) {
    rules.witnesses = {};
    DescendBottleneck(problem, options.assign, rules, eval,
                      result.repair.evaluations,
                      [&](ClientIndex c, ServerIndex, ServerIndex, double) {
                        if (is_orphan[static_cast<std::size_t>(c)] != 0) {
                          ++result.repair.orphan_improvements;
                        } else {
                          ++result.repair.migrations;
                          --budget;
                        }
                        return budget > 0;
                      });
  }
  DIACA_OBS_COUNT("repair.migrations", result.repair.migrations);
  DIACA_OBS_COUNT("repair.evaluations", result.repair.evaluations);

  result.assignment = eval.assignment();
  result.stats.iterations = result.repair.orphans;
  result.stats.modifications = result.repair.orphans +
                               result.repair.orphan_improvements +
                               result.repair.migrations;
  result.stats.migrations = result.repair.migrations;
  result.stats.orphans_rehomed = result.repair.orphans;
  result.stats.max_len = eval.CurrentMax();
  return result;
}

ReoptimizeResult ProposeReoptimization(const Problem& problem,
                                       IncrementalEvaluator& eval,
                                       const ReoptimizeOptions& options) {
  DIACA_OBS_SPAN("core.reoptimize");
  const std::int32_t num_servers = problem.num_servers();
  DIACA_CHECK_MSG(options.down.empty() ||
                      options.down.size() ==
                          static_cast<std::size_t>(num_servers),
                  "reoptimize: down mask size " << options.down.size()
                                                << " != " << num_servers
                                                << " servers");
  DIACA_CHECK_MSG(options.min_gain > 0.0,
                  "reoptimize: min_gain must be positive");

  ReoptimizeResult result;
  result.projected_max_len = eval.CurrentMax();
  if (options.max_moves <= 0) return result;

  // All proposals are scored and applied on the caller's evaluator under
  // a checkpoint, so move k's gain is exact given moves 0..k-1, and rolled
  // back on every way out, so the caller gets its evaluator back as it
  // was (hysteresis may decide not to apply anything). Every candidate
  // evaluation is charged against eval_budget: serving a worse-vetted move
  // under deadline pressure is exactly what graceful degradation exists
  // to avoid.
  eval.Checkpoint();
  struct RollbackOnExit {
    IncrementalEvaluator& eval;
    ~RollbackOnExit() { eval.Rollback(); }
  } rollback{eval};
  DescentRules rules;
  rules.closed = options.down;
  rules.margin = options.min_gain;
  rules.eval_budget = options.eval_budget;
  result.budget_exhausted = DescendBottleneck(
      problem, options.assign, rules, eval, result.evaluations,
      [&](ClientIndex c, ServerIndex from, ServerIndex to, double gain) {
        result.moves.push_back(MoveProposal{c, from, to, gain});
        return static_cast<std::int32_t>(result.moves.size()) <
               options.max_moves;
      });
  result.projected_max_len = eval.CurrentMax();
  DIACA_OBS_COUNT("reoptimize.proposals",
                  static_cast<std::int64_t>(result.moves.size()));
  DIACA_OBS_COUNT("reoptimize.evaluations", result.evaluations);
  return result;
}

}  // namespace diaca::core
