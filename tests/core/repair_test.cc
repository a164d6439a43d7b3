// RepairAssign: orphans of failed servers are re-homed onto survivors,
// capacity stays feasible, budget 0 never moves an unaffected client, and
// the result is never worse than the nearest-survivor patch.
#include "core/repair.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/random_assign.h"
#include "core/solver_registry.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

// The naive failover baseline: every orphan jumps to its nearest
// surviving server, nobody else moves.
Assignment NearestSurvivorPatch(const Problem& p, const Assignment& current,
                                const std::vector<ServerIndex>& failed) {
  std::vector<char> down(static_cast<std::size_t>(p.num_servers()), 0);
  for (const ServerIndex s : failed) down[static_cast<std::size_t>(s)] = 1;
  Assignment out = current;
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (down[static_cast<std::size_t>(current[c])] == 0) continue;
    ServerIndex best = kUnassigned;
    double best_d = std::numeric_limits<double>::infinity();
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      if (down[static_cast<std::size_t>(s)] != 0) continue;
      if (p.client_block().cs(c, s) < best_d) {
        best_d = p.client_block().cs(c, s);
        best = s;
      }
    }
    out[c] = best;
  }
  return out;
}

TEST(RepairTest, ReassignsEveryOrphanOntoSurvivors) {
  Rng rng(31);
  const Problem p = test::RandomProblem(30, 5, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions options;
  options.failed = {1, 3};
  const RepairResult result = RepairAssign(p, before, options);
  ASSERT_TRUE(result.assignment.IsComplete());
  std::int32_t expected_orphans = 0;
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    EXPECT_NE(result.assignment[c], 1);
    EXPECT_NE(result.assignment[c], 3);
    if (before[c] == 1 || before[c] == 3) ++expected_orphans;
  }
  EXPECT_EQ(result.repair.orphans, expected_orphans);
  EXPECT_GT(expected_orphans, 0);
  EXPECT_DOUBLE_EQ(result.stats.max_len,
                   MaxInteractionPathLength(p, result.assignment));
}

TEST(RepairTest, BudgetZeroOnlyMovesOrphans) {
  Rng rng(37);
  const Problem p = test::RandomProblem(40, 6, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions options;
  options.failed = {2};
  const RepairResult result = RepairAssign(p, before, options);
  EXPECT_EQ(result.repair.migrations, 0);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (before[c] != 2) {
      EXPECT_EQ(result.assignment[c], before[c]) << "client " << c;
    }
  }
}

TEST(RepairTest, NeverWorseThanNearestSurvivorPatch) {
  for (std::uint64_t seed : {41u, 43u, 47u, 53u}) {
    Rng rng(seed);
    const Problem p = test::RandomProblem(35, 5, rng);
    const Assignment before = GreedyAssign(p);
    RepairOptions options;
    options.failed = {0};
    const RepairResult repaired = RepairAssign(p, before, options);
    const Assignment naive = NearestSurvivorPatch(p, before, options.failed);
    EXPECT_LE(repaired.stats.max_len,
              MaxInteractionPathLength(p, naive) + 1e-9)
        << "seed " << seed;
  }
}

TEST(RepairTest, MigrationBudgetNeverHurts) {
  Rng rng(59);
  const Problem p = test::RandomProblem(40, 6, rng);
  const Assignment before = GreedyAssign(p);
  double previous = std::numeric_limits<double>::infinity();
  for (std::int32_t budget : {0, 2, 8}) {
    RepairOptions options;
    options.failed = {1};
    options.migration_budget = budget;
    const RepairResult result = RepairAssign(p, before, options);
    EXPECT_LE(result.stats.max_len, previous + 1e-9) << "budget " << budget;
    EXPECT_LE(result.repair.migrations, budget);
    previous = result.stats.max_len;
  }
}

TEST(RepairTest, RespectsCapacities) {
  Rng rng(61);
  const Problem p = test::RandomProblem(24, 4, rng);  // 24 clients
  RepairOptions assign_caps;
  assign_caps.assign.capacity = 8;
  const Assignment before = GreedyAssign(p, assign_caps.assign);
  RepairOptions options;
  options.assign.capacity = 8;  // 3 survivors x 8 = 24: exactly tight
  options.failed = {3};
  options.migration_budget = 4;
  const RepairResult result = RepairAssign(p, before, options);
  EXPECT_LE(MaxServerLoad(p, result.assignment), 8);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    EXPECT_NE(result.assignment[c], 3);
  }
}

TEST(RepairTest, ThrowsWhenSurvivorsCannotHoldEveryone) {
  Rng rng(67);
  const Problem p = test::RandomProblem(24, 4, rng);
  RepairOptions caps;
  caps.assign.capacity = 8;
  const Assignment before = GreedyAssign(p, caps.assign);
  RepairOptions options;
  options.assign.capacity = 8;
  options.failed = {2, 3};  // 2 survivors x 8 = 16 < 24 clients
  EXPECT_THROW(RepairAssign(p, before, options), Error);
}

TEST(RepairTest, ValidatesInputs) {
  Rng rng(71);
  const Problem p = test::RandomProblem(12, 3, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions out_of_range;
  out_of_range.failed = {5};
  EXPECT_THROW(RepairAssign(p, before, out_of_range), Error);
  RepairOptions duplicated;
  duplicated.failed = {1, 1};
  EXPECT_THROW(RepairAssign(p, before, duplicated), Error);
  RepairOptions all_down;
  all_down.failed = {0, 1, 2};
  EXPECT_THROW(RepairAssign(p, before, all_down), Error);
  Assignment incomplete(p.num_clients());
  RepairOptions options;
  options.failed = {0};
  EXPECT_THROW(RepairAssign(p, incomplete, options), Error);
}

TEST(RepairTest, NoFailuresIsIdentity) {
  Rng rng(73);
  const Problem p = test::RandomProblem(15, 3, rng);
  const Assignment before = GreedyAssign(p);
  const RepairResult result = RepairAssign(p, before, {});
  EXPECT_EQ(result.assignment, before);
  EXPECT_EQ(result.repair.orphans, 0);
}

TEST(RepairTest, DeterministicAcrossRuns) {
  Rng rng(79);
  const Problem p = test::RandomProblem(50, 7, rng);
  const Assignment before = GreedyAssign(p);
  RepairOptions options;
  options.failed = {0, 4};
  options.migration_budget = 3;
  const RepairResult a = RepairAssign(p, before, options);
  const RepairResult b = RepairAssign(p, before, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.repair.evaluations, b.repair.evaluations);
}

TEST(RepairTest, FailedServerWithZeroClientsIsANoOp) {
  // A crash of a server nobody was assigned to must repair to the exact
  // same assignment — zero orphans, zero migrations, no surprises.
  Rng rng(89);
  const Problem p = test::RandomProblem(20, 4, rng);
  Assignment before = GreedyAssign(p);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (before[c] == 3) before[c] = 0;  // empty out server 3
  }
  RepairOptions options;
  options.failed = {3};
  const RepairResult result = RepairAssign(p, before, options);
  EXPECT_EQ(result.assignment, before);
  EXPECT_EQ(result.repair.orphans, 0);
  EXPECT_EQ(result.repair.migrations, 0);
}

TEST(ReoptimizeTest, ProposalsLowerTheObjectiveBySequentialGains) {
  Rng rng(97);
  const Problem p = test::RandomProblem(30, 5, rng);
  const Assignment start = NearestServerAssign(p);
  IncrementalEvaluator eval(p, start);
  ReoptimizeOptions options;
  options.max_moves = 4;
  const ReoptimizeResult result = ProposeReoptimization(p, eval, options);
  ASSERT_GT(result.moves.size(), 0u);  // nearest-server leaves headroom
  // The caller's evaluator is untouched; replaying the move sequence
  // reproduces each sequential gain and the projected objective.
  EXPECT_EQ(eval.assignment(), start);
  IncrementalEvaluator replay = eval;
  for (const MoveProposal& move : result.moves) {
    EXPECT_GE(move.gain, options.min_gain);
    EXPECT_EQ(replay.ServerOf(move.client), move.from);
    const double before = replay.CurrentMax();
    replay.ApplyMove(move.client, move.to);
    EXPECT_NEAR(replay.CurrentMax(), before - move.gain, 1e-9);
  }
  EXPECT_NEAR(replay.CurrentMax(), result.projected_max_len, 1e-9);
  EXPECT_GT(result.evaluations, 0);
}

TEST(ReoptimizeTest, DownServersAreNeverTouched) {
  // The down server is the maximal pair's first server and holds clients,
  // so its witness is the descent's natural first move.
  std::int32_t proposing = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 101);
    const Problem p = test::RandomProblem(30, 5, rng);
    IncrementalEvaluator eval(p, RandomAssign(p, rng));
    const ServerIndex dead = eval.MaxPairFirst();
    ReoptimizeOptions options;
    options.max_moves = 8;
    options.down.assign(static_cast<std::size_t>(p.num_servers()), 0);
    options.down[static_cast<std::size_t>(dead)] = 1;
    const ReoptimizeResult result = ProposeReoptimization(p, eval, options);
    proposing += result.moves.empty() ? 0 : 1;
    for (const MoveProposal& move : result.moves) {
      EXPECT_NE(move.to, dead) << "seed " << seed;
      // Re-homing off a dead server is repair's job.
      EXPECT_NE(move.from, dead) << "seed " << seed;
    }
  }
  EXPECT_GT(proposing, 0);
}

TEST(ReoptimizeTest, MaxMovesAndMinGainBound) {
  Rng rng(103);
  const Problem p = test::RandomProblem(30, 5, rng);
  IncrementalEvaluator eval(p, NearestServerAssign(p));
  ReoptimizeOptions one;
  one.max_moves = 1;
  EXPECT_LE(ProposeReoptimization(p, eval, one).moves.size(), 1u);
  // An unreachable gain threshold silences every proposal.
  ReoptimizeOptions impossible;
  impossible.max_moves = 8;
  impossible.min_gain = 1e12;
  const ReoptimizeResult none = ProposeReoptimization(p, eval, impossible);
  EXPECT_TRUE(none.moves.empty());
  EXPECT_FALSE(none.budget_exhausted);
  EXPECT_NEAR(none.projected_max_len, eval.CurrentMax(), 1e-12);
}

TEST(ReoptimizeTest, ExhaustedBudgetDiscardsThePartialRound) {
  Rng rng(107);
  const Problem p = test::RandomProblem(30, 5, rng);
  IncrementalEvaluator eval(p, NearestServerAssign(p));
  ReoptimizeOptions starved;
  starved.max_moves = 4;
  starved.eval_budget = 1;  // cannot even finish scoring one client
  const ReoptimizeResult result = ProposeReoptimization(p, eval, starved);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_TRUE(result.moves.empty());
  EXPECT_LE(result.evaluations, p.num_servers());
}

TEST(ReoptimizeTest, DeterministicAcrossThreadsAndSeeds) {
  // The determinism grid: for every seed, every thread count must produce
  // the byte-identical proposal stream, round after round.
  for (std::uint64_t seed : {211u, 223u, 227u}) {
    Rng rng(seed);
    const Problem p = test::RandomProblem(40, 6, rng);
    const Assignment start = NearestServerAssign(p);
    std::vector<std::vector<MoveProposal>> rounds_by_threads;
    std::vector<std::int64_t> evals_by_threads;
    for (int threads : {1, 4}) {
      SetGlobalThreads(threads);
      IncrementalEvaluator eval(p, start);
      std::vector<MoveProposal> all_moves;
      std::int64_t evaluations = 0;
      for (int round = 0; round < 3; ++round) {  // epoch-over-epoch
        ReoptimizeOptions options;
        options.max_moves = 2;
        const ReoptimizeResult result = ProposeReoptimization(p, eval, options);
        evaluations += result.evaluations;
        for (const MoveProposal& move : result.moves) {
          eval.ApplyMove(move.client, move.to);
          all_moves.push_back(move);
        }
      }
      rounds_by_threads.push_back(std::move(all_moves));
      evals_by_threads.push_back(evaluations);
    }
    SetGlobalThreads(0);
    ASSERT_EQ(rounds_by_threads[0].size(), rounds_by_threads[1].size())
        << "seed " << seed;
    for (std::size_t i = 0; i < rounds_by_threads[0].size(); ++i) {
      EXPECT_EQ(rounds_by_threads[0][i].client, rounds_by_threads[1][i].client);
      EXPECT_EQ(rounds_by_threads[0][i].from, rounds_by_threads[1][i].from);
      EXPECT_EQ(rounds_by_threads[0][i].to, rounds_by_threads[1][i].to);
      EXPECT_EQ(rounds_by_threads[0][i].gain, rounds_by_threads[1][i].gain);
    }
    EXPECT_EQ(evals_by_threads[0], evals_by_threads[1]) << "seed " << seed;
  }
}

TEST(RepairTest, RegistryRequiresInitialAndFailedSet) {
  Rng rng(83);
  const Problem p = test::RandomProblem(12, 3, rng);
  EXPECT_THROW(Solve("repair", p), Error);  // no initial assignment
  const Assignment before = GreedyAssign(p);
  SolveOptions options;
  options.initial = &before;
  options.failed_servers = {0};
  const SolveResult via_registry = Solve("repair", p, options);
  RepairOptions direct;
  direct.failed = {0};
  EXPECT_EQ(via_registry.assignment, RepairAssign(p, before, direct).assignment);
}

// --- one bottleneck descent against the scan-based reference ----------------
//
// RepairAssign's two phases and ProposeReoptimization run one descent
// that takes each anchor's witness from the evaluator: the anchor's cached
// farthest client, or its farthest orphan in repair's orphan phase.
// ReferenceDescent finds it by a scan over candidate clients in a fixed
// order (hardest-first orphans, or every client by index) that keeps the
// first client with the largest d(c, anchor). Both must apply the same
// moves and count the same evaluations on every input; a faster evaluator
// must keep passing these tests unchanged.

using test::TieHeavyProblem;

// A complete assignment with at most `capacity` clients per server
// (capacity < 0: unlimited).
Assignment RandomCappedAssignment(const Problem& p, std::int32_t capacity,
                                  Rng& rng) {
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  std::vector<std::int32_t> load(static_cast<std::size_t>(p.num_servers()), 0);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    ServerIndex s = kUnassigned;
    do {
      s = static_cast<ServerIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    } while (capacity >= 0 && load[static_cast<std::size_t>(s)] >= capacity);
    a[c] = s;
    ++load[static_cast<std::size_t>(s)];
  }
  return a;
}

struct ReferenceRules {
  std::vector<ClientIndex> candidates;  ///< witness scan order
  std::vector<char> closed;             ///< per-server; empty: none
  AssignOptions assign;
  double margin = 1e-9;
  std::int64_t eval_budget = -1;
};

// The scan-based bottleneck loop. Returns true when the budget ran out
// mid-round. `divergences` counts anchors whose scan witness is not the
// first candidate of the anchor's farthest-first run.
template <typename OnMove>
bool ReferenceDescent(const Problem& p, const ReferenceRules& rules,
                      IncrementalEvaluator& eval, std::int64_t& evaluations,
                      std::int32_t& divergences, OnMove on_move) {
  std::vector<char> is_candidate(static_cast<std::size_t>(p.num_clients()), 0);
  for (const ClientIndex c : rules.candidates) {
    is_candidate[static_cast<std::size_t>(c)] = 1;
  }
  auto open = [&](ServerIndex s) {
    if (!rules.closed.empty() && rules.closed[static_cast<std::size_t>(s)]) {
      return false;
    }
    return !rules.assign.capacitated() ||
           eval.LoadOf(s) < rules.assign.CapacityOf(s);
  };
  while (true) {
    const ServerIndex pair_a = eval.MaxPairFirst();
    if (pair_a == kUnassigned) return false;
    const ServerIndex pair_b = eval.MaxPairSecond();
    ClientIndex best_client = -1;
    ServerIndex best_target = kUnassigned;
    double best_value = eval.CurrentMax() - rules.margin;
    std::vector<ServerIndex> anchors{pair_a};
    if (pair_b != pair_a && pair_b != kUnassigned) anchors.push_back(pair_b);
    for (const ServerIndex anchor : anchors) {
      if (!rules.closed.empty() &&
          rules.closed[static_cast<std::size_t>(anchor)] != 0) {
        continue;  // a closed anchor keeps its clients
      }
      ClientIndex witness = -1;
      double witness_d = -1.0;
      for (const ClientIndex c : rules.candidates) {
        if (eval.ServerOf(c) != anchor) continue;
        const double d = p.client_block().cs(c, anchor);
        if (d > witness_d) {
          witness_d = d;
          witness = c;
        }
      }
      if (witness < 0) continue;
      for (const auto& [unused, c] : eval.FarthestFirst(anchor)) {
        if (is_candidate[static_cast<std::size_t>(c)] == 0) continue;
        if (c != witness) ++divergences;
        break;
      }
      for (ServerIndex s = 0; s < p.num_servers(); ++s) {
        if (s == anchor || !open(s)) continue;
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

RepairResult ReferenceRepair(const Problem& p, const Assignment& current,
                             const RepairOptions& options,
                             std::int32_t& divergences) {
  const std::int32_t n = p.num_clients();
  std::vector<char> failed(static_cast<std::size_t>(p.num_servers()), 0);
  for (const ServerIndex s : options.failed) {
    failed[static_cast<std::size_t>(s)] = 1;
  }
  std::vector<std::int32_t> load(static_cast<std::size_t>(p.num_servers()), 0);
  for (ClientIndex c = 0; c < n; ++c) {
    ++load[static_cast<std::size_t>(current[c])];
  }
  const bool capacitated = options.assign.capacitated();
  std::vector<char> is_orphan(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<double, ClientIndex>> order;
  for (ClientIndex c = 0; c < n; ++c) {
    if (failed[static_cast<std::size_t>(current[c])] == 0) continue;
    is_orphan[static_cast<std::size_t>(c)] = 1;
    double nearest = std::numeric_limits<double>::infinity();
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      if (failed[static_cast<std::size_t>(s)] == 0) {
        nearest = std::min(nearest, p.client_block().cs(c, s));
      }
    }
    order.emplace_back(nearest, c);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  RepairResult result;
  result.repair.orphans = static_cast<std::int32_t>(order.size());
  if (order.empty() && options.migration_budget <= 0) {
    result.assignment = current;
    result.stats.max_len = MaxInteractionPathLength(p, current);
    return result;
  }
  Assignment seeded = current;
  ReferenceRules orphan_rules;
  for (const auto& [unused, c] : order) {
    ServerIndex best = kUnassigned;
    double best_d = std::numeric_limits<double>::infinity();
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      if (failed[static_cast<std::size_t>(s)] != 0) continue;
      if (capacitated &&
          load[static_cast<std::size_t>(s)] >= options.assign.CapacityOf(s)) {
        continue;
      }
      if (p.client_block().cs(c, s) < best_d) {
        best_d = p.client_block().cs(c, s);
        best = s;
      }
    }
    seeded[c] = best;
    ++load[static_cast<std::size_t>(best)];
    orphan_rules.candidates.push_back(c);
  }
  IncrementalEvaluator eval(p, seeded);
  orphan_rules.closed = failed;
  orphan_rules.assign = options.assign;
  ReferenceDescent(p, orphan_rules, eval, result.repair.evaluations,
                   divergences,
                   [&](ClientIndex, ServerIndex, ServerIndex, double) {
                     ++result.repair.orphan_improvements;
                     return true;
                   });
  std::int32_t budget = options.migration_budget;
  if (budget > 0) {
    ReferenceRules migration_rules = orphan_rules;
    migration_rules.candidates.resize(static_cast<std::size_t>(n));
    std::iota(migration_rules.candidates.begin(),
              migration_rules.candidates.end(), 0);
    ReferenceDescent(p, migration_rules, eval, result.repair.evaluations,
                     divergences,
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
  result.assignment = eval.assignment();
  result.stats.max_len = eval.CurrentMax();
  return result;
}

ReoptimizeResult ReferenceReoptimize(const Problem& p,
                                     const IncrementalEvaluator& eval,
                                     const ReoptimizeOptions& options,
                                     std::int32_t& divergences) {
  ReoptimizeResult result;
  result.projected_max_len = eval.CurrentMax();
  if (options.max_moves <= 0) return result;
  IncrementalEvaluator scratch(eval);
  ReferenceRules rules;
  rules.candidates.resize(static_cast<std::size_t>(p.num_clients()));
  std::iota(rules.candidates.begin(), rules.candidates.end(), 0);
  rules.closed = options.down;
  rules.assign = options.assign;
  rules.margin = options.min_gain;
  rules.eval_budget = options.eval_budget;
  result.budget_exhausted = ReferenceDescent(
      p, rules, scratch, result.evaluations, divergences,
      [&](ClientIndex c, ServerIndex from, ServerIndex to, double gain) {
        result.moves.push_back(MoveProposal{c, from, to, gain});
        return static_cast<std::int32_t>(result.moves.size()) <
               options.max_moves;
      });
  result.projected_max_len = scratch.CurrentMax();
  return result;
}

void ExpectSameRepair(const RepairResult& got, const RepairResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.assignment, want.assignment) << label;
  EXPECT_EQ(got.repair.orphans, want.repair.orphans) << label;
  EXPECT_EQ(got.repair.orphan_improvements, want.repair.orphan_improvements)
      << label;
  EXPECT_EQ(got.repair.migrations, want.repair.migrations) << label;
  EXPECT_EQ(got.repair.evaluations, want.repair.evaluations) << label;
  EXPECT_EQ(got.stats.max_len, want.stats.max_len) << label;
}

void ExpectSameProposals(const ReoptimizeResult& got,
                         const ReoptimizeResult& want,
                         const std::string& label) {
  ASSERT_EQ(got.moves.size(), want.moves.size()) << label;
  for (std::size_t i = 0; i < got.moves.size(); ++i) {
    const std::string at = label + " move " + std::to_string(i);
    EXPECT_EQ(got.moves[i].client, want.moves[i].client) << at;
    EXPECT_EQ(got.moves[i].from, want.moves[i].from) << at;
    EXPECT_EQ(got.moves[i].to, want.moves[i].to) << at;
    EXPECT_EQ(got.moves[i].gain, want.moves[i].gain) << at;
  }
  EXPECT_EQ(got.evaluations, want.evaluations) << label;
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << label;
  EXPECT_EQ(got.projected_max_len, want.projected_max_len) << label;
}

TEST(OneDescentTest, RepairMatchesScanReference) {
  // Scan and run witnesses may differ on tied orphans; the next test pins
  // an instance where they do.
  std::int32_t divergences = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    const auto num_servers =
        static_cast<std::int32_t>(3 + rng.NextBounded(5));
    const auto num_clients =
        static_cast<std::int32_t>(12 + rng.NextBounded(30));
    const Problem p = TieHeavyProblem(num_clients, num_servers, rng);
    std::vector<ServerIndex> failed;
    const auto num_failed = static_cast<std::int32_t>(rng.NextBounded(3));
    for (const std::int32_t s :
         rng.SampleWithoutReplacement(num_servers, num_failed)) {
      failed.push_back(s);
    }
    // Odd seeds are capacitated, with 0-2 spare slots per survivor.
    const std::int32_t survivors = num_servers - num_failed;
    const std::int32_t capacity =
        seed % 2 == 0 ? -1
                      : (num_clients + survivors - 1) / survivors +
                            static_cast<std::int32_t>(rng.NextBounded(3));
    const Assignment before = RandomCappedAssignment(p, capacity, rng);
    for (const std::int32_t budget : {0, 1, 5}) {
      RepairOptions options;
      options.assign.capacity = capacity;
      options.failed = failed;
      options.migration_budget = budget;
      const std::string label = "seed " + std::to_string(seed) + " budget " +
                                std::to_string(budget);
      ExpectSameRepair(RepairAssign(p, before, options),
                       ReferenceRepair(p, before, options, divergences), label);
    }
  }
}

TEST(OneDescentTest, TiedOrphansOnOneAnchorApplyTheSameMoves) {
  // Servers 0, 1, 3 survive server 2; capacity 2 each. Orphans 0 and 1
  // both end on server 0 at distance 5: orphan 1 (nearest survivor 5)
  // comes first in the hardest-first order and takes server 0; orphan 0
  // (nearest survivor 1, on the full server 1) falls back to server 0.
  // The scan's witness on server 0 is orphan 1, the run's is orphan 0.
  // Moving either one leaves far(0) at 5, so neither move is applied.
  const std::vector<double> d_cs = {
      5, 1, 0, 9,  // orphan 0
      5, 6, 0, 9,  // orphan 1
      4, 2, 0, 4,  // on server 1
      4, 1, 0, 4,  // on server 1
  };
  const std::vector<double> d_ss = {
      0, 3, 1, 2,  //
      3, 0, 1, 2,  //
      1, 1, 0, 1,  //
      2, 2, 1, 0,  //
  };
  const Problem p = Problem::FromBlocks({0, 1, 2, 3}, {4, 5, 6, 7}, d_cs, d_ss);
  Assignment before(4);
  before[0] = 2;
  before[1] = 2;
  before[2] = 1;
  before[3] = 1;
  for (const std::int32_t budget : {0, 1, 5}) {
    RepairOptions options;
    options.assign.capacity = 2;
    options.failed = {2};
    options.migration_budget = budget;
    std::int32_t divergences = 0;
    const RepairResult want = ReferenceRepair(p, before, options, divergences);
    EXPECT_GT(divergences, 0) << "budget " << budget;
    const RepairResult got = RepairAssign(p, before, options);
    ExpectSameRepair(got, want, "budget " + std::to_string(budget));
    EXPECT_EQ(got.assignment[0], 0);
    EXPECT_EQ(got.assignment[1], 0);
    EXPECT_GT(got.repair.evaluations, 0);
  }
}

TEST(OneDescentTest, ReoptimizeMatchesScanReference) {
  std::int32_t divergences = 0;
  std::int32_t exhausted_mid_round = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 104729);
    const auto num_servers =
        static_cast<std::int32_t>(3 + rng.NextBounded(5));
    const auto num_clients =
        static_cast<std::int32_t>(12 + rng.NextBounded(30));
    const Problem p = TieHeavyProblem(num_clients, num_servers, rng);
    // A partial state: about a fifth of the clients are not members.
    const std::int32_t capacity =
        seed % 2 == 0 ? -1 : num_clients / num_servers + 2;
    Assignment start = RandomCappedAssignment(p, capacity, rng);
    for (ClientIndex c = 0; c < num_clients; ++c) {
      if (rng.NextBernoulli(0.2)) start[c] = kUnassigned;
    }
    IncrementalEvaluator eval(p, start, IncrementalEvaluator::AllowPartial{});
    std::vector<char> down;
    if (seed % 3 == 0) {
      down.assign(static_cast<std::size_t>(num_servers), 0);
      down[rng.NextBounded(static_cast<std::uint64_t>(num_servers))] = 1;
    }
    for (const std::int32_t max_moves : {1, 3, 8}) {
      for (const double min_gain : {1e-9, 1.0}) {
        for (const std::int64_t budget : {-1, 0, 1, 5, 13, 40}) {
          ReoptimizeOptions options;
          options.assign.capacity = capacity;
          options.down = down;
          options.max_moves = max_moves;
          options.min_gain = min_gain;
          options.eval_budget = budget;
          const std::string label =
              "seed " + std::to_string(seed) + " moves " +
              std::to_string(max_moves) + " gain " + std::to_string(min_gain) +
              " budget " + std::to_string(budget);
          const ReoptimizeResult want =
              ReferenceReoptimize(p, eval, options, divergences);
          ExpectSameProposals(ProposeReoptimization(p, eval, options), want,
                              label);
          if (want.budget_exhausted && want.evaluations > 0) {
            ++exhausted_mid_round;
          }
        }
      }
    }
    // Every proposal round ran on `eval` and rolled it back.
    EXPECT_EQ(eval.assignment(), start) << "seed " << seed;
  }
  // The witness is the head of the run for every active client, and some
  // budgets run out after a round has started.
  EXPECT_EQ(divergences, 0);
  EXPECT_GT(exhausted_mid_round, 0);
}

TEST(OneDescentTest, EvaluatorRunsStayFarthestFirst) {
  // After every add, remove and move, each server's run holds exactly its
  // active clients with their d(c, s) bits, farthest first and lowest
  // client first on ties, and the run's head is the scan witness: the
  // first client by index with the largest distance.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 15485863);
    const Problem p = TieHeavyProblem(30, 5, rng);
    Assignment a(static_cast<std::size_t>(p.num_clients()));
    for (ClientIndex c = 0; c < p.num_clients(); ++c) {
      if (rng.NextBernoulli(0.5)) {
        a[c] = static_cast<ServerIndex>(rng.NextBounded(5));
      }
    }
    IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
    for (int step = 0; step <= 200; ++step) {
      if (step > 0) {
        const auto c = static_cast<ClientIndex>(
            rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
        const auto s = static_cast<ServerIndex>(rng.NextBounded(5));
        if (!eval.IsActive(c)) {
          eval.AddClient(c, s);
          a[c] = s;
        } else if (rng.NextBernoulli(0.3)) {
          eval.RemoveClient(c);
          a[c] = kUnassigned;
        } else {
          eval.ApplyMove(c, s);
          a[c] = s;
        }
      }
      for (ServerIndex s = 0; s < p.num_servers(); ++s) {
        std::vector<IncrementalEvaluator::FarEntry> want;
        ClientIndex witness = -1;
        double witness_d = -1.0;
        for (ClientIndex c = 0; c < p.num_clients(); ++c) {
          if (a[c] != s) continue;
          const double d = p.client_block().cs(c, s);
          want.emplace_back(d, c);
          if (d > witness_d) {
            witness_d = d;
            witness = c;
          }
        }
        std::sort(want.begin(), want.end(), [](const auto& x, const auto& y) {
          return x.first != y.first ? x.first > y.first : x.second < y.second;
        });
        const auto run = eval.FarthestFirst(s);
        ASSERT_TRUE(
            std::equal(run.begin(), run.end(), want.begin(), want.end()))
            << "seed " << seed << " step " << step << " server " << s;
        EXPECT_EQ(eval.LoadOf(s), static_cast<std::int32_t>(want.size()));
        if (witness >= 0) {
          EXPECT_EQ(run.front().second, witness)
              << "seed " << seed << " step " << step << " server " << s;
        }
      }
    }
  }
}

}  // namespace
}  // namespace diaca::core
