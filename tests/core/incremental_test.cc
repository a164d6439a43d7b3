#include "core/incremental.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/random_assign.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

TEST(IncrementalTest, InitialMaxMatchesReference) {
  Rng rng(1);
  const Problem p = test::RandomProblem(20, 5, rng);
  const Assignment a = NearestServerAssign(p);
  const IncrementalEvaluator evaluator(p, a);
  EXPECT_NEAR(evaluator.CurrentMax(), MaxInteractionPathLength(p, a), 1e-9);
}

TEST(IncrementalTest, EvaluateMoveDoesNotMutate) {
  Rng rng(2);
  const Problem p = test::RandomProblem(15, 4, rng);
  const Assignment a = NearestServerAssign(p);
  IncrementalEvaluator evaluator(p, a);
  const double before = evaluator.CurrentMax();
  (void)evaluator.EvaluateMove(0, (a[0] + 1) % p.num_servers());
  EXPECT_DOUBLE_EQ(evaluator.CurrentMax(), before);
  EXPECT_EQ(evaluator.assignment(), a);
}

TEST(IncrementalTest, NoOpMoveIsIdentity) {
  Rng rng(3);
  const Problem p = test::RandomProblem(10, 3, rng);
  const Assignment a = NearestServerAssign(p);
  IncrementalEvaluator evaluator(p, a);
  EXPECT_DOUBLE_EQ(evaluator.EvaluateMove(0, a[0]), evaluator.CurrentMax());
  EXPECT_DOUBLE_EQ(evaluator.ApplyMove(0, a[0]), evaluator.CurrentMax());
  EXPECT_EQ(evaluator.assignment(), a);
}

class IncrementalPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalPropertyTest, RandomMoveSequenceTracksReference) {
  // Differential test: a long random sequence of evaluate/apply operations
  // must always agree with the from-scratch computation, including through
  // history-carrying states (tied distances, emptied servers).
  Rng rng(GetParam());
  const Problem p = test::RandomProblem(18, 4, rng);
  Rng arng(GetParam() + 50);
  const Assignment start = RandomAssign(p, arng);
  IncrementalEvaluator evaluator(p, start);
  Assignment mirror = start;
  Rng move_rng(GetParam() + 99);
  for (int step = 0; step < 300; ++step) {
    const auto c = static_cast<ClientIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
    const auto s = static_cast<ServerIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    // Preview must equal the reference of the hypothetical assignment.
    Assignment preview = mirror;
    preview[c] = s;
    EXPECT_NEAR(evaluator.EvaluateMove(c, s),
                MaxInteractionPathLength(p, preview), 1e-9)
        << "step " << step;
    if (move_rng.NextBernoulli(0.6)) {
      evaluator.ApplyMove(c, s);
      mirror[c] = s;
      EXPECT_NEAR(evaluator.CurrentMax(),
                  MaxInteractionPathLength(p, mirror), 1e-9)
          << "step " << step;
      EXPECT_EQ(evaluator.assignment(), mirror);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(IncrementalTest, FastPathAvoidsFullRescans) {
  // Moves among servers far from the critical pair should mostly take the
  // O(|S|) path.
  Rng rng(9);
  const Problem p = test::RandomProblem(100, 10, rng);
  IncrementalEvaluator evaluator(p, NearestServerAssign(p));
  Rng move_rng(10);
  constexpr int kMoves = 500;
  for (int i = 0; i < kMoves; ++i) {
    const auto c = static_cast<ClientIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
    const auto s = static_cast<ServerIndex>(
        move_rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    (void)evaluator.EvaluateMove(c, s);
  }
  EXPECT_LT(evaluator.full_rescans(), kMoves / 2);
}

TEST(IncrementalTest, EmptyingAServerHandled) {
  // Two servers, two clients; move both clients to server 1, emptying 0.
  net::LatencyMatrix m(4);
  m.Set(0, 1, 10.0);
  m.Set(0, 2, 1.0);
  m.Set(1, 2, 9.0);
  m.Set(0, 3, 8.0);
  m.Set(1, 3, 2.0);
  m.Set(2, 3, 7.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3});
  Assignment a(2);
  a[0] = 0;
  a[1] = 0;
  IncrementalEvaluator evaluator(p, a);
  evaluator.ApplyMove(0, 1);
  evaluator.ApplyMove(1, 1);
  Assignment expect(2);
  expect[0] = 1;
  expect[1] = 1;
  EXPECT_NEAR(evaluator.CurrentMax(), MaxInteractionPathLength(p, expect),
              1e-9);
  EXPECT_EQ(evaluator.LoadOf(0), 0);
  EXPECT_EQ(evaluator.LoadOf(1), 2);
}

TEST(IncrementalTest, RejectsIncompleteAssignment) {
  Rng rng(11);
  const Problem p = test::RandomProblem(5, 2, rng);
  Assignment partial(static_cast<std::size_t>(p.num_clients()));
  EXPECT_THROW(IncrementalEvaluator(p, partial), Error);
}

// --- partial assignments (the churn control plane's working state) ---------

// Reference objective over just the attached clients.
double PartialMaxPath(const Problem& p, const Assignment& a) {
  double best = 0.0;
  for (ClientIndex i = 0; i < p.num_clients(); ++i) {
    if (a[i] == kUnassigned) continue;
    for (ClientIndex j = i; j < p.num_clients(); ++j) {
      if (a[j] == kUnassigned) continue;
      best = std::max(best, InteractionPathLength(p, a, i, j));
    }
  }
  return best;
}

TEST(IncrementalPartialTest, AddRemoveMoveTracksReference) {
  // Differential test of the membership lifecycle: arrivals, departures,
  // and migrations over a partial assignment always agree with the
  // from-scratch member-only objective.
  Rng rng(21);
  const Problem p = test::RandomProblem(18, 4, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  EXPECT_EQ(eval.num_active(), 0);
  EXPECT_DOUBLE_EQ(eval.CurrentMax(), 0.0);
  for (int step = 0; step < 120; ++step) {
    const ClientIndex c =
        static_cast<ClientIndex>(rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
    const ServerIndex s =
        static_cast<ServerIndex>(rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    if (!eval.IsActive(c)) {
      // EvaluateAdd predicts without mutating; AddClient commits.
      const double predicted = eval.EvaluateAdd(c, s);
      EXPECT_EQ(eval.assignment()[c], kUnassigned);
      EXPECT_DOUBLE_EQ(eval.AddClient(c, s), predicted);
      a[c] = s;
    } else if (rng.NextBounded(2) == 0) {
      eval.RemoveClient(c);
      a[c] = kUnassigned;
    } else {
      eval.ApplyMove(c, s);
      a[c] = s;
    }
    EXPECT_NEAR(eval.CurrentMax(), PartialMaxPath(p, a), 1e-9)
        << "step " << step;
    std::int32_t active = 0;
    for (ClientIndex i = 0; i < p.num_clients(); ++i) {
      active += a[i] != kUnassigned ? 1 : 0;
      EXPECT_EQ(eval.IsActive(i), a[i] != kUnassigned);
    }
    EXPECT_EQ(eval.num_active(), active);
  }
}

TEST(IncrementalPartialTest, SelfPairCountsForALoneClient) {
  // With a single attached client the objective is its self-pair path
  // d(c, s) + 0 + d(s, c), never zero.
  Rng rng(23);
  const Problem p = test::RandomProblem(10, 3, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  eval.AddClient(2, 1);
  EXPECT_DOUBLE_EQ(eval.CurrentMax(), 2.0 * p.client_block().cs(2, 1));
  // Removing the last member drains the objective back to zero.
  eval.RemoveClient(2);
  EXPECT_DOUBLE_EQ(eval.CurrentMax(), 0.0);
  EXPECT_EQ(eval.num_active(), 0);
}

TEST(IncrementalPartialTest, LifecycleMisuseThrows) {
  Rng rng(25);
  const Problem p = test::RandomProblem(8, 2, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  a[0] = 0;
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  EXPECT_THROW(eval.AddClient(0, 1), Error);       // already active
  EXPECT_THROW(eval.EvaluateAdd(0, 1), Error);
  EXPECT_THROW(eval.RemoveClient(3), Error);       // never attached
  EXPECT_THROW((void)eval.EvaluateMove(3, 1), Error);
  EXPECT_THROW(eval.ApplyMove(3, 1), Error);
}

// --- the evaluator against a from-scratch reference of its rules ----------
//
// ReferenceEvaluator recomputes every far(s) from the assignment at each
// step and applies the evaluator's pair rules literally: the
// lexicographically-first full pair scan when a move touches the cached
// pair or a removal leaves a pair endpoint, and the anchor-first touching
// scan on every other move and on every attach. The evaluator must report
// the same value bits and the same pair after every step.

struct RefPair {
  double value = 0.0;
  ServerIndex a = kUnassigned;
  ServerIndex b = kUnassigned;
};

class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const Problem& p, const Assignment& a)
      : p_(p), a_(a), pair_(FullScan(Far(a))) {}

  const RefPair& pair() const { return pair_; }

  double EvaluateMove(ClientIndex c, ServerIndex to) const {
    return Evaluate(c, to).value;
  }
  void ApplyMove(ClientIndex c, ServerIndex to) {
    pair_ = Evaluate(c, to);
    a_[c] = to;
  }
  double EvaluateAdd(ClientIndex c, ServerIndex to) const {
    Assignment b = a_;
    b[c] = to;
    return std::max(pair_.value, Touching(Far(b), kUnassigned, to).value);
  }
  void AddClient(ClientIndex c, ServerIndex to) {
    Assignment b = a_;
    b[c] = to;
    const RefPair touching = Touching(Far(b), kUnassigned, to);
    if (pair_.a == kUnassigned || touching.value > pair_.value) {
      pair_ = touching;
    }
    a_ = b;
  }
  void RemoveClient(ClientIndex c) {
    const ServerIndex from = a_[c];
    a_[c] = kUnassigned;
    if (pair_.a == from || pair_.b == from) pair_ = FullScan(Far(a_));
  }

 private:
  std::vector<double> Far(const Assignment& b) const {
    std::vector<double> far(static_cast<std::size_t>(p_.num_servers()), -1.0);
    for (ClientIndex c = 0; c < p_.num_clients(); ++c) {
      if (b[c] == kUnassigned) continue;
      double& f = far[static_cast<std::size_t>(b[c])];
      f = std::max(f, p_.client_block().cs(c, b[c]));
    }
    return far;
  }

  // First maximum over s1 <= s2, both non-empty, in (s1, s2) order.
  RefPair FullScan(const std::vector<double>& far) const {
    RefPair best;
    for (ServerIndex s1 = 0; s1 < p_.num_servers(); ++s1) {
      const double f1 = far[static_cast<std::size_t>(s1)];
      if (f1 < 0.0) continue;
      for (ServerIndex s2 = s1; s2 < p_.num_servers(); ++s2) {
        const double f2 = far[static_cast<std::size_t>(s2)];
        if (f2 < 0.0) continue;
        const double v = (f1 + p_.ss(s1, s2)) + f2;
        if (best.a == kUnassigned || v > best.value) best = {v, s1, s2};
      }
    }
    return best;
  }

  // Best pair touching `from` or `to`, each anchor's first maximum over
  // every partner, the first anchor kept on equal values.
  RefPair Touching(const std::vector<double>& far, ServerIndex from,
                   ServerIndex to) const {
    RefPair best;
    for (const ServerIndex anchor : {from, to}) {
      if (anchor < 0) continue;
      const double fa = far[static_cast<std::size_t>(anchor)];
      if (fa < 0.0) continue;
      double row_best = 0.0;
      ServerIndex partner = kUnassigned;
      for (ServerIndex s = 0; s < p_.num_servers(); ++s) {
        const double fs = far[static_cast<std::size_t>(s)];
        if (fs < 0.0) continue;
        const double v = (fa + p_.ss(anchor, s)) + fs;
        if (partner == kUnassigned || v > row_best) {
          row_best = v;
          partner = s;
        }
      }
      if (best.a == kUnassigned || row_best > best.value) {
        best = {row_best, std::min(anchor, partner), std::max(anchor, partner)};
      }
    }
    return best;
  }

  RefPair Evaluate(ClientIndex c, ServerIndex to) const {
    const ServerIndex from = a_[c];
    if (to == from) return pair_;
    Assignment b = a_;
    b[c] = to;
    const std::vector<double> far = Far(b);
    if (pair_.a == from || pair_.a == to || pair_.b == from || pair_.b == to) {
      return FullScan(far);
    }
    const RefPair touching = Touching(far, from, to);
    return touching.value > pair_.value ? touching : pair_;
  }

  const Problem& p_;
  Assignment a_;
  RefPair pair_;
};

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameState(const IncrementalEvaluator& got,
                     const ReferenceEvaluator& want, const std::string& at) {
  ASSERT_EQ(Bits(got.CurrentMax()), Bits(want.pair().value)) << at;
  ASSERT_EQ(got.MaxPairFirst(), want.pair().a) << at;
  ASSERT_EQ(got.MaxPairSecond(), want.pair().b) << at;
}

// The two far accessors against full folds: Eccentricities() is
// ServerEccentricities of the current assignment, and FarWithout(c) is the
// fold with c unassigned, read at c's server, for every active client.
void ExpectFarsMatchFolds(const Problem& p, const IncrementalEvaluator& eval,
                          const std::string& at) {
  const std::vector<double> far = ServerEccentricities(p, eval.assignment());
  for (ServerIndex s = 0; s < p.num_servers(); ++s) {
    const auto si = static_cast<std::size_t>(s);
    ASSERT_EQ(Bits(eval.Eccentricities()[si]), Bits(far[si]))
        << at << " server " << s;
  }
  Assignment rest = eval.assignment();
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    const ServerIndex s = rest[c];
    if (s == kUnassigned) continue;
    rest[c] = kUnassigned;
    ASSERT_EQ(Bits(eval.FarWithout(c)),
              Bits(ServerEccentricities(p, rest)[static_cast<std::size_t>(s)]))
        << at << " client " << c;
    rest[c] = s;
  }
}

// A random partial assignment: each client is a member with probability
// 0.6, on a uniform server.
Assignment RandomPartial(const Problem& p, Rng& rng) {
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    if (rng.NextBernoulli(0.6)) {
      a[c] = static_cast<ServerIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
    }
  }
  return a;
}

// A random client: uniform, or a third of the time a cached pair
// endpoint's farthest client, as the bottleneck descent picks.
ClientIndex PickClient(const IncrementalEvaluator& eval, const Problem& p,
                       Rng& rng) {
  auto c = static_cast<ClientIndex>(
      rng.NextBounded(static_cast<std::uint64_t>(p.num_clients())));
  if (eval.MaxPairFirst() != kUnassigned && rng.NextBernoulli(0.3)) {
    c = eval.Farthest(rng.NextBernoulli(0.5) ? eval.MaxPairFirst()
                                             : eval.MaxPairSecond())
            .second;
  }
  return c;
}

// One random add, remove, move or evaluate step, step `step` of `steps`:
// the client is scored against every server, then maybe one is applied,
// and the pair and both far accessors are checked. Targets are drawn from
// a shrinking prefix of the servers half the time, so servers empty and
// refill.
void StepAgainstReference(const Problem& p, IncrementalEvaluator& eval,
                          ReferenceEvaluator& ref, Rng& rng, int step,
                          int steps, const std::string& at) {
  const std::int32_t num_servers = p.num_servers();
  const ClientIndex c = PickClient(eval, p, rng);
  const std::int32_t span =
      rng.NextBernoulli(0.5)
          ? num_servers
          : 1 + (num_servers - 1) * (steps - step) / steps;
  const auto to = static_cast<ServerIndex>(
      rng.NextBounded(static_cast<std::uint64_t>(span)));
  if (!eval.IsActive(c)) {
    for (ServerIndex s = 0; s < num_servers; ++s) {
      ASSERT_EQ(Bits(eval.EvaluateAdd(c, s)), Bits(ref.EvaluateAdd(c, s)))
          << at << " target " << s;
    }
    if (rng.NextBernoulli(0.7)) {
      eval.AddClient(c, to);
      ref.AddClient(c, to);
    }
  } else if (rng.NextBernoulli(0.25)) {
    eval.RemoveClient(c);
    ref.RemoveClient(c);
  } else {
    for (ServerIndex s = 0; s < num_servers; ++s) {
      ASSERT_EQ(Bits(eval.EvaluateMove(c, s)), Bits(ref.EvaluateMove(c, s)))
          << at << " target " << s;
    }
    if (rng.NextBernoulli(0.6)) {
      eval.ApplyMove(c, to);
      ref.ApplyMove(c, to);
    }
  }
  ExpectSameState(eval, ref, at);
  ExpectFarsMatchFolds(p, eval, at);
}

// Random steps from a partial assignment, a third of them moving a
// cached pair endpoint's farthest client.
void DriveAgainstReference(const Problem& p, std::uint64_t seed) {
  Rng rng(seed);
  const Assignment a = RandomPartial(p, rng);
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  ReferenceEvaluator ref(p, a);
  ExpectSameState(eval, ref, "seed " + std::to_string(seed) + " start");
  constexpr int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    StepAgainstReference(
        p, eval, ref, rng, step, kSteps,
        "seed " + std::to_string(seed) + " step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EvaluatorReferenceTest, TieHeavyStepsMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7727);
    const auto num_servers = static_cast<std::int32_t>(2 + rng.NextBounded(7));
    const auto num_clients = static_cast<std::int32_t>(6 + rng.NextBounded(30));
    DriveAgainstReference(test::TieHeavyProblem(num_clients, num_servers, rng),
                          seed);
  }
}

TEST(EvaluatorReferenceTest, RandomStepsMatchBitForBit) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 6151);
    const auto num_servers = static_cast<std::int32_t>(2 + rng.NextBounded(11));
    const auto num_nodes =
        num_servers + static_cast<std::int32_t>(4 + rng.NextBounded(30));
    DriveAgainstReference(test::RandomProblem(num_nodes, num_servers, rng),
                          seed + 100);
  }
}

TEST(EvaluatorReferenceTest, BestAddIsTheFirstArgminOfEvaluateAdd) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 4241);
    const auto num_servers = static_cast<std::int32_t>(2 + rng.NextBounded(7));
    const Problem p = seed % 2 == 0
                          ? test::TieHeavyProblem(40, num_servers, rng)
                          : test::RandomProblem(40, num_servers, rng);
    Assignment a(static_cast<std::size_t>(p.num_clients()));
    IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
    const auto capacity = static_cast<std::int32_t>(2 + rng.NextBounded(8));
    std::vector<char> eligible(static_cast<std::size_t>(num_servers), 0);
    ASSERT_EQ(eval.BestAdd(0, eligible), kUnassigned);  // nothing eligible
    for (ClientIndex c = 0; c < p.num_clients(); ++c) {
      const std::string at =
          "seed " + std::to_string(seed) + " client " + std::to_string(c);
      ServerIndex want = kUnassigned;
      double want_value = 0.0;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        const bool ok = rng.NextBernoulli(0.7) && eval.LoadOf(s) < capacity;
        eligible[static_cast<std::size_t>(s)] = ok ? 1 : 0;
        if (!ok) continue;
        const double value = eval.EvaluateAdd(c, s);
        if (want == kUnassigned || value < want_value) {
          want = s;
          want_value = value;
        }
      }
      const ServerIndex got = eval.BestAdd(c, eligible);
      ASSERT_EQ(got, want) << at;
      if (got == kUnassigned) continue;
      ASSERT_EQ(Bits(eval.AddClient(c, got)), Bits(want_value)) << at;
    }
  }
}

// --- checkpoint and rollback ---------------------------------------------

// Everything the evaluator reports, against an untouched copy: the
// objective bits, the pair, the assignment, and per server the load, the
// farthest member, the farthest-first run and the member list itself.
void ExpectSameEvaluator(const Problem& p, const IncrementalEvaluator& got,
                         const IncrementalEvaluator& want,
                         const std::string& at) {
  ASSERT_EQ(Bits(got.CurrentMax()), Bits(want.CurrentMax())) << at;
  ASSERT_EQ(got.MaxPairFirst(), want.MaxPairFirst()) << at;
  ASSERT_EQ(got.MaxPairSecond(), want.MaxPairSecond()) << at;
  ASSERT_EQ(got.assignment(), want.assignment()) << at;
  ASSERT_EQ(got.num_active(), want.num_active()) << at;
  for (ServerIndex s = 0; s < p.num_servers(); ++s) {
    const std::string where = at + " server " + std::to_string(s);
    ASSERT_EQ(got.LoadOf(s), want.LoadOf(s)) << where;
    ASSERT_EQ(Bits(got.Farthest(s).first), Bits(want.Farthest(s).first))
        << where;
    ASSERT_EQ(got.Farthest(s).second, want.Farthest(s).second) << where;
    ASSERT_EQ(got.FarthestFirst(s), want.FarthestFirst(s)) << where;
    ASSERT_TRUE(std::ranges::equal(got.Members(s), want.Members(s))) << where;
  }
}

// Rounds of a checkpoint, a burst of up to 11 random moves (a third of
// them off a pair endpoint's head) and a rollback, compared with a copy
// taken at the checkpoint. Reference-checked steps follow each rollback,
// so later evaluations read the restored top two and partner rows.
void DriveRollbacks(const Problem& p, std::uint64_t seed) {
  Rng rng(seed);
  const Assignment a = RandomPartial(p, rng);
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  ReferenceEvaluator ref(p, a);
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    const std::string at =
        "seed " + std::to_string(seed) + " round " + std::to_string(round);
    const IncrementalEvaluator copy = eval;
    eval.Checkpoint();
    const std::uint64_t burst = rng.NextBounded(12);
    for (std::uint64_t k = 0; k < burst; ++k) {
      const ClientIndex c = PickClient(eval, p, rng);
      const auto to = static_cast<ServerIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(p.num_servers())));
      if (eval.IsActive(c)) eval.ApplyMove(c, to);
    }
    eval.Rollback();
    ExpectSameEvaluator(p, eval, copy, at);
    if (::testing::Test::HasFatalFailure()) return;
    for (int step = 0; step < 5; ++step) {
      StepAgainstReference(p, eval, ref, rng, round, kRounds,
                           at + " step " + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EvaluatorRollbackTest, TieHeavyRollbacksRestoreEveryBit) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7727);
    const auto num_servers = static_cast<std::int32_t>(2 + rng.NextBounded(7));
    const auto num_clients = static_cast<std::int32_t>(6 + rng.NextBounded(30));
    DriveRollbacks(test::TieHeavyProblem(num_clients, num_servers, rng),
                   seed + 300);
  }
}

TEST(EvaluatorRollbackTest, RandomRollbacksRestoreEveryBit) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 6151);
    const auto num_servers = static_cast<std::int32_t>(2 + rng.NextBounded(11));
    const auto num_nodes =
        num_servers + static_cast<std::int32_t>(4 + rng.NextBounded(30));
    DriveRollbacks(test::RandomProblem(num_nodes, num_servers, rng),
                   seed + 400);
  }
}

// Only moves are logged, so membership changes are refused while a
// checkpoint is open, as are a second checkpoint and a rollback without
// one; none of the refusals touches the state.
TEST(EvaluatorRollbackTest, MembershipChangesThrowInsideACheckpoint) {
  Rng rng(27);
  const Problem p = test::RandomProblem(12, 3, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  a[0] = 0;
  a[1] = 1;
  IncrementalEvaluator eval(p, a, IncrementalEvaluator::AllowPartial{});
  const IncrementalEvaluator copy = eval;
  EXPECT_THROW(eval.Rollback(), Error);
  eval.Checkpoint();
  EXPECT_THROW(eval.Checkpoint(), Error);
  EXPECT_THROW(eval.AddClient(2, 0), Error);
  EXPECT_THROW(eval.RemoveClient(0), Error);
  eval.ApplyMove(0, 2);
  eval.Rollback();
  ExpectSameEvaluator(p, eval, copy, "after rollback");
  EXPECT_THROW(eval.Rollback(), Error);
  eval.AddClient(2, 0);
  eval.RemoveClient(0);
  EXPECT_EQ(eval.num_active(), 2);
}

}  // namespace
}  // namespace diaca::core
