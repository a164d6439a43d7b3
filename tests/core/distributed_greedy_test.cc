#include "core/distributed_greedy.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/random_assign.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

TEST(DistributedGreedyTest, NeverWorseThanInitialAssignment) {
  Rng rng(1);
  const Problem p = test::RandomProblem(30, 6, rng);
  const Assignment nsa = NearestServerAssign(p);
  const double initial = MaxInteractionPathLength(p, nsa);
  const DgResult result = DistributedGreedyAssign(p);
  EXPECT_LE(result.max_len, initial + 1e-9);
  EXPECT_DOUBLE_EQ(result.max_len,
                   MaxInteractionPathLength(p, result.assignment));
}

TEST(DistributedGreedyTest, TraceIsMonotoneNonIncreasing) {
  Rng rng(2);
  const Problem p = test::RandomProblem(40, 8, rng);
  const DgResult result = DistributedGreedyAssign(p);
  double previous = std::numeric_limits<double>::infinity();
  for (const DgModification& mod : result.modifications) {
    EXPECT_LE(mod.max_len_after, previous + 1e-9);
    previous = mod.max_len_after;
  }
  if (!result.modifications.empty()) {
    EXPECT_DOUBLE_EQ(result.modifications.back().max_len_after, result.max_len);
  }
}

TEST(DistributedGreedyTest, ModificationRecordsAreCoherent) {
  Rng rng(3);
  const Problem p = test::RandomProblem(30, 6, rng);
  const DgResult result = DistributedGreedyAssign(p);
  std::int32_t index = 0;
  for (const DgModification& mod : result.modifications) {
    EXPECT_EQ(mod.index, ++index);
    EXPECT_NE(mod.from, mod.to);
    EXPECT_GE(mod.client, 0);
    EXPECT_LT(mod.client, p.num_clients());
  }
}

TEST(DistributedGreedyTest, TerminatesAtLocalOptimum) {
  // At termination no critical client has a strictly improving move.
  Rng rng(4);
  const Problem p = test::RandomProblem(25, 5, rng);
  const DgResult result = DistributedGreedyAssign(p);
  const Assignment& a = result.assignment;
  const IncrementalEvaluator eval(p, a);
  for (ClientIndex c : CriticalClients(p, a)) {
    std::vector<double> far_excl(eval.Eccentricities().begin(),
                                 eval.Eccentricities().end());
    far_excl[static_cast<std::size_t>(a[c])] = eval.FarWithout(c);
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      if (s == a[c]) continue;
      EXPECT_GE(PathLengthIfMoved(p, c, s, far_excl), result.max_len - 1e-9);
    }
  }
}

TEST(DistributedGreedyTest, CustomInitialAssignment) {
  Rng rng(5);
  const Problem p = test::RandomProblem(20, 4, rng);
  Rng arng(6);
  const Assignment random_start = RandomAssign(p, arng);
  const double initial = MaxInteractionPathLength(p, random_start);
  const DgResult result = DistributedGreedyAssign(p, {}, &random_start);
  EXPECT_LE(result.max_len, initial + 1e-9);
}

TEST(DistributedGreedyTest, SingleServerNoModifications) {
  Rng rng(7);
  const Problem p = test::RandomProblem(10, 1, rng);
  const DgResult result = DistributedGreedyAssign(p);
  EXPECT_TRUE(result.modifications.empty());
}

TEST(DistributedGreedyTest, FixesObviouslyBadInitialAssignment) {
  // Two colocated client/server pairs, far apart. Start with the swapped
  // (worst) assignment; DG must improve it substantially.
  net::LatencyMatrix m(4);  // 0,1 servers; 2 near 0; 3 near 1
  m.Set(0, 1, 100.0);
  m.Set(0, 2, 1.0);
  m.Set(1, 2, 101.0);
  m.Set(0, 3, 101.0);
  m.Set(1, 3, 1.0);
  m.Set(2, 3, 102.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3});
  Assignment swapped(2);
  swapped[0] = 1;  // client near s0 assigned to s1
  swapped[1] = 0;
  const double initial = MaxInteractionPathLength(p, swapped);
  EXPECT_DOUBLE_EQ(initial, 302.0);
  const DgResult result = DistributedGreedyAssign(p, {}, &swapped);
  EXPECT_LE(result.max_len, 104.0 + 1e-9);
}

TEST(DistributedGreedyTest, CapacityRespectedThroughout) {
  Rng rng(8);
  const Problem p = test::RandomProblem(30, 6, rng);
  AssignOptions options;
  options.capacity = 5;  // exactly tight
  const DgResult result = DistributedGreedyAssign(p, options);
  EXPECT_TRUE(result.assignment.IsComplete());
  EXPECT_LE(MaxServerLoad(p, result.assignment), 5);
}

TEST(DistributedGreedyTest, RejectsInitialViolatingCapacity) {
  Rng rng(9);
  const Problem p = test::RandomProblem(10, 2, rng);
  Assignment all_first(static_cast<std::size_t>(p.num_clients()));
  for (ClientIndex c = 0; c < p.num_clients(); ++c) all_first[c] = 0;
  AssignOptions options;
  options.capacity = 5;
  EXPECT_THROW(DistributedGreedyAssign(p, options, &all_first), Error);
}

TEST(DistributedGreedyTest, RejectsIncompleteInitial) {
  Rng rng(10);
  const Problem p = test::RandomProblem(5, 2, rng);
  Assignment partial(static_cast<std::size_t>(p.num_clients()));
  EXPECT_THROW(DistributedGreedyAssign(p, {}, &partial), Error);
}

class DgPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DgPropertyTest, ObjectiveWithinFactorOfOptimumOnSmallInstances) {
  Rng rng(GetParam());
  const Problem p = test::RandomProblem(8, 3, rng);
  const DgResult result = DistributedGreedyAssign(p);
  const double opt = test::BruteForceOptimal(p);
  EXPECT_GE(result.max_len, opt - 1e-9);
  EXPECT_LE(result.max_len, 3.0 * opt + 1e-9);
}

TEST_P(DgPropertyTest, NeverWorseThanNsaAcrossSeeds) {
  Rng rng(GetParam() + 200);
  const Problem p = test::RandomProblem(35, 7, rng);
  const double nsa =
      MaxInteractionPathLength(p, NearestServerAssign(p));
  EXPECT_LE(DistributedGreedyAssign(p).max_len, nsa + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DgPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace diaca::core
