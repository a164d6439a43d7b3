#include "core/ablations.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/distributed_greedy.h"
#include "core/greedy.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/random_assign.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

TEST(BestSingleServerTest, PicksMinimumEccentricityServer) {
  net::LatencyMatrix m(5);  // servers 0,1; clients 2,3,4
  m.Set(0, 1, 10.0);
  m.Set(0, 2, 5.0);
  m.Set(0, 3, 6.0);
  m.Set(0, 4, 7.0);  // far(s0) = 7
  m.Set(1, 2, 9.0);
  m.Set(1, 3, 2.0);
  m.Set(1, 4, 2.0);  // far(s1) = 9
  m.Set(2, 3, 1.0);
  m.Set(2, 4, 1.0);
  m.Set(3, 4, 1.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3, 4});
  const Assignment a = BestSingleServerAssign(p);
  for (ClientIndex c = 0; c < 3; ++c) EXPECT_EQ(a[c], 0);
  EXPECT_DOUBLE_EQ(MaxInteractionPathLength(p, a), 14.0);
}

TEST(BestSingleServerTest, EliminatesInterServerLatency) {
  // §III intro: one server has no inter-server term; its D is 2*far.
  Rng rng(1);
  const Problem p = test::RandomProblem(15, 4, rng);
  const Assignment a = BestSingleServerAssign(p);
  const auto far = ServerEccentricities(p, a);
  const ServerIndex used = a[0];
  EXPECT_DOUBLE_EQ(MaxInteractionPathLength(p, a),
                   2.0 * far[static_cast<std::size_t>(used)]);
}

TEST(BestSingleServerTest, CapacityHandling) {
  Rng rng(2);
  const Problem p = test::RandomProblem(10, 3, rng);
  AssignOptions tight;
  tight.capacity = 5;
  EXPECT_THROW(BestSingleServerAssign(p, tight), Error);
  AssignOptions heterogeneous;
  heterogeneous.per_server_capacity = {4, 10, 4};
  const Assignment a = BestSingleServerAssign(p, heterogeneous);
  for (ClientIndex c = 0; c < p.num_clients(); ++c) EXPECT_EQ(a[c], 1);
}

TEST(SingleClientGreedyTest, CompleteAndCapacityRespected) {
  Rng rng(3);
  const Problem p = test::RandomProblem(24, 6, rng);
  AssignOptions options;
  options.capacity = 4;
  const Assignment a = SingleClientGreedyAssign(p, options);
  EXPECT_TRUE(a.IsComplete());
  EXPECT_LE(MaxServerLoad(p, a), 4);
}

class AblationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AblationPropertyTest, BatchedGreedyNotWorseOnAggregate) {
  // The amortized batch rule is the paper's design; it should win in
  // aggregate over seeds (not necessarily per instance).
  double batched_sum = 0.0;
  double single_sum = 0.0;
  for (std::uint64_t offset = 0; offset < 4; ++offset) {
    Rng rng(GetParam() * 17 + offset);
    const Problem p = test::RandomProblem(30, 6, rng);
    batched_sum += MaxInteractionPathLength(p, GreedyAssign(p));
    single_sum += MaxInteractionPathLength(p, SingleClientGreedyAssign(p));
  }
  EXPECT_LE(batched_sum, single_sum * 1.25);
}

TEST_P(AblationPropertyTest, FullLocalSearchNotWorseThanSeed) {
  Rng rng(GetParam() + 11);
  const Problem p = test::RandomProblem(25, 5, rng);
  const Assignment nsa = NearestServerAssign(p);
  const double initial = MaxInteractionPathLength(p, nsa);
  const LocalSearchResult result = FullLocalSearchAssign(p, {}, &nsa);
  EXPECT_LE(result.max_len, initial + 1e-9);
  EXPECT_TRUE(result.reached_local_optimum);
  EXPECT_NEAR(result.max_len,
              MaxInteractionPathLength(p, result.assignment), 1e-9);
}

TEST_P(AblationPropertyTest, FullLocalSearchDominatesDistributedGreedy) {
  // The unrestricted move set subsumes Distributed-Greedy's, so from the
  // same seed steepest descent must reach an equal-or-better local optimum
  // on these small instances... it is still a local method, so allow a
  // small tolerance rather than asserting strict dominance.
  Rng rng(GetParam() + 400);
  const Problem p = test::RandomProblem(30, 6, rng);
  const Assignment nsa = NearestServerAssign(p);
  const LocalSearchResult ls = FullLocalSearchAssign(p, {}, &nsa);
  const DgResult dg = DistributedGreedyAssign(p, {}, &nsa);
  EXPECT_LE(ls.max_len, dg.max_len * 1.05 + 1e-9);
}

TEST_P(AblationPropertyTest, LocalSearchIsLocallyOptimal) {
  Rng rng(GetParam() + 800);
  const Problem p = test::RandomProblem(15, 4, rng);
  const LocalSearchResult result = FullLocalSearchAssign(p);
  ASSERT_TRUE(result.reached_local_optimum);
  // Verify by brute force: no single-client move strictly improves D.
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      if (s == result.assignment[c]) continue;
      Assignment moved = result.assignment;
      moved[c] = s;
      EXPECT_GE(MaxInteractionPathLength(p, moved), result.max_len - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AblationPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FullLocalSearchTest, MoveBudgetRespected) {
  Rng rng(9);
  const Problem p = test::RandomProblem(40, 8, rng);
  Rng arng(10);
  const Assignment bad_start = RandomAssign(p, arng);
  LocalSearchOptions options;
  options.max_moves = 2;
  const LocalSearchResult result =
      FullLocalSearchAssign(p, options, &bad_start);
  EXPECT_LE(result.moves, 2);
}

TEST(FullLocalSearchTest, CountsEvaluations) {
  Rng rng(11);
  const Problem p = test::RandomProblem(10, 3, rng);
  const LocalSearchResult result = FullLocalSearchAssign(p);
  // At least one full scan: |C| * (|S|-1) candidate moves.
  EXPECT_GE(result.moves_evaluated,
            static_cast<std::int64_t>(p.num_clients()) *
                (p.num_servers() - 1));
}

// FNV-1a over each client's server index, four little-endian bytes each.
std::uint64_t AssignmentHash(const Assignment& a) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const ServerIndex s : a.server_of) {
    const auto v = static_cast<std::uint32_t>(s);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// Every output of the steepest descent, pinned bit for bit on a random
// instance from the Nearest-Server seed, a tie-heavy one (integer
// latencies, so many clients share their server's far distance) from a
// random start, a capacitated one, and a random start under a two-move
// budget and without one.
TEST(FullLocalSearchTest, OutputsPinnedBitForBit) {
  struct Pin {
    const char* name;
    LocalSearchResult result;
    std::uint64_t hash;
    std::uint64_t max_len_bits;
    std::int32_t moves;
    std::int64_t moves_evaluated;
    bool reached_local_optimum;
  };
  std::vector<Pin> pins;
  {
    Rng rng(21);
    const Problem p = test::RandomProblem(25, 5, rng);
    const Assignment nsa = NearestServerAssign(p);
    pins.push_back({"random", FullLocalSearchAssign(p, {}, &nsa),
                    0xb34a973c9adf3ea4ull, 0x406153996ba4af9cull, 7, 800,
                    true});
  }
  {
    Rng rng(6 * 7727);
    const Problem p = test::TieHeavyProblem(30, 5, rng);
    Rng arng(6);
    const Assignment start = RandomAssign(p, arng);
    pins.push_back({"tie-heavy", FullLocalSearchAssign(p, {}, &start),
                    0x88935163111896a3ull, 0x4031000000000000ull, 1, 240,
                    true});
  }
  {
    Rng rng(7);
    const Problem p = test::RandomProblem(30, 6, rng);
    LocalSearchOptions options;
    options.assign.capacity = 6;
    pins.push_back({"capacitated", FullLocalSearchAssign(p, options),
                    0x784059eab2007eb0ull, 0x40648374ae07001aull, 4, 342,
                    true});
  }
  {
    Rng rng(9);
    const Problem p = test::RandomProblem(40, 8, rng);
    Rng arng(10);
    const Assignment start = RandomAssign(p, arng);
    LocalSearchOptions options;
    options.max_moves = 2;
    pins.push_back({"budget", FullLocalSearchAssign(p, options, &start),
                    0x9bfcd6aba4a80e22ull, 0x40706ccdf539b396ull, 2, 560,
                    false});
    pins.push_back({"unbounded", FullLocalSearchAssign(p, {}, &start),
                    0xb476f7ea4b2086b6ull, 0x405da6b4e442e6e0ull, 42, 12040,
                    true});
  }
  for (const Pin& pin : pins) {
    const LocalSearchResult& r = pin.result;
    EXPECT_EQ(AssignmentHash(r.assignment), pin.hash) << pin.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.max_len), pin.max_len_bits)
        << pin.name;
    EXPECT_EQ(r.moves, pin.moves) << pin.name;
    EXPECT_EQ(r.moves_evaluated, pin.moves_evaluated) << pin.name;
    EXPECT_EQ(r.reached_local_optimum, pin.reached_local_optimum)
        << pin.name;
  }
}

TEST(PerServerCapacityTest, HeterogeneousCapacitiesRespected) {
  Rng rng(12);
  const Problem p = test::RandomProblem(20, 4, rng);
  AssignOptions options;
  options.per_server_capacity = {2, 10, 3, 5};
  for (const Assignment& a :
       {NearestServerAssign(p, options), GreedyAssign(p, options),
        SingleClientGreedyAssign(p, options),
        DistributedGreedyAssign(p, options).assignment}) {
    EXPECT_TRUE(a.IsComplete());
    std::vector<std::int32_t> load(4, 0);
    for (ClientIndex c = 0; c < p.num_clients(); ++c) {
      ++load[static_cast<std::size_t>(a[c])];
    }
    for (ServerIndex s = 0; s < 4; ++s) {
      EXPECT_LE(load[static_cast<std::size_t>(s)], options.CapacityOf(s));
    }
  }
}

TEST(PerServerCapacityTest, InfeasibleVectorThrows) {
  Rng rng(13);
  const Problem p = test::RandomProblem(20, 4, rng);
  AssignOptions options;
  options.per_server_capacity = {2, 2, 2, 2};  // total 8 < 20
  EXPECT_THROW(NearestServerAssign(p, options), Error);
  options.per_server_capacity = {5, 5};  // wrong size
  EXPECT_THROW(GreedyAssign(p, options), Error);
  options.per_server_capacity = {20, 0, 20, 20};  // non-positive entry
  EXPECT_THROW(NearestServerAssign(p, options), Error);
}

}  // namespace
}  // namespace diaca::core
