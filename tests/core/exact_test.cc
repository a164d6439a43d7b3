#include "core/exact.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "data/streaming.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "placement/placement.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

class ExactPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactPropertyTest, MatchesExhaustiveEnumeration) {
  Rng rng(GetParam());
  const Problem p = test::RandomProblem(7, 3, rng);
  const auto result = ExactAssign(p);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->max_len, test::BruteForceOptimal(p), 1e-9);
  EXPECT_NEAR(MaxInteractionPathLength(p, result->assignment),
              result->max_len, 1e-9);
}

TEST_P(ExactPropertyTest, CapacitatedMatchesExhaustiveEnumeration) {
  Rng rng(GetParam() + 40);
  const Problem p = test::RandomProblem(6, 3, rng);
  ExactOptions options;
  options.assign.capacity = 3;
  const auto result = ExactAssign(p, options);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->max_len, test::BruteForceOptimal(p, 3), 1e-9);
  EXPECT_LE(MaxServerLoad(p, result->assignment), 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ExactTest, NodeLimitAborts) {
  Rng rng(1);
  const Problem p = test::RandomProblem(14, 6, rng);
  ExactOptions options;
  options.node_limit = 10;
  EXPECT_FALSE(ExactAssign(p, options).has_value());
}

TEST(ExactTest, ReportsNodesExplored) {
  Rng rng(2);
  const Problem p = test::RandomProblem(6, 2, rng);
  const auto result = ExactAssign(p);
  ASSERT_TRUE(result.has_value());
  // The greedy incumbent's bound prunes the root.
  EXPECT_EQ(result->nodes_explored, 1);
}

TEST(ExactTest, InfeasibleCapacityThrows) {
  Rng rng(3);
  const Problem p = test::RandomProblem(8, 2, rng);
  ExactOptions options;
  options.assign.capacity = 3;
  EXPECT_THROW(ExactAssign(p, options), Error);
}

TEST(ExactTest, SingleClientPicksItsRoundTripMinimizer) {
  Rng rng(4);
  const net::LatencyMatrix m = test::RandomMatrix(5, rng);
  const std::vector<net::NodeIndex> servers{0, 1, 2, 3};
  const std::vector<net::NodeIndex> clients{4};
  const Problem p(m, servers, clients);
  const auto result = ExactAssign(p);
  ASSERT_TRUE(result.has_value());
  double best = 1e18;
  for (ServerIndex s = 0; s < 4; ++s) best = std::min(best, 2.0 * p.client_block().cs(0, s));
  EXPECT_NEAR(result->max_len, best, 1e-9);
}

TEST(ExactTest, PrunedSearchBeatsFullEnumerationNodeCount) {
  Rng rng(5);
  const Problem p = test::RandomProblem(9, 3, rng);
  const auto result = ExactAssign(p);
  ASSERT_TRUE(result.has_value());
  // Full enumeration would be 3^9 = 19683 leaves plus internal nodes; the
  // greedy incumbent plus pruning must explore far fewer nodes. Pinned:
  // the count also checks the order nodes are visited in.
  EXPECT_LT(result->nodes_explored, 19683);
  EXPECT_EQ(result->nodes_explored, 3);
}

TEST(ExactTest, DeepSearchDoesNotOverflowTheStack) {
  // 100k attached clients on 5 servers: the depth-first search runs one
  // client per level, far deeper than a call stack of one frame per
  // level could hold. It must abort at the node limit or return a
  // consistent result.
  data::ClientCloudParams params;
  params.substrate.num_nodes = 24;
  params.num_clients = 100000;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(
      data::GenerateWaxmanTopology(params.substrate, 1), opt);
  const data::ClientCloud cloud = data::BuildClientCloud(
      params, 1, oracle, placement::KCenterFarthest(oracle, 5));
  ExactOptions options;
  options.node_limit = 100000;  // deep enough to overflow one frame per client
  const auto result = ExactAssign(cloud.problem, options);
  if (result.has_value()) {
    EXPECT_EQ(result->max_len,
              MaxInteractionPathLength(cloud.problem, result->assignment));
  }
}

}  // namespace
}  // namespace diaca::core
