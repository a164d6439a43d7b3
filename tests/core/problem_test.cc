#include "core/problem.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

TEST(ProblemTest, ExtractsBlocksCorrectly) {
  Rng rng(1);
  const auto m = test::RandomMatrix(10, rng);
  const std::vector<net::NodeIndex> servers{2, 5, 7};
  const std::vector<net::NodeIndex> clients{0, 1, 3, 9};
  const Problem p(m, servers, clients);
  EXPECT_EQ(p.num_servers(), 3);
  EXPECT_EQ(p.num_clients(), 4);
  EXPECT_DOUBLE_EQ(p.client_block().cs(0, 0), m(0, 2));
  EXPECT_DOUBLE_EQ(p.client_block().cs(3, 2), m(9, 7));
  EXPECT_DOUBLE_EQ(p.ss(0, 1), m(2, 5));
  EXPECT_DOUBLE_EQ(p.ss(2, 2), 0.0);
  EXPECT_EQ(p.server_node(1), 5);
  EXPECT_EQ(p.client_node(2), 3);
}

TEST(ProblemTest, RowAccessorsMatchElements) {
  Rng rng(2);
  const auto m = test::RandomMatrix(8, rng);
  const std::vector<net::NodeIndex> servers{1, 4};
  const std::vector<net::NodeIndex> clients{0, 2, 6};
  const Problem p(m, servers, clients);
  ASSERT_TRUE(p.client_block().materialized());
  std::vector<double> scratch(p.server_stride());
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    // A resident block hands out its own row and leaves scratch alone.
    const double* row = p.client_block().Row(c, scratch.data());
    EXPECT_NE(row, scratch.data());
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      EXPECT_DOUBLE_EQ(row[s], p.client_block().cs(c, s));
    }
  }
  for (ServerIndex a = 0; a < p.num_servers(); ++a) {
    const double* row = p.ss_row(a);
    for (ServerIndex b = 0; b < p.num_servers(); ++b) {
      EXPECT_DOUBLE_EQ(row[b], p.ss(a, b));
    }
  }
}

TEST(ProblemTest, RowsArePaddedToServerStride) {
  Rng rng(7);
  const auto m = test::RandomMatrix(12, rng);
  const std::vector<net::NodeIndex> servers{0, 3, 5, 8, 11};
  const Problem p = Problem::WithClientsEverywhere(m, servers);
  EXPECT_EQ(p.server_stride(), simd::PaddedStride(5));
  EXPECT_GT(p.server_stride(), static_cast<std::size_t>(p.num_servers()));
  // Pad lanes beyond |S| hold the 0.0 sentinel on every cs and ss row.
  ASSERT_TRUE(p.client_block().materialized());
  std::vector<double> scratch(p.server_stride());
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    const double* row = p.client_block().Row(c, scratch.data());
    for (std::size_t lane = static_cast<std::size_t>(p.num_servers());
         lane < p.server_stride(); ++lane) {
      EXPECT_EQ(row[lane], 0.0) << "cs row " << c << " lane " << lane;
    }
  }
  for (ServerIndex a = 0; a < p.num_servers(); ++a) {
    const double* row = p.ss_row(a);
    for (std::size_t lane = static_cast<std::size_t>(p.num_servers());
         lane < p.server_stride(); ++lane) {
      EXPECT_EQ(row[lane], 0.0) << "ss row " << a << " lane " << lane;
    }
  }
  // Consecutive rows are stride apart, so Row(c+1) starts exactly at the
  // end of row c's padded span.
  EXPECT_EQ(p.client_block().server_stride(), p.server_stride());
  EXPECT_EQ(p.ss_row(1), p.ss_row(0) + p.server_stride());
}

TEST(ProblemTest, NodeMayBeBothServerAndClient) {
  Rng rng(3);
  const auto m = test::RandomMatrix(5, rng);
  const std::vector<net::NodeIndex> servers{0, 1};
  const std::vector<net::NodeIndex> clients{0, 1, 2, 3, 4};
  const Problem p(m, servers, clients);
  // A colocated client-server pair has distance zero.
  EXPECT_DOUBLE_EQ(p.client_block().cs(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.client_block().cs(1, 1), 0.0);
  EXPECT_GT(p.client_block().cs(1, 0), 0.0);
}

TEST(ProblemTest, WithClientsEverywhere) {
  Rng rng(4);
  const auto m = test::RandomMatrix(6, rng);
  const std::vector<net::NodeIndex> servers{2, 4};
  const Problem p = Problem::WithClientsEverywhere(m, servers);
  EXPECT_EQ(p.num_clients(), 6);
  EXPECT_EQ(p.num_servers(), 2);
  for (ClientIndex c = 0; c < 6; ++c) {
    EXPECT_EQ(p.client_node(c), c);
  }
}

TEST(ProblemTest, RejectsEmptyLists) {
  Rng rng(5);
  const auto m = test::RandomMatrix(4, rng);
  const std::vector<net::NodeIndex> empty;
  const std::vector<net::NodeIndex> some{0};
  EXPECT_THROW(Problem(m, empty, some), Error);
  EXPECT_THROW(Problem(m, some, empty), Error);
}

TEST(ProblemTest, RejectsDuplicatesAndOutOfRange) {
  Rng rng(6);
  const auto m = test::RandomMatrix(4, rng);
  const std::vector<net::NodeIndex> dup{1, 1};
  const std::vector<net::NodeIndex> oob{0, 7};
  const std::vector<net::NodeIndex> ok{0, 1};
  EXPECT_THROW(Problem(m, dup, ok), Error);
  EXPECT_THROW(Problem(m, ok, dup), Error);
  EXPECT_THROW(Problem(m, oob, ok), Error);
  EXPECT_THROW(Problem(m, ok, oob), Error);
}

TEST(ProblemTest, FromBlocksBuildsStreamedProblems) {
  // Client ids past any matrix size are fine: node ids are labels here.
  const std::vector<net::NodeIndex> servers = {0, 3};
  const std::vector<net::NodeIndex> clients = {100, 101, 102};
  const std::vector<double> d_cs = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<double> d_ss = {0.0, 7.0, 7.0, 0.0};
  const Problem p = Problem::FromBlocks(servers, clients, d_cs, d_ss);
  EXPECT_EQ(p.num_clients(), 3);
  EXPECT_EQ(p.num_servers(), 2);
  EXPECT_EQ(p.client_node(2), 102);
  EXPECT_EQ(p.client_block().cs(1, 1), 4.0);
  EXPECT_EQ(p.ss(0, 1), 7.0);
  EXPECT_EQ(p.ss(1, 1), 0.0);
}

TEST(ProblemTest, FromBlocksValidatesShapes) {
  const std::vector<net::NodeIndex> servers = {0, 1};
  const std::vector<net::NodeIndex> clients = {2, 3};
  const std::vector<double> d_ss = {0.0, 1.0, 1.0, 0.0};
  const std::vector<double> short_cs = {1.0, 2.0, 3.0};
  EXPECT_THROW(Problem::FromBlocks(servers, clients, short_cs, d_ss), Error);
  const std::vector<double> negative_cs = {1.0, 2.0, 3.0, -4.0};
  EXPECT_THROW(Problem::FromBlocks(servers, clients, negative_cs, d_ss),
               Error);
  const std::vector<double> bad_diag = {1.0, 1.0, 1.0, 0.0};
  const std::vector<double> d_cs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(Problem::FromBlocks(servers, clients, d_cs, bad_diag), Error);
  const std::vector<net::NodeIndex> dup = {2, 2};
  EXPECT_THROW(Problem::FromBlocks(servers, dup, d_cs, d_ss), Error);
}

// Problem::Subset keeps the servers and d_ss, carries the members'
// labels in the order given, reads every cell through the parent, and
// rejects a member named twice or outside the problem.
TEST(ProblemTest, SubsetCarriesMembersLabelsAndServerBlock) {
  Rng rng(13);
  const auto m = test::RandomMatrix(12, rng);
  const std::vector<net::NodeIndex> servers{1, 6, 10};
  const std::vector<net::NodeIndex> clients{0, 2, 3, 5, 7, 8, 9, 11};
  const Problem p(m, servers, clients);
  const std::vector<ClientIndex> members{6, 1, 4};
  const Problem sub = p.Subset(members);
  ASSERT_EQ(sub.num_clients(), 3);
  ASSERT_EQ(sub.num_servers(), p.num_servers());
  EXPECT_EQ(sub.server_stride(), p.server_stride());
  EXPECT_TRUE(std::equal(sub.server_nodes().begin(), sub.server_nodes().end(),
                         p.server_nodes().begin(), p.server_nodes().end()));
  for (ClientIndex i = 0; i < sub.num_clients(); ++i) {
    const ClientIndex c = members[static_cast<std::size_t>(i)];
    EXPECT_EQ(sub.client_node(i), p.client_node(c));
    for (ServerIndex s = 0; s < p.num_servers(); ++s) {
      EXPECT_EQ(sub.client_block().cs(i, s), p.client_block().cs(c, s));
    }
  }
  for (ServerIndex a = 0; a < p.num_servers(); ++a) {
    for (ServerIndex b = 0; b < p.num_servers(); ++b) {
      EXPECT_EQ(sub.ss(a, b), p.ss(a, b));
    }
  }
  const std::vector<ClientIndex> twice{2, 5, 2};
  EXPECT_THROW((void)p.Subset(twice), Error);
  const std::vector<ClientIndex> outside{2, 8};
  EXPECT_THROW((void)p.Subset(outside), Error);
  EXPECT_THROW((void)p.Subset(std::span<const ClientIndex>{}), Error);
}

TEST(AssignmentTest, CompletenessAndEquality) {
  Assignment a(3);
  EXPECT_FALSE(a.IsComplete());
  a[0] = 1;
  a[1] = 0;
  EXPECT_FALSE(a.IsComplete());
  a[2] = 1;
  EXPECT_TRUE(a.IsComplete());
  Assignment b(3);
  b[0] = 1;
  b[1] = 0;
  b[2] = 1;
  EXPECT_EQ(a, b);
  b[2] = 0;
  EXPECT_NE(a, b);
}

TEST(AssignOptionsTest, CapacitatedFlag) {
  AssignOptions unlimited;
  EXPECT_FALSE(unlimited.capacitated());
  AssignOptions capped;
  capped.capacity = 10;
  EXPECT_TRUE(capped.capacitated());
}

}  // namespace
}  // namespace diaca::core
