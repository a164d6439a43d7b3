#include "proto/dg_protocol.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distributed_greedy.h"
#include "core/incremental.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/random_assign.h"
#include "../testutil.h"

namespace diaca::proto {
namespace {

struct Instance {
  net::LatencyMatrix matrix;
  core::Problem problem;

  Instance(std::uint64_t seed, std::int32_t nodes, std::int32_t servers)
      : matrix(Make(seed, nodes)), problem(MakeProblem(matrix, servers)) {}

  static net::LatencyMatrix Make(std::uint64_t seed, std::int32_t nodes) {
    Rng rng(seed);
    return test::RandomMatrix(nodes, rng);
  }
  static core::Problem MakeProblem(const net::LatencyMatrix& m,
                                   std::int32_t servers) {
    std::vector<net::NodeIndex> nodes(static_cast<std::size_t>(servers));
    std::iota(nodes.begin(), nodes.end(), 0);
    return core::Problem::WithClientsEverywhere(m, nodes);
  }
};

TEST(DgProtocolTest, NeverWorseThanInitialAssignment) {
  const Instance inst(1, 25, 5);
  const core::Assignment nsa = core::NearestServerAssign(inst.problem);
  const double initial =
      core::MaxInteractionPathLength(inst.problem, nsa);
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem);
  EXPECT_LE(result.max_len, initial + 1e-9);
  EXPECT_DOUBLE_EQ(
      result.max_len,
      core::MaxInteractionPathLength(inst.problem, result.assignment));
}

TEST(DgProtocolTest, TraceMonotoneNonIncreasing) {
  const Instance inst(2, 30, 6);
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem);
  double previous = std::numeric_limits<double>::infinity();
  for (double len : result.max_len_trace) {
    EXPECT_LE(len, previous + 1e-9);
    previous = len;
  }
  EXPECT_EQ(result.max_len_trace.size(),
            static_cast<std::size_t>(result.modifications));
}

TEST(DgProtocolTest, TerminatesAtLocalOptimum) {
  // Same local-optimality criterion as the sequential emulation: no
  // critical client has a strictly improving move.
  const Instance inst(3, 20, 4);
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem);
  const core::Assignment& a = result.assignment;
  const core::IncrementalEvaluator eval(inst.problem, a);
  for (core::ClientIndex c : core::CriticalClients(inst.problem, a)) {
    std::vector<double> far_excl(eval.Eccentricities().begin(),
                                 eval.Eccentricities().end());
    far_excl[static_cast<std::size_t>(a[c])] = eval.FarWithout(c);
    for (core::ServerIndex s = 0; s < inst.problem.num_servers(); ++s) {
      if (s == a[c]) continue;
      EXPECT_GE(core::PathLengthIfMoved(inst.problem, c, s, far_excl),
                result.max_len - 1e-9);
    }
  }
}

TEST(DgProtocolTest, MatchesSequentialEmulationQuality) {
  // The protocol examines clients in a different order than the sequential
  // emulation, so assignments may differ — but both are local optima and
  // their objectives should be close. Assert within 15% on random
  // instances, and both no worse than NSA.
  for (std::uint64_t seed : {4, 5, 6, 7}) {
    const Instance inst(seed, 30, 6);
    const DgProtocolResult protocol =
        RunDistributedGreedyProtocol(inst.matrix, inst.problem);
    const core::DgResult sequential =
        core::DistributedGreedyAssign(inst.problem);
    EXPECT_LE(protocol.max_len, sequential.max_len * 1.15 + 1e-9)
        << "seed " << seed;
    EXPECT_LE(sequential.max_len, protocol.max_len * 1.15 + 1e-9)
        << "seed " << seed;
  }
}

TEST(DgProtocolTest, CountsMessagesAndTime) {
  const Instance inst(8, 20, 4);
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem);
  EXPECT_GT(result.messages_sent, 0u);
  EXPECT_GT(result.bytes_sent, result.messages_sent);
  EXPECT_GT(result.convergence_time_ms, 0.0);
}

TEST(DgProtocolTest, SingleServerTerminatesImmediately) {
  const Instance inst(9, 10, 1);
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem);
  EXPECT_EQ(result.modifications, 0);
  for (core::ClientIndex c = 0; c < inst.problem.num_clients(); ++c) {
    EXPECT_EQ(result.assignment[c], 0);
  }
}

TEST(DgProtocolTest, CapacityRespected) {
  const Instance inst(10, 24, 6);
  core::AssignOptions options;
  options.capacity = 5;
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem, options);
  EXPECT_TRUE(result.assignment.IsComplete());
  EXPECT_LE(core::MaxServerLoad(inst.problem, result.assignment), 5);
}

TEST(DgProtocolTest, CapacitatedTerminatesAtCapacitatedLocalOptimum) {
  const Instance inst(14, 24, 6);
  core::AssignOptions options;
  options.capacity = 5;
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem, options);
  const core::Assignment& a = result.assignment;
  // No critical client has an improving move to an *unsaturated* server.
  const core::IncrementalEvaluator eval(inst.problem, a);
  for (core::ClientIndex c : core::CriticalClients(inst.problem, a)) {
    std::vector<double> far_excl(eval.Eccentricities().begin(),
                                 eval.Eccentricities().end());
    far_excl[static_cast<std::size_t>(a[c])] = eval.FarWithout(c);
    for (core::ServerIndex s = 0; s < inst.problem.num_servers(); ++s) {
      if (s == a[c] || eval.LoadOf(s) >= options.capacity) continue;
      EXPECT_GE(core::PathLengthIfMoved(inst.problem, c, s, far_excl),
                result.max_len - 1e-9);
    }
  }
}

TEST(DgProtocolTest, HeterogeneousCapacitiesOverTheWire) {
  const Instance inst(15, 20, 4);
  core::AssignOptions options;
  options.per_server_capacity = {3, 9, 4, 9};
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem, options);
  std::vector<std::int32_t> load(4, 0);
  for (core::ClientIndex c = 0; c < inst.problem.num_clients(); ++c) {
    ++load[static_cast<std::size_t>(result.assignment[c])];
  }
  for (core::ServerIndex s = 0; s < 4; ++s) {
    EXPECT_LE(load[static_cast<std::size_t>(s)], options.CapacityOf(s));
  }
}

TEST(DgProtocolTest, CustomInitialAssignment) {
  const Instance inst(11, 16, 4);
  Rng arng(12);
  const core::Assignment start = core::RandomAssign(inst.problem, arng);
  const double initial =
      core::MaxInteractionPathLength(inst.problem, start);
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem, {}, &start);
  EXPECT_LE(result.max_len, initial + 1e-9);
}

TEST(DgProtocolTest, FixesSwappedColocatedClients) {
  net::LatencyMatrix m(4);  // 0,1 servers; 2 near 0; 3 near 1
  m.Set(0, 1, 100.0);
  m.Set(0, 2, 1.0);
  m.Set(1, 2, 101.0);
  m.Set(0, 3, 101.0);
  m.Set(1, 3, 1.0);
  m.Set(2, 3, 102.0);
  const core::Problem p(m, std::vector<net::NodeIndex>{0, 1},
                        std::vector<net::NodeIndex>{2, 3});
  core::Assignment swapped(2);
  swapped[0] = 1;
  swapped[1] = 0;
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(m, p, {}, &swapped);
  EXPECT_LE(result.max_len, 104.0 + 1e-9);
  EXPECT_GE(result.modifications, 1);
}

class DgProtocolPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DgProtocolPropertyTest, ConvergesOnRandomInstances) {
  const Instance inst(GetParam() + 100, 20, 5);
  const DgProtocolResult result =
      RunDistributedGreedyProtocol(inst.matrix, inst.problem);
  EXPECT_TRUE(result.assignment.IsComplete());
  const double nsa_len = core::MaxInteractionPathLength(
      inst.problem, core::NearestServerAssign(inst.problem));
  EXPECT_LE(result.max_len, nsa_len + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DgProtocolPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace diaca::proto
