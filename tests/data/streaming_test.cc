#include "data/streaming.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/metrics.h"
#include "core/problem.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "net/graph.h"
#include "placement/placement.h"

namespace diaca::data {
namespace {

ClientCloudParams SmallParams(std::int32_t nodes, std::int64_t clients) {
  ClientCloudParams params;
  params.substrate.num_nodes = nodes;
  params.num_clients = clients;
  return params;
}

struct Built {
  net::Graph graph;
  net::DistanceOracle oracle;
  std::vector<net::NodeIndex> servers;
  ClientCloud cloud;
};

Built Build(const ClientCloudParams& params, std::int32_t k,
            std::uint64_t seed) {
  net::Graph graph = GenerateWaxmanTopology(params.substrate, seed);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  net::DistanceOracle oracle = net::DistanceOracle::FromGraph(graph, opt);
  std::vector<net::NodeIndex> servers = placement::KCenterFarthest(oracle, k);
  ClientCloud cloud = BuildClientCloud(params, seed, oracle, servers);
  return Built{std::move(graph), std::move(oracle), std::move(servers),
               std::move(cloud)};
}

TEST(StreamingTest, CloudShapeAndVirtualClientIds) {
  const ClientCloudParams params = SmallParams(60, 500);
  const Built b = Build(params, 5, 3);
  const core::Problem& p = b.cloud.problem;
  EXPECT_EQ(p.num_clients(), 500);
  EXPECT_EQ(p.num_servers(), 5);
  EXPECT_EQ(b.cloud.attach.size(), 500u);
  EXPECT_EQ(b.cloud.access_ms.size(), 500u);
  for (core::ClientIndex c = 0; c < p.num_clients(); ++c) {
    // Clients are virtual nodes labeled past the substrate.
    EXPECT_EQ(p.client_node(c), 60 + c);
    EXPECT_GE(b.cloud.access_ms[static_cast<std::size_t>(c)],
              params.min_access_ms);
    EXPECT_LT(b.cloud.attach[static_cast<std::size_t>(c)], 60);
  }
}

// Every streamed distance block, resident or streamed, must equal a
// brute-force recomputation from the dense matrix, bitwise:
// d(c,s) = access(c) + dense(attach(c), s) and d(s,s') = dense(s, s').
TEST(StreamingTest, BlocksMatchDenseBruteForce) {
  for (const bool materialize : {true, false}) {
    ClientCloudParams params = SmallParams(50, 400);
    params.materialize_block = materialize;
    const Built b = Build(params, 6, 7);
    const net::LatencyMatrix dense = b.graph.AllPairsShortestPaths();
    const core::Problem& p = b.cloud.problem;
    ASSERT_EQ(p.client_block().materialized(), materialize);
    for (core::ClientIndex c = 0; c < p.num_clients(); ++c) {
      const auto at = b.cloud.attach[static_cast<std::size_t>(c)];
      const double access = b.cloud.access_ms[static_cast<std::size_t>(c)];
      for (core::ServerIndex s = 0; s < p.num_servers(); ++s) {
        ASSERT_EQ(p.client_block().cs(c, s),
                  access + dense(at, b.servers[static_cast<std::size_t>(s)]))
            << "materialize=" << materialize << " c=" << c << " s=" << s;
      }
    }
    for (core::ServerIndex x = 0; x < p.num_servers(); ++x) {
      for (core::ServerIndex y = 0; y < p.num_servers(); ++y) {
        ASSERT_EQ(p.ss(x, y),
                  x == y ? 0.0
                         : dense(b.servers[static_cast<std::size_t>(x)],
                                 b.servers[static_cast<std::size_t>(y)]))
            << "materialize=" << materialize;
      }
    }
  }
}

TEST(StreamingTest, DeterministicAcrossThreadCounts) {
  const ClientCloudParams params = SmallParams(40, 300);
  SetGlobalThreads(1);
  const Built serial = Build(params, 4, 11);
  SetGlobalThreads(4);
  const Built parallel = Build(params, 4, 11);
  SetGlobalThreads(0);
  EXPECT_EQ(serial.cloud.attach, parallel.cloud.attach);
  EXPECT_EQ(serial.cloud.access_ms, parallel.cloud.access_ms);
  const core::Problem& ps = serial.cloud.problem;
  const core::Problem& pp = parallel.cloud.problem;
  for (core::ClientIndex c = 0; c < ps.num_clients(); ++c) {
    for (core::ServerIndex s = 0; s < ps.num_servers(); ++s) {
      ASSERT_EQ(ps.client_block().cs(c, s), pp.client_block().cs(c, s));
    }
  }
}

TEST(StreamingTest, SeedChangesTheCloud) {
  const ClientCloudParams params = SmallParams(40, 200);
  const Built a = Build(params, 4, 1);
  const Built b = Build(params, 4, 2);
  EXPECT_NE(a.cloud.attach, b.cloud.attach);
}

TEST(StreamingTest, RejectsBadConfigurations) {
  const ClientCloudParams params = SmallParams(30, 100);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = GenerateWaxmanTopology(params.substrate, 1);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> out_of_range = {0, 30};
  EXPECT_THROW(BuildClientCloud(params, 1, oracle, out_of_range), Error);
  ClientCloudParams no_clients = params;
  no_clients.num_clients = 0;
  const std::vector<net::NodeIndex> servers = {0, 5};
  EXPECT_THROW(BuildClientCloud(no_clients, 1, oracle, servers), Error);
  // Virtual client ids run n, n + 1, ... in int32: one client past the
  // last id that fits is rejected before anything is allocated, as is a
  // count that would truncate the int32 client index outright.
  for (const std::int64_t too_many :
       {std::int64_t{std::numeric_limits<std::int32_t>::max()} - 30 + 1,
        std::int64_t{1} << 32}) {
    ClientCloudParams overflow = params;
    overflow.num_clients = too_many;
    for (const bool materialize : {true, false}) {
      overflow.materialize_block = materialize;
      EXPECT_THROW(BuildClientCloud(overflow, 1, oracle, servers), Error)
          << too_many;
    }
  }
}

TEST(StreamingTest, DenseEquivalentGrowsQuadratically) {
  const double mb_10k = DenseEquivalentMb(10000);
  const double mb_100k = DenseEquivalentMb(100000);
  EXPECT_GT(mb_10k, 100.0);  // 10k nodes is already ~763 MB dense
  EXPECT_GT(mb_100k, 90.0 * mb_10k);
}

}  // namespace
}  // namespace diaca::data
