#include "core/lower_bound.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/exact.h"
#include "core/metrics.h"
#include "data/streaming.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

double BruteForceLowerBound(const Problem& p) {
  double lb = 0.0;
  for (ClientIndex c = 0; c < p.num_clients(); ++c) {
    for (ClientIndex c2 = 0; c2 < p.num_clients(); ++c2) {
      double best = std::numeric_limits<double>::infinity();
      for (ServerIndex s = 0; s < p.num_servers(); ++s) {
        for (ServerIndex t = 0; t < p.num_servers(); ++t) {
          best = std::min(best, p.client_block().cs(c, s) + p.ss(s, t) + p.client_block().cs(c2, t));
        }
      }
      lb = std::max(lb, best);
    }
  }
  return lb;
}

TEST(LowerBoundTest, HandComputedTwoServers) {
  // Nodes: 0=s0, 1=s1, 2=c0, 3=c1.
  net::LatencyMatrix m(4);
  m.Set(0, 1, 10.0);
  m.Set(0, 2, 1.0);
  m.Set(0, 3, 8.0);
  m.Set(1, 2, 20.0);
  m.Set(1, 3, 2.0);
  m.Set(2, 3, 25.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3});
  // Pair (c0,c1): min over ingress/egress servers of
  // d(c0,s)+d(s,t)+d(t,c1): {1+0+8, 1+10+2, 20+10+8, 20+0+2} -> 9.
  // Pair (c0,c0): 2*1 = 2; (c1,c1): 2*2 = 4. LB = 9.
  EXPECT_DOUBLE_EQ(InteractivityLowerBound(p), 9.0);
}

TEST(LowerBoundTest, SingleServerIsExact) {
  Rng rng(1);
  const Problem p = test::RandomProblem(10, 1, rng);
  Assignment a(static_cast<std::size_t>(p.num_clients()));
  for (ClientIndex c = 0; c < p.num_clients(); ++c) a[c] = 0;
  EXPECT_NEAR(InteractivityLowerBound(p), MaxInteractionPathLength(p, a), 1e-9);
}

class LowerBoundPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerBoundPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const Problem p = test::RandomProblem(14, 4, rng);
  EXPECT_NEAR(InteractivityLowerBound(p), BruteForceLowerBound(p), 1e-9);
}

TEST_P(LowerBoundPropertyTest, NeverExceedsOptimal) {
  Rng rng(GetParam() + 500);
  const Problem p = test::RandomProblem(7, 3, rng);
  const double lb = InteractivityLowerBound(p);
  const double opt = test::BruteForceOptimal(p);
  EXPECT_LE(lb, opt + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(LowerBoundTest, CanBeStrictlyBelowOptimal) {
  // The bound lets a client use different servers per interaction, so it
  // is a super-optimum. Construct a case where that freedom wins:
  // two clients, two servers; each client is close to "its" server but
  // the servers are far apart, while a middle server is moderately far
  // from both.
  net::LatencyMatrix m(5);
  // 0=sA, 1=sB, 2=sM, 3=cA, 4=cB.
  m.Set(0, 1, 100.0);
  m.Set(0, 2, 40.0);
  m.Set(1, 2, 40.0);
  m.Set(0, 3, 1.0);
  m.Set(1, 3, 99.0);
  m.Set(2, 3, 45.0);
  m.Set(0, 4, 99.0);
  m.Set(1, 4, 1.0);
  m.Set(2, 4, 45.0);
  m.Set(3, 4, 120.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1, 2},
                  std::vector<net::NodeIndex>{3, 4});
  const double lb = InteractivityLowerBound(p);
  const double opt = test::BruteForceOptimal(p);
  EXPECT_LT(lb, opt - 1e-9);
}

// The filter-and-refine bound against the scalar reference
// (test::ReferencePairwiseLowerBound: full m matrix, c-major scan, strict
// `>`): value and witness bit for bit, on both client-block views, at
// several thread counts. `resident` and `tiled` hold the same latencies.
void ExpectMatchesReference(const Problem& resident, const Problem& tiled) {
  const LowerBoundDetail want = test::ReferencePairwiseLowerBound(resident);
  for (const Problem* p : {&resident, &tiled}) {
    for (const int threads : {1, 2, 4}) {
      SetGlobalThreads(threads);
      const LowerBoundDetail got = InteractivityLowerBoundDetailed(*p);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value),
                std::bit_cast<std::uint64_t>(want.value))
          << "value " << got.value << " vs " << want.value
          << " materialized=" << p->client_block().materialized()
          << " threads=" << threads;
      ASSERT_EQ(got.first, want.first) << "threads=" << threads;
      ASSERT_EQ(got.second, want.second) << "threads=" << threads;
    }
  }
  SetGlobalThreads(0);
}

// Attached clouds with access delays over a Waxman substrate: the tile
// size 7 divides none of the client counts but 1, and the raised access
// floor makes many clients share exact distances.
TEST(LowerBoundReferenceTest, BitIdenticalOnCloudsAcrossViews) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    data::ClientCloudParams params;
    params.substrate.num_nodes = 60;
    params.min_access_ms = 3.0;
    params.tile.tile_clients = 7;
    const net::Graph graph =
        data::GenerateWaxmanTopology(params.substrate, seed);
    net::OracleOptions opt;
    opt.backend = net::OracleBackend::kRows;
    const net::DistanceOracle oracle =
        net::DistanceOracle::FromGraph(graph, opt);
    for (const std::int32_t servers : {1, 3, 12, 40}) {
      std::vector<net::NodeIndex> server_nodes(
          static_cast<std::size_t>(servers));
      for (std::int32_t i = 0; i < servers; ++i) {
        server_nodes[static_cast<std::size_t>(i)] = (i * 37 + 5) % 60;
      }
      for (const std::int64_t clients : {1, 2, 17, 64, 65, 129, 300}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                          << " servers=" << servers
                                          << " clients=" << clients);
        params.num_clients = clients;
        params.materialize_block = true;
        const data::ClientCloud resident =
            data::BuildClientCloud(params, seed, oracle, server_nodes);
        params.materialize_block = false;
        const data::ClientCloud tiled =
            data::BuildClientCloud(params, seed, oracle, server_nodes);
        ExpectMatchesReference(resident.problem, tiled.problem);
      }
    }
  }
}

// Non-metric matrices with clients on substrate nodes (servers among
// them): real-valued entries, and integers in {1, ..., 4} where exact
// pair-value ties are everywhere, so the witness tie rule decides.
TEST(LowerBoundReferenceTest, BitIdenticalOnRealAndTieHeavyMatrices) {
  constexpr std::int32_t kNodes = 300;
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    for (const bool integer : {false, true}) {
      Rng rng(seed);
      net::LatencyMatrix m = integer ? net::LatencyMatrix(kNodes)
                                     : test::RandomMatrix(kNodes, rng);
      if (integer) {
        for (net::NodeIndex u = 0; u < kNodes; ++u) {
          for (net::NodeIndex v = u + 1; v < kNodes; ++v) {
            m.Set(u, v, static_cast<double>(1 + rng.NextBounded(4)));
          }
        }
      }
      const net::DistanceOracle oracle = net::DistanceOracle::FromMatrix(m);
      TileOptions tile;
      tile.tile_clients = 7;
      for (const std::int32_t servers : {1, 2, 9, 40}) {
        std::vector<net::NodeIndex> server_nodes(
            static_cast<std::size_t>(servers));
        std::iota(server_nodes.begin(), server_nodes.end(), 0);
        for (const std::int32_t clients : {1, 3, 50, 300}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " integer=" << integer
                       << " servers=" << servers << " clients=" << clients);
          // Clients from the top of the node range down, so small
          // populations sit off the servers and large ones cover them.
          std::vector<net::NodeIndex> client_nodes(
              static_cast<std::size_t>(clients));
          std::iota(client_nodes.begin(), client_nodes.end(),
                    kNodes - clients);
          const Problem resident(m, server_nodes, client_nodes);
          const Problem tiled = Problem::FromOracleTiled(
              oracle, server_nodes, client_nodes, tile);
          ExpectMatchesReference(resident, tiled);
        }
      }
    }
  }
}

// One server, so every pair's filter bound equals its exact value. The
// maximum is attained by (63, 63), (63, 64) and (64, 64): the first sits
// at the end of the first 64-client chunk, the last opens the second
// chunk. Distances rise within each chunk, so the first chunk scans
// every row before it reaches row 63, and a second pool lane usually
// sets the incumbent from (64, 64) by then. The incumbent then equals
// the witness pair's bound, and only a strict `<` keeps that pair from
// being pruned.
TEST(LowerBoundReferenceTest, IncumbentFromALaterChunkKeepsTheSmallestWitness) {
  constexpr std::int32_t kClients = 20000;
  std::vector<double> d_cs(static_cast<std::size_t>(kClients));
  for (std::int32_t c = 0; c < kClients; ++c) {
    d_cs[static_cast<std::size_t>(c)] = 1.0 + (c % 64) / 64.0;
  }
  d_cs[63] = d_cs[64] = 50.0;
  std::vector<net::NodeIndex> client_nodes(static_cast<std::size_t>(kClients));
  std::iota(client_nodes.begin(), client_nodes.end(), 1);
  const std::vector<double> d_ss = {0.0};
  const Problem p = Problem::FromBlocks({0}, client_nodes, d_cs, d_ss);
  for (const int threads : {2, 4}) {
    SetGlobalThreads(threads);
    for (int rep = 0; rep < 20; ++rep) {
      const LowerBoundDetail got = InteractivityLowerBoundDetailed(p);
      ASSERT_EQ(got.value, 100.0);
      ASSERT_EQ(got.first, 63) << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(got.second, 63) << "threads=" << threads << " rep=" << rep;
    }
  }
  SetGlobalThreads(0);
}

TEST(NormalizedInteractivityTest, Basics) {
  EXPECT_DOUBLE_EQ(NormalizedInteractivity(15.0, 10.0), 1.5);
  EXPECT_DOUBLE_EQ(NormalizedInteractivity(0.0, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(NormalizedInteractivity(5.0, 0.0)));
}

}  // namespace
}  // namespace diaca::core
