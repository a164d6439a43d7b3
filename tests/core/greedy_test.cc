#include "core/greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "data/streaming.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

TEST(GreedyTest, SingleServerAssignsEveryone) {
  Rng rng(1);
  const Problem p = test::RandomProblem(10, 1, rng);
  const Assignment a = GreedyAssign(p);
  EXPECT_TRUE(a.IsComplete());
  for (ClientIndex c = 0; c < p.num_clients(); ++c) EXPECT_EQ(a[c], 0);
}

TEST(GreedyTest, PrefersConsolidationWhenServersFarApart) {
  // Two well-separated servers with clients clustered around server 0:
  // splitting would pay the 100ms inter-server latency, so greedy keeps
  // everyone on one server.
  net::LatencyMatrix m(6);  // 0,1 servers; 2..5 clients
  m.Set(0, 1, 100.0);
  for (net::NodeIndex c = 2; c < 6; ++c) {
    m.Set(0, c, 5.0 + c);
    m.Set(1, c, 8.0 + c);
  }
  m.Set(2, 3, 1.0);
  m.Set(2, 4, 1.0);
  m.Set(2, 5, 1.0);
  m.Set(3, 4, 1.0);
  m.Set(3, 5, 1.0);
  m.Set(4, 5, 1.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3, 4, 5});
  const Assignment a = GreedyAssign(p);
  const ServerIndex home = a[0];
  for (ClientIndex c = 1; c < p.num_clients(); ++c) EXPECT_EQ(a[c], home);
}

TEST(GreedyTest, SplitsWhenServersClose) {
  // Two nearby servers, two distant client clusters: splitting wins.
  net::LatencyMatrix m(6);  // 0,1 servers; 2,3 near s0; 4,5 near s1
  m.Set(0, 1, 2.0);
  m.Set(0, 2, 3.0);
  m.Set(0, 3, 3.0);
  m.Set(0, 4, 80.0);
  m.Set(0, 5, 80.0);
  m.Set(1, 2, 80.0);
  m.Set(1, 3, 80.0);
  m.Set(1, 4, 3.0);
  m.Set(1, 5, 3.0);
  m.Set(2, 3, 1.0);
  m.Set(2, 4, 90.0);
  m.Set(2, 5, 90.0);
  m.Set(3, 4, 90.0);
  m.Set(3, 5, 90.0);
  m.Set(4, 5, 1.0);
  const Problem p(m, std::vector<net::NodeIndex>{0, 1},
                  std::vector<net::NodeIndex>{2, 3, 4, 5});
  const Assignment a = GreedyAssign(p);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 0);
  EXPECT_EQ(a[2], 1);
  EXPECT_EQ(a[3], 1);
  EXPECT_DOUBLE_EQ(MaxInteractionPathLength(p, a), 8.0);
}

TEST(GreedyTest, IterationCountBounded) {
  Rng rng(2);
  const Problem p = test::RandomProblem(30, 6, rng);
  SolveStats stats;
  const Assignment a = GreedyAssign(p, {}, &stats);
  EXPECT_TRUE(a.IsComplete());
  EXPECT_GE(stats.iterations, 1);
  EXPECT_LE(stats.iterations, p.num_clients());
}

TEST(GreedyTest, DeterministicAcrossCalls) {
  Rng rng(3);
  const Problem p = test::RandomProblem(40, 8, rng);
  EXPECT_EQ(GreedyAssign(p), GreedyAssign(p));
}

class GreedyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyPropertyTest, NearOptimalOnSmallInstances) {
  // §V: greedy is "generally close to the optimum". On small random
  // instances, sanity-check against the exhaustive optimum with a generous
  // factor (greedy has no worst-case guarantee).
  Rng rng(GetParam());
  const Problem p = test::RandomProblem(8, 3, rng);
  const double greedy = MaxInteractionPathLength(p, GreedyAssign(p));
  const double opt = test::BruteForceOptimal(p);
  EXPECT_GE(greedy, opt - 1e-9);
  EXPECT_LE(greedy, 3.0 * opt + 1e-9);
}

TEST_P(GreedyPropertyTest, UsuallyBeatsNearestServer) {
  // Not a theorem — but across seeds the aggregate must favor greedy,
  // mirroring Fig. 7. Checked as: greedy never loses by more than 5% on
  // any instance here.
  Rng rng(GetParam() + 50);
  const Problem p = test::RandomProblem(30, 5, rng);
  const double greedy = MaxInteractionPathLength(p, GreedyAssign(p));
  const double nsa = MaxInteractionPathLength(p, NearestServerAssign(p));
  EXPECT_LE(greedy, nsa * 1.05 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(GreedyTest, CapacityRespected) {
  Rng rng(4);
  const Problem p = test::RandomProblem(30, 5, rng);
  AssignOptions options;
  options.capacity = 6;  // tight
  const Assignment a = GreedyAssign(p, options);
  EXPECT_TRUE(a.IsComplete());
  EXPECT_LE(MaxServerLoad(p, a), 6);
}

TEST(GreedyTest, CapacityOneSpreadsClients) {
  Rng rng(5);
  const Problem p = test::RandomProblem(6, 6, rng);
  AssignOptions options;
  options.capacity = 1;
  const Assignment a = GreedyAssign(p, options);
  EXPECT_TRUE(a.IsComplete());
  EXPECT_LE(MaxServerLoad(p, a), 1);
}

TEST(GreedyTest, InfeasibleCapacityThrows) {
  Rng rng(6);
  const Problem p = test::RandomProblem(10, 3, rng);
  AssignOptions options;
  options.capacity = 3;
  EXPECT_THROW(GreedyAssign(p, options), Error);
  options.capacity = -5;
  EXPECT_THROW(GreedyAssign(p, options), Error);
}

TEST(GreedyTest, CapacitatedNoWorseThanTwiceUncapacitatedWhenLoose) {
  // With capacity >= |C| the capacitated path must produce the identical
  // assignment to the uncapacitated one.
  Rng rng(7);
  const Problem p = test::RandomProblem(20, 4, rng);
  AssignOptions loose;
  loose.capacity = p.num_clients();
  EXPECT_EQ(GreedyAssign(p, loose), GreedyAssign(p));
}

// Scalar reference greedy, written independently of greedy.cc in the
// shape of the pre-kernel solver: every server's list is fully sorted by
// (distance, client) once, and every round compacts and scans every list
// in full. The first strict-< minimum over (server, position) order is
// the lexicographic (cost, server, position) winner. No bounds, buckets
// or caches, so it shares none of the solver's pruning machinery.
//
// One shortcut keeps it affordable at 10^5 clients, where most rounds
// assign a single client at zero cost: costs are non-negative and delta
// is non-decreasing along a sorted list, so a server has a zero-cost
// position iff its first unassigned entry does — and the first such
// server in index order wins the round with that entry, no scan needed.
//
// When `unassigned_at_first_fill` is given it receives the unassigned
// count at the start of the round in which a server first ran out of
// room (-1 if none did).
Assignment ReferenceGreedy(const Problem& p, const AssignOptions& options,
                           std::int32_t* unassigned_at_first_fill = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ClientBlockView& view = p.client_block();
  const std::int32_t num_clients = p.num_clients();
  const std::int32_t num_servers = p.num_servers();
  std::vector<std::vector<ClientIndex>> lists(
      static_cast<std::size_t>(num_servers));
  std::vector<std::int32_t> room(static_cast<std::size_t>(num_servers));
  for (ServerIndex s = 0; s < num_servers; ++s) {
    auto& list = lists[static_cast<std::size_t>(s)];
    list.resize(static_cast<std::size_t>(num_clients));
    std::iota(list.begin(), list.end(), 0);
    std::sort(list.begin(), list.end(), [&](ClientIndex x, ClientIndex y) {
      const double dx = view.cs(x, s);
      const double dy = view.cs(y, s);
      return dx != dy ? dx < dy : x < y;
    });
    room[static_cast<std::size_t>(s)] =
        options.capacitated() ? options.CapacityOf(s)
                              : std::numeric_limits<std::int32_t>::max();
  }
  Assignment a(static_cast<std::size_t>(num_clients));
  std::vector<std::size_t> head(static_cast<std::size_t>(num_servers), 0);
  std::vector<double> far(static_cast<std::size_t>(num_servers), -1.0);
  std::vector<double> reach(static_cast<std::size_t>(num_servers), 0.0);
  double max_len = 0.0;
  std::int32_t assigned = 0;
  if (unassigned_at_first_fill != nullptr) *unassigned_at_first_fill = -1;
  while (assigned < num_clients) {
    double best_cost = kInf;
    double best_len = max_len;
    ServerIndex best_s = -1;
    std::size_t best_pos = 0;
    bool zero = false;
    for (ServerIndex s = 0; s < num_servers && !zero; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (room[si] <= 0) continue;
      std::size_t& h = head[si];
      while (a[lists[si][h]] != kUnassigned) ++h;
      const double d = view.cs(lists[si][h], s);
      const double r = assigned > 0 ? reach[si] : -kInf;
      if (std::max(std::max(2.0 * d, d + r), max_len) == max_len) {
        zero = true;
        best_s = s;
        best_pos = h;
      }
    }
    for (ServerIndex s = 0; s < num_servers && !zero; ++s) {
      const auto si = static_cast<std::size_t>(s);
      if (room[si] <= 0) continue;
      head[si] = 0;
      auto& list = lists[si];
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](ClientIndex c) {
                                  return a[c] != kUnassigned;
                                }),
                 list.end());
      const double r = assigned > 0 ? reach[si] : -kInf;
      for (std::size_t pos = 0; pos < list.size(); ++pos) {
        const double d = view.cs(list[pos], s);
        const double len = std::max(std::max(2.0 * d, d + r), max_len);
        const double dn = std::min(static_cast<double>(pos) + 1.0,
                                   static_cast<double>(room[si]));
        const double cost = (len - max_len) / dn;
        if (cost < best_cost) {
          best_cost = cost;
          best_len = len;
          best_s = s;
          best_pos = pos;
        }
      }
    }
    const auto bsi = static_cast<std::size_t>(best_s);
    const std::size_t batch = best_pos + 1;
    // A zero-cost winner's batch is its head entry alone; capacity
    // truncates any other batch to its farthest `room` members.
    const std::size_t take =
        zero ? 1 : std::min(batch, static_cast<std::size_t>(room[bsi]));
    for (std::size_t i = batch - take; i < batch; ++i) {
      const ClientIndex c = lists[bsi][i];
      a[c] = best_s;
      far[bsi] = std::max(far[bsi], view.cs(c, best_s));
    }
    if (unassigned_at_first_fill != nullptr &&
        *unassigned_at_first_fill < 0 && options.capacitated() &&
        room[bsi] == static_cast<std::int32_t>(take)) {
      *unassigned_at_first_fill = num_clients - assigned;
    }
    assigned += static_cast<std::int32_t>(take);
    if (options.capacitated()) room[bsi] -= static_cast<std::int32_t>(take);
    max_len = std::max(max_len, best_len);
    for (ServerIndex t = 0; t < num_servers; ++t) {
      reach[static_cast<std::size_t>(t)] = std::max(
          reach[static_cast<std::size_t>(t)], p.ss(best_s, t) + far[bsi]);
    }
  }
  return a;
}

// Counter deltas of one greedy solve that must repeat across a grid
// (all 0 when observability is compiled out).
struct GreedyCounts {
  // Depends only on batch sizes: repeats in every run of the grid.
  std::int64_t rebuilds = -1;
  // Depend on which lists the serial traversal reads: each repeats across
  // thread counts on one view at one pruning setting, indexed [view]
  // [pruning] ([0] resident or on, [1] tiled or off). The tiled round 1
  // reads floors and so other lists with pruning on; with pruning off
  // both views count every list first and repeat each other.
  using PerView = std::array<std::array<std::int64_t, 2>, 2>;
  PerView deferred_scatters{{{-1, -1}, {-1, -1}}};
  PerView round1_counts{{{-1, -1}, {-1, -1}}};
};

// GreedyAssign against the scalar reference, bit for bit, on both views
// of one instance under `base`: pruning on and off, 1 and 4 threads.
// Returns the counter deltas, checked to repeat across the grid.
GreedyCounts ExpectMatchesReferenceUnder(const Problem& resident,
                                         const Problem& tiled,
                                         const AssignOptions& base,
                                         std::uint64_t seed) {
  GreedyCounts counts;
  EXPECT_TRUE(resident.client_block().materialized());
  EXPECT_FALSE(tiled.client_block().materialized());
  const Assignment want = ReferenceGreedy(resident, base);
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  for (const Problem* problem : {&resident, &tiled}) {
    const std::size_t view = problem == &tiled ? 1 : 0;
    for (const bool prune : {true, false}) {
      for (const int threads : {1, 4}) {
        SetGlobalThreads(threads);
        AssignOptions options = base;
        options.bound_pruning = prune;
        const std::int64_t rebuilds_before = test::GreedyRebuilds();
        const std::int64_t scatters_before = test::GreedyDeferredScatters();
        const std::int64_t round1_before = test::GreedyRound1Counts();
        const Assignment got = GreedyAssign(*problem, options);
        const std::int64_t rebuilds =
            test::GreedyRebuilds() - rebuilds_before;
        const std::int64_t scatters =
            test::GreedyDeferredScatters() - scatters_before;
        const std::int64_t round1 =
            test::GreedyRound1Counts() - round1_before;
        std::int64_t& want_scatters =
            counts.deferred_scatters[view][prune ? 0 : 1];
        std::int64_t& want_round1 = counts.round1_counts[view][prune ? 0 : 1];
        if (counts.rebuilds < 0) counts.rebuilds = rebuilds;
        if (want_scatters < 0) want_scatters = scatters;
        if (want_round1 < 0) want_round1 = round1;
        const auto where = [&] {
          return ::testing::Message()
                 << "clients=" << resident.num_clients() << " seed=" << seed
                 << " capacitated=" << base.capacitated() << " materialized="
                 << problem->client_block().materialized()
                 << " prune=" << prune << " threads=" << threads;
        };
        EXPECT_EQ(rebuilds, counts.rebuilds) << where();
        EXPECT_EQ(scatters, want_scatters) << where();
        EXPECT_EQ(round1, want_round1) << where();
        // Only a pruned solve on a view with attachment rows runs round 1
        // on floors.
        if (view == 0 || !prune) {
          EXPECT_EQ(round1, 0) << where();
        }
        EXPECT_EQ(got.server_of, want.server_of) << where();
      }
    }
  }
  EXPECT_EQ(counts.deferred_scatters[0][1], counts.deferred_scatters[1][1])
      << "clients=" << resident.num_clients() << " seed=" << seed
      << " capacitated=" << base.capacitated();
  obs::SetMetricsEnabled(metrics_were_on);
  SetGlobalThreads(0);
  return counts;
}

// The grid above, capacitated (a quarter of slack over an even split)
// and uncapacitated; returns the uncapacitated counts.
GreedyCounts ExpectMatchesReference(const Problem& resident,
                                    const Problem& tiled, std::uint64_t seed) {
  AssignOptions capacitated;
  capacitated.capacity =
      resident.num_clients() * 5 / 4 / resident.num_servers();
  ExpectMatchesReferenceUnder(resident, tiled, capacitated, seed);
  return ExpectMatchesReferenceUnder(resident, tiled, AssignOptions{}, seed);
}

// A resident and a tiled client cloud over one Waxman substrate. A raised
// access floor makes about half the clients share their attachment
// node's exact distances, so the (distance, client) tie-break is
// exercised throughout.
struct CloudPair {
  data::ClientCloud resident;
  data::ClientCloud tiled;
};

CloudPair MakeCloudPair(std::int64_t clients, std::uint64_t seed) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 120;
  params.num_clients = clients;
  params.min_access_ms = 3.0;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, seed);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(graph, opt);
  std::vector<net::NodeIndex> servers;
  for (net::NodeIndex s = 0; s < 120; s += 10) servers.push_back(s);
  data::ClientCloud resident =
      data::BuildClientCloud(params, seed, oracle, servers);
  params.materialize_block = false;
  data::ClientCloud tiled =
      data::BuildClientCloud(params, seed, oracle, servers);
  return CloudPair{std::move(resident), std::move(tiled)};
}

void ExpectCloudMatchesReference(std::int64_t clients, std::uint64_t seed) {
  const CloudPair cloud = MakeCloudPair(clients, seed);
  ExpectMatchesReference(cloud.resident.problem, cloud.tiled.problem, seed);
}

// Client counts that put the bucket count at the floor of its clamp
// (700 clients -> 64 buckets), between (20000 -> 1024) and at the
// ceiling (140000 -> 8192).
TEST(GreedyReferenceTest, BitIdenticalToScalarReferenceAcrossGrid) {
  struct Case {
    std::int64_t clients;
    std::uint64_t seed;
  };
  for (const Case& k : {Case{700, 3}, Case{700, 11}, Case{20000, 5},
                        Case{20000, 13}, Case{140000, 7}}) {
    const CloudPair cloud = MakeCloudPair(k.clients, k.seed);
    const GreedyCounts counts = ExpectMatchesReference(
        cloud.resident.problem, cloud.tiled.problem, k.seed);
#if DIACA_OBS
    if (k.clients == 20000) {
      const std::int32_t num_servers = cloud.resident.problem.num_servers();
      // The lists follow the unassigned clients: a 20000-client solve
      // assigns half of them long before its last round.
      EXPECT_GE(counts.rebuilds, 1) << "seed=" << k.seed;
      // The first build only counts: the pruned scans of the first
      // epoch read, and so scatter, some of the lists but not all.
      for (const auto& view : counts.deferred_scatters) {
        EXPECT_GE(view[0], 1) << "seed=" << k.seed;
        EXPECT_LT(view[0], num_servers) << "seed=" << k.seed;
      }
      // 20000 clients on 120 attachment nodes: the pruned tiled round 1
      // runs on floors and counts the lists it reaches, not all of them.
      EXPECT_GE(counts.round1_counts[1][0], 1) << "seed=" << k.seed;
      EXPECT_LT(counts.round1_counts[1][0], num_servers) << "seed=" << k.seed;
    }
#else
    static_cast<void>(counts);
#endif
  }
}

// Round 1 on floors against the full first build, on random small
// clouds: 20–79-node substrates, 200–2199 clients (so every tiled view
// has at most half as many attachment rows as clients), 2–13 servers,
// two access floors, capacitated and not. The tiled solve runs round 1
// on floors; the resident one counts every list first and is pinned to
// the scalar reference by the grids above. A floor bound that is not
// certified — one that counted only the clients in buckets before k —
// changed the winner on about a quarter of these solves.
TEST(GreedyReferenceTest, FloorsRoundOneMatchesFullFirstBuildOnRandomClouds) {
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 7919);
    data::ClientCloudParams params;
    params.substrate.num_nodes =
        20 + static_cast<std::int32_t>(rng.NextBounded(60));
    params.num_clients = 200 + static_cast<std::int64_t>(rng.NextBounded(2000));
    params.min_access_ms = rng.NextBounded(2) != 0 ? 3.0 : 0.2;
    const net::Graph graph =
        data::GenerateWaxmanTopology(params.substrate, seed);
    net::OracleOptions opt;
    opt.backend = net::OracleBackend::kRows;
    const net::DistanceOracle oracle =
        net::DistanceOracle::FromGraph(graph, opt);
    const auto k = 2 + static_cast<std::int32_t>(rng.NextBounded(12));
    std::vector<net::NodeIndex> servers;
    for (std::int32_t s = 0; s < k; ++s) {
      servers.push_back(s * params.substrate.num_nodes / k);
    }
    const data::ClientCloud resident =
        data::BuildClientCloud(params, seed, oracle, servers);
    params.materialize_block = false;
    const data::ClientCloud tiled =
        data::BuildClientCloud(params, seed, oracle, servers);
    for (const bool capacitated : {false, true}) {
      AssignOptions options;
      if (capacitated) {
        options.capacity =
            static_cast<std::int32_t>(params.num_clients * 5 / 4 / k + 1);
      }
      const std::int64_t round1_before = test::GreedyRound1Counts();
      const Assignment got = GreedyAssign(tiled.problem, options);
#if DIACA_OBS
      EXPECT_GE(test::GreedyRound1Counts() - round1_before, 1)
          << "seed=" << seed;
#else
      static_cast<void>(round1_before);
#endif
      ASSERT_EQ(got.server_of,
                GreedyAssign(resident.problem, options).server_of)
          << "seed=" << seed << " capacitated=" << capacitated;
    }
  }
  obs::SetMetricsEnabled(metrics_were_on);
}

// Capacity tight enough that the first batch fills its server while more
// than half the clients are unassigned: that server is full at the
// first rebuild, which must leave its list alone. On the tiled view
// round 1 runs on floors, so round 2 runs the postponed first build.
TEST(GreedyReferenceTest, BitIdenticalWhenAServerFillsBeforeTheFirstRebuild) {
  const CloudPair cloud = MakeCloudPair(2000, 29);
  const Problem& resident = cloud.resident.problem;
  AssignOptions options;
  options.capacity = resident.num_clients() / resident.num_servers() + 8;
  std::int32_t unassigned_at_fill = -1;
  ReferenceGreedy(resident, options, &unassigned_at_fill);
  ASSERT_GT(unassigned_at_fill, resident.num_clients() / 2);
  const GreedyCounts counts = ExpectMatchesReferenceUnder(
      resident, cloud.tiled.problem, options, 29);
#if DIACA_OBS
  EXPECT_GE(counts.rebuilds, 1);
  EXPECT_GE(counts.round1_counts[1][0], 1);
#else
  static_cast<void>(counts);
#endif
}

// The scalar reference calls no kernel, so every SIMD backend must land
// on its assignment bit for bit.
TEST(GreedyReferenceTest, BitIdenticalToScalarReferenceOnEverySimdBackend) {
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kPortable}) {
    SCOPED_TRACE(static_cast<int>(backend));
    simd::SetBackend(backend);
    ExpectCloudMatchesReference(700, 17);
    ExpectCloudMatchesReference(20000, 19);
  }
  simd::SetBackend(simd::Backend::kPortable);
}

// Latencies drawn from {1, ..., 6}: exact cost ties between servers are
// common, so the cross-server (cost, server) tie rule decides rounds.
// Every client sits on its own node, so the tiled view has one client
// per attachment row and round 1 keeps the full first build.
TEST(GreedyReferenceTest, BitIdenticalOnTieHeavyIntegerLatencies) {
  constexpr std::int32_t kNodes = 400;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    net::LatencyMatrix m(kNodes);
    for (net::NodeIndex u = 0; u < kNodes; ++u) {
      for (net::NodeIndex v = u + 1; v < kNodes; ++v) {
        m.Set(u, v, static_cast<double>(1 + rng.NextBounded(6)));
      }
    }
    std::vector<net::NodeIndex> servers(12);
    std::iota(servers.begin(), servers.end(), 0);
    std::vector<net::NodeIndex> clients(kNodes);
    std::iota(clients.begin(), clients.end(), 0);
    const Problem resident(m, servers, clients);
    const Problem tiled = Problem::FromOracleTiled(
        net::DistanceOracle::FromMatrix(m), servers, clients);
    const GreedyCounts counts = ExpectMatchesReference(resident, tiled, seed);
    EXPECT_EQ(counts.round1_counts[1][0], 0) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace diaca::core
