// Property suite for the client-block view API: the streamed
// OracleTileView must be bit-identical to the materialized block from
// a cold or warm row store and at every thread count, for every solver
// that consumes the view.
// Also covers the view's accessors (rows with zero pads, column subsets,
// nearest servers, the assigned-diagonal consumers), the FromBlocks/
// FromView validation, and the --oracle spec grammar.
#include "core/client_block_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/distributed_greedy.h"
#include "core/incremental.h"
#include "core/lower_bound.h"
#include "core/metrics.h"
#include "core/problem.h"
#include "core/solver_registry.h"
#include "data/streaming.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "net/graph.h"
#include "obs/obs.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

constexpr std::int32_t kNodes = 64;
constexpr std::int32_t kServers = 6;

struct Substrate {
  net::Graph graph;
  net::DistanceOracle oracle;
  std::vector<net::NodeIndex> servers;
  std::vector<net::NodeIndex> clients;
};

Substrate MakeSubstrate(std::uint64_t seed = 5) {
  data::WaxmanParams wp;
  wp.num_nodes = kNodes;
  net::Graph graph = data::GenerateWaxmanTopology(wp, seed);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  net::DistanceOracle oracle = net::DistanceOracle::FromGraph(graph, opt);
  std::vector<net::NodeIndex> servers(static_cast<std::size_t>(kServers));
  for (std::size_t s = 0; s < servers.size(); ++s) {
    servers[s] = static_cast<net::NodeIndex>(s * 9);
  }
  std::vector<net::NodeIndex> clients(static_cast<std::size_t>(kNodes));
  std::iota(clients.begin(), clients.end(), 0);
  return Substrate{std::move(graph), std::move(oracle), std::move(servers),
                   std::move(clients)};
}

// Clients on substrate nodes, attached there with access delay 0.0.
std::shared_ptr<OracleTileView> OnNodeView(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> servers,
    std::span<const net::NodeIndex> nodes) {
  return OracleTileView::FromAttachments(
      oracle, servers, nodes, std::vector<double>(nodes.size(), 0.0));
}

TEST(ClientBlockViewTest, CellsMatchMaterializedBitForBit) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients);
  EXPECT_FALSE(tiled.client_block().materialized());
  EXPECT_TRUE(dense.client_block().materialized());
  for (ClientIndex c = 0; c < dense.num_clients(); ++c) {
    for (ServerIndex s = 0; s < dense.num_servers(); ++s) {
      ASSERT_EQ(dense.client_block().cs(c, s), tiled.client_block().cs(c, s))
          << "c=" << c << " s=" << s;
    }
  }
  for (ServerIndex a = 0; a < dense.num_servers(); ++a) {
    for (ServerIndex b = 0; b < dense.num_servers(); ++b) {
      ASSERT_EQ(dense.ss(a, b), tiled.ss(a, b));
    }
  }
}

// A dense-backed oracle must stream the same bits as a rows-backed one
// (and as the materialized block): the tile view's contract is
// backend-independent.
TEST(ClientBlockViewTest, DenseOracleBackendStreamsIdenticalBits) {
  const Substrate sub = MakeSubstrate();
  const net::LatencyMatrix matrix = sub.graph.AllPairsShortestPaths();
  const net::DistanceOracle dense_oracle =
      net::DistanceOracle::FromMatrix(matrix);
  const Problem materialized =
      Problem::WithClientsEverywhere(matrix, sub.servers);
  const Problem via_dense =
      Problem::FromOracleTiled(dense_oracle, sub.servers, sub.clients);
  const Problem via_rows =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients);
  for (ClientIndex c = 0; c < materialized.num_clients(); ++c) {
    for (ServerIndex s = 0; s < materialized.num_servers(); ++s) {
      ASSERT_EQ(materialized.client_block().cs(c, s),
                via_dense.client_block().cs(c, s));
      ASSERT_EQ(materialized.client_block().cs(c, s),
                via_rows.client_block().cs(c, s));
    }
  }
  for (const char* name : {"greedy", "lfb", "dg"}) {
    const SolveResult want =
        SolverRegistry::Default().Solve(name, materialized, SolveOptions{});
    const SolveResult got_dense =
        SolverRegistry::Default().Solve(name, via_dense, SolveOptions{});
    const SolveResult got_rows =
        SolverRegistry::Default().Solve(name, via_rows, SolveOptions{});
    ASSERT_EQ(want.assignment.server_of, got_dense.assignment.server_of)
        << name;
    ASSERT_EQ(want.assignment.server_of, got_rows.assignment.server_of)
        << name;
  }
}

// The core property: every solver lands on the identical assignment (and
// bit-identical objective) whether the client block is materialized or
// streamed.
TEST(ClientBlockViewTest, SolversBitIdenticalAcrossBackends) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients);
  const SolverRegistry& registry = SolverRegistry::Default();
  for (const char* name : {"nearest", "lfb", "greedy", "dg", "single"}) {
    const SolveResult want = registry.Solve(name, dense, SolveOptions{});
    const SolveResult got = registry.Solve(name, tiled, SolveOptions{});
    ASSERT_EQ(want.assignment.server_of, got.assignment.server_of) << name;
    ASSERT_EQ(want.stats.max_len, got.stats.max_len) << name;
  }
}

TEST(ClientBlockViewTest, CapacitatedSolversBitIdenticalAcrossBackends) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  SolveOptions options;
  options.assign.capacity = kNodes / kServers + 2;
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients);
  for (const char* name : {"nearest", "lfb", "greedy"}) {
    const SolveResult want =
        SolverRegistry::Default().Solve(name, dense, options);
    const SolveResult got =
        SolverRegistry::Default().Solve(name, tiled, options);
    ASSERT_EQ(want.assignment.server_of, got.assignment.server_of) << name;
    ASSERT_LE(MaxServerLoad(tiled, got.assignment), options.assign.capacity);
  }
}

// The view pulls its server rows once, at construction. From a row
// store that already holds them (a caller's FillRow or an earlier view
// built them; cloud placement builds none) it builds none again and
// reads the same bits as from a fresh store.
TEST(ClientBlockViewTest, WarmRowStoreDoesNotChangeBits) {
  const Substrate cold = MakeSubstrate();
  const Substrate warm = MakeSubstrate();
  std::vector<double> row(static_cast<std::size_t>(kNodes));
  for (const net::NodeIndex s : warm.servers) warm.oracle.FillRow(s, row);
  ASSERT_EQ(warm.oracle.stats().row_builds, kServers);
  const Problem a =
      Problem::FromOracleTiled(cold.oracle, cold.servers, cold.clients);
  const Problem b =
      Problem::FromOracleTiled(warm.oracle, warm.servers, warm.clients);
  EXPECT_EQ(cold.oracle.stats().row_builds, kServers);
  EXPECT_EQ(warm.oracle.stats().row_builds, kServers);
  EXPECT_EQ(warm.oracle.stats().row_cache_hits, kServers);
  for (ClientIndex c = 0; c < a.num_clients(); ++c) {
    for (ServerIndex s = 0; s < a.num_servers(); ++s) {
      ASSERT_EQ(a.client_block().cs(c, s), b.client_block().cs(c, s));
    }
  }
  const SolveResult ra =
      SolverRegistry::Default().Solve("greedy", a, SolveOptions{});
  const SolveResult rb =
      SolverRegistry::Default().Solve("greedy", b, SolveOptions{});
  EXPECT_EQ(ra.assignment.server_of, rb.assignment.server_of);
}

TEST(ClientBlockViewTest, SolversBitIdenticalAcrossThreadCounts) {
  const Substrate sub = MakeSubstrate();
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients);
  for (const char* name : {"nearest", "lfb", "greedy", "dg"}) {
    SetGlobalThreads(1);
    const SolveResult serial =
        SolverRegistry::Default().Solve(name, tiled, SolveOptions{});
    SetGlobalThreads(4);
    const SolveResult parallel =
        SolverRegistry::Default().Solve(name, tiled, SolveOptions{});
    SetGlobalThreads(0);
    ASSERT_EQ(serial.assignment.server_of, parallel.assignment.server_of)
        << name;
    ASSERT_EQ(serial.stats.max_len, parallel.stats.max_len) << name;
  }
}

// The exact solver and both lower bounds consume the view through
// different access paths (MaterializeBlock, nearest servers, column
// maxima); all must agree with the dense problem exactly.
TEST(ClientBlockViewTest, ExactAndBoundsMatchAcrossBackends) {
  data::WaxmanParams wp;
  wp.num_nodes = 12;
  const net::Graph graph = data::GenerateWaxmanTopology(wp, 9);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> servers = {0, 4, 8};
  std::vector<net::NodeIndex> clients(12);
  std::iota(clients.begin(), clients.end(), 0);
  const Problem dense = Problem::WithClientsEverywhere(oracle, servers);
  const Problem tiled = Problem::FromOracleTiled(oracle, servers, clients);

  EXPECT_EQ(InteractivityLowerBound(dense), InteractivityLowerBound(tiled));
  const LowerBoundDetail da = InteractivityLowerBoundDetailed(dense);
  const LowerBoundDetail db = InteractivityLowerBoundDetailed(tiled);
  EXPECT_EQ(da.value, db.value);
  EXPECT_EQ(da.first, db.first);
  EXPECT_EQ(da.second, db.second);
  EXPECT_EQ(TripleEnhancedLowerBound(dense), TripleEnhancedLowerBound(tiled));

  const SolveResult exact_dense =
      SolverRegistry::Default().Solve("exact", dense, SolveOptions{});
  const SolveResult exact_tiled =
      SolverRegistry::Default().Solve("exact", tiled, SolveOptions{});
  EXPECT_EQ(exact_dense.assignment.server_of, exact_tiled.assignment.server_of);
  EXPECT_EQ(exact_dense.stats.max_len, exact_tiled.stats.max_len);

  const core::Assignment& a = exact_dense.assignment;
  EXPECT_EQ(MaxInteractionPathLength(dense, a),
            MaxInteractionPathLength(tiled, a));
  EXPECT_EQ(MeanInteractionPathLength(dense, a),
            MeanInteractionPathLength(tiled, a));
  EXPECT_EQ(ServerEccentricities(dense, a), ServerEccentricities(tiled, a));
  const auto crit_dense = CriticalClients(dense, a);
  const auto crit_tiled = CriticalClients(tiled, a);
  EXPECT_EQ(crit_dense, crit_tiled);
}

// FillRow and MaterializeBlock write every padded row: the server lanes
// bit for bit equal to cs(), the pad lanes 0.0 (the lazy backend's
// broadcast-add covers the server lanes only and re-zeroes the pads,
// which only access delays can pollute), on both views. 13 servers
// leave three pad lanes; the row buffer starts as NaN so a pad lane
// FillRow skips cannot pass. The subset overload takes a descending
// stride-7 client list; its rows must be FillRow's bits in list order.
// 30000 clients make both blocks span several 4096-row chunks, filled
// concurrently at 4 threads. rows_filled counts every synthesized row on
// the lazy backend only, MaterializeBlock's rows included.
TEST(ClientBlockViewTest, FillRowAndMaterializeBlockMatchCellsWithZeroPads) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 30000;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 29);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  std::vector<net::NodeIndex> servers;
  for (net::NodeIndex s = 1; s < 50; s += 4) servers.push_back(s);
  ASSERT_EQ(servers.size(), 13u);
  const data::ClientCloud mat =
      data::BuildClientCloud(params, 29, oracle, servers);
  params.materialize_block = false;
  const data::ClientCloud streamed =
      data::BuildClientCloud(params, 29, oracle, servers);
  const ClientBlockView& ref = mat.problem.client_block();
  const std::size_t stride = ref.server_stride();
  ASSERT_GT(stride, servers.size());
  std::vector<ClientIndex> subset;
  for (ClientIndex c = ref.num_clients() - 1; c >= 0; c -= 7) {
    subset.push_back(c);
  }
  ASSERT_GT(subset.size(), 4096u);

  const auto expect_row = [&](const double* row, ClientIndex c,
                              bool materialized, const char* what) {
    for (ServerIndex s = 0; s < ref.num_servers(); ++s) {
      ASSERT_EQ(row[s], ref.cs(c, s))
          << what << " materialized=" << materialized << " c=" << c
          << " s=" << s;
    }
    for (std::size_t p = servers.size(); p < stride; ++p) {
      ASSERT_EQ(row[p], 0.0) << what << " materialized=" << materialized
                             << " c=" << c << " pad lane " << p;
    }
  };
  for (const Problem* p : {&mat.problem, &streamed.problem}) {
    const ClientBlockView& view = p->client_block();
    const std::int64_t filled_before = view.stats().rows_filled;
    std::vector<double> row(stride);
    for (ClientIndex c = 0; c < view.num_clients(); ++c) {
      std::fill(row.begin(), row.end(), std::nan(""));
      view.FillRow(c, row.data());
      expect_row(row.data(), c, view.materialized(), "FillRow");
    }
    for (const int threads : {1, 4}) {
      SetGlobalThreads(threads);
      const std::vector<double> block = view.MaterializeBlock();
      ASSERT_EQ(block.size(),
                static_cast<std::size_t>(view.num_clients()) * stride);
      for (ClientIndex c = 0; c < view.num_clients(); ++c) {
        expect_row(block.data() + static_cast<std::size_t>(c) * stride, c,
                   view.materialized(), "MaterializeBlock");
      }
      const std::vector<double> sub = view.MaterializeBlock(subset);
      ASSERT_EQ(sub.size(), subset.size() * stride);
      for (std::size_t i = 0; i < subset.size(); ++i) {
        view.FillRow(subset[i], row.data());
        ASSERT_EQ(std::memcmp(sub.data() + i * stride, row.data(),
                              stride * sizeof(double)),
                  0)
            << "threads=" << threads << " materialized=" << view.materialized()
            << " subset row " << i << " (client " << subset[i] << ")";
      }
      EXPECT_TRUE(
          view.MaterializeBlock(std::span<const ClientIndex>{}).empty());
      for (const ClientIndex bad : {-1, view.num_clients()}) {
        const std::vector<ClientIndex> ids = {0, bad};
        EXPECT_THROW(view.MaterializeBlock(ids), Error) << bad;
      }
    }
    SetGlobalThreads(0);
    // Lazy backend: the FillRow pass, then per thread count the full
    // block, the subset block and the subset's FillRow comparisons.
    const auto n = std::int64_t{view.num_clients()};
    const auto k = static_cast<std::int64_t>(subset.size());
    EXPECT_EQ(view.stats().rows_filled - filled_before,
              view.materialized() ? 0 : n + 2 * (n + 2 * k));
  }
}

// An eccentricity fold reads the assigned diagonal, an O(|C|) column
// access like GatherAssigned, and counts as exactly one on both views.
TEST(ClientBlockViewTest, FoldAssignedMaxCountsOneColumnAccess) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients);
  ASSERT_TRUE(dense.client_block().materialized());
  ASSERT_FALSE(tiled.client_block().materialized());
  const SolveResult solved =
      SolverRegistry::Default().Solve("greedy", dense, SolveOptions{});
  for (const Problem* p : {&dense, &tiled}) {
    const ClientBlockView& view = p->client_block();
    std::vector<double> far(static_cast<std::size_t>(view.num_servers()),
                            -1.0);
    const ClientBlockStats before = view.stats();
    view.FoldAssignedMax(solved.assignment.server_of.data(), far.data());
    const ClientBlockStats after = view.stats();
    EXPECT_EQ(after.columns_gathered - before.columns_gathered, 1)
        << "materialized=" << view.materialized();
    EXPECT_EQ(after.rows_filled, before.rows_filled);
    EXPECT_EQ(far, ServerEccentricities(dense, solved.assignment));
  }
}

TEST(ClientBlockViewTest, GreedySolveSynthesizesNoTilesOnStreamedBackend) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients);
  const SolveResult rd =
      SolverRegistry::Default().Solve("greedy", dense, SolveOptions{});
  // The resident solve runs the same bucket-refined scans, so its bounds
  // retire real gathers; with pruning off nothing is credited.
  EXPECT_GT(rd.stats.tiles_pruned, 0);
  SolveOptions unpruned;
  unpruned.assign.bound_pruning = false;
  const SolveResult rd_off =
      SolverRegistry::Default().Solve("greedy", dense, unpruned);
  EXPECT_EQ(rd_off.stats.tiles_pruned, 0);
  EXPECT_EQ(rd_off.assignment.server_of, rd.assignment.server_of);
  const ClientBlockStats before = tiled.client_block().stats();
  const SolveResult rt =
      SolverRegistry::Default().Solve("greedy", tiled, SolveOptions{});
  // The bounds-first greedy never synthesizes a row on a lazy backend:
  // preprocessing fills one column per server, the rounds gather only the
  // buckets their bounds cannot retire, batches re-gather single columns,
  // and the objective fold reads only the assigned diagonal.
  const ClientBlockStats after = tiled.client_block().stats();
  EXPECT_EQ(after.rows_filled, before.rows_filled);
  EXPECT_GT(after.columns_gathered, before.columns_gathered);
  // Identical output is the other half of the contract.
  EXPECT_EQ(rt.assignment.server_of, rd.assignment.server_of);
  EXPECT_EQ(rt.stats.max_len, rd.stats.max_len);
}

// The greedy determinism grid: every thread count must produce the
// identical greedy assignment, bit-identical objective, and
// bit-identical eccentricity fold. Each thread count gets a fresh row
// store, so the 4-thread view build runs its row builds concurrently.
// Every solve rebuilds its candidate lists over the survivors the same
// number of times, so the 4-thread runs put the rebuild's concurrent
// per-server writes under the oracle label's sanitizer lanes.
TEST(ClientBlockViewTest, GreedyGridBitIdenticalAcrossThreadsAndShards) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  std::int64_t before = test::GreedyRebuilds();
  const SolveResult want =
      SolverRegistry::Default().Solve("greedy", dense, SolveOptions{});
  const std::int64_t want_rebuilds = test::GreedyRebuilds() - before;
#if DIACA_OBS
  EXPECT_GE(want_rebuilds, 1);
#endif
  const std::vector<double> want_ecc =
      ServerEccentricities(dense, want.assignment);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    const net::DistanceOracle oracle =
        net::DistanceOracle::FromGraph(sub.graph, opt);
    const Problem tiled =
        Problem::FromOracleTiled(oracle, sub.servers, sub.clients);
    before = test::GreedyRebuilds();
    const SolveResult got =
        SolverRegistry::Default().Solve("greedy", tiled, SolveOptions{});
    EXPECT_EQ(test::GreedyRebuilds() - before, want_rebuilds)
        << "threads=" << threads;
    ASSERT_EQ(want.assignment.server_of, got.assignment.server_of)
        << "threads=" << threads;
    ASSERT_EQ(want.stats.max_len, got.stats.max_len) << "threads=" << threads;
    ASSERT_EQ(want_ecc, ServerEccentricities(tiled, got.assignment))
        << "threads=" << threads;
  }
  obs::SetMetricsEnabled(metrics_were_on);
  SetGlobalThreads(0);
}

TEST(ClientBlockViewTest, CloudBuildsIdenticalProblemWithoutMaterializing) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 700;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 13);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> servers = {3, 17, 29, 41};

  const data::ClientCloud mat =
      data::BuildClientCloud(params, 13, oracle, servers);
  params.materialize_block = false;
  const data::ClientCloud streamed =
      data::BuildClientCloud(params, 13, oracle, servers);

  EXPECT_TRUE(mat.problem.client_block().materialized());
  EXPECT_FALSE(streamed.problem.client_block().materialized());
  EXPECT_EQ(mat.attach, streamed.attach);
  EXPECT_EQ(mat.access_ms, streamed.access_ms);
  ASSERT_EQ(mat.problem.num_clients(), streamed.problem.num_clients());
  for (ClientIndex c = 0; c < mat.problem.num_clients(); ++c) {
    EXPECT_EQ(mat.problem.client_node(c), streamed.problem.client_node(c));
    for (ServerIndex s = 0; s < mat.problem.num_servers(); ++s) {
      ASSERT_EQ(mat.problem.client_block().cs(c, s),
                streamed.problem.client_block().cs(c, s));
    }
  }
  for (ServerIndex a = 0; a < mat.problem.num_servers(); ++a) {
    for (ServerIndex b = 0; b < mat.problem.num_servers(); ++b) {
      ASSERT_EQ(mat.problem.ss(a, b), streamed.problem.ss(a, b));
    }
  }
  for (const char* name : {"nearest", "lfb", "greedy"}) {
    const SolveResult want =
        SolverRegistry::Default().Solve(name, mat.problem, SolveOptions{});
    const SolveResult got = SolverRegistry::Default().Solve(
        name, streamed.problem, SolveOptions{});
    ASSERT_EQ(want.assignment.server_of, got.assignment.server_of) << name;
    ASSERT_EQ(want.stats.max_len, got.stats.max_len) << name;
  }
}

// FillNearest against a serial first-minimum scan of every exact row, on
// both views and at several thread counts. 10000 clients span several
// of the resident scan's pool chunks; the access floor puts many
// clients on identical rows.
TEST(ClientBlockViewTest, FillNearestMatchesSerialScanAcrossViewsAndThreads) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 10000;
  params.min_access_ms = 3.0;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 21);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> servers = {2, 9, 17, 23, 31, 44};
  const data::ClientCloud mat =
      data::BuildClientCloud(params, 21, oracle, servers);
  params.materialize_block = false;
  const data::ClientCloud streamed =
      data::BuildClientCloud(params, 21, oracle, servers);

  const ClientBlockView& ref_view = mat.problem.client_block();
  const auto n = static_cast<std::size_t>(ref_view.num_clients());
  std::vector<ServerIndex> want_server(n);
  std::vector<double> want_dist(n);
  for (ClientIndex c = 0; c < ref_view.num_clients(); ++c) {
    ServerIndex best = 0;
    for (ServerIndex s = 1; s < ref_view.num_servers(); ++s) {
      if (ref_view.cs(c, s) < ref_view.cs(c, best)) best = s;
    }
    want_server[static_cast<std::size_t>(c)] = best;
    want_dist[static_cast<std::size_t>(c)] = ref_view.cs(c, best);
  }
  for (const Problem* p : {&mat.problem, &streamed.problem}) {
    for (const int threads : {1, 2, 4}) {
      SetGlobalThreads(threads);
      std::vector<ServerIndex> server(n);
      std::vector<double> dist(n);
      p->client_block().FillNearest(server.data(), dist.data());
      ASSERT_EQ(server, want_server)
          << "materialized=" << p->client_block().materialized()
          << " threads=" << threads;
      ASSERT_EQ(dist, want_dist)
          << "materialized=" << p->client_block().materialized()
          << " threads=" << threads;
    }
  }
  SetGlobalThreads(0);
}

// Clients on substrate nodes take FillNearest's candidate-window path
// like attached ones (access 0.0). On a unit-length 8x8 grid every
// distance is a small integer, so exact ties are everywhere: node 18
// (row 2, column 2) sees the servers on its four neighbours, indices 1
// to 4, all at leg 1. Each client's winner must be the lowest tied
// server index, as a serial first-minimum scan of the resident block
// (routed independently, through the dense matrix) picks it, at 1 and 4
// threads.
TEST(ClientBlockViewTest, OnNodeFillNearestKeepsFirstOfExactTies) {
  constexpr net::NodeIndex kSide = 8;
  net::Graph grid(kSide * kSide);
  for (net::NodeIndex r = 0; r < kSide; ++r) {
    for (net::NodeIndex col = 0; col < kSide; ++col) {
      const net::NodeIndex v = r * kSide + col;
      if (col + 1 < kSide) grid.AddEdge(v, v + 1, 1.0);
      if (r + 1 < kSide) grid.AddEdge(v, v + kSide, 1.0);
    }
  }
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(grid, opt);
  const std::vector<net::NodeIndex> servers = {63, 26, 17, 19, 10, 7};
  std::vector<net::NodeIndex> clients(static_cast<std::size_t>(kSide * kSide));
  std::iota(clients.begin(), clients.end(), 0);
  const Problem resident =
      Problem::WithClientsEverywhere(grid.AllPairsShortestPaths(), servers);
  const Problem tiled = Problem::FromOracleTiled(oracle, servers, clients);

  const ClientBlockView& ref = resident.client_block();
  const auto n = static_cast<std::size_t>(ref.num_clients());
  std::vector<ServerIndex> want_server(n);
  std::vector<double> want_dist(n);
  std::int32_t tied = 0;
  for (ClientIndex c = 0; c < ref.num_clients(); ++c) {
    ServerIndex best = 0;
    for (ServerIndex s = 1; s < ref.num_servers(); ++s) {
      if (ref.cs(c, s) < ref.cs(c, best)) best = s;
    }
    std::int32_t at_min = 0;
    for (ServerIndex s = 0; s < ref.num_servers(); ++s) {
      at_min += ref.cs(c, s) == ref.cs(c, best) ? 1 : 0;
    }
    tied += at_min > 1 ? 1 : 0;
    want_server[static_cast<std::size_t>(c)] = best;
    want_dist[static_cast<std::size_t>(c)] = ref.cs(c, best);
  }
  ASSERT_EQ(want_server[18], 1);
  ASSERT_EQ(want_dist[18], 1.0);
  ASSERT_GT(tied, kSide);
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    std::vector<ServerIndex> server(n);
    std::vector<double> dist(n);
    tiled.client_block().FillNearest(server.data(), dist.data());
    EXPECT_EQ(server, want_server) << "threads=" << threads;
    EXPECT_EQ(dist, want_dist) << "threads=" << threads;
  }
  SetGlobalThreads(0);
}

// ForEachColumn over a client subset hands every server exactly once a
// column with col[i] == cs(ids[i], s) bit for bit, on both views (13
// servers: one full resident 8-column group and a partial one; access
// delays), at 1 and 4 threads, for a single client, an ascending strided
// subset and every client.
TEST(ClientBlockViewTest, ForEachColumnSubsetMatchesCellsAcrossViewsAndThreads) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 1000;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 23);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  std::vector<net::NodeIndex> servers;
  for (net::NodeIndex s = 1; s < 50; s += 4) servers.push_back(s);
  ASSERT_EQ(servers.size(), 13u);
  const data::ClientCloud mat =
      data::BuildClientCloud(params, 23, oracle, servers);
  params.materialize_block = false;
  const data::ClientCloud streamed =
      data::BuildClientCloud(params, 23, oracle, servers);

  std::vector<ClientIndex> strided;
  for (ClientIndex c = 3; c < 1000; c += 7) strided.push_back(c);
  std::vector<ClientIndex> every(1000);
  std::iota(every.begin(), every.end(), 0);
  const std::vector<std::vector<ClientIndex>> subsets = {
      {999}, strided, every};
  for (const Problem* p : {&mat.problem, &streamed.problem}) {
    const ClientBlockView& view = p->client_block();
    const auto num_servers = static_cast<std::size_t>(view.num_servers());
    for (const int threads : {1, 4}) {
      SetGlobalThreads(threads);
      for (const std::vector<ClientIndex>& ids : subsets) {
        // fn runs concurrently for distinct servers: each writes its own
        // slot.
        std::vector<std::vector<double>> got(num_servers);
        std::vector<int> visits(num_servers, 0);
        const std::int64_t gathered_before = view.stats().columns_gathered;
        view.ForEachColumn(ids, [&](ServerIndex s, const double* col) {
          ++visits[static_cast<std::size_t>(s)];
          got[static_cast<std::size_t>(s)].assign(col, col + ids.size());
        });
        EXPECT_EQ(view.stats().columns_gathered - gathered_before,
                  static_cast<std::int64_t>(num_servers));
        for (ServerIndex s = 0; s < view.num_servers(); ++s) {
          const auto si = static_cast<std::size_t>(s);
          ASSERT_EQ(visits[si], 1) << "s=" << s;
          for (std::size_t i = 0; i < ids.size(); ++i) {
            ASSERT_EQ(got[si][i], mat.problem.client_block().cs(ids[i], s))
                << "materialized=" << view.materialized()
                << " threads=" << threads << " subset=" << ids.size()
                << " s=" << s << " i=" << i;
          }
        }
      }
    }
  }
  SetGlobalThreads(0);
}

// ForEachColumnFloors groups the clients of `ids` by attachment node:
// the occupied rows come in the order their nodes first appear among all
// clients, the counts sum to |ids|, and each server's floor for a row is
// the minimum of cs(c, s) over the row's clients in `ids`, bit for bit.
// Checked on a view with access delays (with a floor that makes many of
// them equal) and one of clients on nodes (access 0.0, several clients
// per node), over every client and a strided subset, at 1 and 4
// threads. A cap below the occupied rows declines, and a resident block
// offers no floors.
TEST(ClientBlockViewTest, ForEachColumnFloorsAreRowMinimaOfCells) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 1000;
  params.min_access_ms = 3.0;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 27);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  std::vector<net::NodeIndex> servers;
  for (net::NodeIndex s = 2; s < 50; s += 5) servers.push_back(s);
  const data::ClientCloud mat =
      data::BuildClientCloud(params, 27, oracle, servers);
  params.materialize_block = false;
  const data::ClientCloud streamed =
      data::BuildClientCloud(params, 27, oracle, servers);
  std::vector<net::NodeIndex> on_nodes(300);
  for (std::size_t c = 0; c < on_nodes.size(); ++c) {
    on_nodes[c] = static_cast<net::NodeIndex>((c * 7 + c / 40) % 50);
  }
  const auto node_view = OnNodeView(oracle, servers, on_nodes);

  struct Case {
    const ClientBlockView* view;
    const std::vector<net::NodeIndex>* nodes;
  };
  for (const Case& k :
       {Case{&streamed.problem.client_block(), &streamed.attach},
        Case{node_view.get(), &on_nodes}}) {
    const ClientBlockView& view = *k.view;
    const auto num_servers = static_cast<std::size_t>(view.num_servers());
    // Row of each client: its node's rank in first-appearance order.
    std::vector<std::int32_t> row_of_node(50, -1);
    std::vector<std::int32_t> row_of(k.nodes->size());
    std::int32_t rows = 0;
    for (std::size_t c = 0; c < k.nodes->size(); ++c) {
      std::int32_t& r = row_of_node[static_cast<std::size_t>((*k.nodes)[c])];
      if (r < 0) r = rows++;
      row_of[c] = r;
    }
    ASSERT_LT(static_cast<std::size_t>(rows), k.nodes->size());
    std::vector<ClientIndex> every(k.nodes->size());
    std::iota(every.begin(), every.end(), 0);
    std::vector<ClientIndex> strided;
    for (std::size_t c = 5; c < every.size(); c += 9) {
      strided.push_back(static_cast<ClientIndex>(c));
    }
    for (const std::vector<ClientIndex>* ids : {&every, &strided}) {
      // The reference: occupied rows ascending, counts and exact minima.
      std::vector<std::int32_t> count(static_cast<std::size_t>(rows), 0);
      std::vector<double> lowest(static_cast<std::size_t>(rows) * num_servers,
                                 std::numeric_limits<double>::infinity());
      for (const ClientIndex c : *ids) {
        const auto r =
            static_cast<std::size_t>(row_of[static_cast<std::size_t>(c)]);
        ++count[r];
        for (ServerIndex s = 0; s < view.num_servers(); ++s) {
          double& lo = lowest[r * num_servers + static_cast<std::size_t>(s)];
          lo = std::min(lo, view.cs(c, s));
        }
      }
      std::vector<std::size_t> occupied;
      for (std::size_t r = 0; r < count.size(); ++r) {
        if (count[r] > 0) occupied.push_back(r);
      }
      for (const int threads : {1, 4}) {
        SetGlobalThreads(threads);
        // fn runs concurrently for distinct servers: each writes its own
        // slot.
        std::vector<std::vector<double>> floors(num_servers);
        std::vector<std::vector<std::int32_t>> counts(num_servers);
        std::vector<int> visits(num_servers, 0);
        ASSERT_TRUE(view.ForEachColumnFloors(
            *ids, occupied.size(),
            [&](ServerIndex s, const double* f, const std::int32_t* n,
                std::size_t m) {
              const auto si = static_cast<std::size_t>(s);
              ++visits[si];
              floors[si].assign(f, f + m);
              counts[si].assign(n, n + m);
            }));
        for (std::size_t s = 0; s < num_servers; ++s) {
          const auto where = [&] {
            return ::testing::Message()
                   << "attached=" << (k.nodes == &streamed.attach)
                   << " subset=" << ids->size() << " threads=" << threads
                   << " s=" << s;
          };
          ASSERT_EQ(visits[s], 1) << where();
          ASSERT_EQ(floors[s].size(), occupied.size()) << where();
          std::int64_t total = 0;
          for (std::size_t j = 0; j < occupied.size(); ++j) {
            const std::size_t r = occupied[j];
            EXPECT_EQ(counts[s][j], count[r]) << where() << " row=" << r;
            EXPECT_EQ(floors[s][j], lowest[r * num_servers + s])
                << where() << " row=" << r;
            total += counts[s][j];
          }
          EXPECT_EQ(total, static_cast<std::int64_t>(ids->size())) << where();
        }
      }
      EXPECT_FALSE(view.ForEachColumnFloors(
          *ids, occupied.size() - 1,
          [](ServerIndex, const double*, const std::int32_t*, std::size_t) {
            ADD_FAILURE() << "declined floors called fn";
          }));
    }
  }
  SetGlobalThreads(0);
  std::vector<ClientIndex> every(1000);
  std::iota(every.begin(), every.end(), 0);
  EXPECT_FALSE(mat.problem.client_block().ForEachColumnFloors(
      every, every.size(),
      [](ServerIndex, const double*, const std::int32_t*, std::size_t) {
        ADD_FAILURE() << "a resident block offered floors";
      }));
}

// One assigned server per client, spread over servers [0, servers) by a
// multiplicative hash (no correlation with attachment or access delay).
Assignment HashAssignment(std::int32_t clients, std::int32_t servers) {
  Assignment a(static_cast<std::size_t>(clients));
  for (ClientIndex c = 0; c < clients; ++c) {
    a[c] = static_cast<ServerIndex>(
        (static_cast<std::uint32_t>(c) * 2654435761u >> 7) %
        static_cast<std::uint32_t>(servers));
  }
  return a;
}

// Subset(ids) is the parent read through ids, on both backends, with
// access delays (attached) and with access 0.0 (clients on substrate
// nodes). The id list is non-monotone (even clients descending, then
// every fourth odd one ascending) and spans three 4096-row pool chunks,
// cut at 4 threads.
// Every accessor of the subset must return the parent's bits for ids[i]:
// cells, rows, columns (whole, gathered and grouped), the assigned
// diagonal, its fold and nearest servers. FillColumnMax is certified on
// both: exact over the members on a resident subset, the parent's bound
// on a streamed one. A streamed subset's floors must match a view built
// over the members alone (their attach nodes with their access delays,
// or with 0.0). A lazy parent gives a lazy subset, and neither fills a
// row for the cut. The subset is read only after its parent is
// destroyed, so a dangling share reads freed memory under ASan. Empty
// and out-of-range lists throw, naming the client.
TEST(ClientBlockViewTest, SubsetIsTheParentReadThroughIds) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 15000;
  params.min_access_ms = 3.0;
  params.materialize_block = false;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 37);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  std::vector<net::NodeIndex> servers;
  for (net::NodeIndex s = 1; s < 50; s += 4) servers.push_back(s);
  const data::ClientCloud cloud =
      data::BuildClientCloud(params, 37, oracle, servers);
  std::vector<ClientIndex> ids;
  for (ClientIndex c = 14998; c >= 0; c -= 2) ids.push_back(c);
  for (ClientIndex c = 1; c < 15000; c += 4) ids.push_back(c);
  ASSERT_GT(ids.size(), 2u * 4096u);
  const std::size_t k = ids.size();
  const auto num_servers = static_cast<ServerIndex>(servers.size());
  const auto ns = static_cast<std::size_t>(num_servers);
  std::vector<net::NodeIndex> member_attach;
  std::vector<double> member_access;
  for (const ClientIndex c : ids) {
    member_attach.push_back(cloud.attach[static_cast<std::size_t>(c)]);
    member_access.push_back(cloud.access_ms[static_cast<std::size_t>(c)]);
  }
  const auto attached_members = OracleTileView::FromAttachments(
      oracle, servers, member_attach, member_access);
  const auto on_node_members = OnNodeView(oracle, servers, member_attach);
  // Server-major floors and counts, one entry per server.
  struct Floors {
    std::vector<std::vector<double>> floors;
    std::vector<std::vector<std::int32_t>> counts;
  };
  const auto floors_of = [&](const ClientBlockView& view,
                             std::span<const ClientIndex> list) {
    Floors out{std::vector<std::vector<double>>(ns),
               std::vector<std::vector<std::int32_t>>(ns)};
    const bool offered = view.ForEachColumnFloors(
        list, list.size(),
        [&](ServerIndex s, const double* f, const std::int32_t* n,
            std::size_t m) {
          out.floors[static_cast<std::size_t>(s)].assign(f, f + m);
          out.counts[static_cast<std::size_t>(s)].assign(n, n + m);
        });
    EXPECT_EQ(offered, !view.materialized());
    return out;
  };
  const Assignment assign =
      HashAssignment(static_cast<std::int32_t>(k), num_servers);
  std::vector<ClientIndex> local_every(k);
  std::iota(local_every.begin(), local_every.end(), 0);
  std::vector<ClientIndex> local_strided;
  for (auto i = static_cast<ClientIndex>(k) - 1; i >= 3; i -= 5) {
    local_strided.push_back(i);
  }
  SetGlobalThreads(4);

  struct Case {
    const char* name;
    bool on_nodes;
    bool resident;
  };
  for (const Case& tc : {Case{"attached", false, false},
                         Case{"resident", false, true},
                         Case{"on nodes", true, false}}) {
    const bool resident = tc.resident;
    const auto where = [&] { return ::testing::Message() << tc.name; };
    // The parent's reads through ids, taken before it dies.
    std::vector<double> cells(k * ns);
    std::vector<double> rows;
    std::vector<double> column_max(ns);
    std::vector<ServerIndex> nearest(k);
    std::vector<double> nearest_dist(k);
    std::shared_ptr<const ClientBlockView> sub;
    {
      std::shared_ptr<const ClientBlockView> parent =
          tc.on_nodes ? OnNodeView(oracle, servers, cloud.attach)
                      : OracleTileView::FromAttachments(
                            oracle, servers, cloud.attach, cloud.access_ms);
      if (resident) {
        parent = std::make_shared<MaterializedView>(
            parent->num_clients(), num_servers, parent->MaterializeBlock());
      }
      ASSERT_EQ(parent->materialized(), resident);
      for (std::size_t i = 0; i < k; ++i) {
        for (ServerIndex s = 0; s < num_servers; ++s) {
          cells[i * ns + static_cast<std::size_t>(s)] = parent->cs(ids[i], s);
        }
      }
      rows = parent->MaterializeBlock(ids);
      parent->FillColumnMax(column_max.data());
      std::vector<ServerIndex> all_nearest(
          static_cast<std::size_t>(parent->num_clients()));
      std::vector<double> all_dist(all_nearest.size());
      parent->FillNearest(all_nearest.data(), all_dist.data());
      for (std::size_t i = 0; i < k; ++i) {
        nearest[i] = all_nearest[static_cast<std::size_t>(ids[i])];
        nearest_dist[i] = all_dist[static_cast<std::size_t>(ids[i])];
      }
      const std::int64_t filled = parent->stats().rows_filled;
      sub = parent->Subset(ids);
      EXPECT_EQ(parent->stats().rows_filled, filled) << where();
      for (const ClientIndex bad : {-1, parent->num_clients()}) {
        const std::vector<ClientIndex> bad_ids = {0, bad, 1};
        try {
          (void)parent->Subset(bad_ids);
          ADD_FAILURE() << where() << " subset with client " << bad;
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("client " + std::to_string(bad)),
                    std::string::npos)
              << where() << " " << e.what();
        }
      }
      EXPECT_THROW((void)parent->Subset(std::span<const ClientIndex>{}), Error)
          << where();
    }

    // The parent is gone; everything below reads the subset alone.
    const ClientBlockView& view = *sub;
    ASSERT_EQ(view.materialized(), resident) << where();
    EXPECT_EQ(view.stats().rows_filled, 0) << where();
    ASSERT_EQ(view.num_clients(), static_cast<std::int32_t>(k)) << where();
    ASSERT_EQ(view.num_servers(), num_servers) << where();
    const std::size_t stride = view.server_stride();
    ASSERT_EQ(rows.size(), k * stride) << where();
    std::vector<double> scratch(stride, std::nan(""));
    for (std::size_t i = 0; i < k; ++i) {
      const auto c = static_cast<ClientIndex>(i);
      for (ServerIndex s = 0; s < num_servers; ++s) {
        ASSERT_EQ(view.cs(c, s), cells[i * ns + static_cast<std::size_t>(s)])
            << where() << " i=" << i << " s=" << s;
      }
      ASSERT_EQ(std::memcmp(view.Row(c, scratch.data()),
                            rows.data() + i * stride, stride * sizeof(double)),
                0)
          << where() << " Row " << i;
    }
    EXPECT_EQ(view.MaterializeBlock(), rows) << where();
    std::vector<double> column(k);
    std::vector<double> gathered(local_strided.size());
    for (ServerIndex s = 0; s < num_servers; ++s) {
      const auto si = static_cast<std::size_t>(s);
      view.GatherColumn(s, local_every.data(), k, column.data());
      view.GatherColumn(s, local_strided.data(), local_strided.size(),
                        gathered.data());
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(column[i], cells[i * ns + si]) << where() << " s=" << s;
      }
      for (std::size_t j = 0; j < local_strided.size(); ++j) {
        const auto i = static_cast<std::size_t>(local_strided[j]);
        ASSERT_EQ(gathered[j], cells[i * ns + si]) << where() << " s=" << s;
      }
    }
    std::vector<int> visits(ns, 0);
    std::vector<char> column_ok(ns, 1);
    view.ForEachColumn(local_strided, [&](ServerIndex s, const double* col) {
      const auto si = static_cast<std::size_t>(s);
      ++visits[si];
      for (std::size_t j = 0; j < local_strided.size(); ++j) {
        const auto i = static_cast<std::size_t>(local_strided[j]);
        if (col[j] != cells[i * ns + si]) column_ok[si] = 0;
      }
    });
    for (std::size_t s = 0; s < ns; ++s) {
      EXPECT_EQ(visits[s], 1) << where() << " s=" << s;
      EXPECT_EQ(column_ok[s], 1) << where() << " ForEachColumn s=" << s;
    }

    std::vector<double> diag(k);
    view.GatherAssigned(assign.server_of.data(), diag.data());
    std::vector<double> want_far(ns, -1.0);
    for (std::size_t i = 0; i < k; ++i) {
      const auto s =
          static_cast<std::size_t>(assign[static_cast<ClientIndex>(i)]);
      ASSERT_EQ(diag[i], cells[i * ns + s]) << where() << " diag " << i;
      want_far[s] = std::max(want_far[s], cells[i * ns + s]);
    }
    std::vector<double> far(ns, -1.0);
    view.FoldAssignedMax(assign.server_of.data(), far.data());
    EXPECT_EQ(far, want_far) << where();
    std::vector<ServerIndex> got_nearest(k);
    std::vector<double> got_dist(k);
    view.FillNearest(got_nearest.data(), got_dist.data());
    EXPECT_EQ(got_nearest, nearest) << where();
    EXPECT_EQ(got_dist, nearest_dist) << where();

    std::vector<double> got_max(ns);
    view.FillColumnMax(got_max.data());
    for (std::size_t s = 0; s < ns; ++s) {
      double exact = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < k; ++i) {
        exact = std::max(exact, cells[i * ns + s]);
      }
      EXPECT_EQ(got_max[s], resident ? exact : column_max[s])
          << where() << " s=" << s;
      EXPECT_GE(got_max[s], exact) << where() << " s=" << s;
    }

    for (const std::vector<ClientIndex>* list :
         {&local_every, &local_strided}) {
      const Floors got = floors_of(view, *list);
      if (resident) continue;
      const Floors want = floors_of(
          tc.on_nodes ? *on_node_members : *attached_members, *list);
      for (std::size_t s = 0; s < ns; ++s) {
        EXPECT_EQ(got.floors[s], want.floors[s])
            << where() << " list " << list->size() << " s=" << s;
        EXPECT_EQ(got.counts[s], want.counts[s])
            << where() << " list " << list->size() << " s=" << s;
      }
    }
  }
  SetGlobalThreads(0);
}

// The evaluator's far vector with one client left out (Eccentricities()
// with a_c's entry replaced by FarWithout(c)) against a scalar reference
// (far[s] = max of cs(c', s) over c' != c assigned to s, starting at
// -1.0), bit for bit, on both views at 1 and 4 threads; the full vector
// also equals ServerEccentricities, whose resident fold takes its chunked
// path at 4 threads with these 5000 clients. The last server holds a
// single client, whose exclusion must leave that server at -1.0.
TEST(ClientBlockViewTest, EccentricitiesExcludingMatchesScalarReference) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 5000;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 31);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> servers = {1, 8, 15, 22, 29, 36, 43, 48};
  const data::ClientCloud mat =
      data::BuildClientCloud(params, 31, oracle, servers);
  params.materialize_block = false;
  const data::ClientCloud streamed =
      data::BuildClientCloud(params, 31, oracle, servers);
  const ClientBlockView& ref = mat.problem.client_block();
  const std::int32_t num_servers = ref.num_servers();
  const ServerIndex lone_server = num_servers - 1;
  Assignment a = HashAssignment(ref.num_clients(), num_servers - 1);
  const ClientIndex lone = 2345;
  a[lone] = lone_server;

  std::vector<ClientIndex> excluded;
  for (ClientIndex c = 0; c < ref.num_clients(); c += 97) excluded.push_back(c);
  excluded.push_back(lone);
  const auto reference = [&](ClientIndex exclude) {
    std::vector<double> far(static_cast<std::size_t>(num_servers), -1.0);
    for (ClientIndex c = 0; c < ref.num_clients(); ++c) {
      if (c == exclude) continue;
      const auto s = static_cast<std::size_t>(a[c]);
      far[s] = std::max(far[s], ref.cs(c, a[c]));
    }
    return far;
  };
  const std::vector<double> full = reference(kUnassigned);
  std::vector<std::vector<double>> want;
  for (const ClientIndex exclude : excluded) want.push_back(reference(exclude));
  ASSERT_EQ(want.back()[static_cast<std::size_t>(lone_server)], -1.0);
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    for (const Problem* p : {&mat.problem, &streamed.problem}) {
      const std::string where =
          "materialized=" + std::to_string(p->client_block().materialized()) +
          " threads=" + std::to_string(threads);
      const IncrementalEvaluator eval(*p, a);
      const std::vector<double> far(eval.Eccentricities().begin(),
                                    eval.Eccentricities().end());
      ASSERT_EQ(far, full) << where;
      ASSERT_EQ(ServerEccentricities(*p, a), full) << where;
      for (std::size_t i = 0; i < excluded.size(); ++i) {
        std::vector<double> got = far;
        got[static_cast<std::size_t>(a[excluded[i]])] =
            eval.FarWithout(excluded[i]);
        ASSERT_EQ(got, want[i]) << where << " exclude=" << excluded[i];
      }
    }
  }
  SetGlobalThreads(0);
}

// An IncrementalEvaluator built on the streamed view agrees bit for bit
// with one built on the materialized view: the constructor reads the
// assigned diagonal, every later step single cells. Checked from a
// complete assignment (moves) and from a partial one (AllowPartial:
// attachments, detachments and moves mixed).
TEST(ClientBlockViewTest, IncrementalEvaluatorBitIdenticalAcrossViews) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 2000;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::Graph graph = data::GenerateWaxmanTopology(params.substrate, 37);
  const net::DistanceOracle oracle =
      net::DistanceOracle::FromGraph(graph, opt);
  const std::vector<net::NodeIndex> servers = {0, 7, 14, 21, 28, 35, 42};
  const data::ClientCloud mat =
      data::BuildClientCloud(params, 37, oracle, servers);
  params.materialize_block = false;
  const data::ClientCloud streamed =
      data::BuildClientCloud(params, 37, oracle, servers);
  const std::int32_t num_clients = mat.problem.num_clients();
  const std::int32_t num_servers = mat.problem.num_servers();

  {
    const Assignment a = HashAssignment(num_clients, num_servers);
    IncrementalEvaluator want(mat.problem, a);
    IncrementalEvaluator got(streamed.problem, a);
    ASSERT_EQ(want.CurrentMax(), got.CurrentMax());
    Rng rng(41);
    for (int step = 0; step < 300; ++step) {
      const auto c = static_cast<ClientIndex>(rng.NextBounded(
          static_cast<std::uint64_t>(num_clients)));
      const auto to = static_cast<ServerIndex>(rng.NextBounded(
          static_cast<std::uint64_t>(num_servers)));
      ASSERT_EQ(want.EvaluateMove(c, to), got.EvaluateMove(c, to))
          << "step " << step;
      if (step % 2 == 0) {
        ASSERT_EQ(want.ApplyMove(c, to), got.ApplyMove(c, to))
            << "step " << step;
      }
      ASSERT_EQ(want.CurrentMax(), got.CurrentMax()) << "step " << step;
    }
    ASSERT_EQ(want.assignment(), got.assignment());
  }

  Assignment partial = HashAssignment(num_clients, num_servers);
  for (ClientIndex c = 0; c < num_clients; c += 3) partial[c] = kUnassigned;
  IncrementalEvaluator want(mat.problem, partial,
                            IncrementalEvaluator::AllowPartial{});
  IncrementalEvaluator got(streamed.problem, partial,
                           IncrementalEvaluator::AllowPartial{});
  ASSERT_EQ(want.num_active(), got.num_active());
  ASSERT_EQ(want.CurrentMax(), got.CurrentMax());
  Rng rng(43);
  for (int step = 0; step < 600; ++step) {
    const auto c = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    const auto to = static_cast<ServerIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_servers)));
    if (!want.IsActive(c)) {
      ASSERT_EQ(want.EvaluateAdd(c, to), got.EvaluateAdd(c, to))
          << "step " << step;
      ASSERT_EQ(want.AddClient(c, to), got.AddClient(c, to))
          << "step " << step;
    } else if (step % 3 == 0) {
      ASSERT_EQ(want.RemoveClient(c), got.RemoveClient(c)) << "step " << step;
    } else {
      ASSERT_EQ(want.EvaluateMove(c, to), got.EvaluateMove(c, to))
          << "step " << step;
      ASSERT_EQ(want.ApplyMove(c, to), got.ApplyMove(c, to))
          << "step " << step;
    }
    ASSERT_EQ(want.CurrentMax(), got.CurrentMax()) << "step " << step;
    ASSERT_EQ(want.num_active(), got.num_active()) << "step " << step;
  }
  ASSERT_EQ(want.assignment(), got.assignment());
}

TEST(ClientBlockViewTest, FromBlocksRejectsAsymmetricServerBlock) {
  const std::vector<double> d_cs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> good_ss = {0.0, 5.0, 5.0, 0.0};
  EXPECT_NO_THROW(Problem::FromBlocks({100, 101}, {200, 201}, d_cs, good_ss));
  const std::vector<double> asym_ss = {0.0, 5.0, 6.0, 0.0};
  try {
    Problem::FromBlocks({100, 101}, {200, 201}, d_cs, asym_ss);
    FAIL() << "asymmetric d_ss must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not symmetric"), std::string::npos)
        << e.what();
  }
  const std::vector<double> diag_ss = {0.0, 5.0, 5.0, 0.5};
  try {
    Problem::FromBlocks({100, 101}, {200, 201}, d_cs, diag_ss);
    FAIL() << "nonzero diagonal must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("self-distance"), std::string::npos)
        << e.what();
  }
}

// Access delays enter the block only through FromAttachments, so it is
// where a negative or NaN delay is rejected (the substrate legs are >= 0,
// so every cell of an accepted view is >= 0); the error names the client.
TEST(ClientBlockViewTest, FromAttachmentsRejectsNegativeOrNanAccessDelays) {
  const Substrate sub = MakeSubstrate();
  const std::vector<net::NodeIndex> attach = {3, 7, 11};
  EXPECT_NO_THROW(OracleTileView::FromAttachments(
      sub.oracle, sub.servers, attach, std::vector<double>{0.0, 1.5, 2.0}));
  for (const double bad : {-0.25, std::nan("")}) {
    try {
      OracleTileView::FromAttachments(sub.oracle, sub.servers, attach,
                                      std::vector<double>{1.0, 2.0, bad});
      FAIL() << "access delay " << bad << " must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("client 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ClientBlockViewTest, FromViewRejectsMismatchedNodeLists) {
  const Substrate sub = MakeSubstrate();
  auto view = OnNodeView(sub.oracle, sub.servers, sub.clients);
  const std::span<const double> d_ss = view->server_block();
  std::vector<net::NodeIndex> short_clients(sub.clients.begin(),
                                            sub.clients.end() - 1);
  EXPECT_THROW(
      Problem::FromView(view, sub.servers, short_clients, d_ss), Error);
  std::vector<net::NodeIndex> short_servers(sub.servers.begin(),
                                            sub.servers.end() - 1);
  EXPECT_THROW(
      Problem::FromView(view, short_servers, sub.clients,
                        d_ss.subspan(0, short_servers.size() *
                                            short_servers.size())),
      Error);
}

TEST(OracleSpecTest, ParsesBackendsAndOptions) {
  const net::OracleOptions dense = net::ParseOracleSpec("dense");
  EXPECT_EQ(dense.backend, net::OracleBackend::kDense);

  EXPECT_EQ(net::ParseOracleSpec("rows").backend, net::OracleBackend::kRows);

  const net::OracleOptions lm = net::ParseOracleSpec("landmarks:landmarks=4");
  EXPECT_EQ(lm.backend, net::OracleBackend::kLandmarks);
  EXPECT_EQ(lm.num_landmarks, 4);

  const net::OracleOptions co =
      net::ParseOracleSpec("coords:beacons=32,rounds=64,dims=2,seed=7");
  EXPECT_EQ(co.backend, net::OracleBackend::kCoords);
  EXPECT_EQ(co.coord_beacons, 32);
  EXPECT_EQ(co.coord_rounds, 64);
  EXPECT_EQ(co.coord_dimensions, 2);
  EXPECT_EQ(co.seed, 7u);

  const net::OracleOptions hl =
      net::ParseOracleSpec("hublabels:k=32,rsamples=512,rq=995,seed=9");
  EXPECT_EQ(hl.backend, net::OracleBackend::kHubLabels);
  EXPECT_EQ(hl.hub_order_anchors, 32);
  EXPECT_EQ(hl.repair_samples, 512);
  EXPECT_EQ(hl.repair_permille, 995);
  EXPECT_EQ(hl.seed, 9u);
}

// A key the backend does not consume must not be swallowed silently —
// "landmarks:beacons=32" or "dense:seed=1" configures nothing and would
// read like a working config. The error names the backend, and its own
// key list where it has one; dense and rows take no keys at all.
TEST(OracleSpecTest, RejectsKeysOwnedByOtherBackends) {
  EXPECT_THROW(net::ParseOracleSpec("landmarks:cache=8"), Error);
  EXPECT_THROW(net::ParseOracleSpec("coords:k=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("coords:rsamples=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("hublabels:landmarks=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("hublabels:beacons=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:rq=1001"), Error);
  for (const char* spec : {"rows:cache=8", "rows:shards=4", "rows:seed=1",
                           "rows:landmarks=4", "rows:", "dense:seed=1",
                           "dense:cache=8"}) {
    try {
      net::ParseOracleSpec(spec);
      ADD_FAILURE() << spec << " must throw";
    } catch (const Error& e) {
      const std::string msg = e.what();
      const std::string backend =
          std::string(spec).substr(0, std::string(spec).find(':'));
      EXPECT_NE(msg.find("'" + backend + "' takes no options"),
                std::string::npos)
          << msg;
    }
  }
  try {
    net::ParseOracleSpec("landmarks:beacons=4");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("landmarks|rsamples|rq|seed"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("'landmarks'"), std::string::npos) << msg;
  }
}

TEST(OracleSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(net::ParseOracleSpec(""), Error);
  EXPECT_THROW(net::ParseOracleSpec("bogus"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks="), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:=16"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks=abc"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks=12x"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks=0"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks=-3"), Error);
  EXPECT_THROW(net::ParseOracleSpec("coords:seed=0"), Error);
  EXPECT_THROW(net::ParseOracleSpec("hublabels:seed=-1"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks=1,"), Error);
  EXPECT_THROW(net::ParseOracleSpec("coords:unknown=1"), Error);
  // Values are whole decimal integers: no sign, no spaces, no wrap past
  // 64 bits.
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks= 16"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks=16 "), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:landmarks=+16"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:seed=18446744073709551617"),
               Error);
  // The int32 keys reject what would wrap (4294967297 read as 1),
  // naming the key; the 64-bit seed takes it.
  struct TooLarge {
    const char* spec;
    const char* key;
  };
  for (const TooLarge& t :
       {TooLarge{"landmarks:landmarks=4294967297", "'landmarks'"},
        TooLarge{"coords:dims=2147483648", "'dims'"},
        TooLarge{"hublabels:k=2147483648", "'k'"},
        TooLarge{"landmarks:rsamples=4294967296", "'rsamples'"}}) {
    try {
      net::ParseOracleSpec(t.spec);
      ADD_FAILURE() << t.spec << " must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(t.key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(net::ParseOracleSpec("coords:dims=2147483647").coord_dimensions,
            2147483647);
  EXPECT_EQ(net::ParseOracleSpec("landmarks:seed=4294967297").seed,
            4294967297u);
  EXPECT_EQ(net::ParseOracleSpec("hublabels:seed=9223372036854775807").seed,
            9223372036854775807u);
}

}  // namespace
}  // namespace diaca::core
