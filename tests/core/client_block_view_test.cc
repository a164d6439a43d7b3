// Property suite for the client-block view API: the streamed
// OracleTileView must be bit-identical to the materialized block at
// every tile size (including degenerate and off-by-one ones), LRU
// capacity, and thread count, for every solver that consumes the view.
// Also covers the view's accessors (rows with zero pads, column subsets,
// nearest servers, the assigned-diagonal consumers), the FromBlocks/
// FromView validation, and the --oracle spec grammar.
#include "core/client_block_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd/simd.h"
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

Substrate MakeSubstrate(std::uint64_t seed = 5,
                        std::size_t row_cache_capacity = 128) {
  data::WaxmanParams wp;
  wp.num_nodes = kNodes;
  net::Graph graph = data::GenerateWaxmanTopology(wp, seed);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  opt.row_cache_capacity = row_cache_capacity;
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

// The tile sizes that exercise every boundary case: single-row tiles,
// one SIMD pad width, exactly |C| (one tile), and |C| + 1 (clamped).
std::vector<std::int32_t> BoundaryTileSizes(std::int32_t num_clients) {
  return {1, static_cast<std::int32_t>(simd::kPadWidth), num_clients,
          num_clients + 1};
}

TEST(ClientBlockViewTest, CellsMatchMaterializedBitForBit) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  for (const std::int32_t tile_clients : BoundaryTileSizes(kNodes)) {
    TileOptions tile;
    tile.tile_clients = tile_clients;
    const Problem tiled =
        Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients, tile);
    EXPECT_FALSE(tiled.client_block().materialized());
    EXPECT_TRUE(dense.client_block().materialized());
    for (ClientIndex c = 0; c < dense.num_clients(); ++c) {
      for (ServerIndex s = 0; s < dense.num_servers(); ++s) {
        ASSERT_EQ(dense.client_block().cs(c, s), tiled.client_block().cs(c, s))
            << "c=" << c << " s=" << s << " tile=" << tile_clients;
      }
    }
    for (ServerIndex a = 0; a < dense.num_servers(); ++a) {
      for (ServerIndex b = 0; b < dense.num_servers(); ++b) {
        ASSERT_EQ(dense.ss(a, b), tiled.ss(a, b));
      }
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
  TileOptions tile;
  tile.tile_clients = 7;  // does not divide |C|
  const Problem via_dense = Problem::FromOracleTiled(
      dense_oracle, sub.servers, sub.clients, tile);
  const Problem via_rows =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients, tile);
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
// streamed, across tile sizes straddling every boundary.
TEST(ClientBlockViewTest, SolversBitIdenticalAcrossBackendsAndTileSizes) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  const SolverRegistry& registry = SolverRegistry::Default();
  const std::vector<std::string> solvers = {"nearest", "lfb", "greedy", "dg",
                                            "single"};
  std::vector<SolveResult> baseline;
  for (const std::string& name : solvers) {
    baseline.push_back(registry.Solve(name, dense, SolveOptions{}));
  }
  for (const std::int32_t tile_clients : BoundaryTileSizes(kNodes)) {
    TileOptions tile;
    tile.tile_clients = tile_clients;
    const Problem tiled =
        Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients, tile);
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      const SolveResult got = registry.Solve(solvers[i], tiled, SolveOptions{});
      ASSERT_EQ(baseline[i].assignment.server_of, got.assignment.server_of)
          << solvers[i] << " tile=" << tile_clients;
      ASSERT_EQ(baseline[i].stats.max_len, got.stats.max_len) << solvers[i];
    }
  }
}

TEST(ClientBlockViewTest, CapacitatedSolversBitIdenticalAcrossBackends) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  SolveOptions options;
  options.assign.capacity = kNodes / kServers + 2;
  for (const std::int32_t tile_clients : BoundaryTileSizes(kNodes)) {
    TileOptions tile;
    tile.tile_clients = tile_clients;
    const Problem tiled =
        Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients, tile);
    for (const char* name : {"nearest", "lfb", "greedy"}) {
      const SolveResult want = SolverRegistry::Default().Solve(
          name, dense, options);
      const SolveResult got = SolverRegistry::Default().Solve(
          name, tiled, options);
      ASSERT_EQ(want.assignment.server_of, got.assignment.server_of)
          << name << " tile=" << tile_clients;
      ASSERT_LE(MaxServerLoad(tiled, got.assignment),
                options.assign.capacity);
    }
  }
}

// An LRU cache smaller than one tile's worth of rows (capacity 1) cannot
// change anything: the view pulls its server rows exactly once at
// construction, and row values never depend on cache state.
TEST(ClientBlockViewTest, TinyRowCacheDoesNotChangeBits) {
  const Substrate roomy = MakeSubstrate(5, 128);
  const Substrate tiny = MakeSubstrate(5, 1);
  TileOptions tile;
  tile.tile_clients = 1;  // every tile needs every row again
  const Problem a =
      Problem::FromOracleTiled(roomy.oracle, roomy.servers, roomy.clients,
                               tile);
  const Problem b =
      Problem::FromOracleTiled(tiny.oracle, tiny.servers, tiny.clients, tile);
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
  TileOptions tile;
  tile.tile_clients = static_cast<std::int32_t>(simd::kPadWidth);
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients, tile);
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
  TileOptions tile;
  tile.tile_clients = 5;  // does not divide 12
  const Problem tiled =
      Problem::FromOracleTiled(oracle, servers, clients, tile);

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
// FillRow skips cannot pass. rows_filled counts FillRow on the lazy
// backend only, MaterializeBlock's rows included.
TEST(ClientBlockViewTest, FillRowAndMaterializeBlockMatchCellsWithZeroPads) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 500;
  params.tile.tile_clients = 7;
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
    const std::vector<double> block = view.MaterializeBlock();
    ASSERT_EQ(block.size(),
              static_cast<std::size_t>(view.num_clients()) * stride);
    for (ClientIndex c = 0; c < view.num_clients(); ++c) {
      expect_row(block.data() + static_cast<std::size_t>(c) * stride, c,
                 view.materialized(), "MaterializeBlock");
    }
    EXPECT_EQ(view.stats().rows_filled - filled_before,
              view.materialized() ? 0 : 2 * std::int64_t{view.num_clients()});
  }
}

TEST(ClientBlockViewTest, GreedySolveSynthesizesNoTilesOnStreamedBackend) {
  const Substrate sub = MakeSubstrate();
  const Problem dense =
      Problem::WithClientsEverywhere(sub.oracle, sub.servers);
  TileOptions tile;
  tile.tile_clients = static_cast<std::int32_t>(simd::kPadWidth);
  const Problem tiled =
      Problem::FromOracleTiled(sub.oracle, sub.servers, sub.clients, tile);
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

// The greedy determinism grid: every combination of thread count and
// row-cache shard count must produce the identical greedy assignment,
// bit-identical objective, and bit-identical eccentricity fold. Every
// solve rebuilds its candidate lists over the survivors the same number
// of times, so the 4-thread runs put the rebuild's concurrent per-server
// writes under the oracle label's sanitizer lanes.
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
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    net::OracleOptions opt;
    opt.backend = net::OracleBackend::kRows;
    opt.row_cache_capacity = 8;  // force eviction churn under the grid
    opt.row_cache_shards = shards;
    const net::DistanceOracle oracle =
        net::DistanceOracle::FromGraph(sub.graph, opt);
    for (const int threads : {1, 4}) {
      SetGlobalThreads(threads);
      TileOptions tile;
      tile.tile_clients = 9;  // does not divide |C|
      const Problem tiled =
          Problem::FromOracleTiled(oracle, sub.servers, sub.clients, tile);
      before = test::GreedyRebuilds();
      const SolveResult got =
          SolverRegistry::Default().Solve("greedy", tiled, SolveOptions{});
      EXPECT_EQ(test::GreedyRebuilds() - before, want_rebuilds)
          << "shards=" << shards << " threads=" << threads;
      ASSERT_EQ(want.assignment.server_of, got.assignment.server_of)
          << "shards=" << shards << " threads=" << threads;
      ASSERT_EQ(want.stats.max_len, got.stats.max_len)
          << "shards=" << shards << " threads=" << threads;
      ASSERT_EQ(want_ecc, ServerEccentricities(tiled, got.assignment))
          << "shards=" << shards << " threads=" << threads;
    }
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
  params.tile.tile_clients = 33;  // does not divide 700
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

// ForEachColumn over a client subset hands every server exactly once a
// column with col[i] == cs(ids[i], s) bit for bit, on both views (13
// servers: one full resident 8-column group and a partial one; a tile
// size that does not divide |C|; access delays), at 1 and 4 threads,
// for a single client, an ascending strided subset and every client.
TEST(ClientBlockViewTest, ForEachColumnSubsetMatchesCellsAcrossViewsAndThreads) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 1000;
  params.tile.tile_clients = 7;
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

// EccentricitiesExcluding against a scalar reference (far[s] = max of
// cs(c', s) over c' != c assigned to s, starting at -1.0), bit for bit,
// on both views at 1 and 4 threads. 5000 clients with access delays put
// the resident fold on its chunked path at 4 threads; the 7-client skip
// blocks (7 does not divide |C|) let the streamed fold's certified skip
// fire. The last server holds a single client, whose exclusion must
// leave that server at -1.0.
TEST(ClientBlockViewTest, EccentricitiesExcludingMatchesScalarReference) {
  data::ClientCloudParams params;
  params.substrate.num_nodes = 50;
  params.num_clients = 5000;
  params.tile.tile_clients = 7;
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
  std::vector<std::vector<double>> want;
  for (const ClientIndex exclude : excluded) want.push_back(reference(exclude));
  ASSERT_EQ(want.back()[static_cast<std::size_t>(lone_server)], -1.0);
  const std::int64_t pruned_before =
      streamed.problem.client_block().stats().tiles_pruned;
  for (const int threads : {1, 4}) {
    SetGlobalThreads(threads);
    for (std::size_t i = 0; i < excluded.size(); ++i) {
      for (const Problem* p : {&mat.problem, &streamed.problem}) {
        ASSERT_EQ(EccentricitiesExcluding(*p, a, excluded[i]), want[i])
            << "materialized=" << p->client_block().materialized()
            << " threads=" << threads << " exclude=" << excluded[i];
      }
    }
  }
  SetGlobalThreads(0);
  EXPECT_GT(streamed.problem.client_block().stats().tiles_pruned,
            pruned_before);
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
  params.tile.tile_clients = 7;
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

TEST(ClientBlockViewTest, FromViewRejectsMismatchedNodeLists) {
  const Substrate sub = MakeSubstrate();
  auto view = OracleTileView::FromOracle(sub.oracle, sub.servers, sub.clients);
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

  const net::OracleOptions rows =
      net::ParseOracleSpec("rows:cache=256,shards=8");
  EXPECT_EQ(rows.backend, net::OracleBackend::kRows);
  EXPECT_EQ(rows.row_cache_capacity, 256u);
  EXPECT_EQ(rows.row_cache_shards, 8u);

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

// A key another backend owns must not be swallowed silently —
// "rows:landmarks=32" configures nothing and would read like a working
// sketch config. The error names the backend's own key list.
TEST(OracleSpecTest, RejectsKeysOwnedByOtherBackends) {
  EXPECT_THROW(net::ParseOracleSpec("rows:landmarks=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("dense:cache=8"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:cache=8"), Error);
  EXPECT_THROW(net::ParseOracleSpec("coords:k=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("hublabels:landmarks=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("hublabels:beacons=4"), Error);
  EXPECT_THROW(net::ParseOracleSpec("landmarks:rq=1001"), Error);
  try {
    net::ParseOracleSpec("rows:landmarks=4");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cache|shards|seed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rows"), std::string::npos) << msg;
  }
}

TEST(OracleSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(net::ParseOracleSpec(""), Error);
  EXPECT_THROW(net::ParseOracleSpec("bogus"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:cache"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:cache="), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:=256"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:cache=abc"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:cache=12x"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:cache=0"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:cache=-3"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:shards=0"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:cache=1,"), Error);
  EXPECT_THROW(net::ParseOracleSpec("rows:unknown=1"), Error);
}

}  // namespace
}  // namespace diaca::core
