// Determinism contract of the parallel assignment engine: for any thread
// count AND any kernel backend, every algorithm must produce assignments
// element-wise identical to the --threads=1 scalar-reference path. The
// engine achieves this with pure per-index scoring, lexicographic
// (value, index) reductions, and kernels whose vector lanes perform the
// exact scalar IEEE expressions (common/simd/kernels.h), so this grid is
// the regression net for both designs.
#include <cstddef>
#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "core/distributed_greedy.h"
#include "core/greedy.h"
#include "core/longest_first_batch.h"
#include "core/lower_bound.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "core/problem.h"
#include "data/synthetic.h"
#include "data/waxman.h"
#include "placement/placement.h"
#include "../testutil.h"

namespace diaca::core {
namespace {

struct GridCase {
  std::int32_t nodes;
  std::int32_t servers;
  std::int32_t capacity;  // 0 = uncapacitated
  std::uint64_t seed;
};

// gtest names each case after its printed parameter. Its default printer
// dumps all 24 bytes, the 4 uninitialised padding bytes after `capacity`
// included, so the names differed between build trees. This prints the
// four fields in that same byte layout with the padding as zeros: every
// build lists the same names, under the prefixes they always had.
void PrintTo(const GridCase& g, std::ostream* os) {
  unsigned char bytes[sizeof(GridCase)] = {};
  std::memcpy(bytes + offsetof(GridCase, nodes), &g.nodes, sizeof g.nodes);
  std::memcpy(bytes + offsetof(GridCase, servers), &g.servers,
              sizeof g.servers);
  std::memcpy(bytes + offsetof(GridCase, capacity), &g.capacity,
              sizeof g.capacity);
  std::memcpy(bytes + offsetof(GridCase, seed), &g.seed, sizeof g.seed);
  constexpr char kHex[] = "0123456789ABCDEF";
  *os << sizeof bytes << "-byte object <";
  for (std::size_t i = 0; i < sizeof bytes; ++i) {
    if (i > 0) *os << (i % 2 == 0 ? ' ' : '-');
    *os << kHex[bytes[i] >> 4] << kHex[bytes[i] & 0xf];
  }
  *os << '>';
}

constexpr simd::Backend kBackends[] = {simd::Backend::kScalar,
                                       simd::Backend::kPortable};

class ParallelDeterminismTest : public ::testing::TestWithParam<GridCase> {
 protected:
  void TearDown() override {
    SetGlobalThreads(1);
    simd::SetBackend(simd::Backend::kPortable);
  }
};

Problem MakeProblem(const GridCase& g) {
  data::SyntheticParams params;
  params.num_nodes = g.nodes;
  params.num_clusters = std::max(3, g.nodes / 40);
  const net::LatencyMatrix matrix =
      data::GenerateSyntheticInternet(params, g.seed);
  const auto server_nodes = placement::KCenterGreedy(matrix, g.servers);
  return Problem::WithClientsEverywhere(matrix, server_nodes);
}

AssignOptions OptionsOf(const GridCase& g) {
  AssignOptions options;
  if (g.capacity > 0) options.capacity = g.capacity;
  return options;
}

TEST_P(ParallelDeterminismTest, GreedyMatchesSerialAtEveryThreadCount) {
  const GridCase g = GetParam();
  const Problem p = MakeProblem(g);
  const AssignOptions options = OptionsOf(g);
  SetGlobalThreads(1);
  const Assignment serial = GreedyAssign(p, options);
  for (int threads : {2, 8}) {
    SetGlobalThreads(threads);
    const Assignment parallel = GreedyAssign(p, options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (ClientIndex c = 0; c < p.num_clients(); ++c) {
      ASSERT_EQ(parallel[c], serial[c])
          << "threads=" << threads << " client=" << c;
    }
  }
}

TEST_P(ParallelDeterminismTest, LongestFirstBatchMatchesSerial) {
  const GridCase g = GetParam();
  const Problem p = MakeProblem(g);
  const AssignOptions options = OptionsOf(g);
  SetGlobalThreads(1);
  const Assignment serial = LongestFirstBatchAssign(p, options);
  for (int threads : {2, 8}) {
    SetGlobalThreads(threads);
    const Assignment parallel = LongestFirstBatchAssign(p, options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (ClientIndex c = 0; c < p.num_clients(); ++c) {
      ASSERT_EQ(parallel[c], serial[c])
          << "threads=" << threads << " client=" << c;
    }
  }
}

TEST_P(ParallelDeterminismTest, DistributedGreedyMatchesSerial) {
  const GridCase g = GetParam();
  const Problem p = MakeProblem(g);
  const AssignOptions options = OptionsOf(g);
  SetGlobalThreads(1);
  const DgResult serial = DistributedGreedyAssign(p, options);
  for (int threads : {2, 8}) {
    SetGlobalThreads(threads);
    const DgResult parallel = DistributedGreedyAssign(p, options);
    EXPECT_EQ(parallel.assignment, serial.assignment) << "threads=" << threads;
    EXPECT_EQ(parallel.max_len, serial.max_len);
    EXPECT_EQ(parallel.modifications.size(), serial.modifications.size());
  }
}

TEST_P(ParallelDeterminismTest, ObjectiveMetricsMatchSerial) {
  const GridCase g = GetParam();
  const Problem p = MakeProblem(g);
  SetGlobalThreads(1);
  const Assignment a = GreedyAssign(p, OptionsOf(g));
  const double serial_max = MaxInteractionPathLength(p, a);
  const auto serial_far = ServerEccentricities(p, a);
  const auto serial_critical = CriticalClients(p, a);
  for (int threads : {2, 8}) {
    SetGlobalThreads(threads);
    EXPECT_EQ(MaxInteractionPathLength(p, a), serial_max);
    EXPECT_EQ(ServerEccentricities(p, a), serial_far);
    EXPECT_EQ(CriticalClients(p, a), serial_critical);
  }
}

TEST_P(ParallelDeterminismTest, BackendsMatchScalarReferenceAtEveryThreadCount) {
  const GridCase g = GetParam();
  const Problem p = MakeProblem(g);
  const AssignOptions options = OptionsOf(g);
  // Baseline: scalar kernels, one thread — the naive serial solver.
  SetGlobalThreads(1);
  simd::SetBackend(simd::Backend::kScalar);
  const Assignment greedy_ref = GreedyAssign(p, options);
  const Assignment lfb_ref = LongestFirstBatchAssign(p, options);
  const Assignment nsa_ref = NearestServerAssign(p, options);
  const DgResult dg_ref = DistributedGreedyAssign(p, options);
  const double max_ref = MaxInteractionPathLength(p, greedy_ref);
  // The pairwise bound's shared pruning incumbent runs here under TSan.
  const LowerBoundDetail lb_ref = test::ReferencePairwiseLowerBound(p);
  const double lb3_ref = TripleEnhancedLowerBound(p);
  for (const simd::Backend backend : kBackends) {
    for (const int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      simd::SetBackend(backend);
      const char* ctx = simd::BackendName(backend);
      EXPECT_EQ(GreedyAssign(p, options), greedy_ref)
          << "backend=" << ctx << " threads=" << threads;
      EXPECT_EQ(LongestFirstBatchAssign(p, options), lfb_ref)
          << "backend=" << ctx << " threads=" << threads;
      EXPECT_EQ(NearestServerAssign(p, options), nsa_ref)
          << "backend=" << ctx << " threads=" << threads;
      const DgResult dg = DistributedGreedyAssign(p, options);
      EXPECT_EQ(dg.assignment, dg_ref.assignment)
          << "backend=" << ctx << " threads=" << threads;
      EXPECT_EQ(dg.max_len, dg_ref.max_len)
          << "backend=" << ctx << " threads=" << threads;
      EXPECT_EQ(MaxInteractionPathLength(p, greedy_ref), max_ref)
          << "backend=" << ctx << " threads=" << threads;
      const LowerBoundDetail lb = InteractivityLowerBoundDetailed(p);
      EXPECT_EQ(lb.value, lb_ref.value)
          << "backend=" << ctx << " threads=" << threads;
      EXPECT_EQ(lb.first, lb_ref.first)
          << "backend=" << ctx << " threads=" << threads;
      EXPECT_EQ(lb.second, lb_ref.second)
          << "backend=" << ctx << " threads=" << threads;
      EXPECT_EQ(TripleEnhancedLowerBound(p), lb3_ref)
          << "backend=" << ctx << " threads=" << threads;
    }
  }
}

TEST_P(ParallelDeterminismTest, ApspEnginesDeterministicAcrossGrid) {
  // The all-pairs route must be bit-identical to its own 1-thread scalar
  // run at every thread count and SIMD backend, pad lanes included.
  const GridCase g = GetParam();
  data::WaxmanParams params;
  params.num_nodes = g.nodes;
  params.alpha = 0.6;
  const net::Graph graph = data::GenerateWaxmanTopology(params, g.seed);
  SetGlobalThreads(1);
  simd::SetBackend(simd::Backend::kScalar);
  const net::LatencyMatrix ref = graph.AllPairsShortestPaths();
  for (const simd::Backend backend : kBackends) {
    for (const int threads : {1, 2, 8}) {
      SetGlobalThreads(threads);
      simd::SetBackend(backend);
      const char* ctx = simd::BackendName(backend);
      const net::LatencyMatrix d = graph.AllPairsShortestPaths();
      for (net::NodeIndex u = 0; u < graph.size(); ++u) {
        const double* dr = d.Row(u);
        const double* dref = ref.Row(u);
        for (std::size_t j = 0; j < d.stride(); ++j) {
          ASSERT_EQ(dr[j], dref[j]) << "backend=" << ctx
                                    << " threads=" << threads << " u=" << u
                                    << " j=" << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelDeterminismTest,
    ::testing::Values(GridCase{60, 4, 0, 1}, GridCase{60, 4, 20, 2},
                      GridCase{120, 8, 0, 3}, GridCase{120, 8, 18, 4},
                      GridCase{200, 12, 0, 5}, GridCase{200, 12, 20, 6},
                      GridCase{200, 3, 80, 7}, GridCase{90, 10, 9, 8}));

}  // namespace
}  // namespace diaca::core
