#include "data/churn.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"
#include "../testutil.h"

namespace diaca::data {
namespace {

ChurnParams SmallParams() {
  ChurnParams p;
  p.epochs = 20;
  p.arrivals_per_epoch = 6.0;
  p.departure_prob = 0.05;
  p.move_prob = 0.03;
  return p;
}

// Replay the trace's membership deltas and check every structural
// invariant: events reference live instances exactly once, arrivals are
// brand new, the membership never empties, and the trace's summary
// counters match the replay.
TEST(ChurnTraceTest, MembershipInvariantsHoldUnderReplay) {
  const ChurnTrace trace = GenerateChurnTrace(SmallParams(), 30, 100, 7);
  ASSERT_EQ(trace.initial_count, 30);
  std::set<std::int32_t> active;
  for (std::int32_t i = 0; i < trace.initial_count; ++i) active.insert(i);
  std::int32_t peak = trace.initial_count;
  std::set<std::int64_t> logical;
  for (const ChurnClient& inst : trace.instances) {
    logical.insert(inst.logical_id);
    EXPECT_GE(inst.attach, 0);
    EXPECT_LT(inst.attach, 100);
    EXPECT_GE(inst.access_ms, SmallParams().min_access_ms);
  }
  for (const ChurnEpochEvents& events : trace.epochs) {
    for (const std::int32_t c : events.departures) {
      ASSERT_EQ(active.erase(c), 1u) << "departure of non-member " << c;
    }
    for (const ChurnMove& move : events.moves) {
      ASSERT_EQ(active.erase(move.from), 1u);
      ASSERT_TRUE(active.insert(move.to).second);
      // A move continues the same logical client as a fresh instance.
      EXPECT_EQ(trace.instances[static_cast<std::size_t>(move.from)].logical_id,
                trace.instances[static_cast<std::size_t>(move.to)].logical_id);
      EXPECT_NE(move.from, move.to);
    }
    for (const std::int32_t c : events.arrivals) {
      ASSERT_TRUE(active.insert(c).second) << "arrival of member " << c;
    }
    ASSERT_FALSE(active.empty()) << "membership emptied";
    peak = std::max(peak, static_cast<std::int32_t>(active.size()));
  }
  EXPECT_EQ(peak, trace.peak_active);
  EXPECT_EQ(static_cast<std::int64_t>(logical.size()), trace.logical_clients);
}

TEST(ChurnTraceTest, DeterministicInParamsAndSeed) {
  const ChurnTrace a = GenerateChurnTrace(SmallParams(), 25, 80, 11);
  const ChurnTrace b = GenerateChurnTrace(SmallParams(), 25, 80, 11);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].logical_id, b.instances[i].logical_id);
    EXPECT_EQ(a.instances[i].attach, b.instances[i].attach);
    EXPECT_EQ(a.instances[i].access_ms, b.instances[i].access_ms);
  }
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].arrivals, b.epochs[e].arrivals);
    EXPECT_EQ(a.epochs[e].departures, b.epochs[e].departures);
  }
  const ChurnTrace c = GenerateChurnTrace(SmallParams(), 25, 80, 12);
  EXPECT_NE(a.instances[0].access_ms, c.instances[0].access_ms);
}

TEST(ChurnTraceTest, FlashCrowdMultipliesArrivals) {
  ChurnParams calm = SmallParams();
  calm.departure_prob = 0.0;
  calm.move_prob = 0.0;
  calm.arrivals_per_epoch = 10.0;
  ChurnParams flashy = calm;
  flashy.flashes.push_back(FlashCrowd{5, 10, 20.0});
  const ChurnTrace base = GenerateChurnTrace(calm, 10, 50, 3);
  const ChurnTrace flash = GenerateChurnTrace(flashy, 10, 50, 3);
  std::int64_t base_window = 0;
  std::int64_t flash_window = 0;
  for (std::int32_t e = 5; e < 10; ++e) {
    base_window +=
        static_cast<std::int64_t>(base.epochs[static_cast<std::size_t>(e)]
                                      .arrivals.size());
    flash_window +=
        static_cast<std::int64_t>(flash.epochs[static_cast<std::size_t>(e)]
                                      .arrivals.size());
  }
  // 5 epochs at 200/epoch vs 50/window: enormous margin, no flakiness.
  EXPECT_GT(flash_window, 5 * base_window);
}

TEST(ChurnTraceTest, QuietTailFreezesThePopulation) {
  ChurnParams p = SmallParams();
  p.epochs = 15;
  p.churn_until_epoch = 6;
  const ChurnTrace trace = GenerateChurnTrace(p, 20, 50, 5);
  ASSERT_EQ(trace.epochs.size(), 15u);
  for (std::size_t e = 6; e < trace.epochs.size(); ++e) {
    EXPECT_TRUE(trace.epochs[e].arrivals.empty());
    EXPECT_TRUE(trace.epochs[e].departures.empty());
    EXPECT_TRUE(trace.epochs[e].moves.empty());
  }
}

TEST(ChurnTraceTest, RejectsNonsense) {
  ChurnParams p = SmallParams();
  EXPECT_THROW(GenerateChurnTrace(p, 0, 50, 1), Error);
  EXPECT_THROW(GenerateChurnTrace(p, 10, 0, 1), Error);
  p.departure_prob = 1.5;
  EXPECT_THROW(GenerateChurnTrace(p, 10, 50, 1), Error);
  p = SmallParams();
  p.flashes.push_back(FlashCrowd{5, 5, 2.0});
  EXPECT_THROW(GenerateChurnTrace(p, 10, 50, 1), Error);
}

// --- spec grammar ----------------------------------------------------------

TEST(ChurnSpecTest, ParsesEveryKind) {
  const ChurnParams p = ParseChurnSpec(
      "arrive@12.5; depart@0.01; move@0.005; flash@5-9:x8; flash@20-22:x2; "
      "wave@24:a0.5; until@30");
  EXPECT_DOUBLE_EQ(p.arrivals_per_epoch, 12.5);
  EXPECT_DOUBLE_EQ(p.departure_prob, 0.01);
  EXPECT_DOUBLE_EQ(p.move_prob, 0.005);
  ASSERT_EQ(p.flashes.size(), 2u);
  EXPECT_EQ(p.flashes[0].start_epoch, 5);
  EXPECT_EQ(p.flashes[0].end_epoch, 9);
  EXPECT_DOUBLE_EQ(p.flashes[0].multiplier, 8.0);
  EXPECT_EQ(p.wave_period_epochs, 24);
  EXPECT_DOUBLE_EQ(p.wave_amplitude, 0.5);
  EXPECT_EQ(p.churn_until_epoch, 30);
}

TEST(ChurnSpecTest, EmptySpecKeepsDefaults) {
  const ChurnParams p = ParseChurnSpec(" ; ; ");
  const ChurnParams defaults;
  EXPECT_DOUBLE_EQ(p.arrivals_per_epoch, defaults.arrivals_per_epoch);
  EXPECT_DOUBLE_EQ(p.departure_prob, defaults.departure_prob);
  EXPECT_TRUE(p.flashes.empty());
}

TEST(ChurnSpecTest, MalformedItemsNameTheItem) {
  for (const char* bad :
       {"arrive", "arrive@abc", "arrive@-3", "depart@1.5", "move@-0.1",
        "flash@5-3:x2", "flash@5-9:x0", "flash@5-9", "wave@0:a0.5",
        "wave@24:a-1", "until@-2", "boom@5", "arrive@3; arrive@4",
        "wave@10:a0.1; wave@12:a0.2", "arrive@+5", "arrive@ 5",
        "arrive@0x10"}) {
    try {
      ParseChurnSpec(bad);
      FAIL() << "expected Error for '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("bad --churn item"),
                std::string::npos)
          << bad << " -> " << e.what();
    }
  }
}

TEST(ChurnSpecTest, MisplacedKeysNameTheOwningKind) {
  try {
    ParseChurnSpec("wave@24:x0.5");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("key 'x' is not valid for wave"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("'x' belongs to flash"), std::string::npos) << msg;
  }
  try {
    ParseChurnSpec("flash@5-9:a2");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("key 'a' is not valid for flash"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("'a' belongs to wave"), std::string::npos) << msg;
  }
  try {
    ParseChurnSpec("flash@5-9:q2");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unknown key 'q2' for flash (valid keys: x (the rate "
                  "multiplier))"),
              std::string::npos)
        << e.what();
  }
}

// --- problem construction --------------------------------------------------

TEST(ChurnProblemTest, DistancesAreAccessPlusSubstrateRow) {
  WaxmanParams substrate;
  substrate.num_nodes = 60;
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(
      GenerateWaxmanTopology(substrate, 9), opt);
  const std::vector<net::NodeIndex> servers = {3, 17, 41};
  const ChurnTrace trace = GenerateChurnTrace(SmallParams(), 12, 60, 9);
  const ChurnProblem instance = BuildChurnProblem(trace, oracle, servers);
  ASSERT_EQ(instance.problem.num_clients(),
            static_cast<std::int32_t>(trace.instances.size()));
  ASSERT_EQ(instance.problem.num_servers(), 3);
  // The problem streams its block from the substrate rows.
  EXPECT_FALSE(instance.problem.client_block().materialized());
  std::vector<double> row(static_cast<std::size_t>(oracle.size()));
  for (core::ServerIndex s = 0; s < 3; ++s) {
    oracle.FillRow(servers[static_cast<std::size_t>(s)], row);
    for (core::ClientIndex c = 0; c < instance.problem.num_clients(); ++c) {
      const ChurnClient& inst = trace.instances[static_cast<std::size_t>(c)];
      // One IEEE add, access first: the bits, not an ulp window.
      const double want =
          inst.access_ms + row[static_cast<std::size_t>(inst.attach)];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    instance.problem.client_block().cs(c, s)),
                std::bit_cast<std::uint64_t>(want))
          << "client " << c << " server " << s;
    }
    for (core::ServerIndex t = 0; t < 3; ++t) {
      EXPECT_DOUBLE_EQ(
          instance.problem.ss(s, t),
          s == t ? 0.0
                 : row[static_cast<std::size_t>(
                       servers[static_cast<std::size_t>(t)])]);
    }
  }
}

TEST(ChurnProblemTest, RejectsBadServers) {
  const ChurnTrace trace = GenerateChurnTrace(SmallParams(), 5, 20, 1);
  net::OracleOptions opt;
  opt.backend = net::OracleBackend::kRows;
  WaxmanParams substrate;
  substrate.num_nodes = 20;
  const net::DistanceOracle oracle = net::DistanceOracle::FromGraph(
      GenerateWaxmanTopology(substrate, 2), opt);
  EXPECT_THROW(BuildChurnProblem(trace, oracle, std::vector<net::NodeIndex>{}),
               Error);
  EXPECT_THROW(
      BuildChurnProblem(trace, oracle, std::vector<net::NodeIndex>{25}),
      Error);
}

}  // namespace
}  // namespace diaca::data
