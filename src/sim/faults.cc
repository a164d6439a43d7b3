#include "sim/faults.h"

#include <charconv>
#include <cmath>
#include <string_view>

#include "common/error.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/spec_grammar.h"

namespace diaca::sim {

namespace {

bool Within(double start, double end, double t) { return t >= start && t < end; }

bool FiniteNonNegative(double x) { return std::isfinite(x) && x >= 0.0; }

}  // namespace

FaultPlan& FaultPlan::Crash(net::NodeIndex node, double at_ms,
                            double recover_ms) {
  DIACA_CHECK_MSG(node >= 0, "fault plan: crash node must be >= 0");
  DIACA_CHECK_MSG(FiniteNonNegative(at_ms),
                  "fault plan: crash time must be finite and >= 0");
  DIACA_CHECK_MSG(recover_ms > at_ms,
                  "fault plan: recovery must be after the crash");
  crashes_.push_back({node, at_ms, recover_ms});
  return *this;
}

FaultPlan& FaultPlan::Spike(double start_ms, double end_ms, double multiplier,
                            net::NodeIndex node) {
  DIACA_CHECK_MSG(FiniteNonNegative(start_ms) && std::isfinite(end_ms) &&
                      end_ms > start_ms,
                  "fault plan: spike window must be finite with start < end");
  DIACA_CHECK_MSG(std::isfinite(multiplier) && multiplier > 0.0,
                  "fault plan: spike multiplier must be positive");
  DIACA_CHECK_MSG(node >= kAllNodes, "fault plan: bad spike node scope");
  spikes_.push_back({start_ms, end_ms, multiplier, node});
  return *this;
}

FaultPlan& FaultPlan::LossBurst(double start_ms, double end_ms,
                                double probability) {
  DIACA_CHECK_MSG(FiniteNonNegative(start_ms) && std::isfinite(end_ms) &&
                      end_ms > start_ms,
                  "fault plan: loss window must be finite with start < end");
  DIACA_CHECK_MSG(probability >= 0.0 && probability <= 1.0,
                  "fault plan: loss probability must be in [0, 1]");
  losses_.push_back({start_ms, end_ms, probability});
  return *this;
}

FaultPlan& FaultPlan::Partition(double start_ms, double end_ms,
                                net::NodeIndex a, net::NodeIndex b) {
  DIACA_CHECK_MSG(FiniteNonNegative(start_ms) && std::isfinite(end_ms) &&
                      end_ms > start_ms,
                  "fault plan: partition window must be finite with start < end");
  DIACA_CHECK_MSG(a >= 0 && b >= 0 && a != b,
                  "fault plan: partition needs two distinct nodes");
  partitions_.push_back({start_ms, end_ms, a, b});
  return *this;
}

bool FaultPlan::NodeUp(net::NodeIndex node, double at_ms) const {
  for (const CrashWindow& c : crashes_) {
    if (c.node == node && Within(c.start_ms, c.end_ms, at_ms)) return false;
  }
  return true;
}

bool FaultPlan::NodeUpEver(net::NodeIndex node, double from_ms) const {
  for (const CrashWindow& c : crashes_) {
    if (c.node == node && c.start_ms <= from_ms && std::isinf(c.end_ms)) {
      return false;
    }
  }
  return true;
}

double FaultPlan::LatencyMultiplier(net::NodeIndex from, net::NodeIndex to,
                                    double at_ms) const {
  double multiplier = 1.0;
  for (const SpikeWindow& s : spikes_) {
    if (!Within(s.start_ms, s.end_ms, at_ms)) continue;
    if (s.node == kAllNodes || s.node == from || s.node == to) {
      multiplier *= s.multiplier;
    }
  }
  return multiplier;
}

double FaultPlan::LossProbability(double at_ms) const {
  double survive = 1.0;
  for (const LossWindow& l : losses_) {
    if (Within(l.start_ms, l.end_ms, at_ms)) survive *= 1.0 - l.probability;
  }
  return 1.0 - survive;
}

bool FaultPlan::Partitioned(net::NodeIndex a, net::NodeIndex b,
                            double at_ms) const {
  for (const PartitionWindow& p : partitions_) {
    if (!Within(p.start_ms, p.end_ms, at_ms)) continue;
    if ((p.a == a && p.b == b) || (p.a == b && p.b == a)) return true;
  }
  return false;
}

bool FaultPlan::Cut(net::NodeIndex from, net::NodeIndex to, double send_ms,
                    double arrive_ms) const {
  return !NodeUp(from, send_ms) || !NodeUp(to, arrive_ms) ||
         Partitioned(from, to, send_ms);
}

void FaultPlan::ValidateNodes(net::NodeIndex num_nodes) const {
  auto check = [num_nodes](net::NodeIndex node, const char* what) {
    DIACA_CHECK_MSG(node < num_nodes,
                    std::string("fault plan references ") + what +
                        " node outside the network");
  };
  for (const CrashWindow& c : crashes_) check(c.node, "a crashed");
  for (const SpikeWindow& s : spikes_) {
    if (s.node != kAllNodes) check(s.node, "a spiked");
  }
  for (const PartitionWindow& p : partitions_) {
    check(p.a, "a partitioned");
    check(p.b, "a partitioned");
  }
}

namespace {

constexpr SpecKeyOwner kFaultKeyOwners[] = {
    {'n', "crash, spike, and part"}, {'x', "spike"}, {'p', "loss"}};

/// The misplaced-key diagnostic names a key's owners ("'x' belongs to
/// spike"), mirroring the oracle spec's per-backend key ownership: a key
/// another kind owns would otherwise fail with a generic shape error
/// ("loss@1-2:x0.5" reads like a working loss config).
constexpr SpecGrammar kGrammar("--faults", "docs/resilience.md",
                               kFaultKeyOwners);

net::NodeIndex ParseSpecNode(std::string_view text, std::string_view item) {
  if (text.empty() || text.front() != 'n') {
    kGrammar.Fail(item, "expected a node as nINDEX");
  }
  text.remove_prefix(1);
  net::NodeIndex out = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size() || out < 0) {
    kGrammar.Fail(item, "expected a node as nINDEX");
  }
  return out;
}

/// "T" or "T-T" -> [start, end]; `end` is `fallback_end` for a bare "T".
std::pair<double, double> ParseSpecRange(std::string_view text,
                                         std::string_view item,
                                         double fallback_end) {
  const auto dash = text.find('-');
  if (dash == std::string_view::npos) {
    const double start = kGrammar.ParseDouble(text, item, "time");
    return {start, fallback_end};
  }
  const double start =
      kGrammar.ParseDouble(text.substr(0, dash), item, "window start");
  const double end =
      kGrammar.ParseDouble(text.substr(dash + 1), item, "window end");
  return {start, end};
}

void ParseSpecItem(std::string_view item, FaultPlan& plan) {
  const auto at = item.find('@');
  if (at == std::string_view::npos) {
    kGrammar.Fail(item, "expected KIND@...");
  }
  const std::string_view kind = item.substr(0, at);
  // Everything after '@': the time range, then ':'-separated arguments.
  const std::vector<std::string_view> parts =
      SpecGrammar::Split(item.substr(at + 1), ':');
  const std::span<const std::string_view> args(parts.data() + 1,
                                               parts.size() - 1);
  if (kind == "crash") {
    kGrammar.CheckKeys(item, kind, "n (the crashed node)", "n", args);
    if (args.size() != 1) kGrammar.Fail(item, "expected crash@T[-T]:nINDEX");
    const auto [start, end] =
        ParseSpecRange(parts[0], item, FaultPlan::kNever);
    plan.Crash(ParseSpecNode(args[0], item), start, end);
  } else if (kind == "spike") {
    kGrammar.CheckKeys(item, kind,
                       "x (the multiplier), n (the spiked node, optional)",
                       "xn", args);
    if (args.size() != 1 && args.size() != 2) {
      kGrammar.Fail(item, "expected spike@T-T:xMULT[:nINDEX]");
    }
    const auto [start, end] = ParseSpecRange(parts[0], item, -1.0);
    if (args[0].empty() || args[0].front() != 'x') {
      kGrammar.Fail(item, "expected the multiplier as xMULT (the multiplier "
                          "comes before the node)");
    }
    const double mult =
        kGrammar.ParseDouble(args[0].substr(1), item, "multiplier");
    const net::NodeIndex node =
        args.size() == 2 ? ParseSpecNode(args[1], item) : FaultPlan::kAllNodes;
    plan.Spike(start, end, mult, node);
  } else if (kind == "loss") {
    kGrammar.CheckKeys(item, kind, "p (the loss probability)", "p", args);
    if (args.size() != 1) kGrammar.Fail(item, "expected loss@T-T:pPROB");
    const auto [start, end] = ParseSpecRange(parts[0], item, -1.0);
    plan.LossBurst(
        start, end,
        kGrammar.ParseDouble(args[0].substr(1), item, "probability"));
  } else if (kind == "part") {
    kGrammar.CheckKeys(item, kind, "n,n (the partitioned node pair)", "n",
                       args);
    if (args.size() != 1) kGrammar.Fail(item, "expected part@T-T:nA,nB");
    const auto [start, end] = ParseSpecRange(parts[0], item, -1.0);
    const std::vector<std::string_view> pair =
        SpecGrammar::Split(args[0], ',');
    if (pair.size() != 2) kGrammar.Fail(item, "expected two nodes as nA,nB");
    plan.Partition(start, end, ParseSpecNode(pair[0], item),
                   ParseSpecNode(pair[1], item));
  } else {
    kGrammar.Fail(item, "unknown fault kind '" + std::string(kind) +
                            "' (expected crash|spike|loss|part)");
  }
}

}  // namespace

FaultPlan ParseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  for (std::string_view raw : SpecGrammar::Split(spec, ';')) {
    const std::string_view item = SpecGrammar::Trim(raw);
    if (item.empty()) continue;
    try {
      ParseSpecItem(item, plan);
    } catch (const Error& e) {
      // Builder validation failures get the same item-context wrapper as
      // grammar failures.
      const std::string what = e.what();
      if (what.find("bad --faults item") == std::string::npos) {
        kGrammar.Fail(item, what);
      }
      throw;
    }
  }
  return plan;
}

FaultPlan MakeRandomFaultPlan(const RandomFaultParams& params,
                              std::span<const net::NodeIndex> crash_candidates,
                              std::uint64_t seed) {
  DIACA_CHECK_MSG(params.horizon_ms > 0.0, "fault horizon must be positive");
  DIACA_CHECK_MSG(
      params.crashes <= static_cast<std::int32_t>(crash_candidates.size()),
      "cannot crash more nodes than there are candidates");
  Rng rng(seed);
  FaultPlan plan;
  const std::vector<std::int32_t> picks = rng.SampleWithoutReplacement(
      static_cast<std::int32_t>(crash_candidates.size()), params.crashes);
  for (const std::int32_t pick : picks) {
    // Keep crashes away from the horizon edges so there is a before and an
    // after to measure degradation against.
    const double at = rng.NextUniform(0.1 * params.horizon_ms,
                                      0.7 * params.horizon_ms);
    double recover = FaultPlan::kNever;
    if (params.recovery_fraction > 0.0 &&
        rng.NextBernoulli(params.recovery_fraction)) {
      recover =
          at + 1.0 + rng.NextExponential(1.0 / params.mean_outage_ms);
    }
    plan.Crash(crash_candidates[pick], at, recover);
  }
  for (std::int32_t i = 0; i < params.spikes; ++i) {
    const double start = rng.NextUniform(0.0, 0.8 * params.horizon_ms);
    const double len = 1.0 + rng.NextExponential(1.0 / params.mean_spike_ms);
    plan.Spike(start, start + len, params.spike_multiplier);
  }
  for (std::int32_t i = 0; i < params.loss_bursts; ++i) {
    const double start = rng.NextUniform(0.0, 0.8 * params.horizon_ms);
    const double len = 1.0 + rng.NextExponential(1.0 / params.mean_burst_ms);
    plan.LossBurst(start, start + len, params.burst_probability);
  }
  return plan;
}

const FaultPlan* GlobalFaultPlan() {
  // Parsed lazily from the flag-stored spec; re-parsed if the spec string
  // changes (tests). Main-thread-only by design, like flag parsing itself.
  static std::string cached_spec;
  static FaultPlan cached_plan;
  static bool cached = false;
  const std::string& spec = GlobalFaultSpec();
  if (spec.empty()) return nullptr;
  if (!cached || spec != cached_spec) {
    cached_plan = ParseFaultSpec(spec);
    cached_spec = spec;
    cached = true;
  }
  return &cached_plan;
}

}  // namespace diaca::sim
