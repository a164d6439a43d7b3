#include "data/churn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/spec_grammar.h"
#include "obs/obs.h"

namespace diaca::data {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Poisson(mean) from one Rng stream. Knuth's product method for small
/// means; a rounded-Gaussian approximation above (flash-crowd rates make
/// exp(-mean) underflow and Knuth draw O(mean) uniforms). Deterministic
/// either way: the draw count depends only on the stream itself.
std::int64_t SamplePoisson(Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean <= 30.0) {
    const double limit = std::exp(-mean);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.NextDouble();
    } while (p > limit);
    return k - 1;
  }
  const double x = mean + std::sqrt(mean) * rng.NextGaussian();
  return x <= 0.0 ? 0 : std::llround(x);
}

}  // namespace

ChurnTrace GenerateChurnTrace(const ChurnParams& params,
                              std::int32_t initial_clients,
                              net::NodeIndex substrate_nodes,
                              std::uint64_t seed) {
  DIACA_OBS_SPAN("data.churn.generate");
  DIACA_CHECK_MSG(params.epochs > 0, "churn: need at least one epoch");
  DIACA_CHECK_MSG(initial_clients > 0, "churn: need at least one client");
  DIACA_CHECK_MSG(substrate_nodes > 0, "churn: empty substrate");
  DIACA_CHECK_MSG(
      std::isfinite(params.arrivals_per_epoch) &&
          params.arrivals_per_epoch >= 0.0,
      "churn: arrival rate must be finite and >= 0");
  DIACA_CHECK_MSG(
      params.departure_prob >= 0.0 && params.departure_prob <= 1.0,
      "churn: departure probability must be in [0, 1]");
  DIACA_CHECK_MSG(params.move_prob >= 0.0 && params.move_prob <= 1.0,
                  "churn: move probability must be in [0, 1]");
  DIACA_CHECK_MSG(params.wave_period_epochs >= 0,
                  "churn: wave period must be >= 0");
  DIACA_CHECK_MSG(
      std::isfinite(params.wave_amplitude) && params.wave_amplitude >= 0.0,
      "churn: wave amplitude must be finite and >= 0");
  for (const FlashCrowd& flash : params.flashes) {
    DIACA_CHECK_MSG(flash.start_epoch >= 0 &&
                        flash.end_epoch > flash.start_epoch,
                    "churn: flash window must have 0 <= start < end");
    DIACA_CHECK_MSG(std::isfinite(flash.multiplier) && flash.multiplier > 0.0,
                    "churn: flash multiplier must be positive");
  }

  Rng rng(seed);
  ChurnTrace trace;
  auto sample_instance = [&](std::int64_t logical_id) {
    ChurnClient c;
    c.logical_id = logical_id;
    c.attach = static_cast<net::NodeIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(substrate_nodes)));
    c.access_ms = std::max(
        params.min_access_ms,
        rng.NextLogNormal(params.access_mu, params.access_sigma));
    return c;
  };

  trace.instances.reserve(static_cast<std::size_t>(initial_clients));
  for (std::int32_t i = 0; i < initial_clients; ++i) {
    trace.instances.push_back(sample_instance(i));
  }
  trace.initial_count = initial_clients;
  trace.logical_clients = initial_clients;
  trace.peak_active = initial_clients;

  // Active instance indices, always ascending: the membership pass below
  // consumes the Rng in instance order, so the stream — and the whole
  // trace — is a pure function of (params, seed).
  std::vector<std::int32_t> active(static_cast<std::size_t>(initial_clients));
  std::iota(active.begin(), active.end(), 0);

  trace.epochs.resize(static_cast<std::size_t>(params.epochs));
  for (std::int32_t e = 0; e < params.epochs; ++e) {
    // Quiet tail: after churn_until_epoch the population freezes, giving
    // the control plane a pressure-free window to converge in.
    if (params.churn_until_epoch >= 0 && e >= params.churn_until_epoch) {
      continue;
    }
    ChurnEpochEvents& events = trace.epochs[static_cast<std::size_t>(e)];

    // 1. Arrival count for this epoch (wave and flash scale the rate).
    double rate = params.arrivals_per_epoch;
    if (params.wave_period_epochs > 0) {
      rate *= std::max(
          0.0, 1.0 + params.wave_amplitude *
                         std::sin(kTwoPi * static_cast<double>(e) /
                                  static_cast<double>(
                                      params.wave_period_epochs)));
    }
    for (const FlashCrowd& flash : params.flashes) {
      if (e >= flash.start_epoch && e < flash.end_epoch) {
        rate *= flash.multiplier;
      }
    }
    const std::int64_t arrival_count = SamplePoisson(rng, rate);

    // 2. Membership pass in instance order. Both draws are consumed for
    // every client so the stream shape never depends on the outcomes; a
    // departure is skipped (draw still spent) when it would empty the
    // pre-existing membership.
    std::vector<std::int32_t> kept;
    std::vector<std::int32_t> movers;
    kept.reserve(active.size());
    std::size_t departed = 0;
    for (const std::int32_t inst : active) {
      const bool depart_draw = rng.NextBernoulli(params.departure_prob);
      const bool move_draw = rng.NextBernoulli(params.move_prob);
      if (depart_draw && active.size() - departed > 1) {
        events.departures.push_back(inst);
        ++departed;
      } else if (move_draw) {
        movers.push_back(inst);
      } else {
        kept.push_back(inst);
      }
    }

    // 3. Arrival samples, then 4. mobility re-samples (retire the old
    // instance, continue the logical client as a fresh one).
    for (std::int64_t i = 0; i < arrival_count; ++i) {
      const auto idx = static_cast<std::int32_t>(trace.instances.size());
      trace.instances.push_back(sample_instance(trace.logical_clients++));
      events.arrivals.push_back(idx);
      kept.push_back(idx);
    }
    for (const std::int32_t inst : movers) {
      const auto idx = static_cast<std::int32_t>(trace.instances.size());
      trace.instances.push_back(sample_instance(
          trace.instances[static_cast<std::size_t>(inst)].logical_id));
      events.moves.push_back(ChurnMove{inst, idx});
      kept.push_back(idx);
    }
    active = std::move(kept);  // ascending by construction
    trace.peak_active = std::max(
        trace.peak_active, static_cast<std::int32_t>(active.size()));
  }
  DIACA_OBS_GAUGE_SET("data.churn.instances",
                      static_cast<std::int64_t>(trace.instances.size()));
  return trace;
}

namespace {

constexpr SpecKeyOwner kChurnKeyOwners[] = {{'x', "flash"}, {'a', "wave"}};

/// The tokenizer, messages and misplaced-key check --faults uses too.
constexpr SpecGrammar kGrammar("--churn", "docs/CLI.md", kChurnKeyOwners);

/// A finite number: rates, probabilities and multipliers take no inf or
/// nan.
double ParseChurnDouble(std::string_view text, std::string_view item,
                        const char* what) {
  const double out = kGrammar.ParseDouble(text, item, what);
  if (!std::isfinite(out)) {
    kGrammar.Fail(item, std::string("expected a number for the ") + what);
  }
  return out;
}

std::int32_t ParseChurnEpoch(std::string_view text, std::string_view item,
                             const char* what) {
  const double value = ParseChurnDouble(text, item, what);
  if (value < 0.0 || value != std::floor(value) || value > 1e9) {
    kGrammar.Fail(item,
                  std::string("expected a non-negative epoch index for the ") +
                      what);
  }
  return static_cast<std::int32_t>(value);
}

}  // namespace

ChurnParams ParseChurnSpec(const std::string& spec) {
  ChurnParams params;
  bool seen_arrive = false;
  bool seen_depart = false;
  bool seen_move = false;
  bool seen_wave = false;
  bool seen_until = false;
  auto once = [&](bool& seen, std::string_view item, std::string_view kind) {
    if (seen) {
      kGrammar.Fail(item, "duplicate '" + std::string(kind) +
                              "' item (each scalar knob may appear once)");
    }
    seen = true;
  };
  for (const std::string_view raw : SpecGrammar::Split(spec, ';')) {
    const std::string_view item = SpecGrammar::Trim(raw);
    if (item.empty()) continue;
    const auto at = item.find('@');
    if (at == std::string_view::npos) {
      kGrammar.Fail(item, "expected KIND@...");
    }
    const std::string_view kind = item.substr(0, at);
    const std::vector<std::string_view> parts =
        SpecGrammar::Split(item.substr(at + 1), ':');
    const std::span<const std::string_view> args(parts.data() + 1,
                                                 parts.size() - 1);
    if (kind == "arrive") {
      once(seen_arrive, item, kind);
      kGrammar.CheckKeys(item, kind, "(none)", "", args);
      if (!args.empty()) kGrammar.Fail(item, "expected arrive@RATE");
      params.arrivals_per_epoch =
          ParseChurnDouble(parts[0], item, "arrival rate");
      if (params.arrivals_per_epoch < 0.0) {
        kGrammar.Fail(item, "arrival rate must be >= 0");
      }
    } else if (kind == "depart" || kind == "move") {
      once(kind == "depart" ? seen_depart : seen_move, item, kind);
      kGrammar.CheckKeys(item, kind, "(none)", "", args);
      if (!args.empty()) {
        kGrammar.Fail(item, "expected " + std::string(kind) + "@PROB");
      }
      const double p = ParseChurnDouble(parts[0], item, "probability");
      if (p < 0.0 || p > 1.0) {
        kGrammar.Fail(item, "probability must be in [0, 1]");
      }
      (kind == "depart" ? params.departure_prob : params.move_prob) = p;
    } else if (kind == "flash") {
      kGrammar.CheckKeys(item, kind, "x (the rate multiplier)", "x", args);
      if (args.size() != 1) kGrammar.Fail(item, "expected flash@E-E:xMULT");
      const auto dash = parts[0].find('-');
      if (dash == std::string_view::npos) {
        kGrammar.Fail(item, "expected an epoch window as E-E");
      }
      FlashCrowd flash;
      flash.start_epoch =
          ParseChurnEpoch(parts[0].substr(0, dash), item, "window start");
      flash.end_epoch =
          ParseChurnEpoch(parts[0].substr(dash + 1), item, "window end");
      if (flash.end_epoch <= flash.start_epoch) {
        kGrammar.Fail(item, "flash window must have start < end");
      }
      flash.multiplier =
          ParseChurnDouble(args[0].substr(1), item, "multiplier");
      if (flash.multiplier <= 0.0) {
        kGrammar.Fail(item, "flash multiplier must be positive");
      }
      params.flashes.push_back(flash);
    } else if (kind == "wave") {
      once(seen_wave, item, kind);
      kGrammar.CheckKeys(item, kind, "a (the amplitude)", "a", args);
      if (args.size() != 1) kGrammar.Fail(item, "expected wave@PERIOD:aAMP");
      params.wave_period_epochs =
          ParseChurnEpoch(parts[0], item, "wave period");
      if (params.wave_period_epochs == 0) {
        kGrammar.Fail(item, "wave period must be >= 1 epoch");
      }
      params.wave_amplitude =
          ParseChurnDouble(args[0].substr(1), item, "amplitude");
      if (params.wave_amplitude < 0.0) {
        kGrammar.Fail(item, "wave amplitude must be >= 0");
      }
    } else if (kind == "until") {
      once(seen_until, item, kind);
      kGrammar.CheckKeys(item, kind, "(none)", "", args);
      if (!args.empty()) kGrammar.Fail(item, "expected until@EPOCH");
      params.churn_until_epoch =
          ParseChurnEpoch(parts[0], item, "quiet-tail start");
    } else {
      kGrammar.Fail(item,
                    "unknown churn kind '" + std::string(kind) +
                        "' (expected arrive|depart|move|flash|wave|until)");
    }
  }
  return params;
}

ChurnProblem BuildChurnProblem(const ChurnTrace& trace,
                               const net::DistanceOracle& oracle,
                               std::span<const net::NodeIndex> server_nodes) {
  DIACA_OBS_SPAN("data.churn.build");
  DIACA_CHECK_MSG(!trace.instances.empty(), "churn trace has no instances");
  const std::size_t num_instances = trace.instances.size();
  std::vector<net::NodeIndex> attach(num_instances);
  std::vector<double> access_ms(num_instances);
  for (std::size_t c = 0; c < num_instances; ++c) {
    attach[c] = trace.instances[c].attach;
    access_ms[c] = trace.instances[c].access_ms;
  }
  // The view validates the servers and access delays, pulls the |S|
  // substrate server rows (the only shortest-path work) and answers
  // d(instance, s) = access + row_s[attach] on demand; it is the
  // problem's client block.
  auto view = core::OracleTileView::FromAttachments(oracle, server_nodes,
                                                    attach, access_ms);
  const std::span<const double> d_ss = view->server_block();
  std::vector<net::NodeIndex> servers(server_nodes.begin(),
                                      server_nodes.end());
  std::vector<net::NodeIndex> client_ids(num_instances);
  std::iota(client_ids.begin(), client_ids.end(), oracle.size());
  core::Problem problem = core::Problem::FromView(
      std::move(view), servers, std::move(client_ids), d_ss);
  return ChurnProblem{std::move(servers), std::move(problem)};
}

}  // namespace diaca::data
