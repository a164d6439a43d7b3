// Seeded churn workloads for the online control plane.
//
// The paper's evaluation is one-shot, but a production DIA assignment
// service faces a moving population: players arrive in Poisson bursts,
// leave mid-session, roam between access networks (mobile DIAs re-sample
// their last-mile delay), pile in when an event goes viral (flash
// crowds), and breathe with the day (diurnal waves). This module
// synthesizes that whole axis as a deterministic trace over *client
// instances*: a logical client that moves retires its old instance and
// continues as a new one with a fresh attachment point and access delay,
// so every instance's |S| distance row is immutable — exactly the shape
// core::Problem and the incremental evaluator require.
//
// Everything is a pure function of (params, seed): one Rng stream is
// consumed in a fixed order (arrival count, then the membership pass in
// instance order, then arrival samples, then move re-samples), so traces
// are bit-identical across platforms and thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/problem.h"
#include "net/distance_oracle.h"

namespace diaca::data {

/// A viral-event window: the arrival rate is multiplied while
/// start_epoch <= e < end_epoch.
struct FlashCrowd {
  std::int32_t start_epoch = 0;
  std::int32_t end_epoch = 0;
  double multiplier = 1.0;
};

struct ChurnParams {
  /// Number of churn epochs to generate.
  std::int32_t epochs = 50;
  /// Poisson mean of arrivals per epoch (before wave/flash scaling).
  double arrivals_per_epoch = 16.0;
  /// Per-epoch departure probability of each active client.
  double departure_prob = 0.01;
  /// Per-epoch mobility probability: the client re-attaches elsewhere
  /// with a fresh access delay (old instance retires, new one joins).
  double move_prob = 0.005;
  /// Flash-crowd windows (arrival-rate multipliers, may overlap).
  std::vector<FlashCrowd> flashes;
  /// Diurnal wave: arrival rate scales by
  /// max(0, 1 + amplitude * sin(2*pi*e / period)). 0 disables.
  std::int32_t wave_period_epochs = 0;
  double wave_amplitude = 0.0;
  /// Churn stops after this epoch (quiet tail for recovery/convergence
  /// measurements). < 0 means churn runs for all epochs.
  std::int32_t churn_until_epoch = -1;
  /// Lognormal access-delay model, as in ClientCloudParams.
  double access_mu = 1.1;
  double access_sigma = 0.6;
  double min_access_ms = 0.2;
};

/// One immutable client instance: d(instance, s) = access_ms +
/// d_substrate(attach, server_node(s)).
struct ChurnClient {
  std::int64_t logical_id = 0;  ///< stable across mobility moves
  net::NodeIndex attach = 0;    ///< substrate attachment node
  double access_ms = 0.0;       ///< last-mile delay
};

/// A mobility move: instance `from` retires, instance `to` (same logical
/// client, new attachment) joins at the same epoch boundary.
struct ChurnMove {
  std::int32_t from = -1;
  std::int32_t to = -1;
};

/// Membership delta delivered at the boundary that ends epoch e.
struct ChurnEpochEvents {
  std::vector<std::int32_t> arrivals;    ///< new instances joining
  std::vector<std::int32_t> departures;  ///< instances leaving for good
  std::vector<ChurnMove> moves;          ///< retire-from + join-to pairs
};

struct ChurnTrace {
  /// Every client instance that ever exists; instance index is the
  /// client index of the Problem built by BuildChurnProblem.
  std::vector<ChurnClient> instances;
  /// Instances [0, initial_count) are the members at epoch 0.
  std::int32_t initial_count = 0;
  std::vector<ChurnEpochEvents> epochs;
  std::int32_t peak_active = 0;    ///< high-water concurrent members
  std::int64_t logical_clients = 0;  ///< distinct logical ids ever seen
};

/// Generate a churn trace: `initial_clients` instances exist up front,
/// then `params.epochs` epochs of arrivals/departures/moves over a
/// substrate of `substrate_nodes` nodes. Departures never empty the
/// membership. Throws diaca::Error on nonsensical parameters.
ChurnTrace GenerateChurnTrace(const ChurnParams& params,
                              std::int32_t initial_clients,
                              net::NodeIndex substrate_nodes,
                              std::uint64_t seed);

/// Parse a `--churn` spec into params, mirroring the `--faults` grammar:
/// ';'-separated items of
///   arrive@R          Poisson arrivals per epoch (rate R >= 0)
///   depart@P          per-client departure probability in [0, 1]
///   move@P            per-client mobility probability in [0, 1]
///   flash@E-E:xF      flash crowd over epochs [start, end), rate xF
///   wave@P:aF         diurnal wave, period P epochs, amplitude aF
///   until@E           churn stops after epoch E (quiet tail)
/// Unknown kinds, unknown or misplaced keys, and out-of-range values
/// throw diaca::Error naming the offending item and the kind's valid key
/// set. Unset knobs keep their ChurnParams defaults; `epochs` is not
/// part of the grammar (it comes from --epochs).
ChurnParams ParseChurnSpec(const std::string& spec);

/// A churn instance ready for the control plane: `problem` has one
/// client per trace instance (virtual ids = substrate size + instance
/// index, labels only) against the given servers.
struct ChurnProblem {
  std::vector<net::NodeIndex> server_nodes;
  core::Problem problem;
};

/// The problem streams its |instances| x |S| block: an OracleTileView
/// over the instances' (attach, access) pairs pulls the |S| server rows
/// once and answers d(c, s) = access(c) + row_s[attach(c)], one IEEE add,
/// on demand — the bits a resident cut of the same view holds. Memory is
/// O(|S| * n + |instances|), never |instances| x |S|.
/// Throws diaca::Error on an empty trace, bad server nodes, or a
/// negative or NaN access delay.
ChurnProblem BuildChurnProblem(const ChurnTrace& trace,
                               const net::DistanceOracle& oracle,
                               std::span<const net::NodeIndex> server_nodes);

}  // namespace diaca::data
