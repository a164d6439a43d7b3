// The benchmark's four workloads, each run in-process against the public
// libdiaca API (see README.md for what each one stresses and why).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace diaca::benchmark {

/// Instance sizes. Full scale is what BENCHMARK.json's numbers mean;
/// smoke scale shrinks every workload for the ctest smoke.
struct Scale {
  const char* name = "full";
  // cloud-tiled / cloud-resident
  std::int32_t cloud_nodes = 2000;
  std::int32_t cloud_servers = 256;
  std::int64_t cloud_clients = 200000;
  // paper-sweep: trials = |sweep_k| x placements_per_k
  std::int32_t sweep_nodes = 2000;
  std::vector<std::int32_t> sweep_k = {10, 20, 30, 40, 50, 60, 70, 80};
  std::int32_t placements_per_k = 5;
  std::int32_t sweep_reps = 3;  ///< timed reps per heuristic per trial
  // churn
  std::int32_t churn_nodes = 2000;
  std::int32_t churn_servers = 64;
  std::int32_t churn_clients = 30000;
  std::int32_t churn_epochs = 100;
  /// Clients (the most remote ones) the certified lower bound covers on
  /// workloads too large for the O(|C|^2 |S|) bound over every client.
  std::int32_t bound_clients = 1000;
  /// Independent set-ups per run; setup_s is their median.
  std::int32_t setups = 3;
};

/// The smoke-test sizes; a default Scale is full scale.
Scale SmokeScale();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2011;
  double seconds = 10.0;
  int threads = 2;
  bool trace = false;
  Scale scale;
  /// Chrome trace written by a traced run ("" = none).
  std::string trace_path;
  /// Pinned outputs checked at the pinned seed ("" = none).
  std::string pins_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One output fingerprint: FNV-1a hash of an assignment (or of a
/// sequence of them) and its objective, per solver.
struct Fingerprint {
  std::string solver;
  std::uint64_t hash = 0;
  double objective_ms = 0.0;
};

struct RunOutput {
  /// End-to-end metrics on an untraced run, per-layer on a traced one.
  std::vector<Metric> metrics;
  std::vector<Fingerprint> fingerprints;
  /// Output checks made and failed.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// "cloud-tiled", "cloud-resident", "paper-sweep", "churn".
const std::vector<std::string>& WorkloadNames();

/// Run one workload for options.seconds of measurement. Throws
/// diaca::Error on an unknown workload name.
RunOutput RunWorkload(const RunOptions& options);

/// First quartile, median and third quartile exactly as Python's
/// statistics.quantiles(values, n=4) (the default exclusive method).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

}  // namespace diaca::benchmark
