// Shared helpers for the diaca test suite: tiny matrix builders, random
// instances, and brute-force reference implementations that the optimized
// library code is checked against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/lower_bound.h"
#include "core/metrics.h"
#include "core/problem.h"
#include "core/types.h"
#include "net/latency_matrix.h"
#include "obs/obs.h"

namespace diaca::test {

/// Greedy candidate-list rebuilds recorded so far: the
/// core.greedy.rebuilds counter, which advances only while metrics are
/// enabled (always 0 when observability is compiled out).
inline std::int64_t GreedyRebuilds() {
#if DIACA_OBS
  return obs::Registry::Default().GetCounter("core.greedy.rebuilds").Value();
#else
  return 0;
#endif
}

/// Greedy candidate lists scattered at their first read so far: the
/// core.greedy.deferred_scatters counter, under the same rules as
/// GreedyRebuilds.
inline std::int64_t GreedyDeferredScatters() {
#if DIACA_OBS
  return obs::Registry::Default()
      .GetCounter("core.greedy.deferred_scatters")
      .Value();
#else
  return 0;
#endif
}

/// Candidate lists greedy's round 1 counted on demand, having run on
/// attachment-row floors: the core.greedy.round1_counts counter, under
/// the same rules as GreedyRebuilds.
inline std::int64_t GreedyRound1Counts() {
#if DIACA_OBS
  return obs::Registry::Default()
      .GetCounter("core.greedy.round1_counts")
      .Value();
#else
  return 0;
#endif
}

/// Matrix from a row-major initializer (must be symmetric, zero diagonal).
inline net::LatencyMatrix MatrixFrom(std::int32_t n,
                                     std::initializer_list<double> values) {
  return net::LatencyMatrix(n, std::vector<double>(values));
}

/// Random complete symmetric matrix with entries in [lo, hi).
inline net::LatencyMatrix RandomMatrix(std::int32_t n, Rng& rng,
                                       double lo = 1.0, double hi = 100.0) {
  net::LatencyMatrix m(n);
  for (net::NodeIndex u = 0; u < n; ++u) {
    for (net::NodeIndex v = u + 1; v < n; ++v) {
      m.Set(u, v, rng.NextUniform(lo, hi));
    }
  }
  return m;
}

/// A random problem: first `num_servers` nodes are servers, all nodes are
/// clients.
inline core::Problem RandomProblem(std::int32_t num_nodes,
                                   std::int32_t num_servers, Rng& rng) {
  const net::LatencyMatrix m = RandomMatrix(num_nodes, rng);
  std::vector<net::NodeIndex> servers(static_cast<std::size_t>(num_servers));
  std::iota(servers.begin(), servers.end(), 0);
  return core::Problem::WithClientsEverywhere(m, servers);
}

/// Integer latencies in [1, 6] between `num_clients` clients and
/// `num_servers` servers: most distances and pair values tie.
inline core::Problem TieHeavyProblem(std::int32_t num_clients,
                                     std::int32_t num_servers, Rng& rng) {
  const auto nc = static_cast<std::size_t>(num_clients);
  const auto ns = static_cast<std::size_t>(num_servers);
  std::vector<double> d_cs(nc * ns);
  for (double& d : d_cs) d = static_cast<double>(1 + rng.NextBounded(6));
  std::vector<double> d_ss(ns * ns, 0.0);
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = a + 1; b < ns; ++b) {
      d_ss[a * ns + b] = d_ss[b * ns + a] =
          static_cast<double>(1 + rng.NextBounded(6));
    }
  }
  std::vector<net::NodeIndex> servers(ns);
  std::iota(servers.begin(), servers.end(), 0);
  std::vector<net::NodeIndex> clients(nc);
  std::iota(clients.begin(), clients.end(), num_servers);
  return core::Problem::FromBlocks(servers, clients, d_cs, d_ss);
}

/// O(|C|^2) reference for the maximum interaction path length.
inline double BruteForceMaxPath(const core::Problem& p,
                                const core::Assignment& a) {
  double best = 0.0;
  for (core::ClientIndex i = 0; i < p.num_clients(); ++i) {
    for (core::ClientIndex j = i; j < p.num_clients(); ++j) {
      best = std::max(best, core::InteractionPathLength(p, a, i, j));
    }
  }
  return best;
}

/// Exhaustive optimal assignment by full enumeration (|S|^|C| — tiny
/// instances only).
inline double BruteForceOptimal(const core::Problem& p,
                                std::int32_t capacity = -1) {
  const auto num_clients = p.num_clients();
  const auto num_servers = p.num_servers();
  core::Assignment a(static_cast<std::size_t>(num_clients));
  std::vector<std::int32_t> choice(static_cast<std::size_t>(num_clients), 0);
  double best = std::numeric_limits<double>::infinity();
  for (;;) {
    std::vector<std::int32_t> load(static_cast<std::size_t>(num_servers), 0);
    bool ok = true;
    for (core::ClientIndex c = 0; c < num_clients; ++c) {
      a[c] = choice[static_cast<std::size_t>(c)];
      if (capacity > 0 && ++load[static_cast<std::size_t>(a[c])] > capacity) {
        ok = false;
      }
    }
    if (ok) best = std::min(best, BruteForceMaxPath(p, a));
    // Odometer increment.
    std::int32_t pos = 0;
    while (pos < num_clients) {
      if (++choice[static_cast<std::size_t>(pos)] < num_servers) break;
      choice[static_cast<std::size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == num_clients) break;
  }
  return best;
}

/// Scalar reference for the pairwise lower bound (§V): the full |C| x |S|
/// min-plus matrix m[c][t] = min_s d(c, s) + d(s, t), then a c-major scan
/// of the pairs c <= c2 with a strict `>`, so the witness is the
/// lexicographically smallest pair attaining the max. Calls no kernel and
/// reads the client block only through cs(); each term is one rounded
/// add in the library's operand order and min is exact, so the library's
/// bound must match it bit for bit.
inline core::LowerBoundDetail ReferencePairwiseLowerBound(
    const core::Problem& p) {
  const auto n = static_cast<std::size_t>(p.num_clients());
  const auto k = static_cast<std::size_t>(p.num_servers());
  const core::ClientBlockView& view = p.client_block();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> m(n * k, kInf);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t s = 0; s < k; ++s) {
      const double d = view.cs(static_cast<core::ClientIndex>(c),
                               static_cast<core::ServerIndex>(s));
      for (std::size_t t = 0; t < k; ++t) {
        m[c * k + t] = std::min(
            m[c * k + t], p.ss(static_cast<core::ServerIndex>(s),
                               static_cast<core::ServerIndex>(t)) + d);
      }
    }
  }
  core::LowerBoundDetail detail;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t c2 = c; c2 < n; ++c2) {
      double best = kInf;
      for (std::size_t t = 0; t < k; ++t) {
        best = std::min(best, m[c * k + t] +
                                  view.cs(static_cast<core::ClientIndex>(c2),
                                          static_cast<core::ServerIndex>(t)));
      }
      if (best > detail.value) {
        detail.value = best;
        detail.first = static_cast<core::ClientIndex>(c);
        detail.second = static_cast<core::ClientIndex>(c2);
      }
    }
  }
  return detail;
}

}  // namespace diaca::test
