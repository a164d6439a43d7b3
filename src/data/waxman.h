// Waxman random-graph topologies — a router-level alternative ground
// truth to the delay-space generator.
//
// The paper's system model (§II-A) is a *graph* with shortest-path
// routing, while its data sets are end-to-end measurements. The synthetic
// delay-space generator mimics the measurements; this module instead
// instantiates the graph model directly: a classic Waxman topology
// (P(u,v) = alpha * exp(-dist/(beta * L))) with propagation-delay link
// weights, routed to a complete matrix via Dijkstra. Shortest-path
// matrices are exactly metric, so experiments on them isolate how much of
// the evaluation's behaviour comes from triangle-inequality violations.
#pragma once

#include <cstdint>

#include "net/graph.h"
#include "net/latency_matrix.h"

namespace diaca::data {

struct WaxmanParams {
  std::int32_t num_nodes = 300;
  /// Waxman connection-probability scale (more edges with larger alpha).
  double alpha = 0.15;
  /// Waxman distance decay (longer links with larger beta).
  double beta = 0.35;
  /// Plane side length, in milliseconds of propagation delay.
  double extent_ms = 60.0;
  /// Fixed per-hop forwarding delay added to each link (ms).
  double hop_cost_ms = 0.3;
};

/// Generate the topology. The graph is made connected by linking each
/// stranded component to its geometrically nearest neighbour.
/// Deterministic in (params, seed).
net::Graph GenerateWaxmanTopology(const WaxmanParams& params,
                                  std::uint64_t seed);

/// Convenience: topology + all-pairs shortest-path latency matrix
/// (Graph::AllPairsShortestPaths).
net::LatencyMatrix GenerateWaxmanMatrix(const WaxmanParams& params,
                                        std::uint64_t seed);

}  // namespace diaca::data
