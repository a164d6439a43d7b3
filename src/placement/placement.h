// Server placement strategies (§V experimental setup).
//
// The paper evaluates client assignment under three placements:
//   * random placement,
//   * "K-center-A": a 2-approximate minimum-K-center algorithm
//     (Hochbaum–Shmoys parametric pruning, as presented in Vazirani [24]),
//   * "K-center-B": the greedy K-center heuristic used for mirror
//     placement by Jamin et al. [14] (add the centre that most reduces the
//     maximum node-to-nearest-centre distance).
// Placement is orthogonal to assignment: these functions return the node
// ids that host servers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/distance_oracle.h"
#include "net/latency_matrix.h"

namespace diaca::placement {

/// k distinct uniformly random nodes. Requires 1 <= k <= n.
std::vector<net::NodeIndex> RandomPlacement(const net::LatencyMatrix& m,
                                            std::int32_t k, Rng& rng);

/// Hochbaum–Shmoys 2-approximation of minimum K-center ("K-center-A").
/// Binary-searches the bottleneck radius over the sorted distance values;
/// for each radius a maximal independent set of the square graph is the
/// candidate centre set. If the MIS has fewer than k nodes, the set is
/// padded to exactly k by farthest-point additions (which can only help).
std::vector<net::NodeIndex> KCenterHochbaumShmoys(const net::LatencyMatrix& m,
                                                  std::int32_t k);

/// Greedy K-center heuristic of Jamin et al. ("K-center-B"): repeatedly
/// add the node whose addition minimizes max_u min_center d(u, center).
/// Deterministic (ties broken toward the lower node id). The result for
/// budget k is a prefix of the result for any larger budget.
std::vector<net::NodeIndex> KCenterGreedy(const net::LatencyMatrix& m,
                                          std::int32_t k);

/// max_u min_{c in centers} d(u, c) — the K-center objective, used to
/// compare placements and in tests.
double KCenterObjective(const net::LatencyMatrix& m,
                        std::span<const net::NodeIndex> centers);

/// Farthest-point K-center over a distance oracle (Gonzalez's classic
/// 2-approximation): start at node 0, repeatedly add the node farthest
/// from the chosen set (ties toward the lower id); the centres come back
/// sorted. DistanceOracle::FarthestPoints runs the loop in O(n) memory
/// and no matrix, so it is the placement used on substrates too large to
/// materialize. The rows backend builds no row for it: its sweep settles
/// only the nodes whose distance to the chosen set can still fall, about
/// 2% of k * n on the benchmark's 2000-node clouds. Other backends fold
/// k full oracle rows. With a dense oracle it matches farthest-point
/// selection on the matrix exactly.
std::vector<net::NodeIndex> KCenterFarthest(const net::DistanceOracle& oracle,
                                            std::int32_t k);

}  // namespace diaca::placement
