#include "placement/placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace diaca::placement {

namespace {

using net::LatencyMatrix;
using net::NodeIndex;

void CheckBudget(const LatencyMatrix& m, std::int32_t k) {
  DIACA_CHECK_MSG(k >= 1 && k <= m.size(),
                  "server budget " << k << " out of range for " << m.size()
                                   << " nodes");
}

/// Greedy maximal independent set of the square of the bottleneck graph
/// G_r (edges of length <= r). Nodes u, v are adjacent in G_r^2 iff some
/// witness w has d(u,w) <= r and d(w,v) <= r (w = u or v covers direct
/// edges). Returns the MIS; `limit` aborts early (returning an oversized
/// set) once more than `limit` centres have been chosen, which is all the
/// binary search needs to know.
std::vector<NodeIndex> SquareGraphMis(const LatencyMatrix& m, double r,
                                      std::int32_t limit) {
  const NodeIndex n = m.size();
  std::vector<bool> eliminated(static_cast<std::size_t>(n), false);
  std::vector<NodeIndex> mis;
  std::vector<NodeIndex> witnesses;
  for (NodeIndex u = 0; u < n; ++u) {
    if (eliminated[static_cast<std::size_t>(u)]) continue;
    mis.push_back(u);
    if (static_cast<std::int32_t>(mis.size()) > limit) return mis;
    eliminated[static_cast<std::size_t>(u)] = true;
    // Eliminate every node sharing a witness with u.
    witnesses.clear();
    const double* urow = m.Row(u);
    for (NodeIndex w = 0; w < n; ++w) {
      if (urow[w] <= r || w == u) witnesses.push_back(w);
    }
    for (NodeIndex w : witnesses) {
      const double* wrow = m.Row(w);
      for (NodeIndex v = 0; v < n; ++v) {
        if (!eliminated[static_cast<std::size_t>(v)] && wrow[v] <= r) {
          eliminated[static_cast<std::size_t>(v)] = true;
        }
      }
    }
  }
  return mis;
}

/// Pad `centers` to exactly k nodes by farthest-point additions.
void PadFarthest(const LatencyMatrix& m, std::int32_t k,
                 std::vector<NodeIndex>& centers) {
  const NodeIndex n = m.size();
  std::vector<double> dist(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<bool> chosen(static_cast<std::size_t>(n), false);
  for (NodeIndex c : centers) {
    chosen[static_cast<std::size_t>(c)] = true;
    const double* row = m.Row(c);
    for (NodeIndex u = 0; u < n; ++u) {
      dist[static_cast<std::size_t>(u)] =
          std::min(dist[static_cast<std::size_t>(u)], row[u]);
    }
  }
  while (static_cast<std::int32_t>(centers.size()) < k) {
    NodeIndex farthest = -1;
    double best = -1.0;
    for (NodeIndex u = 0; u < n; ++u) {
      if (!chosen[static_cast<std::size_t>(u)] &&
          dist[static_cast<std::size_t>(u)] > best) {
        best = dist[static_cast<std::size_t>(u)];
        farthest = u;
      }
    }
    DIACA_CHECK(farthest >= 0);
    centers.push_back(farthest);
    chosen[static_cast<std::size_t>(farthest)] = true;
    const double* row = m.Row(farthest);
    for (NodeIndex u = 0; u < n; ++u) {
      dist[static_cast<std::size_t>(u)] =
          std::min(dist[static_cast<std::size_t>(u)], row[u]);
    }
  }
}

}  // namespace

std::vector<NodeIndex> RandomPlacement(const LatencyMatrix& m, std::int32_t k,
                                       Rng& rng) {
  CheckBudget(m, k);
  std::vector<NodeIndex> nodes = rng.SampleWithoutReplacement(m.size(), k);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

std::vector<NodeIndex> KCenterHochbaumShmoys(const LatencyMatrix& m,
                                             std::int32_t k) {
  CheckBudget(m, k);
  const NodeIndex n = m.size();
  // Candidate radii: all distinct pairwise distances, sorted.
  std::vector<double> radii;
  radii.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2);
  for (NodeIndex u = 0; u < n; ++u) {
    const double* row = m.Row(u);
    for (NodeIndex v = u + 1; v < n; ++v) radii.push_back(row[v]);
  }
  std::sort(radii.begin(), radii.end());
  radii.erase(std::unique(radii.begin(), radii.end()), radii.end());

  // Smallest radius whose square-graph MIS fits in k centres.
  std::size_t lo = 0;
  std::size_t hi = radii.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto mis = SquareGraphMis(m, radii[mid], k);
    if (static_cast<std::int32_t>(mis.size()) <= k) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<NodeIndex> centers = SquareGraphMis(m, radii[lo], k);
  DIACA_CHECK(static_cast<std::int32_t>(centers.size()) <= k);
  PadFarthest(m, k, centers);
  std::sort(centers.begin(), centers.end());
  return centers;
}

std::vector<NodeIndex> KCenterGreedy(const LatencyMatrix& m, std::int32_t k) {
  CheckBudget(m, k);
  const NodeIndex n = m.size();
  std::vector<NodeIndex> centers;
  std::vector<double> dist(static_cast<std::size_t>(n),
                           std::numeric_limits<double>::infinity());
  std::vector<bool> chosen(static_cast<std::size_t>(n), false);
  centers.reserve(static_cast<std::size_t>(k));
  for (std::int32_t step = 0; step < k; ++step) {
    NodeIndex best_node = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (NodeIndex cand = 0; cand < n; ++cand) {
      if (chosen[static_cast<std::size_t>(cand)]) continue;
      // Objective if cand is added: max over nodes of the improved
      // nearest-centre distance.
      const double* row = m.Row(cand);
      double cost = 0.0;
      for (NodeIndex u = 0; u < n; ++u) {
        cost = std::max(cost,
                        std::min(dist[static_cast<std::size_t>(u)], row[u]));
        if (cost >= best_cost) break;  // cannot beat the incumbent
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_node = cand;
      }
    }
    DIACA_CHECK(best_node >= 0);
    centers.push_back(best_node);
    chosen[static_cast<std::size_t>(best_node)] = true;
    const double* row = m.Row(best_node);
    for (NodeIndex u = 0; u < n; ++u) {
      dist[static_cast<std::size_t>(u)] =
          std::min(dist[static_cast<std::size_t>(u)], row[u]);
    }
  }
  return centers;  // insertion order: prefixes are smaller-budget answers
}

std::vector<NodeIndex> KCenterFarthest(const net::DistanceOracle& oracle,
                                       std::int32_t k) {
  const NodeIndex n = oracle.size();
  DIACA_CHECK_MSG(k >= 1 && k <= n, "server budget " << k << " out of range for "
                                                     << n << " nodes");
  std::vector<NodeIndex> centers = oracle.FarthestPoints(k);
  std::sort(centers.begin(), centers.end());
  return centers;
}

double KCenterObjective(const LatencyMatrix& m,
                        std::span<const NodeIndex> centers) {
  DIACA_CHECK(!centers.empty());
  double worst = 0.0;
  for (NodeIndex u = 0; u < m.size(); ++u) {
    double best = std::numeric_limits<double>::infinity();
    const double* row = m.Row(u);
    for (NodeIndex c : centers) best = std::min(best, row[c]);
    worst = std::max(worst, best);
  }
  return worst;
}

}  // namespace diaca::placement
