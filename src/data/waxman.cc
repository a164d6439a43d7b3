#include "data/waxman.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace diaca::data {

namespace {

struct Point {
  double x;
  double y;
};

double Dist(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Union-find for connectivity repair.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

void ForEachWaxmanEdge(
    const WaxmanParams& params, std::uint64_t seed,
    const std::function<void(net::NodeIndex, net::NodeIndex, double)>& edge) {
  DIACA_CHECK(params.num_nodes >= 2);
  DIACA_CHECK(params.alpha > 0.0 && params.alpha <= 1.0);
  DIACA_CHECK(params.beta > 0.0 && params.beta <= 1.0);
  DIACA_CHECK(params.extent_ms > 0.0);
  DIACA_CHECK(params.hop_cost_ms >= 0.0);
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(params.num_nodes);

  std::vector<Point> points(n);
  for (Point& p : points) {
    p = {rng.NextUniform(0.0, params.extent_ms),
         rng.NextUniform(0.0, params.extent_ms)};
  }
  // Maximum possible distance L in the Waxman probability.
  const double max_dist = params.extent_ms * std::sqrt(2.0);

  DisjointSets components(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const double dist = Dist(points[u], points[v]);
      const double probability =
          params.alpha * std::exp(-dist / (params.beta * max_dist));
      if (rng.NextBernoulli(probability)) {
        edge(static_cast<net::NodeIndex>(u), static_cast<net::NodeIndex>(v),
             dist + params.hop_cost_ms);
        components.Union(u, v);
      }
    }
  }
  // Connectivity repair: attach every stranded node/component via its
  // geometrically nearest node in another component.
  for (std::size_t u = 0; u < n; ++u) {
    if (components.Find(u) == components.Find(0)) continue;
    std::size_t best = n;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < n; ++v) {
      if (components.Find(v) == components.Find(u)) continue;
      const double dist = Dist(points[u], points[v]);
      if (dist < best_dist) {
        best_dist = dist;
        best = v;
      }
    }
    DIACA_CHECK(best < n);
    edge(static_cast<net::NodeIndex>(u), static_cast<net::NodeIndex>(best),
         best_dist + params.hop_cost_ms);
    components.Union(u, best);
  }
}

net::Graph GenerateWaxmanTopology(const WaxmanParams& params,
                                  std::uint64_t seed) {
  std::vector<net::Graph::Edge> edges;
  ForEachWaxmanEdge(params, seed,
                    [&edges](net::NodeIndex u, net::NodeIndex v,
                             double length) { edges.push_back({u, v, length}); });
  return net::Graph(params.num_nodes, edges);
}

net::LatencyMatrix GenerateWaxmanMatrix(const WaxmanParams& params,
                                        std::uint64_t seed) {
  return GenerateWaxmanTopology(params, seed).AllPairsShortestPaths();
}

net::LatencyMatrix GenerateWaxmanMatrix(const WaxmanParams& params,
                                        std::uint64_t seed,
                                        const net::ApspOptions& apsp) {
  const net::ApspEngine engine(apsp);
  net::ApspBackend backend = apsp.backend;
  if (backend == net::ApspBackend::kAuto) {
    // Resolving kAuto needs the edge count; a counting pass is O(n) memory
    // and keeps the peak at one matrix either way.
    std::size_t num_edges = 0;
    ForEachWaxmanEdge(params, seed,
                      [&num_edges](net::NodeIndex, net::NodeIndex, double) {
                        ++num_edges;
                      });
    backend = engine.ResolveBackend(params.num_nodes, num_edges);
  }
  if (backend == net::ApspBackend::kBlocked) {
    // Streaming path: edges land directly in the seeded matrix and the
    // elimination runs in place — no Graph, no second O(n^2) buffer.
    net::LatencyMatrix matrix(params.num_nodes);
    net::ApspEngine::SeedInfinite(matrix);
    ForEachWaxmanEdge(
        params, seed,
        [&matrix](net::NodeIndex u, net::NodeIndex v, double length) {
          double* row_u = matrix.MutableRow(u);
          row_u[v] = std::min(row_u[v], length);
          matrix.MutableRow(v)[u] = row_u[v];
        });
    engine.RunBlocked(matrix);
    return matrix;
  }
  net::ApspOptions dijkstra = apsp;
  dijkstra.backend = net::ApspBackend::kDijkstra;
  return net::ApspEngine(dijkstra).Solve(GenerateWaxmanTopology(params, seed));
}

}  // namespace diaca::data
