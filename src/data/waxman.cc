#include "data/waxman.h"

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

/// The topology's links in generation order: the main Waxman pass, then
/// the connectivity-repair links. O(n) working memory besides the list
/// (points + union-find).
std::vector<net::Graph::Edge> WaxmanEdges(const WaxmanParams& params,
                                          std::uint64_t seed) {
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

  std::vector<net::Graph::Edge> edges;
  DisjointSets components(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const double dist = Dist(points[u], points[v]);
      const double probability =
          params.alpha * std::exp(-dist / (params.beta * max_dist));
      if (rng.NextBernoulli(probability)) {
        edges.push_back({static_cast<net::NodeIndex>(u),
                         static_cast<net::NodeIndex>(v),
                         dist + params.hop_cost_ms});
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
    edges.push_back({static_cast<net::NodeIndex>(u),
                     static_cast<net::NodeIndex>(best),
                     best_dist + params.hop_cost_ms});
    components.Union(u, best);
  }
  return edges;
}

}  // namespace

net::Graph GenerateWaxmanTopology(const WaxmanParams& params,
                                  std::uint64_t seed) {
  return net::Graph(params.num_nodes, WaxmanEdges(params, seed));
}

net::LatencyMatrix GenerateWaxmanMatrix(const WaxmanParams& params,
                                        std::uint64_t seed) {
  return GenerateWaxmanTopology(params, seed).AllPairsShortestPaths();
}

}  // namespace diaca::data
