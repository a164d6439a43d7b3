#include "net/graph.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "net/dijkstra.h"
#include "obs/obs.h"

namespace diaca::net {

Graph::Graph(NodeIndex num_nodes) : n_(num_nodes) {
  DIACA_CHECK_MSG(num_nodes > 0, "graph must have at least one node");
  offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
}

Graph::Graph(NodeIndex num_nodes, std::span<const Edge> edges)
    : Graph(num_nodes) {
  // Counting pass: degrees, then prefix offsets, then each edge's two
  // arcs at their nodes' cursors in edge order — the arc order AddEdge
  // would have produced.
  for (const Edge& e : edges) {
    CheckEdge(e.u, e.v, e.length);
    ++offsets_[static_cast<std::size_t>(e.u) + 1];
    ++offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t u = 0; u < static_cast<std::size_t>(n_); ++u) {
    offsets_[u + 1] += offsets_[u];
  }
  targets_.resize(2 * edges.size());
  lengths_.resize(2 * edges.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges) {
    const std::size_t at_u = cursor[static_cast<std::size_t>(e.u)]++;
    targets_[at_u] = e.v;
    lengths_[at_u] = e.length;
    const std::size_t at_v = cursor[static_cast<std::size_t>(e.v)]++;
    targets_[at_v] = e.u;
    lengths_[at_v] = e.length;
  }
}

void Graph::CheckEdge(NodeIndex u, NodeIndex v, double length) const {
  DIACA_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  DIACA_CHECK_MSG(u != v, "self-loops are not allowed");
  DIACA_CHECK_MSG(std::isfinite(length) && length > 0.0,
                  "link length must be positive, got " << length);
}

void Graph::AddEdge(NodeIndex u, NodeIndex v, double length) {
  CheckEdge(u, v, length);
  // Append at the end of each endpoint's run and shift the later runs.
  for (const auto& [from, to] : {std::pair{u, v}, std::pair{v, u}}) {
    const auto at = static_cast<std::ptrdiff_t>(
        offsets_[static_cast<std::size_t>(from) + 1]);
    targets_.insert(targets_.begin() + at, to);
    lengths_.insert(lengths_.begin() + at, length);
    for (std::size_t w = static_cast<std::size_t>(from) + 1;
         w < offsets_.size(); ++w) {
      ++offsets_[w];
    }
  }
}

std::vector<double> Graph::ShortestPathsFrom(NodeIndex source) const {
  std::vector<double> dist(static_cast<std::size_t>(n_));
  DijkstraKernel(*this).Run(source, dist);
  return dist;
}

std::vector<double> Graph::CanonicalShortestPathsFrom(NodeIndex source) const {
  std::vector<double> dist(static_cast<std::size_t>(n_));
  DijkstraKernel(*this).RunCanonical(source, dist);
  return dist;
}

LatencyMatrix Graph::AllPairsShortestPaths() const {
  DIACA_OBS_SPAN("net.graph.apsp");
  LatencyMatrix out(n_);
  // One kernel run per source. Source u owns exactly the cells
  // {(u,v), (v,u) : v > u}, so chunks never collide, and each run is a
  // pure function of (graph, u), so the matrix is bit-identical at every
  // thread count and chunk grain. Each chunk owns its kernel scratch and
  // distance row; the grain > 1 amortizes their allocation over a run of
  // sources.
  constexpr std::int64_t kGrain = 16;
  GlobalPool().ParallelFor(0, n_, kGrain, [&](std::int64_t cb,
                                              std::int64_t ce) {
    DijkstraKernel kernel(*this);
    std::vector<double> dist(static_cast<std::size_t>(n_));
    for (std::int64_t ui = cb; ui < ce; ++ui) {
      const auto u = static_cast<NodeIndex>(ui);
      kernel.Run(u, dist);
      double* row_u = out.MutableRow(u);
      for (NodeIndex v = u + 1; v < n_; ++v) {
        const double d = dist[static_cast<std::size_t>(v)];
        if (d == kInfinity) {
          throw Error("graph is disconnected: no path " + std::to_string(u) +
                      " -> " + std::to_string(v));
        }
        row_u[v] = d;
        out.MutableRow(v)[u] = d;
      }
    }
  });
  return out;
}

bool Graph::IsConnected() const {
  const std::vector<double> dist = ShortestPathsFrom(0);
  for (double d : dist) {
    if (!std::isfinite(d)) return false;
  }
  return true;
}

}  // namespace diaca::net
