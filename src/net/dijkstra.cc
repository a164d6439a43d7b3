#include "net/dijkstra.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/obs.h"

namespace diaca::net {

namespace {

constexpr std::size_t kArity = 4;
// The sentinel's node: it orders after every real entry of equal distance.
constexpr NodeIndex kNoNode = std::numeric_limits<NodeIndex>::max();

// Lexicographic (distance, node). Queued nodes are distinct, so this is a
// strict total order on the frontier and the pop order is unique.
template <class Entry>
bool Before(const Entry& a, const Entry& b) {
  return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
}

}  // namespace

DijkstraKernel::DijkstraKernel(const Graph& graph)
    : graph_(graph),
      heap_(static_cast<std::size_t>(graph.size()) + kArity - 1,
            Entry{Graph::kInfinity, kNoNode}),
      slot_(static_cast<std::size_t>(graph.size())) {}

void DijkstraKernel::Run(NodeIndex source, std::span<double> dist) {
  Settle<false>(source, dist);
}

void DijkstraKernel::RunCanonical(NodeIndex source, std::span<double> dist) {
  if (parent_.empty()) {
    parent_.resize(static_cast<std::size_t>(graph_.size()));
    arc_len_.resize(static_cast<std::size_t>(graph_.size()));
  }
  Settle<true>(source, dist);
  // Canonical direction for v < source is v -> source: walk the tree
  // chain from v and accumulate left-to-right, reproducing the partial
  // sums a Dijkstra rooted at v computes along the same path.
  for (NodeIndex v = 0; v < source; ++v) {
    if (dist[v] == Graph::kInfinity) continue;  // unreachable
    double sum = 0.0;
    for (NodeIndex w = v; w != source;
         w = parent_[static_cast<std::size_t>(w)]) {
      sum += arc_len_[static_cast<std::size_t>(w)];
    }
    dist[v] = sum;
  }
}

template <bool kTree>
void DijkstraKernel::Settle(NodeIndex source, std::span<double> out) {
  DIACA_CHECK(source >= 0 && source < graph_.size());
  DIACA_CHECK(out.size() >= static_cast<std::size_t>(graph_.size()));
  DIACA_OBS_COUNT("net.graph.dijkstra_runs", 1);
  double* dist = out.data();
  std::fill(dist, dist + graph_.size(), Graph::kInfinity);
  dist[source] = 0.0;
  SiftUp(size_++, {0.0, source});
  while (size_ > 0) {
    const Entry top = heap_[0];
    const Entry last = heap_[--size_];
    heap_[size_] = Entry{Graph::kInfinity, kNoNode};
    if (size_ > 0) SiftDown(0, last);
    const Graph::Arcs arcs = graph_.OutArcs(top.node);
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      const NodeIndex to = arcs.to[a];
      const double nd = top.dist + arcs.length[a];
      // A settled node never passes this test (nd >= top.dist >= its
      // distance), so a success either queues a new node or lowers a
      // queued one's key.
      if (nd < dist[to]) {
        const bool queued = dist[to] != Graph::kInfinity;
        dist[to] = nd;
        if constexpr (kTree) {
          parent_[static_cast<std::size_t>(to)] = top.node;
          arc_len_[static_cast<std::size_t>(to)] = arcs.length[a];
        }
        SiftUp(queued ? static_cast<std::size_t>(
                            slot_[static_cast<std::size_t>(to)])
                      : size_++,
               {nd, to});
      }
    }
  }
}

void DijkstraKernel::SiftUp(std::size_t i, Entry e) {
  while (i > 0) {
    const std::size_t p = (i - 1) / kArity;
    if (!Before(e, heap_[p])) break;
    heap_[i] = heap_[p];
    slot_[static_cast<std::size_t>(heap_[i].node)] =
        static_cast<std::int32_t>(i);
    i = p;
  }
  heap_[i] = e;
  slot_[static_cast<std::size_t>(e.node)] = static_cast<std::int32_t>(i);
}

void DijkstraKernel::SiftDown(std::size_t i, Entry e) {
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= size_) break;
    // Slots past size_ hold the sentinel, which never wins.
    std::size_t best = first;
    for (std::size_t c = first + 1; c < first + kArity; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    slot_[static_cast<std::size_t>(heap_[i].node)] =
        static_cast<std::int32_t>(i);
    i = best;
  }
  heap_[i] = e;
  slot_[static_cast<std::size_t>(e.node)] = static_cast<std::int32_t>(i);
}

}  // namespace diaca::net
