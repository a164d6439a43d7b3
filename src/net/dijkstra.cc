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
  Settle<false, false>(source, dist, nullptr, 0.0);
}

void DijkstraKernel::RunCanonical(NodeIndex source, std::span<double> dist) {
  parent_.resize(static_cast<std::size_t>(graph_.size()));
  arc_len_.resize(static_cast<std::size_t>(graph_.size()));
  Settle<true, false>(source, dist, nullptr, 0.0);
  // Canonical direction for v < source is v -> source: walk the tree
  // chain from v and accumulate left-to-right, reproducing the partial
  // sums a Dijkstra rooted at v computes along the same path.
  for (NodeIndex v = 0; v < source; ++v) {
    if (dist[v] == Graph::kInfinity) continue;  // unreachable
    dist[v] = ChainSum(v, source);
  }
}

std::size_t DijkstraKernel::RunBoundedCanonical(NodeIndex source,
                                                std::span<double> best) {
  const auto n = static_cast<std::size_t>(graph_.size());
  DIACA_CHECK(best.size() >= n);
  parent_.resize(n);
  arc_len_.resize(n);
  dist_.resize(n);
  settled_.clear();
  double largest = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (best[v] != Graph::kInfinity) largest = std::max(largest, best[v]);
  }
  // The slack. Write c for RunCanonical(source)'s row and M for
  // `largest`. Each of c[v], this run's tentative values and best[v] is a
  // floating-point sum of at most n - 1 positive link lengths along one
  // path; for paths no longer than about M it lies within about
  // n * 2^-53 * M of the path's real length, and each such path is within
  // the same margin of a shortest one.
  //  * Take v with c[v] < best[v] <= M, and w on v's shortest-path tree
  //    path. Were w's value at least best[w] + slack, some chosen center
  //    would reach w about `slack` sooner than the source does, and
  //    through w it would reach v about `slack` sooner too: best[v] would
  //    be below c[v] - slack + 6 * n * 2^-53 * M < c[v]. So every node on
  //    v's tree path passes the bound and settles with the full run's
  //    value and parent (the settle order is the same, and only
  //    relaxations that lose are dropped), and the re-sum below gives
  //    c[v] bit for bit.
  //  * If some node on v's tree path fails the bound, the same argument
  //    puts best[v] well below every path sum from the source to v, so
  //    nothing this run computes for v can lower best[v].
  // The entries the full row would lower thus get exactly its values, and
  // every other entry keeps its own. The slack scales with M, not with
  // best[v]: next to a chosen center best is about 0, yet the tree path
  // through it can be as long as M, and so can its rounding error. While
  // best is all +infinity the slack is 0 and the run builds the whole row.
  const double slack = 32.0 * static_cast<double>(n) * 0x1p-53 * largest;
  Settle<true, true>(source, dist_, best.data(), slack);
  for (const NodeIndex v : settled_) {
    const auto vi = static_cast<std::size_t>(v);
    const double d = v < source ? ChainSum(v, source) : dist_[vi];
    if (d < best[vi]) best[vi] = d;
  }
  return settled_.size();
}

double DijkstraKernel::ChainSum(NodeIndex v, NodeIndex source) const {
  double sum = 0.0;
  for (NodeIndex w = v; w != source; w = parent_[static_cast<std::size_t>(w)]) {
    sum += arc_len_[static_cast<std::size_t>(w)];
  }
  return sum;
}

template <bool kTree, bool kBounded>
void DijkstraKernel::Settle(NodeIndex source, std::span<double> out,
                            const double* best, double slack) {
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
    if constexpr (kBounded) settled_.push_back(top.node);
    const Graph::Arcs arcs = graph_.OutArcs(top.node);
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      const NodeIndex to = arcs.to[a];
      const double nd = top.dist + arcs.length[a];
      // A settled node never passes this test (nd >= top.dist >= its
      // distance), so a success either queues a new node or lowers a
      // queued one's key. A bounded run queues nothing that cannot
      // lower best[to].
      if (nd < dist[to] && (!kBounded || nd < best[to] + slack)) {
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
