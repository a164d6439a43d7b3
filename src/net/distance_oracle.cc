#include "net/distance_oracle.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "net/dijkstra.h"
#include "net/graph.h"
#include "net/vivaldi.h"
#include "obs/obs.h"

namespace diaca::net {

namespace {

using RowProvider = std::function<std::vector<double>(NodeIndex)>;

// Gonzalez's farthest-point order: node 0 first, then repeatedly the
// node farthest from those chosen (ties to the lowest id), k nodes in
// selection order. fold(c, to_set) lowers each to_set[v] to c's distance
// to v where that is smaller, so to_set holds every node's distance to
// the chosen set. Seed-free and thread-free: the order is a pure
// function of the distances.
template <class Fold>
std::vector<NodeIndex> FarthestPointOrder(NodeIndex n, std::int32_t k,
                                          const Fold& fold) {
  std::vector<NodeIndex> order;
  order.reserve(static_cast<std::size_t>(k));
  std::vector<double> to_set(static_cast<std::size_t>(n),
                             std::numeric_limits<double>::infinity());
  NodeIndex next = 0;
  for (std::int32_t i = 0; i < k; ++i) {
    order.push_back(next);
    fold(next, std::span<double>(to_set));
    // max_element returns the first of equal maxima: the lowest id.
    next = static_cast<NodeIndex>(
        std::max_element(to_set.begin(), to_set.end()) - to_set.begin());
  }
  return order;
}

void FoldMin(std::span<const double> row, std::span<double> to_set) {
  for (std::size_t v = 0; v < to_set.size(); ++v) {
    to_set[v] = std::min(to_set[v], row[v]);
  }
}

// Farthest-point pivots (landmark pivots, coords beacons, hub-label
// anchors) together with their rows, which the sketches keep.
void SelectFarthestPoints(NodeIndex n, std::int32_t k,
                          const RowProvider& row_of,
                          std::vector<NodeIndex>* pivots,
                          std::vector<std::vector<double>>* rows) {
  rows->clear();
  *pivots = FarthestPointOrder(
      n, k, [&](NodeIndex c, std::span<double> to_set) {
        rows->push_back(row_of(c));
        FoldMin(rows->back(), to_set);
      });
}

}  // namespace

const char* OracleBackendName(OracleBackend backend) {
  switch (backend) {
    case OracleBackend::kDense:
      return "dense";
    case OracleBackend::kRows:
      return "rows";
    case OracleBackend::kLandmarks:
      return "landmarks";
    case OracleBackend::kCoords:
      return "coords";
    case OracleBackend::kHubLabels:
      return "hublabels";
  }
  return "unknown";
}

OracleBackend ParseOracleBackend(const std::string& name) {
  if (name == "dense") return OracleBackend::kDense;
  if (name == "rows") return OracleBackend::kRows;
  if (name == "landmarks") return OracleBackend::kLandmarks;
  if (name == "coords") return OracleBackend::kCoords;
  if (name == "hublabels") return OracleBackend::kHubLabels;
  throw Error("unknown distance backend '" + name +
              "' (expected dense|rows|landmarks|coords|hublabels)");
}

OracleOptions ParseOracleSpec(const std::string& spec) {
  OracleOptions options;
  const std::size_t colon = spec.find(':');
  options.backend = ParseOracleBackend(spec.substr(0, colon));
  if (colon == std::string::npos) return options;
  const std::string args = spec.substr(colon + 1);
  // Each backend accepts only the keys it actually consumes: a key that
  // configures nothing ("rows:landmarks=32", "dense:seed=1") would
  // otherwise be swallowed silently and read like a working config.
  const char* valid = nullptr;
  switch (options.backend) {
    case OracleBackend::kDense:
    case OracleBackend::kRows:
      throw Error("oracle backend '" +
                  std::string(OracleBackendName(options.backend)) +
                  "' takes no options, got '" + args + "'");
    case OracleBackend::kLandmarks:
      valid = "landmarks|rsamples|rq|seed";
      break;
    case OracleBackend::kCoords:
      valid = "beacons|rounds|dims|seed";
      break;
    case OracleBackend::kHubLabels:
      valid = "k|rsamples|rq|seed";
      break;
  }
  if (args.empty()) {
    throw Error("oracle spec '" + spec +
                "' has a ':' but no key=val arguments");
  }
  std::size_t pos = 0;
  while (pos <= args.size()) {
    const std::size_t comma = args.find(',', pos);
    const std::string pair =
        args.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? args.size() + 1 : comma + 1;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      throw Error("malformed oracle option '" + pair +
                  "' (expected key=val) in spec '" + spec + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string val = pair.substr(eq + 1);
    // All of val as a decimal int64: no sign but '-', no spaces, no
    // wrap-around past 64 bits.
    std::int64_t num = 0;
    const char* end = val.data() + val.size();
    const auto [ptr, ec] = std::from_chars(val.data(), end, num);
    if (ec != std::errc{} || ptr != end) {
      throw Error("oracle option '" + key + "' needs an integer, got '" + val +
                  "'");
    }
    if (num <= 0) {
      throw Error("oracle option '" + key + "' must be positive, got '" + val +
                  "'");
    }
    if (("|" + std::string(valid) + "|").find("|" + key + "|") ==
        std::string::npos) {
      throw Error("oracle option '" + key + "' is not valid for backend '" +
                  OracleBackendName(options.backend) + "' (expected " +
                  valid + ")");
    }
    constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
    if (key != "seed" && num > kInt32Max) {
      throw Error("oracle option '" + key + "' must be at most " +
                  std::to_string(kInt32Max) + ", got '" + val + "'");
    }
    if (key == "landmarks") {
      options.num_landmarks = static_cast<std::int32_t>(num);
    } else if (key == "beacons") {
      options.coord_beacons = static_cast<std::int32_t>(num);
    } else if (key == "rounds") {
      options.coord_rounds = static_cast<std::int32_t>(num);
    } else if (key == "dims") {
      options.coord_dimensions = static_cast<std::int32_t>(num);
    } else if (key == "k") {
      options.hub_order_anchors = static_cast<std::int32_t>(num);
    } else if (key == "rsamples") {
      options.repair_samples = static_cast<std::int32_t>(num);
    } else if (key == "rq") {
      if (num > 1000) {
        throw Error("oracle option 'rq' is a permille quantile (1..1000), "
                    "got '" + val + "'");
      }
      options.repair_permille = static_cast<std::int32_t>(num);
    } else {
      options.seed = static_cast<std::uint64_t>(num);
    }
  }
  return options;
}

struct DistanceOracle::Impl {
  OracleBackend backend = OracleBackend::kDense;
  NodeIndex n = 0;
  OracleOptions options;

  // kDense.
  std::optional<LatencyMatrix> dense;

  // kRows: a copy of the graph (its flat adjacency) and one row slot per
  // source. A slot's canonical row is built on its first request, under
  // the slot's mutex, so two lanes asking at once build it once; it is
  // kept for the oracle's life and read without a lock once `ready` is
  // set. A build that throws (a disconnected graph) leaves the slot
  // empty, so the next request throws again.
  std::optional<Graph> graph;
  struct RowSlot {
    std::mutex mu;
    std::atomic<bool> ready{false};
    std::vector<double> row;
  };
  std::unique_ptr<RowSlot[]> slots;

  // kLandmarks / kCoords pivot and beacon ids; landmark_rows is k rows of
  // n doubles, row-major, only populated for kLandmarks.
  std::vector<NodeIndex> pivots;
  std::vector<std::vector<double>> landmark_rows;
  std::optional<VivaldiSystem> vivaldi;

  // kHubLabels: per-node label CSR, hubs in ascending hub-rank order
  // within each node's slice so a query is one sorted merge. Built once
  // by BuildHubLabels; immutable afterwards, so queries are lock-free.
  std::vector<std::int32_t> label_offsets;  // n + 1
  std::vector<std::int32_t> label_hubs;     // hub RANKS, ascending per node
  std::vector<double> label_dists;

  // Sandwich repair scales (landmarks / hublabels), calibrated by
  // CalibrateRepair. Exactly 1.0 on metric substrates, in which case
  // RepairBounds is the identity bit-for-bit.
  double repair_upper = 1.0;
  double repair_lower = 1.0;

  mutable std::atomic<std::int64_t> hits{0};
  mutable std::atomic<std::int64_t> misses{0};
  mutable std::atomic<std::int64_t> builds{0};

  std::vector<double> BuildRow(NodeIndex u) const {
    builds.fetch_add(1, std::memory_order_relaxed);
    DIACA_OBS_COUNT("net.oracle.row_builds", 1);
    std::vector<double> row = graph->CanonicalShortestPathsFrom(u);
    for (NodeIndex v = 0; v < n; ++v) {
      if (!std::isfinite(row[static_cast<std::size_t>(v)])) {
        throw Error("graph is disconnected: no path " + std::to_string(u) +
                    " -> " + std::to_string(v));
      }
    }
    return row;
  }

  bool RowReady(NodeIndex u) const {
    return slots[static_cast<std::size_t>(u)].ready.load();
  }

  // Row u, built on its first request and kept. A request that builds
  // the row counts a miss, every other request a hit.
  const std::vector<double>& Row(NodeIndex u) const {
    RowSlot& slot = slots[static_cast<std::size_t>(u)];
    if (!slot.ready.load()) {
      std::lock_guard<std::mutex> lock(slot.mu);
      if (!slot.ready.load()) {
        misses.fetch_add(1, std::memory_order_relaxed);
        DIACA_OBS_COUNT("net.oracle.cache_misses", 1);
        slot.row = BuildRow(u);
        slot.ready.store(true);
        return slot.row;
      }
    }
    hits.fetch_add(1, std::memory_order_relaxed);
    DIACA_OBS_COUNT("net.oracle.cache_hits", 1);
    return slot.row;
  }

  double RowsDistance(NodeIndex u, NodeIndex v) const {
    // Read whichever endpoint's row is built (rows are canonical, so
    // row_u[v] == row_v[u] bit for bit); build u's when neither is.
    if (!RowReady(u) && RowReady(v)) {
      return Row(v)[static_cast<std::size_t>(u)];
    }
    return Row(u)[static_cast<std::size_t>(v)];
  }

  DistanceOracle::Bounds LandmarkBounds(NodeIndex u, NodeIndex v) const {
    if (u == v) return {0.0, 0.0};
    double upper = std::numeric_limits<double>::infinity();
    double lower = 0.0;
    for (std::size_t i = 0; i < pivots.size(); ++i) {
      const std::vector<double>& row = landmark_rows[i];
      const double du = row[static_cast<std::size_t>(u)];
      const double dv = row[static_cast<std::size_t>(v)];
      // A pivot at an endpoint pins the sandwich to the exact distance
      // (du or dv is 0, so upper == lower == the row value).
      upper = std::min(upper, du + dv);
      lower = std::max(lower, std::abs(du - dv));
    }
    return {lower, upper};
  }

  // Label-path distance: min over common hubs of the two half sums.
  // Both label slices are sorted by hub rank, so the intersection is one
  // linear merge; completeness of pruned labeling guarantees the true
  // shortest path's maximal-rank hub is a common label on connected
  // graphs, so the minimum IS the shortest-path distance (up to the
  // half-sum association).
  double HubLabelQuery(NodeIndex u, NodeIndex v) const {
    const auto ub = static_cast<std::size_t>(label_offsets[u]);
    const auto ue = static_cast<std::size_t>(label_offsets[u + 1]);
    const auto vb = static_cast<std::size_t>(label_offsets[v]);
    const auto ve = static_cast<std::size_t>(label_offsets[v + 1]);
    double best = std::numeric_limits<double>::infinity();
    std::size_t i = ub, j = vb;
    while (i < ue && j < ve) {
      const std::int32_t hu = label_hubs[i];
      const std::int32_t hv = label_hubs[j];
      if (hu == hv) {
        best = std::min(best, label_dists[i] + label_dists[j]);
        ++i;
        ++j;
      } else if (hu < hv) {
        ++i;
      } else {
        ++j;
      }
    }
    return best;
  }

  // Pruned landmark labeling (2-hop hub labels). Hubs are processed in a
  // centrality order (sum of distances to hub_order_anchors farthest-
  // point anchor rows, ascending, ties to the lower node id): central
  // nodes cover many shortest paths, so early hubs prune most of the
  // later Dijkstras and labels stay small. For each hub in rank order, a
  // Dijkstra settles nodes; a node whose current-label query already
  // explains the tentative distance (query <= d) is pruned — neither
  // labeled nor relaxed. Every step is deterministic (heap keyed by
  // (distance, node)), so the labeling is a pure function of the graph
  // and the anchor count.
  void BuildHubLabels(const Graph& graph, const RowProvider& row_of) {
    const std::int32_t k = std::min<std::int32_t>(
        std::max<std::int32_t>(options.hub_order_anchors, 1), n);
    std::vector<NodeIndex> anchors;
    std::vector<std::vector<double>> anchor_rows;
    SelectFarthestPoints(n, k, row_of, &anchors, &anchor_rows);
    std::vector<double> score(static_cast<std::size_t>(n), 0.0);
    for (const auto& row : anchor_rows) {
      for (NodeIndex v = 0; v < n; ++v) {
        score[static_cast<std::size_t>(v)] += row[static_cast<std::size_t>(v)];
      }
    }
    std::vector<NodeIndex> order(static_cast<std::size_t>(n));
    for (NodeIndex v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
    std::sort(order.begin(), order.end(), [&](NodeIndex x, NodeIndex y) {
      const double sx = score[static_cast<std::size_t>(x)];
      const double sy = score[static_cast<std::size_t>(y)];
      return sx != sy ? sx < sy : x < y;
    });

    std::vector<std::vector<std::pair<std::int32_t, double>>> labels(
        static_cast<std::size_t>(n));
    std::vector<double> dist(static_cast<std::size_t>(n),
                             std::numeric_limits<double>::infinity());
    std::vector<NodeIndex> touched;
    using HeapEntry = std::pair<double, NodeIndex>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap;
    for (std::int32_t rank = 0; rank < n; ++rank) {
      const NodeIndex hub = order[static_cast<std::size_t>(rank)];
      dist[static_cast<std::size_t>(hub)] = 0.0;
      touched.push_back(hub);
      heap.emplace(0.0, hub);
      while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
        // Prune: if the labels built so far already prove
        // d(hub, u) <= d, this subtree is covered by earlier (more
        // central) hubs. Processed hubs' own slices carry their rank
        // with distance 0, so the query sees hub's side too.
        if (HubCoverQuery(labels, hub, u) <= d) continue;
        labels[static_cast<std::size_t>(u)].emplace_back(rank, d);
        const Graph::Arcs arcs = graph.OutArcs(u);
        for (std::size_t a = 0; a < arcs.size(); ++a) {
          const double nd = d + arcs.length[a];
          auto& dv = dist[static_cast<std::size_t>(arcs.to[a])];
          if (nd < dv) {
            if (!std::isfinite(dv)) touched.push_back(arcs.to[a]);
            dv = nd;
            heap.emplace(nd, arcs.to[a]);
          }
        }
      }
      for (const NodeIndex v : touched) {
        dist[static_cast<std::size_t>(v)] =
            std::numeric_limits<double>::infinity();
      }
      touched.clear();
    }

    std::size_t total = 0;
    for (const auto& l : labels) total += l.size();
    label_offsets.resize(static_cast<std::size_t>(n) + 1);
    label_hubs.reserve(total);
    label_dists.reserve(total);
    label_offsets[0] = 0;
    for (NodeIndex v = 0; v < n; ++v) {
      for (const auto& [rank, d] : labels[static_cast<std::size_t>(v)]) {
        label_hubs.push_back(rank);
        label_dists.push_back(d);
      }
      label_offsets[static_cast<std::size_t>(v) + 1] =
          static_cast<std::int32_t>(label_hubs.size());
    }
  }

  // HubLabelQuery against the under-construction label lists (the CSR
  // does not exist yet during the labeling sweep).
  static double HubCoverQuery(
      const std::vector<std::vector<std::pair<std::int32_t, double>>>& labels,
      NodeIndex u, NodeIndex v) {
    const auto& lu = labels[static_cast<std::size_t>(u)];
    const auto& lv = labels[static_cast<std::size_t>(v)];
    double best = std::numeric_limits<double>::infinity();
    std::size_t i = 0, j = 0;
    while (i < lu.size() && j < lv.size()) {
      if (lu[i].first == lv[j].first) {
        best = std::min(best, lu[i].second + lv[j].second);
        ++i;
        ++j;
      } else if (lu[i].first < lv[j].first) {
        ++i;
      } else {
        ++j;
      }
    }
    return best;
  }

  // Raw sketch sandwich before repair.
  DistanceOracle::Bounds RawBounds(NodeIndex u, NodeIndex v) const {
    if (backend == OracleBackend::kHubLabels) {
      const double d = HubLabelQuery(u, v);
      return {d, d};
    }
    return LandmarkBounds(u, v);
  }

  // Calibrate the sandwich-repair scales from sampled probes against
  // exact rows. Probe pairs follow a deterministic seeded schedule:
  // min(16, n) source nodes, repair_samples (source, target) probes. For
  // each probe with exact distance d, a sound sandwich needs
  // upper * s_up >= d and lower / s_lo <= d; the per-probe requirement
  // ratios d/upper and lower/d are collected and the repair_permille
  // quantile of each becomes the scale (clamped to >= 1). Metric
  // substrates only produce ratios above 1 through floating-point
  // association noise (|d(u,L)-d(L,v)| or d(u,L)+d(L,v) can drift from
  // the canonical Dijkstra value by ulps), while genuine triangle
  // violations in measured matrices are percent-level; scales within
  // 1e-9 of 1 are therefore snapped to exactly 1.0 so RepairBounds
  // degenerates to the bit-for-bit identity on metric inputs.
  void CalibrateRepair(const RowProvider& row_of) {
    if (n < 2) return;
    const auto num_sources =
        static_cast<std::size_t>(std::min<NodeIndex>(16, n));
    Rng rng(options.seed ^ 0xc2b2ae3d27d4eb4full);
    std::vector<NodeIndex> sources;
    while (sources.size() < num_sources) {
      const auto u = static_cast<NodeIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      if (std::find(sources.begin(), sources.end(), u) == sources.end()) {
        sources.push_back(u);
      }
    }
    std::vector<std::vector<double>> rows;
    rows.reserve(num_sources);
    for (const NodeIndex u : sources) rows.push_back(row_of(u));
    const std::int32_t samples =
        std::max<std::int32_t>(options.repair_samples, 1);
    std::vector<double> up_ratio;
    std::vector<double> lo_ratio;
    up_ratio.reserve(static_cast<std::size_t>(samples));
    lo_ratio.reserve(static_cast<std::size_t>(samples));
    for (std::int32_t i = 0; i < samples; ++i) {
      const std::size_t si =
          static_cast<std::size_t>(i) % num_sources;
      const NodeIndex u = sources[si];
      const auto v = static_cast<NodeIndex>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      if (v == u) continue;
      const double d = rows[si][static_cast<std::size_t>(v)];
      const DistanceOracle::Bounds raw = RawBounds(u, v);
      if (d > 0.0 && raw.upper > 0.0 &&
          std::isfinite(d) && std::isfinite(raw.upper)) {
        up_ratio.push_back(d / raw.upper);
        lo_ratio.push_back(raw.lower / d);
      }
    }
    const auto quantile = [&](std::vector<double>& r) {
      if (r.empty()) return 1.0;
      std::sort(r.begin(), r.end());
      const std::int32_t q =
          std::clamp<std::int32_t>(options.repair_permille, 1, 1000);
      const auto idx = std::min<std::size_t>(
          r.size() - 1,
          static_cast<std::size_t>(
              (static_cast<std::int64_t>(q) *
                   static_cast<std::int64_t>(r.size()) +
               999) /
                  1000 -
              1));
      const double scale = std::max(1.0, r[idx]);
      return scale <= 1.0 + 1e-9 ? 1.0 : scale;
    };
    repair_upper = quantile(up_ratio);
    repair_lower = quantile(lo_ratio);
  }

  // Inflate a raw sandwich by the calibrated scales, rounding outward by
  // one ulp on each touched side. When both scales are exactly 1.0 (the
  // metric case) the raw sandwich is returned untouched, keeping every
  // historical bit pattern.
  DistanceOracle::Bounds RepairBounds(DistanceOracle::Bounds raw) const {
    if (repair_upper == 1.0 && repair_lower == 1.0) return raw;
    const double upper = std::nextafter(
        raw.upper * repair_upper, std::numeric_limits<double>::infinity());
    double lower = std::max(
        0.0, std::nextafter(raw.lower / repair_lower,
                            -std::numeric_limits<double>::infinity()));
    lower = std::min(lower, upper);
    return {lower, upper};
  }

  // Shared sketch construction over any exact row source; `row_of` must
  // return canonical rows (matrix rows or canonical Dijkstra rows).
  void BuildSketch(const RowProvider& row_of);
};

DistanceOracle::DistanceOracle(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
DistanceOracle::~DistanceOracle() = default;
DistanceOracle::DistanceOracle(DistanceOracle&&) noexcept = default;
DistanceOracle& DistanceOracle::operator=(DistanceOracle&&) noexcept = default;

void DistanceOracle::Impl::BuildSketch(const RowProvider& row_of) {
  Impl& impl = *this;
  const OracleOptions& opt = impl.options;
  if (impl.backend == OracleBackend::kLandmarks) {
    const std::int32_t k =
        std::min<std::int32_t>(std::max<std::int32_t>(opt.num_landmarks, 1),
                               impl.n);
    SelectFarthestPoints(impl.n, k, row_of, &impl.pivots, &impl.landmark_rows);
    // Triangle-inequality violations in measured matrices silently break
    // the raw sandwich (meridian: ~95% of pairs); calibrate the repair
    // scales against exact rows. Metric inputs calibrate to 1.0/1.0.
    impl.CalibrateRepair(row_of);
    return;
  }
  DIACA_CHECK(impl.backend == OracleBackend::kCoords);
  const std::int32_t b = std::min<std::int32_t>(
      std::max<std::int32_t>(opt.coord_beacons, 1), impl.n - 1);
  std::vector<std::vector<double>> beacon_rows;
  SelectFarthestPoints(impl.n, b, row_of, &impl.pivots, &beacon_rows);
  VivaldiParams params;
  params.dimensions = opt.coord_dimensions;
  impl.vivaldi.emplace(impl.n, params, opt.seed);
  // Beacon-driven fit: each round, every node observes its latency to one
  // deterministic-pseudorandom beacon (real coordinate systems measure
  // against a beacon set exactly like this). The schedule depends only on
  // (seed, rounds, beacons, n), never on thread count.
  Rng rng(opt.seed ^ 0x9e3779b97f4a7c15ull);
  const std::int32_t rounds = std::max<std::int32_t>(opt.coord_rounds, 1);
  for (std::int32_t round = 0; round < rounds; ++round) {
    for (NodeIndex u = 0; u < impl.n; ++u) {
      const auto j = static_cast<std::size_t>(
          rng.NextBounded(static_cast<std::uint64_t>(b)));
      const NodeIndex beacon = impl.pivots[j];
      if (beacon == u) continue;
      const double d = beacon_rows[j][static_cast<std::size_t>(u)];
      if (d > 0.0) impl.vivaldi->Observe(u, beacon, d);
    }
  }
  // Beacon rows are fit scaffolding only; the retained state is O(n * d).
}

DistanceOracle DistanceOracle::FromMatrix(LatencyMatrix matrix) {
  auto impl = std::make_unique<Impl>();
  impl->backend = OracleBackend::kDense;
  impl->n = matrix.size();
  impl->options.backend = OracleBackend::kDense;
  impl->dense.emplace(std::move(matrix));
  return DistanceOracle(std::move(impl));
}

DistanceOracle DistanceOracle::FromMatrix(const LatencyMatrix& matrix,
                                          const OracleOptions& options) {
  if (options.backend == OracleBackend::kDense) return FromMatrix(matrix);
  DIACA_CHECK_MSG(options.backend != OracleBackend::kRows,
                  "the rows backend needs a sparse graph; construct it "
                  "with DistanceOracle::FromGraph");
  DIACA_CHECK_MSG(options.backend != OracleBackend::kHubLabels,
                  "the hublabels backend needs a sparse graph; construct "
                  "it with DistanceOracle::FromGraph");
  auto impl = std::make_unique<Impl>();
  impl->backend = options.backend;
  impl->n = matrix.size();
  impl->options = options;
  const RowProvider row_of = [&matrix](NodeIndex u) {
    const double* row = matrix.Row(u);
    return std::vector<double>(row, row + matrix.size());
  };
  impl->BuildSketch(row_of);
  return DistanceOracle(std::move(impl));
}

DistanceOracle DistanceOracle::FromGraph(const Graph& graph,
                                         const OracleOptions& options) {
  if (options.backend == OracleBackend::kDense) {
    return FromMatrix(graph.AllPairsShortestPaths());
  }
  auto impl = std::make_unique<Impl>();
  impl->backend = options.backend;
  impl->n = graph.size();
  impl->options = options;
  if (options.backend == OracleBackend::kRows) {
    impl->graph.emplace(graph);
    impl->slots = std::make_unique<Impl::RowSlot[]>(
        static_cast<std::size_t>(impl->n));
    return DistanceOracle(std::move(impl));
  }
  const RowProvider row_of = [&graph](NodeIndex u) {
    std::vector<double> row = graph.CanonicalShortestPathsFrom(u);
    for (double d : row) {
      if (!std::isfinite(d)) {
        throw Error("graph is disconnected: no path from " +
                    std::to_string(u));
      }
    }
    return row;
  };
  if (options.backend == OracleBackend::kHubLabels) {
    impl->BuildHubLabels(graph, row_of);
    impl->CalibrateRepair(row_of);
    return DistanceOracle(std::move(impl));
  }
  impl->BuildSketch(row_of);
  return DistanceOracle(std::move(impl));
}

NodeIndex DistanceOracle::size() const { return impl_->n; }

OracleBackend DistanceOracle::backend() const { return impl_->backend; }

bool DistanceOracle::exact() const {
  return impl_->backend == OracleBackend::kDense ||
         impl_->backend == OracleBackend::kRows;
}

double DistanceOracle::Distance(NodeIndex u, NodeIndex v) const {
  DIACA_CHECK(u >= 0 && u < impl_->n && v >= 0 && v < impl_->n);
  if (u == v) return 0.0;
  switch (impl_->backend) {
    case OracleBackend::kDense:
      return (*impl_->dense)(u, v);
    case OracleBackend::kRows:
      return impl_->RowsDistance(u, v);
    case OracleBackend::kLandmarks:
      return impl_->LandmarkBounds(u, v).upper;
    case OracleBackend::kCoords:
      return impl_->vivaldi->Predict(u, v);
    case OracleBackend::kHubLabels:
      return impl_->HubLabelQuery(u, v);
  }
  return 0.0;
}

void DistanceOracle::FillRow(NodeIndex u, std::span<double> out) const {
  DIACA_CHECK(u >= 0 && u < impl_->n);
  DIACA_CHECK_MSG(out.size() >= static_cast<std::size_t>(impl_->n),
                  "FillRow needs room for " << impl_->n << " distances");
  switch (impl_->backend) {
    case OracleBackend::kDense: {
      const double* row = impl_->dense->Row(u);
      std::copy(row, row + impl_->n, out.begin());
      return;
    }
    case OracleBackend::kRows: {
      const std::vector<double>& row = impl_->Row(u);
      std::copy(row.begin(), row.end(), out.begin());
      return;
    }
    case OracleBackend::kLandmarks: {
      for (NodeIndex v = 0; v < impl_->n; ++v) {
        out[static_cast<std::size_t>(v)] =
            v == u ? 0.0 : impl_->LandmarkBounds(u, v).upper;
      }
      return;
    }
    case OracleBackend::kCoords: {
      for (NodeIndex v = 0; v < impl_->n; ++v) {
        out[static_cast<std::size_t>(v)] =
            v == u ? 0.0 : impl_->vivaldi->Predict(u, v);
      }
      return;
    }
    case OracleBackend::kHubLabels: {
      for (NodeIndex v = 0; v < impl_->n; ++v) {
        out[static_cast<std::size_t>(v)] =
            v == u ? 0.0 : impl_->HubLabelQuery(u, v);
      }
      return;
    }
  }
}

std::vector<NodeIndex> DistanceOracle::FarthestPoints(std::int32_t k) const {
  const NodeIndex n = impl_->n;
  DIACA_CHECK_MSG(k >= 1 && k <= n,
                  "farthest-point count " << k << " out of range for " << n
                                          << " nodes");
  DIACA_OBS_SPAN("net.oracle.farthest_points");
  if (impl_->backend != OracleBackend::kRows) {
    // The other backends keep no graph to sweep, and sketch estimates
    // are no shortest-path metric, so nothing may be pruned: fold every
    // chosen node's whole row.
    std::vector<double> row(static_cast<std::size_t>(n));
    return FarthestPointOrder(n, k,
                              [&](NodeIndex c, std::span<double> to_set) {
                                FillRow(c, row);
                                FoldMin(row, to_set);
                              });
  }
  // The rows backend folds each chosen node with a bounded canonical run,
  // which lowers to_set exactly as the node's row would: to_set starts at
  // +infinity and only ever holds minima of canonical rows, the run's
  // precondition. No row is stored. The first fold, from node 0, reaches
  // every node of a connected graph.
  DijkstraKernel kernel(*impl_->graph);
  std::int64_t settled = 0;
  bool first = true;
  std::vector<NodeIndex> order = FarthestPointOrder(
      n, k, [&](NodeIndex c, std::span<double> to_set) {
        settled += static_cast<std::int64_t>(
            kernel.RunBoundedCanonical(c, to_set));
        if (!std::exchange(first, false)) return;
        const auto hole =
            std::find(to_set.begin(), to_set.end(), Graph::kInfinity);
        if (hole != to_set.end()) {
          throw Error("graph is disconnected: no path " + std::to_string(c) +
                      " -> " + std::to_string(hole - to_set.begin()));
        }
      });
  DIACA_OBS_COUNT("net.oracle.sweep_settled", settled);
  return order;
}

DistanceOracle::Bounds DistanceOracle::DistanceBounds(NodeIndex u,
                                                      NodeIndex v) const {
  DIACA_CHECK(u >= 0 && u < impl_->n && v >= 0 && v < impl_->n);
  if (u == v) return {0.0, 0.0};
  switch (impl_->backend) {
    case OracleBackend::kDense:
    case OracleBackend::kRows: {
      const double d = Distance(u, v);
      return {d, d};
    }
    case OracleBackend::kLandmarks:
      return impl_->RepairBounds(impl_->LandmarkBounds(u, v));
    case OracleBackend::kCoords: {
      // No certificate — the point estimate on both sides; the error
      // envelope is measured per substrate (bench_oracle).
      const double d = impl_->vivaldi->Predict(u, v);
      return {d, d};
    }
    case OracleBackend::kHubLabels:
      return impl_->RepairBounds(impl_->RawBounds(u, v));
  }
  return {0.0, 0.0};
}

DistanceOracle::Bounds DistanceOracle::RawDistanceBounds(NodeIndex u,
                                                         NodeIndex v) const {
  DIACA_CHECK(u >= 0 && u < impl_->n && v >= 0 && v < impl_->n);
  if (u == v) return {0.0, 0.0};
  switch (impl_->backend) {
    case OracleBackend::kLandmarks:
      return impl_->LandmarkBounds(u, v);
    case OracleBackend::kHubLabels:
      return impl_->RawBounds(u, v);
    default:
      return DistanceBounds(u, v);
  }
}

std::span<const NodeIndex> DistanceOracle::landmarks() const {
  return impl_->pivots;
}

const LatencyMatrix* DistanceOracle::dense_matrix() const {
  return impl_->dense.has_value() ? &*impl_->dense : nullptr;
}

OracleStats DistanceOracle::stats() const {
  OracleStats s;
  s.row_cache_hits = impl_->hits.load(std::memory_order_relaxed);
  s.row_cache_misses = impl_->misses.load(std::memory_order_relaxed);
  s.row_builds = impl_->builds.load(std::memory_order_relaxed);
  s.repair_upper_scale = impl_->repair_upper;
  s.repair_lower_scale = impl_->repair_lower;
  s.hub_label_entries = static_cast<std::int64_t>(impl_->label_hubs.size());
  return s;
}

}  // namespace diaca::net
