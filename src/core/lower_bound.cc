#include "core/lower_bound.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

// Row of client c: the resident row when materialized, else filled into
// `scratch` through the view.
const double* RowOf(const ClientBlockView& view, ClientIndex c,
                    std::vector<double>& scratch) {
  if (const double* raw = view.raw_block()) {
    return raw + static_cast<std::size_t>(c) * view.server_stride();
  }
  scratch.resize(view.server_stride());
  view.FillRow(c, scratch.data());
  return scratch.data();
}

// The pairwise bound as one certified filter-and-refine pass, the same
// on every client-block view.
//
// Refine: pair (c, c2), c <= c2, reduces m row c against block row c2,
//   best(c, c2) = min_{s'} fl(m[c][s'] + d(c2, s')),
//   m[c][s']    = min_s fl(d(c, s) + d(s, s')),
// and LB is the max over pairs, witnessed by the lexicographically
// smallest pair attaining it. The orientation is fixed: the transposed
// sum can differ in the last ulp, so it is never evaluated.
//
// Filter: d(s, s) = 0 and latencies are non-negative, so m[c][near(c)]
// equals d(c, near(c)) bit for bit and is the minimum of row c. Hence
//   best(c, c2) <= fl(d(c, near(c)) + d(c2, near(c)))        (one lane)
//               <= fl(d(c, near(c)) + col_max(near(c)))      (whole row)
// with zero slack. Rows and pairs are skipped only on a STRICT loss to
// an incumbent that refined values alone raise, so every pair attaining
// the max is refined and the value and witness are bit-identical at any
// pruning rate and thread count. The incumbent is shared across pool
// lanes as a pruning hint only; each chunk keeps its own best pair.
LowerBoundDetail ComputePairwise(const Problem& problem) {
  DIACA_OBS_SPAN("core.lower_bound.pairwise");
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  const auto sc = static_cast<std::size_t>(num_clients);
  const auto ss = static_cast<std::size_t>(num_servers);
  const std::size_t stride = problem.server_stride();
  const ClientBlockView& view = problem.client_block();

  std::vector<ServerIndex> near(sc);
  std::vector<double> near_dist(sc);
  view.FillNearest(near.data(), near_dist.data());
  std::vector<double> col_max(ss);
  view.FillColumnMax(col_max.data());
  std::vector<double> row_bound(sc);
  for (std::size_t c = 0; c < sc; ++c) {
    row_bound[c] = near_dist[c] + col_max[static_cast<std::size_t>(near[c])];
  }

  constexpr std::int64_t kRowsPerChunk = 64;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::int64_t chunks =
      (num_clients + kRowsPerChunk - 1) / kRowsPerChunk;
  std::vector<LowerBoundDetail> chunk_best(static_cast<std::size_t>(chunks),
                                           LowerBoundDetail{-kInf, 0, 0});
  std::atomic<double> incumbent{0.0};
  GlobalPool().ParallelFor(0, num_clients, kRowsPerChunk, [&](std::int64_t cb,
                                                              std::int64_t ce) {
    LowerBoundDetail& best =
        chunk_best[static_cast<std::size_t>(cb / kRowsPerChunk)];
    // The m row keeps its +infinity pad lanes: the kernels run over the
    // |S| valid lanes only, and a relaxed pad lane could win the reduce.
    std::vector<double> m_row(stride, kInf);
    std::vector<double> row_c, row_c2;  // lazy views fill rows here
    std::int64_t rows_refined = 0;
    std::int64_t pairs_refined = 0;
    for (auto c = static_cast<ClientIndex>(cb); c < ce; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      double bar = incumbent.load();
      if (row_bound[ci] < bar) continue;
      const ServerIndex s0 = near[ci];
      bool built = false;
      for (ClientIndex c2 = c; c2 < num_clients; ++c2) {
        if (near_dist[ci] + view.cs(c2, s0) < bar) continue;
        if (!built) {
          const double* cs_row = RowOf(view, c, row_c);
          std::fill_n(m_row.begin(), ss, kInf);
          for (ServerIndex s = 0; s < num_servers; ++s) {
            simd::MinPlusAccumulate(m_row.data(), problem.ss_row(s),
                                    cs_row[s], ss);
          }
          built = true;
          ++rows_refined;
        }
        const double value =
            simd::MinPlusReduce(m_row.data(), RowOf(view, c2, row_c2), ss);
        ++pairs_refined;
        // Pairs arrive in lexicographic order within the chunk, so the
        // strict `>` keeps the smallest pair attaining the chunk's max.
        if (value > best.value) best = LowerBoundDetail{value, c, c2};
        double seen = incumbent.load();
        while (value > seen &&
               !incumbent.compare_exchange_weak(seen, value)) {
        }
        bar = std::max(seen, value);
      }
    }
    DIACA_OBS_COUNT("core.lower_bound.rows_refined", rows_refined);
    DIACA_OBS_COUNT("core.lower_bound.pairs_refined", pairs_refined);
  });

  // Chunks cover ascending client ranges, so merging in chunk order with
  // a strict `>` reproduces the serial c-major scan's witness.
  LowerBoundDetail detail;
  for (const LowerBoundDetail& best : chunk_best) {
    if (best.value > detail.value) detail = best;
  }
  return detail;
}

/// min over (sa,sb,sc) of the worst interaction path within the triple,
/// with `incumbent` for pruning (returns incumbent if no better).
double TripleBound(const Problem& problem, ClientIndex a, ClientIndex b,
                   ClientIndex c, double stop_above) {
  const std::int32_t num_servers = problem.num_servers();
  const ClientBlockView& view = problem.client_block();
  std::vector<double> scratch_a, scratch_b, scratch_c;
  const double* da = RowOf(view, a, scratch_a);
  const double* db = RowOf(view, b, scratch_b);
  const double* dc = RowOf(view, c, scratch_c);
  double best = std::numeric_limits<double>::infinity();
  for (ServerIndex sa = 0; sa < num_servers; ++sa) {
    if (2.0 * da[sa] >= best) continue;
    const double* row_a = problem.ss_row(sa);
    for (ServerIndex sb = 0; sb < num_servers; ++sb) {
      const double ab = da[sa] + row_a[sb] + db[sb];
      const double partial = std::max({ab, 2.0 * da[sa], 2.0 * db[sb]});
      if (partial >= best) continue;
      const double* row_b = problem.ss_row(sb);
      for (ServerIndex sc = 0; sc < num_servers; ++sc) {
        const double ac = da[sa] + row_a[sc] + dc[sc];
        const double bc = db[sb] + row_b[sc] + dc[sc];
        const double worst = std::max({partial, ac, bc, 2.0 * dc[sc]});
        if (worst < best) {
          best = worst;
          // The bound only needs to beat stop_above; once it cannot,
          // further precision is wasted.
          if (best <= stop_above) return best;
        }
      }
    }
  }
  return best;
}

}  // namespace

LowerBoundDetail InteractivityLowerBoundDetailed(const Problem& problem) {
  return ComputePairwise(problem);
}

double InteractivityLowerBound(const Problem& problem) {
  return ComputePairwise(problem).value;
}

double TripleEnhancedLowerBound(const Problem& problem, std::int32_t samples,
                                std::uint64_t seed) {
  DIACA_CHECK(samples >= 0);
  const LowerBoundDetail pairwise = ComputePairwise(problem);
  const std::int32_t num_clients = problem.num_clients();
  if (num_clients < 3) return pairwise.value;

  double bound = pairwise.value;
  Rng rng(seed);
  // Targeted triples: the pairwise argmax pair plus each sampled third —
  // the pair already forces the bound, a third client can only raise it.
  for (std::int32_t i = 0; i < samples; ++i) {
    const auto third = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    if (third == pairwise.first || third == pairwise.second) continue;
    bound = std::max(bound, TripleBound(problem, pairwise.first,
                                        pairwise.second, third, bound));
  }
  // Plus fully random triples (diversity against pathological instances).
  for (std::int32_t i = 0; i < samples; ++i) {
    const auto a = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    const auto b = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    const auto c = static_cast<ClientIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(num_clients)));
    if (a == b || b == c || a == c) continue;
    bound = std::max(bound, TripleBound(problem, a, b, c, bound));
  }
  return bound;
}

double NormalizedInteractivity(double max_path_length, double lower_bound) {
  DIACA_CHECK_MSG(lower_bound >= 0.0, "negative lower bound");
  if (lower_bound == 0.0) return max_path_length == 0.0 ? 1.0 :
      std::numeric_limits<double>::infinity();
  return max_path_length / lower_bound;
}

}  // namespace diaca::core
