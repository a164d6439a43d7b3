// Vectorized max-plus / min-plus distance kernels for the assignment hot
// paths (greedy reach cache and bucket sort, eccentricity folds, pairwise
// lower bound, mean-path pair sum).
//
// Two backends (simd.h): the scalar reference loops and the portable
// pragma-omp-simd loops, except that the portable MaxPlusReduce and
// MinPlusReduce split their reduction over four accumulators, which ran
// faster than either single-chain loop at every width measured
// (docs/performance.md). Four kernels have one implementation that every
// backend runs, because a vector variant measured no faster at the
// |S| <= 256 widths the solvers scan (docs/performance.md): the three
// arg-reductions (ArgMinFirst, ArgMinPlusFirst, ArgMaxPlusFirst), a
// one-pass serial loop, where a vector min/max followed by a second pass
// for the first index was slower; and DotProduct, a 4-accumulator loop,
// whose vectorized spelling ran at about 1x.
//
// Determinism contract: every kernel computes a FIXED re-association of
// IEEE double operations, identical across both backends and across
// thread counts:
//   * max/min reductions are exact under any association, so the vector
//     paths are bit-identical to the scalar reference by construction;
//   * per-element terms keep the source association of the serial solver
//     loops they replaced — e.g. MaxPlusReduce computes
//     (base + row[i]) + far[i], never base + (row[i] + far[i]);
//   * arg-reductions resolve value ties to the LOWEST index, exactly what
//     a serial ascending scan with a strict comparison produces;
//   * the one summation kernel (DotProduct) uses a fixed 4-accumulator
//     pattern, one loop for both backends (it feeds metrics, not
//     assignments).
// Together with the thread pool's deterministic reductions this keeps
// assignments byte-identical at every (backend, thread count) pair.
//
// "far" arrays use the repo-wide sentinel far[i] < 0 == "server unused";
// such lanes never win a reduction (they are blended to -infinity, not
// branched around, so the loops stay lane-skip free).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd/simd.h"

namespace diaca::simd {

/// Extremal value and the first (lowest) index attaining it; index == -1
/// when the range is empty or every lane was masked out.
struct ArgResult {
  double value = 0.0;
  std::int64_t index = -1;
};

/// max over i in [0, n) with far[i] >= 0 of (base + row[i]) + far[i];
/// -infinity when no lane qualifies. The server-reach reduction
/// (core::MaxServerReach uses base = 0, the pair folds use base = far(s1),
/// distributed greedy uses base = d(c, s)).
double MaxPlusReduce(const double* row, const double* far, std::size_t n,
                     double base = 0.0);

/// acc[i] = max(acc[i], row[i] + add) for i in [0, n). The greedy reach
/// cache refresh (fold a grown eccentricity into every server's reach).
void MaxAccumulatePlus(double* acc, const double* row, double add,
                       std::size_t n);

/// acc[i] = min(acc[i], row[i] + add) for i in [0, n). The min-plus inner
/// relaxation of the pairwise lower bound.
void MinPlusAccumulate(double* acc, const double* row, double add,
                       std::size_t n);

/// min over i in [0, n) of a[i] + b[i]; +infinity when n == 0.
double MinPlusReduce(const double* a, const double* b, std::size_t n);

/// First minimum of v[0..n): the nearest-server scan.
ArgResult ArgMinFirst(const double* v, std::size_t n);

/// First minimum of a[i] + b[i] over [0, n). With b an availability mask
/// (0.0 = open, +infinity = saturated) this is the nearest-unsaturated
/// scan; index == -1 when every lane is +infinity.
ArgResult ArgMinPlusFirst(const double* a, const double* b, std::size_t n);

/// First maximum of (base + row[i]) + far[i] over lanes with far[i] >= 0;
/// index == -1 (value -infinity) when no lane qualifies. The eccentricity
/// pair-fold row scan of the incremental evaluator.
ArgResult ArgMaxPlusFirst(const double* row, const double* far, std::size_t n,
                          double base = 0.0);

/// Sum over i of a[i] * b[i] in a fixed 4-accumulator association:
/// lane j accumulates i ≡ j (mod 4), combined as ((l0+l1)+(l2+l3)).
/// One loop that every backend runs. Feeds MeanInteractionPathLength.
double DotProduct(const double* a, const double* b, std::size_t n);

/// Broadcast-add, the row-synthesis kernel of core::OracleTileView:
/// out[i] = add + row[i] for i in [0, n) — one attached-node server row
/// streamed with the client's access delay broadcast across the lanes.
/// A single rounded add per lane in the fixed operand order add + row[i]
/// (the order the materialized build used), so every backend
/// synthesizes identical bits.
void BroadcastAdd(double* out, const double* row, double add, std::size_t n);

/// Indexed gather-add, the column gather of core::OracleTileView:
///   out[i] = access[ids[i]] + col[rows[ids[i]]]  for i in [0, n)
/// with client ids[i]'s access delay and attachment row (all pointers
/// non-null). Pure loads plus one rounded add per lane in the fixed
/// operand order access + leg, so all backends are bit-identical.
void GatherPlus(double* out, const double* col, const std::int32_t* rows,
                const double* access, const std::int32_t* ids, std::size_t n);

/// Eccentricity fold ("max-absorb scatter"): for c in [c_begin, c_end)
/// with assign[c] >= 0, far[assign[c]] = max(far[assign[c]],
/// cs[c * cs_stride + assign[c]]). The scatter is conflict-bound, so this
/// stays scalar but cache-aware; it lives here so every eccentricity scan
/// (metrics, distributed greedy) shares one implementation and its bytes
/// are counted with the other kernels.
void MaxAbsorbScatter(double* far, const std::int32_t* assign,
                      const double* cs, std::size_t cs_stride,
                      std::int64_t c_begin, std::int64_t c_end);

/// Stable tandem sort of (dist[i], idx[i]) pairs ascending by distance,
/// ties keeping input order — byte-for-byte the lexicographic
/// (distance, index) order std::sort would produce when idx arrives
/// ascending. LSD radix passes over the IEEE bit patterns (exact: for
/// non-negative finite doubles the u64 bit order IS the numeric order),
/// with single-digit passes skipped; runs of at most 64 entries use a
/// stable insertion sort on the same keys instead — greedy's bucket
/// refinement sort. Precondition: every dist[i] is
/// a non-negative finite double (the latency-matrix invariant).
void RadixSortDistIndex(double* dist, std::int32_t* idx, std::size_t n);

}  // namespace diaca::simd
