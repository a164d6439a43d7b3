// AVX2 backend of the max-plus kernels. Compiled only when DIACA_AVX2=ON
// (the `avx2` CMake preset), with -mavx2 on this translation unit alone;
// the dispatcher (kernels.cc) only routes here after
// __builtin_cpu_supports("avx2") confirms the CPU at runtime.
//
// Exactness: the vector lanes perform the same per-element IEEE ops as
// the scalar reference (max/min/add/mul/div — no FMA, no re-associated
// sums), and max/min reductions are exact under any association, so every
// result is bit-identical to the scalar backend. Arg-reductions use the
// same two-pass scheme as the portable backend: exact vector extremum,
// then a scalar first-index scan recomputing the identical expression.
#include "common/simd/kernels_internal.h"

#ifndef __AVX2__
#error "kernels_avx2.cc must be compiled with -mavx2 (DIACA_AVX2=ON)"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace diaca::simd::avx2 {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline double HorizontalMax(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_max_pd(lo, hi);
  const __m128d s = _mm_max_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(s);
}

inline double HorizontalMin(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_min_pd(lo, hi);
  const __m128d s = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(s);
}

// (base + row[i]) + far[i], with lanes where far[i] < 0 blended to -inf.
inline __m256d MaxPlusTerm(__m256d row, __m256d far, __m256d base,
                           __m256d neg_inf, __m256d zero) {
  const __m256d t = _mm256_add_pd(_mm256_add_pd(base, row), far);
  const __m256d unused = _mm256_cmp_pd(far, zero, _CMP_LT_OQ);
  return _mm256_blendv_pd(t, neg_inf, unused);
}

}  // namespace

double MaxPlusReduce(const double* row, const double* far, std::size_t n,
                     double base) {
  const __m256d vbase = _mm256_set1_pd(base);
  const __m256d vninf = _mm256_set1_pd(-kInf);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d vbest = vninf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = MaxPlusTerm(_mm256_loadu_pd(row + i),
                                  _mm256_loadu_pd(far + i), vbase, vninf,
                                  vzero);
    vbest = _mm256_max_pd(vbest, t);
  }
  double best = HorizontalMax(vbest);
  for (; i < n; ++i) {
    if (far[i] >= 0.0) best = std::max(best, (base + row[i]) + far[i]);
  }
  return best;
}

void MaxAccumulatePlus(double* acc, const double* row, double add,
                       std::size_t n) {
  const __m256d vadd = _mm256_set1_pd(add);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_add_pd(_mm256_loadu_pd(row + i), vadd);
    _mm256_storeu_pd(acc + i, _mm256_max_pd(_mm256_loadu_pd(acc + i), t));
  }
  for (; i < n; ++i) acc[i] = std::max(acc[i], row[i] + add);
}

void MinPlusAccumulate(double* acc, const double* row, double add,
                       std::size_t n) {
  const __m256d vadd = _mm256_set1_pd(add);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_add_pd(_mm256_loadu_pd(row + i), vadd);
    _mm256_storeu_pd(acc + i, _mm256_min_pd(_mm256_loadu_pd(acc + i), t));
  }
  for (; i < n; ++i) acc[i] = std::min(acc[i], row[i] + add);
}

double MinPlusReduce(const double* a, const double* b, std::size_t n) {
  __m256d vbest = _mm256_set1_pd(kInf);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t =
        _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    vbest = _mm256_min_pd(vbest, t);
  }
  double best = HorizontalMin(vbest);
  for (; i < n; ++i) best = std::min(best, a[i] + b[i]);
  return best;
}

ArgResult ArgMinFirst(const double* v, std::size_t n) {
  __m256d vbest = _mm256_set1_pd(kInf);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vbest = _mm256_min_pd(vbest, _mm256_loadu_pd(v + i));
  }
  double best = HorizontalMin(vbest);
  for (; i < n; ++i) best = std::min(best, v[i]);
  if (best == kInf) return {kInf, -1};
  for (std::size_t j = 0; j < n; ++j) {
    if (v[j] == best) return {best, static_cast<std::int64_t>(j)};
  }
  return {kInf, -1};
}

ArgResult ArgMinPlusFirst(const double* a, const double* b, std::size_t n) {
  __m256d vbest = _mm256_set1_pd(kInf);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t =
        _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    vbest = _mm256_min_pd(vbest, t);
  }
  double best = HorizontalMin(vbest);
  for (; i < n; ++i) best = std::min(best, a[i] + b[i]);
  if (best == kInf) return {kInf, -1};
  for (std::size_t j = 0; j < n; ++j) {
    if (a[j] + b[j] == best) return {best, static_cast<std::int64_t>(j)};
  }
  return {kInf, -1};
}

ArgResult ArgMaxPlusFirst(const double* row, const double* far, std::size_t n,
                          double base) {
  const __m256d vbase = _mm256_set1_pd(base);
  const __m256d vninf = _mm256_set1_pd(-kInf);
  const __m256d vzero = _mm256_setzero_pd();
  __m256d vbest = vninf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = MaxPlusTerm(_mm256_loadu_pd(row + i),
                                  _mm256_loadu_pd(far + i), vbase, vninf,
                                  vzero);
    vbest = _mm256_max_pd(vbest, t);
  }
  double best = HorizontalMax(vbest);
  for (; i < n; ++i) {
    if (far[i] >= 0.0) best = std::max(best, (base + row[i]) + far[i]);
  }
  if (best == -kInf) return {-kInf, -1};
  for (std::size_t j = 0; j < n; ++j) {
    if (far[j] < 0.0) continue;
    if ((base + row[j]) + far[j] == best) {
      return {best, static_cast<std::int64_t>(j)};
    }
  }
  return {-kInf, -1};
}

double DotProduct(const double* a, const double* b, std::size_t n) {
  // Fixed 4-accumulator pattern (kernels.h): lane j sums i ≡ j (mod 4).
  // Explicit mul + add — no FMA — so every backend matches bit-for-bit in
  // builds without global FP contraction.
  __m256d vacc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    vacc = _mm256_add_pd(vacc, t);
  }
  alignas(32) double acc[4];
  _mm256_store_pd(acc, vacc);
  for (; i < n; ++i) acc[i % 4] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

namespace {

// One (k, i) row of the min-plus tile update: crow[j] = min(crow[j],
// aik + brow[j]). Elementwise, so crow == brow (the i == k row of an
// aliased tile) is safe. The +inf skip is value-preserving for the
// non-negative-or-inf entries the kernel contract allows.
inline void MinPlusUpdateRow(double* crow, double aik, const double* brow,
                             std::size_t cols) {
  if (std::isinf(aik)) return;
  const __m256d va = _mm256_set1_pd(aik);
  std::size_t j = 0;
  for (; j + 4 <= cols; j += 4) {
    const __m256d t = _mm256_add_pd(va, _mm256_loadu_pd(brow + j));
    _mm256_storeu_pd(crow + j,
                     _mm256_min_pd(_mm256_loadu_pd(crow + j), t));
  }
  for (; j < cols; ++j) crow[j] = std::min(crow[j], aik + brow[j]);
}

}  // namespace

void MinPlusTileUpdate(double* c, std::size_t c_stride, const double* a,
                       std::size_t a_stride, const double* b,
                       std::size_t b_stride, std::size_t rows,
                       std::size_t cols, std::size_t depth) {
  for (std::size_t k = 0; k < depth; ++k) {
    const double* brow = b + k * b_stride;
    std::size_t i = 0;
    // Register-block four c rows per b-row load. Two cases fall back to
    // the sequential per-row order (identical to the scalar reference by
    // construction): the b row aliasing one of the four c rows — rows past
    // the aliased one must see its updated values, exactly as the scalar
    // row order produces — and any +inf a-lane, where skipping whole rows
    // is the profitable sparse-early-iteration path.
    for (; i + 4 <= rows; i += 4) {
      double* c0 = c + (i + 0) * c_stride;
      double* c1 = c + (i + 1) * c_stride;
      double* c2 = c + (i + 2) * c_stride;
      double* c3 = c + (i + 3) * c_stride;
      const double a0 = a[(i + 0) * a_stride + k];
      const double a1 = a[(i + 1) * a_stride + k];
      const double a2 = a[(i + 2) * a_stride + k];
      const double a3 = a[(i + 3) * a_stride + k];
      if (brow == c0 || brow == c1 || brow == c2 || brow == c3 ||
          std::isinf(a0) || std::isinf(a1) || std::isinf(a2) ||
          std::isinf(a3)) {
        MinPlusUpdateRow(c0, a0, brow, cols);
        MinPlusUpdateRow(c1, a1, brow, cols);
        MinPlusUpdateRow(c2, a2, brow, cols);
        MinPlusUpdateRow(c3, a3, brow, cols);
        continue;
      }
      const __m256d va0 = _mm256_set1_pd(a0);
      const __m256d va1 = _mm256_set1_pd(a1);
      const __m256d va2 = _mm256_set1_pd(a2);
      const __m256d va3 = _mm256_set1_pd(a3);
      std::size_t j = 0;
      for (; j + 4 <= cols; j += 4) {
        const __m256d vb = _mm256_loadu_pd(brow + j);
        _mm256_storeu_pd(
            c0 + j, _mm256_min_pd(_mm256_loadu_pd(c0 + j),
                                  _mm256_add_pd(va0, vb)));
        _mm256_storeu_pd(
            c1 + j, _mm256_min_pd(_mm256_loadu_pd(c1 + j),
                                  _mm256_add_pd(va1, vb)));
        _mm256_storeu_pd(
            c2 + j, _mm256_min_pd(_mm256_loadu_pd(c2 + j),
                                  _mm256_add_pd(va2, vb)));
        _mm256_storeu_pd(
            c3 + j, _mm256_min_pd(_mm256_loadu_pd(c3 + j),
                                  _mm256_add_pd(va3, vb)));
      }
      for (; j < cols; ++j) {
        const double bj = brow[j];
        c0[j] = std::min(c0[j], a0 + bj);
        c1[j] = std::min(c1[j], a1 + bj);
        c2[j] = std::min(c2[j], a2 + bj);
        c3[j] = std::min(c3[j], a3 + bj);
      }
    }
    for (; i < rows; ++i) {
      MinPlusUpdateRow(c + i * c_stride, a[i * a_stride + k], brow, cols);
    }
  }
}

void BroadcastAdd(double* out, const double* row, double add, std::size_t n) {
  const __m256d vadd = _mm256_set1_pd(add);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_add_pd(vadd, _mm256_loadu_pd(row + i)));
  }
  for (; i < n; ++i) out[i] = add + row[i];
}

void GatherPlus(double* out, const double* col, const std::int32_t* rows,
                const double* access, const std::int32_t* ids, std::size_t n) {
  // Hardware gathers for the indirection chain; the adds keep the fixed
  // access + leg operand order of the scalar reference (exact either way —
  // one rounded add per lane).
  std::size_t i = 0;
  if (ids == nullptr) {
    if (access == nullptr) {
      for (; i + 4 <= n; i += 4) {
        const __m128i vr = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(rows + i));
        _mm256_storeu_pd(out + i, _mm256_i32gather_pd(col, vr, 8));
      }
      for (; i < n; ++i) out[i] = col[static_cast<std::size_t>(rows[i])];
      return;
    }
    for (; i + 4 <= n; i += 4) {
      const __m128i vr =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i));
      const __m256d leg = _mm256_i32gather_pd(col, vr, 8);
      _mm256_storeu_pd(out + i,
                       _mm256_add_pd(_mm256_loadu_pd(access + i), leg));
    }
    for (; i < n; ++i) {
      out[i] = access[i] + col[static_cast<std::size_t>(rows[i])];
    }
    return;
  }
  if (access == nullptr) {
    for (; i + 4 <= n; i += 4) {
      const __m128i vc =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
      const __m128i vr = _mm_i32gather_epi32(rows, vc, 4);
      _mm256_storeu_pd(out + i, _mm256_i32gather_pd(col, vr, 8));
    }
    for (; i < n; ++i) {
      const std::size_t c = static_cast<std::size_t>(ids[i]);
      out[i] = col[static_cast<std::size_t>(rows[c])];
    }
    return;
  }
  for (; i + 4 <= n; i += 4) {
    const __m128i vc =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    const __m128i vr = _mm_i32gather_epi32(rows, vc, 4);
    const __m256d leg = _mm256_i32gather_pd(col, vr, 8);
    const __m256d acc = _mm256_i32gather_pd(access, vc, 8);
    _mm256_storeu_pd(out + i, _mm256_add_pd(acc, leg));
  }
  for (; i < n; ++i) {
    const std::size_t c = static_cast<std::size_t>(ids[i]);
    out[i] = access[c] + col[static_cast<std::size_t>(rows[c])];
  }
}

}  // namespace diaca::simd::avx2
