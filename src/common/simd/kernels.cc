#include "common/simd/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/simd/kernels_internal.h"
#include "obs/obs.h"

// The portable backend relies on `#pragma omp simd` (activated by
// -fopenmp-simd, added in the top-level CMakeLists when the compiler
// supports it; without the flag the pragmas are inert and the loops still
// autovectorize where the cost model allows). Reductions under the pragma
// are only used for max/min — exact under any association — never for
// sums, so re-association by the vectorizer cannot change results.

namespace diaca::simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// -1 = unresolved; resolved lazily to BestBackend() on first use so the
// value never depends on static-initialization order.
std::atomic<int> g_backend{-1};

constexpr bool Avx2Compiled() {
#if DIACA_KERNELS_AVX2
  return true;
#else
  return false;
#endif
}

bool CpuHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void CountScan(std::size_t bytes) {
  DIACA_OBS_COUNT("simd.kernels.calls", 1);
  DIACA_OBS_COUNT("simd.kernels.bytes_scanned",
                  static_cast<std::int64_t>(bytes));
}

// ---------------------------------------------------------------------------
// Scalar reference backend: the naive serial loops every vector path is
// tested against (tests/common/kernels_test.cc, determinism grid).

double MaxPlusReduceScalar(const double* row, const double* far,
                           std::size_t n, double base) {
  double best = -kInf;
  for (std::size_t i = 0; i < n; ++i) {
    if (far[i] >= 0.0) best = std::max(best, (base + row[i]) + far[i]);
  }
  return best;
}

void MaxAccumulatePlusScalar(double* acc, const double* row, double add,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = std::max(acc[i], row[i] + add);
  }
}

void MinPlusAccumulateScalar(double* acc, const double* row, double add,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = std::min(acc[i], row[i] + add);
  }
}

double MinPlusReduceScalar(const double* a, const double* b, std::size_t n) {
  double best = kInf;
  for (std::size_t i = 0; i < n; ++i) best = std::min(best, a[i] + b[i]);
  return best;
}

ArgResult ArgMinFirstScalar(const double* v, std::size_t n) {
  ArgResult best{kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] < best.value || best.index < 0) {
      best = {v[i], static_cast<std::int64_t>(i)};
    }
  }
  if (best.index >= 0 && best.value == kInf) best = {kInf, -1};
  return best;
}

ArgResult ArgMinPlusFirstScalar(const double* a, const double* b,
                                std::size_t n) {
  ArgResult best{kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = a[i] + b[i];
    if (t < best.value) best = {t, static_cast<std::int64_t>(i)};
  }
  return best;
}

ArgResult ArgMaxPlusFirstScalar(const double* row, const double* far,
                                std::size_t n, double base) {
  ArgResult best{-kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    if (far[i] < 0.0) continue;
    const double t = (base + row[i]) + far[i];
    if (t > best.value) best = {t, static_cast<std::int64_t>(i)};
  }
  return best;
}

double DotProductScalar(const double* a, const double* b, std::size_t n) {
  // Fixed 4-accumulator association (see kernels.h): lane j sums the
  // elements with i ≡ j (mod 4), combined as (l0 + l1) + (l2 + l3).
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc[0] += a[i] * b[i];
    acc[1] += a[i + 1] * b[i + 1];
    acc[2] += a[i + 2] * b[i + 2];
    acc[3] += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc[i % 4] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void MinPlusTileUpdateScalar(double* c, std::size_t c_stride, const double* a,
                             std::size_t a_stride, const double* b,
                             std::size_t b_stride, std::size_t rows,
                             std::size_t cols, std::size_t depth) {
  for (std::size_t k = 0; k < depth; ++k) {
    const double* brow = b + k * b_stride;
    for (std::size_t i = 0; i < rows; ++i) {
      const double aik = a[i * a_stride + k];
      // Value-preserving: inf + x == inf and min(c, inf) == c for the
      // non-negative-or-inf entries the contract allows.
      if (std::isinf(aik)) continue;
      double* crow = c + i * c_stride;
      for (std::size_t j = 0; j < cols; ++j) {
        crow[j] = std::min(crow[j], aik + brow[j]);
      }
    }
  }
}

void BroadcastAddScalar(double* out, const double* row, double add,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = add + row[i];
}

// The oracle-view column gather: the indirection chain ids -> rows -> col
// with the optional access add, in the exact operand order access + leg
// the view's scalar loops used.
void GatherPlusScalar(double* out, const double* col,
                      const std::int32_t* rows, const double* access,
                      const std::int32_t* ids, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c =
        ids != nullptr ? static_cast<std::size_t>(ids[i]) : i;
    const double leg = col[static_cast<std::size_t>(rows[c])];
    out[i] = access != nullptr ? access[c] + leg : leg;
  }
}

// ---------------------------------------------------------------------------
// Portable vector backend: pragma-omp-simd loops the compiler can widen to
// whatever the target ISA offers. Arg-reductions run in two passes — an
// exact vector min/max of the per-lane values, then a scalar scan for the
// first index attaining it. The per-lane term is the same IEEE expression
// in both passes (no accumulation, no fused multiply-add candidates), so
// the equality in pass two is exact.

double MaxPlusReducePortable(const double* row, const double* far,
                             std::size_t n, double base) {
  double best = -kInf;
#pragma omp simd reduction(max : best)
  for (std::size_t i = 0; i < n; ++i) {
    const double t = far[i] < 0.0 ? -kInf : (base + row[i]) + far[i];
    best = std::max(best, t);
  }
  return best;
}

void MaxAccumulatePlusPortable(double* acc, const double* row, double add,
                               std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = std::max(acc[i], row[i] + add);
  }
}

void MinPlusAccumulatePortable(double* acc, const double* row, double add,
                               std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = std::min(acc[i], row[i] + add);
  }
}

double MinPlusReducePortable(const double* a, const double* b,
                             std::size_t n) {
  double best = kInf;
#pragma omp simd reduction(min : best)
  for (std::size_t i = 0; i < n; ++i) {
    best = std::min(best, a[i] + b[i]);
  }
  return best;
}

ArgResult ArgMinFirstPortable(const double* v, std::size_t n) {
  double best = kInf;
#pragma omp simd reduction(min : best)
  for (std::size_t i = 0; i < n; ++i) best = std::min(best, v[i]);
  if (best == kInf) return {kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] == best) return {best, static_cast<std::int64_t>(i)};
  }
  return {kInf, -1};
}

ArgResult ArgMinPlusFirstPortable(const double* a, const double* b,
                                  std::size_t n) {
  double best = kInf;
#pragma omp simd reduction(min : best)
  for (std::size_t i = 0; i < n; ++i) best = std::min(best, a[i] + b[i]);
  if (best == kInf) return {kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] + b[i] == best) return {best, static_cast<std::int64_t>(i)};
  }
  return {kInf, -1};
}

ArgResult ArgMaxPlusFirstPortable(const double* row, const double* far,
                                  std::size_t n, double base) {
  double best = -kInf;
#pragma omp simd reduction(max : best)
  for (std::size_t i = 0; i < n; ++i) {
    const double t = far[i] < 0.0 ? -kInf : (base + row[i]) + far[i];
    best = std::max(best, t);
  }
  if (best == -kInf) return {-kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = far[i] < 0.0 ? -kInf : (base + row[i]) + far[i];
    if (t == best) return {best, static_cast<std::int64_t>(i)};
  }
  return {-kInf, -1};
}

double DotProductPortable(const double* a, const double* b, std::size_t n) {
  // Same fixed pattern as the scalar reference; the explicit 4-lane body
  // is what the vectorizer widens, keeping the per-lane add sequences.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  double acc[4] = {acc0, acc1, acc2, acc3};
  for (; i < n; ++i) acc[i % 4] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void BroadcastAddPortable(double* out, const double* row, double add,
                          std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = add + row[i];
}

void GatherPlusPortable(double* out, const double* col,
                        const std::int32_t* rows, const double* access,
                        const std::int32_t* ids, std::size_t n) {
  // The four null-combinations are split so each loop body is
  // branch-free and gather + at-most-one-add, which the vectorizer can
  // widen with hardware gathers where available.
  if (ids == nullptr) {
    if (access == nullptr) {
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = col[static_cast<std::size_t>(rows[i])];
      }
      return;
    }
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = access[i] + col[static_cast<std::size_t>(rows[i])];
    }
    return;
  }
  if (access == nullptr) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = static_cast<std::size_t>(ids[i]);
      out[i] = col[static_cast<std::size_t>(rows[c])];
    }
    return;
  }
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = static_cast<std::size_t>(ids[i]);
    out[i] = access[c] + col[static_cast<std::size_t>(rows[c])];
  }
}

void MinPlusTileUpdatePortable(double* c, std::size_t c_stride,
                               const double* a, std::size_t a_stride,
                               const double* b, std::size_t b_stride,
                               std::size_t rows, std::size_t cols,
                               std::size_t depth) {
  for (std::size_t k = 0; k < depth; ++k) {
    const double* brow = b + k * b_stride;
    for (std::size_t i = 0; i < rows; ++i) {
      const double aik = a[i * a_stride + k];
      if (std::isinf(aik)) continue;
      double* crow = c + i * c_stride;
#pragma omp simd
      for (std::size_t j = 0; j < cols; ++j) {
        crow[j] = std::min(crow[j], aik + brow[j]);
      }
    }
  }
}

Backend Resolve() {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    b = static_cast<int>(BestBackend());
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<Backend>(b);
}

}  // namespace

Backend ActiveBackend() { return Resolve(); }

void SetBackend(Backend backend) {
  if (backend == Backend::kAvx2 && !Avx2Available()) {
    backend = Backend::kPortable;
  }
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
}

Backend BestBackend() {
  return Avx2Available() ? Backend::kAvx2 : Backend::kPortable;
}

bool Avx2Available() { return Avx2Compiled() && CpuHasAvx2(); }

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kPortable:
      return "portable";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Dispatch. The AVX2 calls only exist when the intrinsics TU is compiled
// in (DIACA_KERNELS_AVX2); SetBackend never hands out kAvx2 otherwise.

#if DIACA_KERNELS_AVX2
#define DIACA_SIMD_DISPATCH(call_scalar, call_portable, call_avx2) \
  switch (Resolve()) {                                             \
    case Backend::kScalar:                                         \
      return call_scalar;                                          \
    case Backend::kAvx2:                                           \
      return call_avx2;                                            \
    case Backend::kPortable:                                       \
    default:                                                       \
      return call_portable;                                        \
  }
#else
#define DIACA_SIMD_DISPATCH(call_scalar, call_portable, call_avx2) \
  switch (Resolve()) {                                             \
    case Backend::kScalar:                                         \
      return call_scalar;                                          \
    case Backend::kAvx2:                                           \
    case Backend::kPortable:                                       \
    default:                                                       \
      return call_portable;                                        \
  }
#endif

double MaxPlusReduce(const double* row, const double* far, std::size_t n,
                     double base) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(MaxPlusReduceScalar(row, far, n, base),
                      MaxPlusReducePortable(row, far, n, base),
                      avx2::MaxPlusReduce(row, far, n, base));
}

void MaxAccumulatePlus(double* acc, const double* row, double add,
                       std::size_t n) {
  CountScan(24 * n);
  DIACA_SIMD_DISPATCH(MaxAccumulatePlusScalar(acc, row, add, n),
                      MaxAccumulatePlusPortable(acc, row, add, n),
                      avx2::MaxAccumulatePlus(acc, row, add, n));
}

void MinPlusAccumulate(double* acc, const double* row, double add,
                       std::size_t n) {
  CountScan(24 * n);
  DIACA_SIMD_DISPATCH(MinPlusAccumulateScalar(acc, row, add, n),
                      MinPlusAccumulatePortable(acc, row, add, n),
                      avx2::MinPlusAccumulate(acc, row, add, n));
}

double MinPlusReduce(const double* a, const double* b, std::size_t n) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(MinPlusReduceScalar(a, b, n),
                      MinPlusReducePortable(a, b, n),
                      avx2::MinPlusReduce(a, b, n));
}

ArgResult ArgMinFirst(const double* v, std::size_t n) {
  CountScan(8 * n);
  DIACA_SIMD_DISPATCH(ArgMinFirstScalar(v, n), ArgMinFirstPortable(v, n),
                      avx2::ArgMinFirst(v, n));
}

ArgResult ArgMinPlusFirst(const double* a, const double* b, std::size_t n) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(ArgMinPlusFirstScalar(a, b, n),
                      ArgMinPlusFirstPortable(a, b, n),
                      avx2::ArgMinPlusFirst(a, b, n));
}

ArgResult ArgMaxPlusFirst(const double* row, const double* far, std::size_t n,
                          double base) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(ArgMaxPlusFirstScalar(row, far, n, base),
                      ArgMaxPlusFirstPortable(row, far, n, base),
                      avx2::ArgMaxPlusFirst(row, far, n, base));
}

double DotProduct(const double* a, const double* b, std::size_t n) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(DotProductScalar(a, b, n), DotProductPortable(a, b, n),
                      avx2::DotProduct(a, b, n));
}

void MinPlusTileUpdate(double* c, std::size_t c_stride, const double* a,
                       std::size_t a_stride, const double* b,
                       std::size_t b_stride, std::size_t rows,
                       std::size_t cols, std::size_t depth) {
  CountScan(24 * rows * cols * depth);
  DIACA_SIMD_DISPATCH(
      MinPlusTileUpdateScalar(c, c_stride, a, a_stride, b, b_stride, rows,
                              cols, depth),
      MinPlusTileUpdatePortable(c, c_stride, a, a_stride, b, b_stride, rows,
                                cols, depth),
      avx2::MinPlusTileUpdate(c, c_stride, a, a_stride, b, b_stride, rows,
                              cols, depth));
}

void BroadcastAdd(double* out, const double* row, double add, std::size_t n) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(BroadcastAddScalar(out, row, add, n),
                      BroadcastAddPortable(out, row, add, n),
                      avx2::BroadcastAdd(out, row, add, n));
}

void GatherPlus(double* out, const double* col, const std::int32_t* rows,
                const double* access, const std::int32_t* ids, std::size_t n) {
  CountScan(24 * n);
  DIACA_SIMD_DISPATCH(GatherPlusScalar(out, col, rows, access, ids, n),
                      GatherPlusPortable(out, col, rows, access, ids, n),
                      avx2::GatherPlus(out, col, rows, access, ids, n));
}

#undef DIACA_SIMD_DISPATCH

void MaxAbsorbScatter(double* far, const std::int32_t* assign,
                      const double* cs, std::size_t cs_stride,
                      std::int64_t c_begin, std::int64_t c_end) {
  CountScan(12 * static_cast<std::size_t>(
                     c_end > c_begin ? c_end - c_begin : 0));
  // Scatter with write conflicts — scalar in every backend (kernels.h).
  for (std::int64_t c = c_begin; c < c_end; ++c) {
    const std::int32_t s = assign[c];
    if (s < 0) continue;
    const double d = cs[static_cast<std::size_t>(c) * cs_stride +
                        static_cast<std::size_t>(s)];
    far[s] = std::max(far[s], d);
  }
}

void RadixSortDistIndex(double* dist, std::int32_t* idx, std::size_t n) {
  if (n < 2) return;
  // Short runs (greedy refines buckets of ~32 entries) skip the radix
  // passes' fixed 256-bin cost: a stable insertion sort on the same u64
  // bit-pattern keys yields the identical order.
  if (n <= 64) {
    for (std::size_t i = 1; i < n; ++i) {
      const double d = dist[i];
      const std::int32_t v = idx[i];
      std::uint64_t k;
      std::memcpy(&k, &d, sizeof(k));
      std::size_t j = i;
      for (; j > 0; --j) {
        std::uint64_t kj;
        std::memcpy(&kj, &dist[j - 1], sizeof(kj));
        if (kj <= k) break;
        dist[j] = dist[j - 1];
        idx[j] = idx[j - 1];
      }
      dist[j] = d;
      idx[j] = v;
    }
    CountScan(16 * n);
    return;
  }
  // 16-byte entries keep key and payload on one cache line through the
  // scatter passes. No floating-point arithmetic happens here, so the
  // result is exact on every backend by construction. The ping/pong
  // scratch is thread-local: greedy preprocessing calls this once per
  // server, and re-mapping two |C|-entry buffers per call used to cost
  // more page faults than the sort itself.
  struct Entry {
    std::uint64_t key;
    std::uint64_t val;
  };
  thread_local std::vector<Entry> ping;
  thread_local std::vector<Entry> pong;
  ping.resize(n);
  pong.resize(n);
  // One read pass builds the histograms for all eight digit positions at
  // once; digit histograms are order-independent, so they stay valid for
  // every later pass regardless of how earlier passes permuted.
  std::uint32_t hist[8][256] = {};
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t k;
    std::memcpy(&k, &dist[i], sizeof(k));
    ping[i] = {k, static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                      idx[i]))};
    for (int p = 0; p < 8; ++p) ++hist[p][(k >> (8 * p)) & 0xff];
  }
  Entry* src = ping.data();
  Entry* dst = pong.data();
  std::size_t passes_run = 0;
  for (int p = 0; p < 8; ++p) {
    const std::uint32_t* h = hist[p];
    // A pass where every key shares one digit is the identity permutation.
    if (h[(src[0].key >> (8 * p)) & 0xff] == n) continue;
    ++passes_run;
    std::uint32_t offsets[256];
    std::uint32_t sum = 0;
    for (int d = 0; d < 256; ++d) {
      offsets[d] = sum;
      sum += h[d];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].key >> (8 * p)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(&dist[i], &src[i].key, sizeof(double));
    idx[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(src[i].val));
  }
  CountScan((16 + 16 + 32 * passes_run) * n);
}

}  // namespace diaca::simd
