#include "common/simd/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

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

// Constant-initialised, so the default never depends on
// static-initialization order; SetBackend is the only writer.
std::atomic<Backend> g_backend{Backend::kPortable};

Backend Resolve() { return g_backend.load(std::memory_order_relaxed); }

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

void BroadcastAddScalar(double* out, const double* row, double add,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = add + row[i];
}

// The oracle-view column gather: the indirection chain ids -> rows -> col
// plus the access add, in the exact operand order access + leg of the
// view's scalar loops.
void GatherPlusScalar(double* out, const double* col,
                      const std::int32_t* rows, const double* access,
                      const std::int32_t* ids, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(ids[i]);
    out[i] = access[c] + col[static_cast<std::size_t>(rows[c])];
  }
}

// ---------------------------------------------------------------------------
// Portable vector backend: pragma-omp-simd loops the compiler can widen to
// whatever the target ISA offers. The element-wise min/max loops spell
// std::min/std::max as a select on values with the same comparison
// (std::min(x, t) == (t < x ? t : x)): GCC does not if-convert the
// reference-returning std::min/std::max, so those loops would stay scalar.

// The two reductions keep four independent accumulators instead of a
// pragma: with one running max or min every lane waits out the previous
// lane's latency, and GCC 12's -O2 vector loop still carried one chain
// and read slower than the scalar reference. Max and min are exact, so
// splitting the lanes changes no bit.
double MaxPlusReducePortable(const double* row, const double* far,
                             std::size_t n, double base) {
  const auto lane = [&](std::size_t i) {
    return far[i] < 0.0 ? -kInf : (base + row[i]) + far[i];
  };
  const auto fold = [](double best, double t) { return best < t ? t : best; };
  double b0 = -kInf, b1 = -kInf, b2 = -kInf, b3 = -kInf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    b0 = fold(b0, lane(i));
    b1 = fold(b1, lane(i + 1));
    b2 = fold(b2, lane(i + 2));
    b3 = fold(b3, lane(i + 3));
  }
  for (; i < n; ++i) b0 = fold(b0, lane(i));
  return fold(fold(b0, b1), fold(b2, b3));
}

void MaxAccumulatePlusPortable(double* acc, const double* row, double add,
                               std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const double t = row[i] + add;
    acc[i] = acc[i] < t ? t : acc[i];
  }
}

void MinPlusAccumulatePortable(double* acc, const double* row, double add,
                               std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const double t = row[i] + add;
    acc[i] = t < acc[i] ? t : acc[i];
  }
}

double MinPlusReducePortable(const double* a, const double* b,
                             std::size_t n) {
  const auto fold = [](double best, double t) { return t < best ? t : best; };
  double b0 = kInf, b1 = kInf, b2 = kInf, b3 = kInf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    b0 = fold(b0, a[i] + b[i]);
    b1 = fold(b1, a[i + 1] + b[i + 1]);
    b2 = fold(b2, a[i + 2] + b[i + 2]);
    b3 = fold(b3, a[i + 3] + b[i + 3]);
  }
  for (; i < n; ++i) b0 = fold(b0, a[i] + b[i]);
  return fold(fold(b0, b1), fold(b2, b3));
}

void BroadcastAddPortable(double* out, const double* row, double add,
                          std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = add + row[i];
}

void GatherPlusPortable(double* out, const double* col,
                        const std::int32_t* rows, const double* access,
                        const std::int32_t* ids, std::size_t n) {
  // Branch-free gather + one add, which the vectorizer can widen with
  // hardware gathers where available.
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(ids[i]);
    out[i] = access[c] + col[static_cast<std::size_t>(rows[c])];
  }
}

}  // namespace

Backend ActiveBackend() { return Resolve(); }

void SetBackend(Backend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kPortable:
      return "portable";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Dispatch: kScalar runs the reference loop, kPortable the vector loop.

#define DIACA_SIMD_DISPATCH(call_scalar, call_portable) \
  if (Resolve() == Backend::kScalar) return call_scalar; \
  return call_portable

double MaxPlusReduce(const double* row, const double* far, std::size_t n,
                     double base) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(MaxPlusReduceScalar(row, far, n, base),
                      MaxPlusReducePortable(row, far, n, base));
}

void MaxAccumulatePlus(double* acc, const double* row, double add,
                       std::size_t n) {
  CountScan(24 * n);
  DIACA_SIMD_DISPATCH(MaxAccumulatePlusScalar(acc, row, add, n),
                      MaxAccumulatePlusPortable(acc, row, add, n));
}

void MinPlusAccumulate(double* acc, const double* row, double add,
                       std::size_t n) {
  CountScan(24 * n);
  DIACA_SIMD_DISPATCH(MinPlusAccumulateScalar(acc, row, add, n),
                      MinPlusAccumulatePortable(acc, row, add, n));
}

double MinPlusReduce(const double* a, const double* b, std::size_t n) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(MinPlusReduceScalar(a, b, n),
                      MinPlusReducePortable(a, b, n));
}

void BroadcastAdd(double* out, const double* row, double add, std::size_t n) {
  CountScan(16 * n);
  DIACA_SIMD_DISPATCH(BroadcastAddScalar(out, row, add, n),
                      BroadcastAddPortable(out, row, add, n));
}

void GatherPlus(double* out, const double* col, const std::int32_t* rows,
                const double* access, const std::int32_t* ids, std::size_t n) {
  CountScan(24 * n);
  DIACA_SIMD_DISPATCH(GatherPlusScalar(out, col, rows, access, ids, n),
                      GatherPlusPortable(out, col, rows, access, ids, n));
}

#undef DIACA_SIMD_DISPATCH

// ---------------------------------------------------------------------------
// Arg-reductions: one ascending serial loop with a strict comparison, so
// ties go to the lowest index; every backend runs it (kernels.h).

ArgResult ArgMinFirst(const double* v, std::size_t n) {
  CountScan(8 * n);
  ArgResult best{kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] < best.value || best.index < 0) {
      best = {v[i], static_cast<std::int64_t>(i)};
    }
  }
  if (best.index >= 0 && best.value == kInf) best = {kInf, -1};
  return best;
}

ArgResult ArgMinPlusFirst(const double* a, const double* b, std::size_t n) {
  CountScan(16 * n);
  ArgResult best{kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = a[i] + b[i];
    if (t < best.value) best = {t, static_cast<std::int64_t>(i)};
  }
  return best;
}

ArgResult ArgMaxPlusFirst(const double* row, const double* far, std::size_t n,
                          double base) {
  CountScan(16 * n);
  ArgResult best{-kInf, -1};
  for (std::size_t i = 0; i < n; ++i) {
    if (far[i] < 0.0) continue;
    const double t = (base + row[i]) + far[i];
    if (t > best.value) best = {t, static_cast<std::int64_t>(i)};
  }
  return best;
}

// Fixed 4-accumulator association (kernels.h), one loop for every
// backend: lane j sums the elements with i ≡ j (mod 4), combined as
// (l0 + l1) + (l2 + l3).
double DotProduct(const double* a, const double* b, std::size_t n) {
  CountScan(16 * n);
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
