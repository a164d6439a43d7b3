// Property tests for the SIMD kernel layer: every backend must reproduce
// a naive scalar reference BIT-identically (EXPECT_EQ on doubles, no
// tolerance) across sizes that exercise full vectors, remainder lanes and
// the empty range — the determinism contract of common/simd/kernels.h.
// DotProduct is the one exception: its contract is a fixed 4-accumulator
// association (identical across backends), not equality with a serial
// left-to-right sum, so it is compared across backends instead.
#include "common/simd/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd/simd.h"

namespace diaca::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// n = 1, vector-width +/- 1 (AVX2 holds 4 doubles, kPadWidth is 8),
// primes, and a couple of large sizes spanning many vectors plus a tail.
const std::vector<std::size_t> kSizes{0, 1,  2,  3,  4,  5,  7,  8,
                                      9, 13, 16, 17, 31, 61, 128, 131};

std::vector<Backend> TestableBackends() {
  std::vector<Backend> backends{Backend::kScalar, Backend::kPortable};
  if (Avx2Available()) backends.push_back(Backend::kAvx2);
  return backends;
}

// Scoped backend override; restores the best backend on destruction so
// test order never leaks a scalar override into other suites.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) { SetBackend(b); }
  ~BackendGuard() { SetBackend(BestBackend()); }
};

std::vector<double> RandomLatencies(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextUniform(0.0, 250.0);
  return v;
}

// Eccentricity-style buffer: mostly non-negative, some "unused" (-1).
std::vector<double> RandomFar(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.NextBernoulli(0.3) ? -1.0 : rng.NextUniform(0.0, 180.0);
  }
  return v;
}

// -------------------------------------------------------------------------
// Naive references, written independently of kernels.cc.

double RefMaxPlusReduce(const std::vector<double>& row,
                        const std::vector<double>& far, double base) {
  double best = -kInf;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (far[i] >= 0.0) best = std::max(best, (base + row[i]) + far[i]);
  }
  return best;
}

double RefMinPlusReduce(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double best = kInf;
  for (std::size_t i = 0; i < a.size(); ++i) {
    best = std::min(best, a[i] + b[i]);
  }
  return best;
}

ArgResult RefArgMinFirst(const std::vector<double>& v) {
  ArgResult best{kInf, -1};
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] < best.value) best = {v[i], static_cast<std::int64_t>(i)};
  }
  return best;
}

ArgResult RefArgMinPlusFirst(const std::vector<double>& a,
                             const std::vector<double>& b) {
  ArgResult best{kInf, -1};
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double t = a[i] + b[i];
    if (t < best.value) best = {t, static_cast<std::int64_t>(i)};
  }
  return best;
}

ArgResult RefArgMaxPlusFirst(const std::vector<double>& row,
                             const std::vector<double>& far, double base) {
  ArgResult best{-kInf, -1};
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (far[i] < 0.0) continue;
    const double t = (base + row[i]) + far[i];
    if (t > best.value) best = {t, static_cast<std::int64_t>(i)};
  }
  return best;
}

// -------------------------------------------------------------------------

TEST(KernelsTest, MaxPlusReduceMatchesReferenceOnEveryBackend) {
  Rng rng(11);
  for (const std::size_t n : kSizes) {
    const auto row = RandomLatencies(rng, n);
    const auto far = RandomFar(rng, n);
    for (const double base : {0.0, 12.5, 87.25}) {
      const double want = RefMaxPlusReduce(row, far, base);
      for (const Backend b : TestableBackends()) {
        BackendGuard guard(b);
        EXPECT_EQ(MaxPlusReduce(row.data(), far.data(), n, base), want)
            << "n=" << n << " base=" << base << " backend=" << BackendName(b);
      }
    }
  }
}

TEST(KernelsTest, MaxPlusReduceSkipsAllUnusedLanes) {
  const std::vector<double> row{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> far(row.size(), -1.0);
  for (const Backend b : TestableBackends()) {
    BackendGuard guard(b);
    EXPECT_EQ(MaxPlusReduce(row.data(), far.data(), row.size()), -kInf)
        << BackendName(b);
  }
}

TEST(KernelsTest, MaxAccumulatePlusMatchesReferenceOnEveryBackend) {
  Rng rng(13);
  for (const std::size_t n : kSizes) {
    const auto acc0 = RandomLatencies(rng, n);
    const auto row = RandomLatencies(rng, n);
    const double add = rng.NextUniform(0.0, 90.0);
    std::vector<double> want = acc0;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = std::max(want[i], row[i] + add);
    }
    for (const Backend b : TestableBackends()) {
      BackendGuard guard(b);
      std::vector<double> acc = acc0;
      MaxAccumulatePlus(acc.data(), row.data(), add, n);
      EXPECT_EQ(acc, want) << "n=" << n << " backend=" << BackendName(b);
    }
  }
}

TEST(KernelsTest, MinPlusAccumulateMatchesReferenceOnEveryBackend) {
  Rng rng(17);
  for (const std::size_t n : kSizes) {
    std::vector<double> acc0(n, kInf);
    if (n > 2) acc0[n / 2] = 4.0;  // a lane already relaxed
    const auto row = RandomLatencies(rng, n);
    const double add = rng.NextUniform(0.0, 90.0);
    std::vector<double> want = acc0;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = std::min(want[i], row[i] + add);
    }
    for (const Backend b : TestableBackends()) {
      BackendGuard guard(b);
      std::vector<double> acc = acc0;
      MinPlusAccumulate(acc.data(), row.data(), add, n);
      EXPECT_EQ(acc, want) << "n=" << n << " backend=" << BackendName(b);
    }
  }
}

TEST(KernelsTest, MinPlusReduceMatchesReferenceOnEveryBackend) {
  Rng rng(19);
  for (const std::size_t n : kSizes) {
    const auto a = RandomLatencies(rng, n);
    const auto b2 = RandomLatencies(rng, n);
    const double want = RefMinPlusReduce(a, b2);
    for (const Backend b : TestableBackends()) {
      BackendGuard guard(b);
      EXPECT_EQ(MinPlusReduce(a.data(), b2.data(), n), want)
          << "n=" << n << " backend=" << BackendName(b);
    }
  }
}

TEST(KernelsTest, ArgMinFirstMatchesReferenceIncludingTies) {
  Rng rng(23);
  for (const std::size_t n : kSizes) {
    auto v = RandomLatencies(rng, n);
    // Force duplicated minima so the first-index tie-break is exercised.
    if (n >= 6) v[n - 1] = v[2] = v[1] = 0.125;
    const ArgResult want = RefArgMinFirst(v);
    for (const Backend b : TestableBackends()) {
      BackendGuard guard(b);
      const ArgResult got = ArgMinFirst(v.data(), n);
      EXPECT_EQ(got.index, want.index)
          << "n=" << n << " backend=" << BackendName(b);
      if (want.index >= 0) {
        EXPECT_EQ(got.value, want.value);
      }
    }
  }
}

TEST(KernelsTest, ArgMinPlusFirstHonoursSaturationMask) {
  Rng rng(29);
  for (const std::size_t n : kSizes) {
    const auto dist = RandomLatencies(rng, n);
    std::vector<double> avail(n);
    for (double& x : avail) x = rng.NextBernoulli(0.4) ? kInf : 0.0;
    const ArgResult want = RefArgMinPlusFirst(dist, avail);
    for (const Backend b : TestableBackends()) {
      BackendGuard guard(b);
      const ArgResult got = ArgMinPlusFirst(dist.data(), avail.data(), n);
      EXPECT_EQ(got.index, want.index)
          << "n=" << n << " backend=" << BackendName(b);
      if (want.index >= 0) {
        EXPECT_EQ(got.value, want.value);
      }
    }
  }
}

TEST(KernelsTest, ArgMaxPlusFirstMatchesReferenceIncludingTies) {
  Rng rng(31);
  for (const std::size_t n : kSizes) {
    auto row = RandomLatencies(rng, n);
    auto far = RandomFar(rng, n);
    if (n >= 8) {
      // Identical winning terms at three positions: first index must win.
      row[3] = row[5] = row[n - 1] = 500.0;
      far[3] = far[5] = far[n - 1] = 500.0;
    }
    for (const double base : {0.0, 33.75}) {
      const ArgResult want = RefArgMaxPlusFirst(row, far, base);
      for (const Backend b : TestableBackends()) {
        BackendGuard guard(b);
        const ArgResult got =
            ArgMaxPlusFirst(row.data(), far.data(), n, base);
        EXPECT_EQ(got.index, want.index)
            << "n=" << n << " base=" << base
            << " backend=" << BackendName(b);
        if (want.index >= 0) {
          EXPECT_EQ(got.value, want.value);
        }
      }
    }
  }
}

TEST(KernelsTest, DotProductIsIdenticalAcrossBackends) {
  Rng rng(37);
  for (const std::size_t n : kSizes) {
    const auto a = RandomLatencies(rng, n);
    const auto b2 = RandomLatencies(rng, n);
    BackendGuard guard(Backend::kScalar);
    const double want = DotProduct(a.data(), b2.data(), n);
    // Fixed 4-accumulator association: bit-identical, not merely close.
    for (const Backend b : TestableBackends()) {
      SetBackend(b);
      EXPECT_EQ(DotProduct(a.data(), b2.data(), n), want)
          << "n=" << n << " backend=" << BackendName(b);
    }
    // And within ~2 ulp-ish slack of a plain serial sum (sanity).
    double serial = 0.0;
    for (std::size_t i = 0; i < n; ++i) serial += a[i] * b2[i];
    EXPECT_NEAR(want, serial, 1e-9 * std::max(1.0, std::abs(serial)));
  }
}

// The contract's literal loop order, written independently: k outermost,
// a[i][k] hoisted once per (k, i), j elementwise.
void RefMinPlusTile(double* c, std::size_t cs, const double* a, std::size_t as,
                    const double* b, std::size_t bs, std::size_t rows,
                    std::size_t cols, std::size_t depth) {
  for (std::size_t k = 0; k < depth; ++k) {
    for (std::size_t i = 0; i < rows; ++i) {
      const double aik = a[i * as + k];
      if (std::isinf(aik)) continue;
      for (std::size_t j = 0; j < cols; ++j) {
        c[i * cs + j] = std::min(c[i * cs + j], aik + b[k * bs + j]);
      }
    }
  }
}

std::vector<double> RandomTile(Rng& rng, std::size_t rows, std::size_t stride,
                               double inf_prob) {
  std::vector<double> v(rows * stride);
  for (double& x : v) {
    x = rng.NextBernoulli(inf_prob) ? kInf : rng.NextUniform(0.0, 250.0);
  }
  return v;
}

TEST(KernelsTest, MinPlusTileUpdateMatchesReferenceOnEveryBackend) {
  Rng rng(43);
  const std::vector<std::size_t> dims{1, 2, 3, 4, 5, 7, 8, 13, 17};
  for (const std::size_t rows : dims) {
    for (const std::size_t cols : dims) {
      const std::size_t depth = dims[(rows + cols) % dims.size()];
      const std::size_t cs = cols + 3;  // unaligned, distinct strides
      const std::size_t as = depth + 1;
      const std::size_t bs = cols + 5;
      const auto c0 = RandomTile(rng, rows, cs, 0.15);
      const auto a = RandomTile(rng, rows, as, 0.25);
      const auto b = RandomTile(rng, depth, bs, 0.15);
      std::vector<double> want = c0;
      RefMinPlusTile(want.data(), cs, a.data(), as, b.data(), bs, rows, cols,
                     depth);
      for (const Backend bk : TestableBackends()) {
        BackendGuard guard(bk);
        std::vector<double> c = c0;
        MinPlusTileUpdate(c.data(), cs, a.data(), as, b.data(), bs, rows,
                          cols, depth);
        EXPECT_EQ(c, want) << "rows=" << rows << " cols=" << cols
                           << " depth=" << depth
                           << " backend=" << BackendName(bk);
      }
    }
  }
}

TEST(KernelsTest, MinPlusTileUpdateAliasedIsIdenticalAcrossBackends) {
  // The Floyd–Warshall phases alias freely: the diagonal tile has
  // c == a == b, row panels c == b, column panels c == a. The contract
  // promises bit-identity across backends for ARBITRARY inputs (not just
  // zero-diagonal ones), so test both a zero-diagonal tile and raw random
  // data, against the independently-written reference.
  Rng rng(47);
  for (const std::size_t n : {1ul, 3ul, 4ul, 5ul, 8ul, 13ul, 16ul, 31ul}) {
    const std::size_t stride = n + (n % 3);
    for (const bool zero_diag : {true, false}) {
      auto t0 = RandomTile(rng, n, stride, 0.2);
      if (zero_diag) {
        for (std::size_t i = 0; i < n; ++i) t0[i * stride + i] = 0.0;
      }
      for (const int mode : {0, 1, 2}) {  // 0: c==a==b, 1: c==b, 2: c==a
        auto other = RandomTile(rng, n, stride, 0.2);
        std::vector<double> want = t0;
        if (mode == 0) {
          RefMinPlusTile(want.data(), stride, want.data(), stride,
                         want.data(), stride, n, n, n);
        } else if (mode == 1) {
          RefMinPlusTile(want.data(), stride, other.data(), stride,
                         want.data(), stride, n, n, n);
        } else {
          RefMinPlusTile(want.data(), stride, want.data(), stride,
                         other.data(), stride, n, n, n);
        }
        for (const Backend bk : TestableBackends()) {
          BackendGuard guard(bk);
          std::vector<double> t = t0;
          if (mode == 0) {
            MinPlusTileUpdate(t.data(), stride, t.data(), stride, t.data(),
                              stride, n, n, n);
          } else if (mode == 1) {
            MinPlusTileUpdate(t.data(), stride, other.data(), stride,
                              t.data(), stride, n, n, n);
          } else {
            MinPlusTileUpdate(t.data(), stride, t.data(), stride,
                              other.data(), stride, n, n, n);
          }
          EXPECT_EQ(t, want) << "n=" << n << " mode=" << mode
                             << " zero_diag=" << zero_diag
                             << " backend=" << BackendName(bk);
        }
      }
    }
  }
}

TEST(KernelsTest, MinPlusTileUpdatePreservesInfinitePadColumns) {
  // A +inf column (a pad lane mid-elimination) must stay +inf: every
  // update adds a finite aik to the +inf b entry.
  const std::size_t n = 8;
  Rng rng(53);
  auto c = RandomTile(rng, n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    c[i * n + i] = 0.0;
    c[i * n + (n - 1)] = kInf;  // pad column
    c[(n - 1) * n + i] = kInf;  // pad row (b side)
  }
  c[(n - 1) * n + (n - 1)] = 0.0;
  for (const Backend bk : TestableBackends()) {
    BackendGuard guard(bk);
    auto t = c;
    MinPlusTileUpdate(t.data(), n, t.data(), n, t.data(), n, n, n, n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      EXPECT_TRUE(std::isinf(t[i * n + (n - 1)]))
          << "i=" << i << " backend=" << BackendName(bk);
    }
  }
}

TEST(KernelsTest, BroadcastAddMatchesReferenceOnEveryBackend) {
  Rng rng(61);
  for (const std::size_t n : kSizes) {
    const auto row = RandomLatencies(rng, n);
    for (const double add : {0.0, 7.25, 133.125}) {
      std::vector<double> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = add + row[i];
      for (const Backend b : TestableBackends()) {
        BackendGuard guard(b);
        std::vector<double> got(n, -1.0);
        BroadcastAdd(got.data(), row.data(), add, n);
        EXPECT_EQ(got, want)
            << "n=" << n << " add=" << add << " backend=" << BackendName(b);
      }
    }
  }
}

TEST(KernelsTest, GatherPlusMatchesReferenceOnEveryNullCombination) {
  Rng rng(67);
  for (const std::size_t n : kSizes) {
    // rows/access are client-indexed and may be larger than the gather
    // (ids picks a subset); col is node-indexed through rows.
    const std::size_t num_clients = n + 4;
    const std::size_t num_nodes = 2 * n + 5;
    const auto col = RandomLatencies(rng, num_nodes);
    const auto access = RandomLatencies(rng, num_clients);
    std::vector<std::int32_t> rows(num_clients);
    for (auto& r : rows) {
      r = static_cast<std::int32_t>(rng.NextBounded(num_nodes));
    }
    // Non-trivial walk with duplicates: exercises the permuted-load path.
    std::vector<std::int32_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<std::int32_t>((i * 3 + 1) % num_clients);
    }
    struct Combo {
      const double* access;
      const std::int32_t* ids;
      const char* name;
    };
    const Combo combos[] = {{access.data(), ids.data(), "access+ids"},
                            {access.data(), nullptr, "access"},
                            {nullptr, ids.data(), "ids"},
                            {nullptr, nullptr, "raw"}};
    for (const Combo& combo : combos) {
      std::vector<double> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c =
            combo.ids != nullptr ? static_cast<std::size_t>(combo.ids[i]) : i;
        const double leg = col[static_cast<std::size_t>(rows[c])];
        want[i] = combo.access != nullptr ? combo.access[c] + leg : leg;
      }
      for (const Backend b : TestableBackends()) {
        BackendGuard guard(b);
        std::vector<double> got(n, -1.0);
        GatherPlus(got.data(), col.data(), rows.data(), combo.access,
                   combo.ids, n);
        EXPECT_EQ(got, want)
            << "n=" << n << " combo=" << combo.name
            << " backend=" << BackendName(b);
      }
    }
  }
}

TEST(KernelsTest, MaxAbsorbScatterFoldsEccentricities) {
  // 3 servers, padded stride 8 (kPadWidth), 6 clients, one unassigned.
  const std::size_t stride = PaddedStride(3);
  ASSERT_EQ(stride, kPadWidth);
  std::vector<double> cs(6 * stride, 0.0);
  const auto at = [&](std::size_t c, std::size_t s) -> double& {
    return cs[c * stride + s];
  };
  at(0, 0) = 7.0;
  at(1, 1) = 3.0;
  at(2, 0) = 9.0;
  at(3, 2) = 4.0;
  at(5, 1) = 6.0;
  const std::vector<std::int32_t> assign{0, 1, 0, 2, -1, 1};
  std::vector<double> far(3, -1.0);
  MaxAbsorbScatter(far.data(), assign.data(), cs.data(), stride, 0, 6);
  EXPECT_EQ(far, (std::vector<double>{9.0, 6.0, 4.0}));
  // Split ranges compose: redoing it in two halves gives the same fold.
  std::vector<double> far2(3, -1.0);
  MaxAbsorbScatter(far2.data(), assign.data(), cs.data(), stride, 0, 3);
  MaxAbsorbScatter(far2.data(), assign.data(), cs.data(), stride, 3, 6);
  EXPECT_EQ(far2, far);
}

TEST(KernelsTest, RadixSortDistIndexMatchesStableComparisonSort) {
  Rng rng(77);
  for (const std::size_t n : kSizes) {
    auto dist = RandomLatencies(rng, n);
    // Force duplicate keys (including zeros) so the stability contract —
    // ties keep ascending input index — is actually exercised.
    if (n >= 4) {
      dist[n - 1] = dist[0];
      dist[n - 2] = 0.0;
      dist[1] = 0.0;
    }
    std::vector<std::int32_t> idx(n);
    std::vector<std::pair<double, std::int32_t>> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<std::int32_t>(i);
      want[i] = {dist[i], static_cast<std::int32_t>(i)};
    }
    std::sort(want.begin(), want.end());  // lexicographic == (dist, index)
    RadixSortDistIndex(dist.data(), idx.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dist[i], want[i].first) << "n=" << n << " i=" << i;
      EXPECT_EQ(idx[i], want[i].second) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelsTest, RadixSortDistIndexHandlesConstantAndTinyInputs) {
  // All-equal keys: every pass is skipped, order must stay untouched.
  std::vector<double> dist(9, 12.5);
  std::vector<std::int32_t> idx{3, 1, 4, 1, 5, 9, 2, 6, 8};
  const auto idx0 = idx;
  RadixSortDistIndex(dist.data(), idx.data(), dist.size());
  EXPECT_EQ(idx, idx0);
  // n < 2 is a no-op.
  double one = 4.0;
  std::int32_t ione = 7;
  RadixSortDistIndex(&one, &ione, 1);
  EXPECT_EQ(one, 4.0);
  EXPECT_EQ(ione, 7);
  RadixSortDistIndex(nullptr, nullptr, 0);
}

TEST(KernelsTest, PaddedStrideContract) {
  EXPECT_EQ(PaddedStride(0), 0u);
  EXPECT_EQ(PaddedStride(1), kPadWidth);
  EXPECT_EQ(PaddedStride(kPadWidth), kPadWidth);
  EXPECT_EQ(PaddedStride(kPadWidth + 1), 2 * kPadWidth);
  EXPECT_EQ(PaddedStride(1796), 1800u);
  // 4 KiB-aliasing avoidance: strides congruent to 0 or 256 (mod 512
  // doubles) would put rows one or two apart at the same page offset, so
  // the rounding skips them by one pad quantum.
  EXPECT_EQ(PaddedStride(256), 264u);
  EXPECT_EQ(PaddedStride(512), 520u);
  EXPECT_EQ(PaddedStride(1024), 1032u);
  EXPECT_EQ(PaddedStride(2048), 2056u);
  EXPECT_EQ(PaddedStride(2040), 2040u);
  for (std::size_t n = 0; n < 4200; ++n) {
    const std::size_t stride = PaddedStride(n);
    EXPECT_GE(stride, n);
    EXPECT_EQ(stride % kPadWidth, 0u);
    EXPECT_LT(stride, n + 2 * kPadWidth);
    if (stride > 0) {
      EXPECT_NE(stride % 512, 0u) << n;
      EXPECT_NE(stride % 512, 256u) << n;
    }
  }
}

TEST(KernelsTest, SetBackendFallsBackWhenAvx2Unavailable) {
  SetBackend(Backend::kAvx2);
  if (Avx2Available()) {
    EXPECT_EQ(ActiveBackend(), Backend::kAvx2);
  } else {
    EXPECT_EQ(ActiveBackend(), Backend::kPortable);
  }
  SetBackend(BestBackend());
}

}  // namespace
}  // namespace diaca::simd
