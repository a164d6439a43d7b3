// Property tests for the SIMD kernel layer: every backend must reproduce
// a naive scalar reference BIT-identically (EXPECT_EQ on doubles, no
// tolerance) across sizes that exercise full vectors, remainder lanes and
// the empty range — the determinism contract of common/simd/kernels.h.
// DotProduct is the one exception: its contract is a fixed 4-accumulator
// association (one loop that every backend runs), not equality with a
// serial left-to-right sum, so it is compared across backends and only
// checked close to the serial sum.
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

// n = 1, vector widths +/- 1 (2, 4 and 8 doubles per vector; kPadWidth
// is 8), primes, and a couple of large sizes spanning many vectors plus a
// tail.
const std::vector<std::size_t> kSizes{0, 1,  2,  3,  4,  5,  7,  8,
                                      9, 13, 16, 17, 31, 61, 128, 131};

constexpr Backend kBackends[] = {Backend::kScalar, Backend::kPortable};

// Scoped backend override; restores the default backend on destruction so
// test order never leaks a scalar override into other suites.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) { SetBackend(b); }
  ~BackendGuard() { SetBackend(Backend::kPortable); }
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
      for (const Backend b : kBackends) {
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
  for (const Backend b : kBackends) {
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
    for (const Backend b : kBackends) {
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
    for (const Backend b : kBackends) {
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
    for (const Backend b : kBackends) {
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
    for (const Backend b : kBackends) {
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
    for (const Backend b : kBackends) {
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
      for (const Backend b : kBackends) {
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
    for (const Backend b : kBackends) {
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

TEST(KernelsTest, BroadcastAddMatchesReferenceOnEveryBackend) {
  Rng rng(61);
  for (const std::size_t n : kSizes) {
    const auto row = RandomLatencies(rng, n);
    for (const double add : {0.0, 7.25, 133.125}) {
      std::vector<double> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = add + row[i];
      for (const Backend b : kBackends) {
        BackendGuard guard(b);
        std::vector<double> got(n, -1.0);
        BroadcastAdd(got.data(), row.data(), add, n);
        EXPECT_EQ(got, want)
            << "n=" << n << " add=" << add << " backend=" << BackendName(b);
      }
    }
  }
}

TEST(KernelsTest, GatherPlusMatchesReference) {
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
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(ids[i]);
      want[i] = access[c] + col[static_cast<std::size_t>(rows[c])];
    }
    for (const Backend b : kBackends) {
      BackendGuard guard(b);
      std::vector<double> got(n, -1.0);
      GatherPlus(got.data(), col.data(), rows.data(), access.data(),
                 ids.data(), n);
      EXPECT_EQ(got, want) << "n=" << n << " backend=" << BackendName(b);
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

TEST(KernelsTest, DefaultBackendIsPortableAndSetBackendRoundTrips) {
  EXPECT_EQ(ActiveBackend(), Backend::kPortable);
  for (const Backend b : kBackends) {
    SetBackend(b);
    EXPECT_EQ(ActiveBackend(), b);
  }
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kPortable), "portable");
}

}  // namespace
}  // namespace diaca::simd
