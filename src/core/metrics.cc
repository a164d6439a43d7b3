#include "core/metrics.h"

#include <algorithm>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"

namespace diaca::core {

namespace {

// Below this many clients the chunked parallel paths fall back to plain
// loops — the work wouldn't cover the fan-out cost.
constexpr std::int64_t kClientGrain = 2048;

// max over used pairs (s1, s2) of far(s1) + d(s1, s2) + far(s2), from an
// eccentricity array already in hand. Shared by MaxInteractionPathLength
// and CriticalClients so the eccentricities are computed exactly once per
// caller. The subrange fold over s2 >= s1 walks the same upper triangle
// as the former nested loop, with the same (f1 + d) + f2 association, so
// the value is bit-identical to it.
double MaxPathFromEccentricities(const Problem& problem,
                                 std::span<const double> far) {
  const std::int32_t num_servers = problem.num_servers();
  double best = 0.0;
  for (ServerIndex s1 = 0; s1 < num_servers; ++s1) {
    const double f1 = far[static_cast<std::size_t>(s1)];
    if (f1 < 0.0) continue;
    best = std::max(
        best, simd::MaxPlusReduce(
                  problem.ss_row(s1) + s1,
                  far.data() + static_cast<std::size_t>(s1),
                  static_cast<std::size_t>(num_servers - s1), f1));
  }
  return best;
}

}  // namespace

double InteractionPathLength(const Problem& problem, const Assignment& a,
                             ClientIndex ci, ClientIndex cj) {
  const ServerIndex si = a[ci];
  const ServerIndex sj = a[cj];
  DIACA_CHECK_MSG(si != kUnassigned && sj != kUnassigned,
                  "interaction path requires assigned clients");
  const ClientBlockView& view = problem.client_block();
  return view.cs(ci, si) + problem.ss(si, sj) + view.cs(cj, sj);
}

std::vector<double> ServerEccentricities(const Problem& problem,
                                         const Assignment& a) {
  DIACA_CHECK(a.size() == static_cast<std::size_t>(problem.num_clients()));
  const std::int32_t num_clients = problem.num_clients();
  const auto num_servers = static_cast<std::size_t>(problem.num_servers());
  std::vector<double> far(num_servers, -1.0);
  const ClientBlockView& view = problem.client_block();
  const double* cs = view.raw_block();
  if (cs == nullptr) {
    // Streamed block: the view's bounds-first fold reads only the
    // assigned diagonal (one value per client, never a synthesized row)
    // and certified-skips whole client blocks once the running maxima
    // dominate them — bit-identical to the full scatter because max is
    // exact and skipped clients provably cannot raise it.
    view.FoldAssignedMax(a.server_of.data(), far.data());
    return far;
  }
  const std::size_t cs_stride = problem.server_stride();
  ThreadPool& pool = GlobalPool();
  if (pool.num_threads() == 1 || num_clients <= kClientGrain) {
    simd::MaxAbsorbScatter(far.data(), a.server_of.data(), cs, cs_stride, 0,
                           num_clients);
    return far;
  }
  // Chunked max-merge: each chunk folds its clients into a private buffer
  // owned by its chunk slot; the buffers are merged after the fork-join,
  // in chunk order, with no lock anywhere. `max` is exact, so the merged
  // eccentricities are bit-identical to the serial scan regardless.
  const std::size_t num_chunks = static_cast<std::size_t>(
      (num_clients + kClientGrain - 1) / kClientGrain);
  std::vector<std::vector<double>> locals(num_chunks);
  pool.ParallelFor(0, num_clients, kClientGrain,
                   [&](std::int64_t b, std::int64_t e) {
                     auto& local = locals[static_cast<std::size_t>(
                         b / kClientGrain)];
                     local.assign(num_servers, -1.0);
                     simd::MaxAbsorbScatter(local.data(), a.server_of.data(),
                                            cs, cs_stride, b, e);
                   });
  for (const std::vector<double>& local : locals) {
    for (std::size_t s = 0; s < num_servers; ++s) {
      far[s] = std::max(far[s], local[s]);
    }
  }
  return far;
}

double MaxInteractionPathLength(const Problem& problem, const Assignment& a) {
  DIACA_CHECK_MSG(a.IsComplete(), "assignment must be complete");
  const std::vector<double> far = ServerEccentricities(problem, a);
  return MaxPathFromEccentricities(problem, far);
}

double MaxInteractionPathLengthExact(const net::DistanceOracle& oracle,
                                     const Problem& problem,
                                     const Assignment& a) {
  DIACA_CHECK_MSG(a.IsComplete(), "assignment must be complete");
  DIACA_CHECK_MSG(oracle.exact(),
                  "ground-truth evaluation needs an exact oracle backend "
                  "(dense or rows)");
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  // Bucket clients by their assigned server so each server row is scanned
  // only against its own clients (one pass, O(|C|) total).
  std::vector<std::vector<ClientIndex>> assigned(
      static_cast<std::size_t>(num_servers));
  for (ClientIndex c = 0; c < num_clients; ++c) {
    assigned[static_cast<std::size_t>(a[c])].push_back(c);
  }
  // One oracle row per used server yields both the true eccentricity and
  // the true server-to-server distances. Transient memory: O(|U| * n)
  // for the ss block rows, one full row at a time.
  std::vector<double> far(static_cast<std::size_t>(num_servers), -1.0);
  std::vector<std::vector<double>> ss_true(
      static_cast<std::size_t>(num_servers));
  std::vector<double> row(static_cast<std::size_t>(oracle.size()));
  for (ServerIndex s = 0; s < num_servers; ++s) {
    const auto si = static_cast<std::size_t>(s);
    if (assigned[si].empty()) continue;
    oracle.FillRow(problem.server_node(s), row);
    for (ClientIndex c : assigned[si]) {
      far[si] = std::max(
          far[si], row[static_cast<std::size_t>(problem.client_node(c))]);
    }
    auto& ss_row = ss_true[si];
    ss_row.resize(static_cast<std::size_t>(num_servers));
    for (ServerIndex t = 0; t < num_servers; ++t) {
      ss_row[static_cast<std::size_t>(t)] =
          s == t ? 0.0
                 : row[static_cast<std::size_t>(problem.server_node(t))];
    }
  }
  // Same (f1 + d) + f2 association as MaxPathFromEccentricities.
  double best = 0.0;
  for (ServerIndex s1 = 0; s1 < num_servers; ++s1) {
    const double f1 = far[static_cast<std::size_t>(s1)];
    if (f1 < 0.0) continue;
    for (ServerIndex s2 = s1; s2 < num_servers; ++s2) {
      const double f2 = far[static_cast<std::size_t>(s2)];
      if (f2 < 0.0) continue;
      best = std::max(
          best,
          (f1 + ss_true[static_cast<std::size_t>(s1)]
                       [static_cast<std::size_t>(s2)]) +
              f2);
    }
  }
  return best;
}

double MaxServerReach(const Problem& problem, std::span<const double> far,
                      ServerIndex s) {
  // (0 + row[t]) + far[t] == row[t] + far[t] bit-for-bit: latencies are
  // non-negative, so 0.0 + row[t] is exactly row[t].
  return std::max(0.0, simd::MaxPlusReduce(
                           problem.ss_row(s), far.data(),
                           static_cast<std::size_t>(problem.num_servers())));
}

std::vector<ClientIndex> CriticalClients(const Problem& problem,
                                         const Assignment& a,
                                         double tolerance) {
  DIACA_CHECK_MSG(a.IsComplete(), "assignment must be complete");
  // One eccentricity scan feeds both the objective and the reach terms
  // (the former code recomputed it via MaxInteractionPathLength and then
  // again directly).
  const std::vector<double> far = ServerEccentricities(problem, a);
  const double max_len = MaxPathFromEccentricities(problem, far);
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  ThreadPool& pool = GlobalPool();
  // The reach term depends only on the server, so compute it once per
  // server (fanned out across the pool) instead of once per client.
  std::vector<double> reach(static_cast<std::size_t>(num_servers), 0.0);
  pool.ParallelFor(0, num_servers, 8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t s = b; s < e; ++s) {
      reach[static_cast<std::size_t>(s)] =
          MaxServerReach(problem, far, static_cast<ServerIndex>(s));
    }
  });
  // Only the assigned diagonal matters, so gather it in one O(|C|) pass
  // (no tile is ever synthesized) and flag clients in ascending order —
  // the same values, hence the same list, the former tile traversal
  // produced.
  std::vector<double> dcs(static_cast<std::size_t>(num_clients));
  problem.client_block().GatherAssigned(a.server_of.data(), dcs.data());
  std::vector<ClientIndex> critical;
  for (ClientIndex c = 0; c < num_clients; ++c) {
    const ServerIndex s = a[c];
    const double d = dcs[static_cast<std::size_t>(c)];
    // c is an endpoint of a longest path iff its distance plus the
    // longest reach from its server (or its own round trip) attains
    // max_len.
    const double longest_via_c =
        std::max(2.0 * d, d + reach[static_cast<std::size_t>(s)]);
    if (longest_via_c >= max_len - tolerance) critical.push_back(c);
  }
  return critical;
}

double MeanInteractionPathLength(const Problem& problem,
                                 const Assignment& a) {
  DIACA_CHECK_MSG(a.IsComplete(), "assignment must be complete");
  const auto num_clients = static_cast<double>(problem.num_clients());
  // Per-server aggregates: load n_s and total client distance t_s. The
  // ordered-pair sum decomposes as
  //   sum_{i,j} d(ci,si) + d(si,sj) + d(cj,sj)
  //     = 2 |C| sum_i d(ci,si) + sum_{s1,s2} n_{s1} n_{s2} d(s1,s2).
  std::vector<double> total_dist(static_cast<std::size_t>(problem.num_servers()),
                                 0.0);
  std::vector<double> load(static_cast<std::size_t>(problem.num_servers()), 0.0);
  double client_sum = 0.0;
  // One sparse gather of the assigned diagonal, accumulated in ascending
  // client order — the same values in the same order as the former tile
  // traversal, so the floating-point sums are bit-identical on every
  // backend without synthesizing a single tile.
  {
    std::vector<double> dcs(
        static_cast<std::size_t>(problem.num_clients()));
    problem.client_block().GatherAssigned(a.server_of.data(), dcs.data());
    for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
      const ServerIndex s = a[c];
      const double d = dcs[static_cast<std::size_t>(c)];
      total_dist[static_cast<std::size_t>(s)] += d;
      load[static_cast<std::size_t>(s)] += 1.0;
      client_sum += d;
    }
  }
  // The inner sum over s2 is a dot product of the s1 row with the load
  // vector: unused servers carry load 0.0, whose products vanish exactly,
  // so the full-range kernel equals the former used-set pair loop. Only
  // used s1 rows contribute (a zero-load endpoint zeroes the whole row).
  const auto num_servers = static_cast<std::size_t>(problem.num_servers());
  double pair_sum = 2.0 * num_clients * client_sum;
  for (ServerIndex s1 = 0; s1 < problem.num_servers(); ++s1) {
    if (load[static_cast<std::size_t>(s1)] <= 0.0) continue;
    pair_sum += load[static_cast<std::size_t>(s1)] *
                simd::DotProduct(problem.ss_row(s1), load.data(), num_servers);
  }
  return pair_sum / (num_clients * num_clients);
}

std::int32_t MaxServerLoad(const Problem& problem, const Assignment& a) {
  std::vector<std::int32_t> load(static_cast<std::size_t>(problem.num_servers()), 0);
  std::int32_t best = 0;
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    const ServerIndex s = a[c];
    if (s == kUnassigned) continue;
    best = std::max(best, ++load[static_cast<std::size_t>(s)]);
  }
  return best;
}

}  // namespace diaca::core
