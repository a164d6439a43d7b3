#include "data/streaming.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace diaca::data {

ClientCloud BuildClientCloud(const ClientCloudParams& params,
                             std::uint64_t seed,
                             const net::DistanceOracle& oracle,
                             std::span<const net::NodeIndex> server_nodes) {
  DIACA_OBS_SPAN("data.cloud.build");
  const net::NodeIndex n = oracle.size();
  DIACA_CHECK_MSG(n == params.substrate.num_nodes,
                  "oracle covers " << n << " nodes but the substrate has "
                                   << params.substrate.num_nodes);
  DIACA_CHECK_MSG(!server_nodes.empty(), "server list must not be empty");
  for (net::NodeIndex s : server_nodes) {
    DIACA_CHECK_MSG(s >= 0 && s < n,
                    "server node " << s << " outside substrate of size " << n);
  }
  DIACA_CHECK_MSG(params.num_clients > 0, "need at least one client");
  // Clients are indexed by int32 ClientIndex and labeled n, n + 1, ... in
  // the int32 NodeIndex space, so both must fit.
  DIACA_CHECK_MSG(
      params.num_clients <= std::numeric_limits<std::int32_t>::max() - n,
      "cloud of " << params.num_clients << " clients on a " << n
                  << "-node substrate overflows 32-bit client and node "
                     "indices");

  std::vector<net::NodeIndex> servers(server_nodes.begin(),
                                      server_nodes.end());
  const auto num_clients = static_cast<std::size_t>(params.num_clients);
  const auto num_servers = servers.size();

  // One Rng stream, consumed in client order: (attach, access) pairs.
  // The sequence depends only on (seed, num_clients), never on threads.
  Rng rng(seed);
  std::vector<net::NodeIndex> attach(num_clients);
  std::vector<double> access_ms(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    attach[c] = static_cast<net::NodeIndex>(
        rng.NextBounded(static_cast<std::uint64_t>(n)));
    access_ms[c] = std::max(
        params.min_access_ms,
        rng.NextLogNormal(params.access_mu, params.access_sigma));
  }

  if (!params.materialize_block) {
    // No-materialize path: hand the solvers an OracleTileView directly.
    // The view pulls the same |S| canonical server rows the block fill
    // below would and synthesizes client rows with the same single
    // addition, so every solver lands on bit-identical assignments.
    auto view = core::OracleTileView::FromAttachments(
        oracle, servers, attach, access_ms, params.tile);
    std::vector<net::NodeIndex> client_ids(num_clients);
    std::iota(client_ids.begin(), client_ids.end(), n);
    const std::span<const double> d_ss = view->server_block();
    core::Problem problem = core::Problem::FromView(
        std::move(view), servers, std::move(client_ids), d_ss);
    return ClientCloud{std::move(servers), std::move(attach),
                       std::move(access_ms), std::move(problem)};
  }

  // The |S| substrate server rows — the only shortest-path work in the
  // whole build.
  std::vector<std::vector<double>> server_rows(num_servers);
  GlobalPool().ParallelFor(
      0, static_cast<std::int64_t>(num_servers), 1,
      [&](std::int64_t sb, std::int64_t se) {
        for (std::int64_t s = sb; s < se; ++s) {
          auto& row = server_rows[static_cast<std::size_t>(s)];
          row.resize(static_cast<std::size_t>(n));
          oracle.FillRow(servers[static_cast<std::size_t>(s)], row);
        }
      });

  // Client block: d(c, s) = access(c) + row_s[attach(c)], written straight
  // into the padded layout the view adopts (pad lanes stay 0.0), so the
  // block is held exactly once. Each chunk owns its client rows, so the
  // fill is embarrassingly parallel and the single addition per cell is
  // association-free.
  const std::size_t stride = simd::PaddedStride(num_servers);
  std::vector<double> block(num_clients * stride, 0.0);
  GlobalPool().ParallelFor(
      0, params.num_clients, 4096, [&](std::int64_t cb, std::int64_t ce) {
        for (std::int64_t c = cb; c < ce; ++c) {
          const auto ci = static_cast<std::size_t>(c);
          const auto at = static_cast<std::size_t>(attach[ci]);
          const double access = access_ms[ci];
          double* out = block.data() + ci * stride;
          for (std::size_t s = 0; s < num_servers; ++s) {
            out[s] = access + server_rows[s][at];
          }
        }
      });

  std::vector<double> d_ss(num_servers * num_servers);
  for (std::size_t a = 0; a < num_servers; ++a) {
    for (std::size_t b = 0; b < num_servers; ++b) {
      d_ss[a * num_servers + b] =
          a == b ? 0.0
                 : server_rows[a][static_cast<std::size_t>(servers[b])];
    }
  }

  // Virtual client ids: substrate nodes keep their ids, client i becomes
  // node n + i. The ids are labels only (the problem never indexes a
  // matrix with them).
  std::vector<net::NodeIndex> client_ids(num_clients);
  std::iota(client_ids.begin(), client_ids.end(), n);
  auto view = std::make_shared<core::MaterializedView>(
      static_cast<std::int32_t>(num_clients),
      static_cast<std::int32_t>(num_servers), std::move(block));
  core::Problem problem = core::Problem::FromView(
      std::move(view), servers, std::move(client_ids), d_ss);
  return ClientCloud{std::move(servers), std::move(attach),
                     std::move(access_ms), std::move(problem)};
}

double DenseEquivalentMb(std::int64_t total_nodes) {
  const auto n = static_cast<std::size_t>(total_nodes);
  const std::size_t stride = simd::PaddedStride(n);
  return static_cast<double>(n) * static_cast<double>(stride) *
         sizeof(double) / (1024.0 * 1024.0);
}

}  // namespace diaca::data
