#include "data/streaming.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "common/simd/simd.h"
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

  // The view pulls the |S| canonical server rows — the only
  // shortest-path work in the whole build — and owns the block formula.
  // A resident block is cut from its rows, so both blocks hold the same
  // bits and every solver lands on bit-identical assignments.
  const auto tiled =
      core::OracleTileView::FromAttachments(oracle, servers, attach, access_ms);
  std::shared_ptr<const core::ClientBlockView> view = tiled;
  if (params.materialize_block) {
    view = std::make_shared<core::MaterializedView>(
        tiled->num_clients(), tiled->num_servers(), tiled->MaterializeBlock());
  }
  // Virtual client ids: substrate nodes keep their ids, client i becomes
  // node n + i. The ids are labels only (the problem never indexes a
  // matrix with them).
  std::vector<net::NodeIndex> client_ids(num_clients);
  std::iota(client_ids.begin(), client_ids.end(), n);
  core::Problem problem = core::Problem::FromView(
      std::move(view), servers, std::move(client_ids), tiled->server_block());
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
