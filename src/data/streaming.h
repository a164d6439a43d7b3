// Streaming problem construction for client populations far beyond any
// dense matrix (100k-1M clients).
//
// The paper's evaluation attaches a client to every node of a measured
// matrix, which caps experiments at the matrix size (n^2 memory: 10k
// nodes is already 763 MB, 1M would be 7.3 TB). Real DIAs have the
// opposite shape: a moderate routed substrate (thousands of routers/POPs)
// and a huge client population hanging off it through access links. This
// module builds that shape end to end without ever materializing an
// O(n^2) buffer:
//
//   * the substrate is a Waxman topology (data/waxman.h), queried through
//     a rows-backend DistanceOracle — O(|S|) Dijkstra rows total;
//   * each client attaches to a uniformly random substrate node with a
//     lognormal access delay (the standard last-mile model, matching the
//     Vivaldi "height" term), so
//       d(c, s) = access(c) + d_substrate(attach(c), server_node(s));
//   * clients are virtual nodes (id = substrate size + client index) that
//     exist only as rows of the |C| x |S| client block. A
//     core::OracleTileView over the (attach, access) pairs always owns
//     the block and its one formula: it streams it, with nothing to
//     tune, or its MaterializeBlock cuts the padded rows a
//     core::MaterializedView adopts.
//
// Everything is deterministic in (params, seed): one Rng stream drives
// attachment points and access delays in client order, and the substrate
// rows are canonical Dijkstra rows, so the resulting Problem is
// bit-identical across thread counts and cache capacities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.h"
#include "data/waxman.h"
#include "net/distance_oracle.h"

namespace diaca::data {

struct ClientCloudParams {
  /// Routed substrate the servers live on and the clients attach to.
  WaxmanParams substrate;
  /// Attached client population (may far exceed substrate.num_nodes).
  std::int64_t num_clients = 100000;
  /// Lognormal access-delay parameters (of the underlying normal, ms) and
  /// the floor applied after sampling. Defaults give a ~3 ms median with
  /// a heavy last-mile tail, consistent with residential access studies.
  double access_mu = 1.1;
  double access_sigma = 0.6;
  double min_access_ms = 0.2;
  /// When true the problem's client block is a core::MaterializedView of
  /// the view's rows (MaterializeBlock); when false the
  /// core::OracleTileView itself, which synthesizes values on demand from
  /// the |S| substrate server rows. Both hold the same bits by
  /// construction (d(c,s) = access(c) + row, one IEEE addition, computed
  /// by the view either way). Peak retained memory drops from
  /// O(|C| * |S|) to O(n * |S|) when false.
  bool materialize_block = true;
};

/// A fully built cloud instance. `problem` uses virtual client node ids
/// (substrate size + i) — labels only, valid for assignment and metrics
/// but not for oracle lookups (core::MaxInteractionPathLengthExact needs
/// substrate ids). On an exact oracle the blocks already hold the true
/// distances; a true path is access_ms[c] plus the substrate leg from
/// attach[c].
struct ClientCloud {
  std::vector<net::NodeIndex> server_nodes;  ///< substrate ids hosting servers
  std::vector<net::NodeIndex> attach;        ///< per-client attachment node
  std::vector<double> access_ms;             ///< per-client access delay
  core::Problem problem;
};

/// Build the cloud: sample attachments/access delays from `seed`, build
/// an OracleTileView over them (the |S| server rows, each queried once
/// from `oracle`, which must cover the substrate graph; rows or dense
/// backend for exact legs), and assemble the Problem via FromView. The
/// view's state is O(n * |S| + |C|); a materialized block adds
/// |C| x PaddedStride(|S|) doubles, held once. Nothing O(n^2) or
/// O(|C|^2) is ever allocated. Throws diaca::Error if `server_nodes` is
/// empty or outside the substrate.
ClientCloud BuildClientCloud(const ClientCloudParams& params,
                             std::uint64_t seed,
                             const net::DistanceOracle& oracle,
                             std::span<const net::NodeIndex> server_nodes);

/// Bytes-to-megabytes footprint a dense LatencyMatrix over `total_nodes`
/// nodes would need (stride padding included) — the denominator of the
/// "peak RSS vs dense equivalent" acceptance ratio reported by
/// bench_oracle and the CLI cloud command.
double DenseEquivalentMb(std::int64_t total_nodes);

}  // namespace diaca::data
