// Problem instance of the client assignment problem (§II-D, Definition 1).
//
// A Problem is a view over a network latency matrix that fixes which nodes
// are servers and which are clients (a node may be both, as in the paper's
// evaluation where a client sits at every node). The server-to-server
// block (|S| x |S|) is always resident; the client-to-server block
// (|C| x |S|) lives behind a core::ClientBlockView — materialized (the
// historical padded block, bit-identical) or synthesized on demand from
// a distance oracle's server rows (core/client_block_view.h). All
// client-block access — element, row, column, assigned diagonal — goes
// through client_block(); Problem
// itself only exposes the resident server-to-server block.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/simd/simd.h"
#include "core/client_block_view.h"
#include "core/types.h"
#include "net/distance_oracle.h"
#include "net/latency_matrix.h"

namespace diaca::core {

class Problem {
 public:
  /// Build from a complete latency matrix and the node indices of servers
  /// and clients. Throws diaca::Error if the lists are empty, contain
  /// duplicates, or reference nodes outside the matrix.
  Problem(const net::LatencyMatrix& matrix,
          std::span<const net::NodeIndex> server_nodes,
          std::span<const net::NodeIndex> client_nodes);

  /// Build from a distance oracle without ever materializing an O(n^2)
  /// matrix: only the |S| server rows are queried (each client-to-server
  /// and server-to-server distance lives on some server row), so the
  /// transient footprint is O(|S| * n) and the retained blocks are
  /// O((|C| + |S|) * |S|) exactly as with the matrix constructor. A
  /// dense-backed oracle delegates to the matrix constructor, so results
  /// are bit-identical to the historical path; a rows-backed oracle
  /// produces the same bits via canonical Dijkstra rows. The client block
  /// is materialized; use FromOracleTiled to stream it instead.
  Problem(const net::DistanceOracle& oracle,
          std::span<const net::NodeIndex> server_nodes,
          std::span<const net::NodeIndex> client_nodes);

  std::int32_t num_clients() const { return num_clients_; }
  std::int32_t num_servers() const { return num_servers_; }

  /// Storage distance between consecutive cs/ss rows, in doubles. Rows
  /// are padded to a multiple of simd::kPadWidth (>= num_servers()); the
  /// pad lanes hold 0.0, which is inert for maxima and sums over the
  /// non-negative latency data (see common/simd/simd.h).
  std::size_t server_stride() const { return server_stride_; }

  /// The client-to-server block. Solvers read its rows / columns /
  /// assigned diagonal instead of assuming resident storage; see
  /// core/client_block_view.h for the access vocabulary.
  const ClientBlockView& client_block() const { return *client_block_; }

  /// Shared handle to the block view (Problem copies alias one view, so
  /// usage counters aggregate across copies).
  std::shared_ptr<const ClientBlockView> client_block_ptr() const {
    return client_block_;
  }

  /// Server-to-server latency d(s1, s2); zero when s1 == s2.
  double ss(ServerIndex a, ServerIndex b) const {
    return d_ss_[static_cast<std::size_t>(a) * server_stride_ +
                 static_cast<std::size_t>(b)];
  }

  /// Row of server a's latencies to all servers (num_servers() valid
  /// doubles, then server_stride() - num_servers() zero pad lanes).
  const double* ss_row(ServerIndex a) const {
    return d_ss_.data() + static_cast<std::size_t>(a) * server_stride_;
  }

  /// Original network node hosting server s / client c.
  net::NodeIndex server_node(ServerIndex s) const {
    return server_nodes_[static_cast<std::size_t>(s)];
  }
  net::NodeIndex client_node(ClientIndex c) const {
    return client_nodes_[static_cast<std::size_t>(c)];
  }

  std::span<const net::NodeIndex> server_nodes() const { return server_nodes_; }
  std::span<const net::NodeIndex> client_nodes() const { return client_nodes_; }

  /// Convenience: a problem where every node hosts a client and the given
  /// nodes host servers (the paper's experimental setup, §V).
  static Problem WithClientsEverywhere(
      const net::LatencyMatrix& matrix,
      std::span<const net::NodeIndex> server_nodes);

  /// Oracle-backed variant of WithClientsEverywhere.
  static Problem WithClientsEverywhere(
      const net::DistanceOracle& oracle,
      std::span<const net::NodeIndex> server_nodes);

  /// Assemble a problem directly from pre-computed latency blocks, for
  /// streaming builders that never hold a full matrix (data/streaming.h).
  /// `d_cs` is |C| x |S| row-major (client-to-server), `d_ss` is |S| x |S|
  /// row-major (server-to-server). d_ss must be symmetric with a zero
  /// diagonal and all latencies non-negative — violations throw
  /// diaca::Error. Node ids are carried through as labels only and may
  /// exceed any matrix size (virtual client ids); duplicates between the
  /// two lists are still rejected within each list.
  static Problem FromBlocks(std::vector<net::NodeIndex> server_nodes,
                            std::vector<net::NodeIndex> client_nodes,
                            std::span<const double> d_cs,
                            std::span<const double> d_ss);

  /// Assemble a problem around an existing client-block view (the
  /// no-materialize path: data::BuildClientCloud hands solvers an
  /// OracleTileView directly). `d_ss` is |S| x |S| dense row-major and
  /// validated like FromBlocks. The view's client/server counts must
  /// match the node lists.
  static Problem FromView(std::shared_ptr<const ClientBlockView> view,
                          std::vector<net::NodeIndex> server_nodes,
                          std::vector<net::NodeIndex> client_nodes,
                          std::span<const double> d_ss);

  /// Oracle-backed problem whose client block is synthesized on demand
  /// instead of materializing |C| x |S| (the tiled sibling of the oracle
  /// constructor; assignments are bit-identical to it on exact backends).
  static Problem FromOracleTiled(const net::DistanceOracle& oracle,
                                 std::span<const net::NodeIndex> server_nodes,
                                 std::span<const net::NodeIndex> client_nodes,
                                 const TileOptions& tile = {});

 private:
  Problem() = default;
  /// Shared d_ss ingestion (padding + symmetry/diagonal/sign checks).
  void AdoptServerBlock(std::span<const double> d_ss);

  std::int32_t num_servers_ = 0;
  std::int32_t num_clients_ = 0;
  std::size_t server_stride_ = 0;  // simd::PaddedStride(num_servers_)
  std::vector<net::NodeIndex> server_nodes_;
  std::vector<net::NodeIndex> client_nodes_;
  /// |C| x server_stride_ client block, behind the view API. shared_ptr:
  /// Problem stays copyable, copies alias the (const) view.
  std::shared_ptr<const ClientBlockView> client_block_;
  std::vector<double> d_ss_;  // |S| rows of server_stride_ doubles, pads 0.0
};

}  // namespace diaca::core
