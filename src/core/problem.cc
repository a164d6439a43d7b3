#include "core/problem.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.h"

namespace diaca::core {

namespace {

void CheckNodes(std::span<const net::NodeIndex> nodes, net::NodeIndex n,
                const char* kind) {
  DIACA_CHECK_MSG(!nodes.empty(), kind << " list must not be empty");
  std::vector<bool> seen(static_cast<std::size_t>(n));
  for (net::NodeIndex v : nodes) {
    DIACA_CHECK_MSG(v >= 0 && v < n,
                    kind << " node " << v << " outside matrix of size " << n);
    DIACA_CHECK_MSG(!seen[static_cast<std::size_t>(v)],
                    "duplicate " << kind << " node " << v);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

// Node ids here are labels of any size, so duplicates are found by
// sorting a copy; the error names the smallest duplicated id.
void CheckDistinct(std::span<const net::NodeIndex> nodes, const char* kind) {
  DIACA_CHECK_MSG(!nodes.empty(), kind << " list must not be empty");
  std::vector<net::NodeIndex> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  DIACA_CHECK_MSG(dup == sorted.end(),
                  "duplicate " << kind << " node " << *dup);
}

}  // namespace

void Problem::AdoptServerBlock(std::span<const double> d_ss) {
  const auto s_count = static_cast<std::size_t>(num_servers_);
  DIACA_CHECK_MSG(d_ss.size() == s_count * s_count,
                  "d_ss block is " << d_ss.size() << " doubles, expected "
                                   << s_count * s_count);
  d_ss_.assign(s_count * server_stride_, 0.0);
  for (std::size_t a = 0; a < s_count; ++a) {
    const double* in = d_ss.data() + a * s_count;
    double* out = d_ss_.data() + a * server_stride_;
    for (std::size_t b = 0; b < s_count; ++b) {
      DIACA_CHECK_MSG(in[b] >= 0.0, "negative server-to-server latency at ("
                                        << a << ", " << b << ")");
      if (a == b) {
        if (in[b] != 0.0) {
          throw Error("d_ss diagonal entry (" + std::to_string(a) + ", " +
                      std::to_string(a) + ") is " + std::to_string(in[b]) +
                      " but server self-distance must be exactly zero");
        }
      } else if (in[b] != d_ss[b * s_count + a]) {
        // Asymmetric inputs silently skewed every downstream objective
        // (the pair folds assume d(s1,s2) == d(s2,s1)); reject loudly.
        throw Error("d_ss is not symmetric: entry (" + std::to_string(a) +
                    ", " + std::to_string(b) + ") = " + std::to_string(in[b]) +
                    " but (" + std::to_string(b) + ", " + std::to_string(a) +
                    ") = " + std::to_string(d_ss[b * s_count + a]) +
                    " — server-to-server latencies must be symmetric");
      }
      out[b] = in[b];
    }
  }
}

Problem::Problem(const net::LatencyMatrix& matrix,
                 std::span<const net::NodeIndex> server_nodes,
                 std::span<const net::NodeIndex> client_nodes)
    : num_servers_(static_cast<std::int32_t>(server_nodes.size())),
      num_clients_(static_cast<std::int32_t>(client_nodes.size())),
      server_stride_(
          simd::PaddedStride(static_cast<std::size_t>(server_nodes.size()))),
      server_nodes_(server_nodes.begin(), server_nodes.end()),
      client_nodes_(client_nodes.begin(), client_nodes.end()) {
  CheckNodes(server_nodes, matrix.size(), "server");
  CheckNodes(client_nodes, matrix.size(), "client");

  std::vector<double> d_cs(
      static_cast<std::size_t>(num_clients_) * server_stride_, 0.0);
  for (ClientIndex c = 0; c < num_clients_; ++c) {
    const double* row = matrix.Row(client_nodes_[static_cast<std::size_t>(c)]);
    double* out = d_cs.data() + static_cast<std::size_t>(c) * server_stride_;
    for (ServerIndex s = 0; s < num_servers_; ++s) {
      out[s] = row[server_nodes_[static_cast<std::size_t>(s)]];
    }
  }
  client_block_ = std::make_shared<MaterializedView>(num_clients_, num_servers_,
                                                     std::move(d_cs));

  d_ss_.assign(static_cast<std::size_t>(num_servers_) * server_stride_, 0.0);
  for (ServerIndex a = 0; a < num_servers_; ++a) {
    const double* row = matrix.Row(server_nodes_[static_cast<std::size_t>(a)]);
    double* out = d_ss_.data() + static_cast<std::size_t>(a) * server_stride_;
    for (ServerIndex b = 0; b < num_servers_; ++b) {
      out[b] = row[server_nodes_[static_cast<std::size_t>(b)]];
    }
  }
}

Problem::Problem(const net::DistanceOracle& oracle,
                 std::span<const net::NodeIndex> server_nodes,
                 std::span<const net::NodeIndex> client_nodes) {
  // Dense-backed oracles take the historical matrix path untouched, so
  // existing results stay bit-identical by construction.
  if (const net::LatencyMatrix* m = oracle.dense_matrix()) {
    *this = Problem(*m, server_nodes, client_nodes);
    return;
  }
  // The block is cut from the streamed view's rows, so the materialized
  // and the tiled problem hold the same bits by construction.
  *this = FromOracleTiled(oracle, server_nodes, client_nodes);
  client_block_ = std::make_shared<MaterializedView>(
      num_clients_, num_servers_, client_block_->MaterializeBlock());
}

Problem Problem::WithClientsEverywhere(
    const net::LatencyMatrix& matrix,
    std::span<const net::NodeIndex> server_nodes) {
  std::vector<net::NodeIndex> all(static_cast<std::size_t>(matrix.size()));
  std::iota(all.begin(), all.end(), 0);
  return Problem(matrix, server_nodes, all);
}

Problem Problem::WithClientsEverywhere(
    const net::DistanceOracle& oracle,
    std::span<const net::NodeIndex> server_nodes) {
  std::vector<net::NodeIndex> all(static_cast<std::size_t>(oracle.size()));
  std::iota(all.begin(), all.end(), 0);
  return Problem(oracle, server_nodes, all);
}

Problem Problem::FromBlocks(std::vector<net::NodeIndex> server_nodes,
                            std::vector<net::NodeIndex> client_nodes,
                            std::span<const double> d_cs,
                            std::span<const double> d_ss) {
  CheckDistinct(server_nodes, "server");
  CheckDistinct(client_nodes, "client");
  Problem p;
  p.num_servers_ = static_cast<std::int32_t>(server_nodes.size());
  p.num_clients_ = static_cast<std::int32_t>(client_nodes.size());
  const auto s_count = static_cast<std::size_t>(p.num_servers_);
  const auto c_count = static_cast<std::size_t>(p.num_clients_);
  DIACA_CHECK_MSG(d_cs.size() == c_count * s_count,
                  "d_cs block is " << d_cs.size() << " doubles, expected "
                                   << c_count * s_count);
  p.server_stride_ = simd::PaddedStride(s_count);
  p.server_nodes_ = std::move(server_nodes);
  p.client_nodes_ = std::move(client_nodes);
  std::vector<double> padded(c_count * p.server_stride_, 0.0);
  for (std::size_t c = 0; c < c_count; ++c) {
    const double* in = d_cs.data() + c * s_count;
    double* out = padded.data() + c * p.server_stride_;
    for (std::size_t s = 0; s < s_count; ++s) {
      DIACA_CHECK_MSG(d_cs[c * s_count + s] >= 0.0,
                      "negative client-to-server latency at (" << c << ", "
                                                               << s << ")");
      out[s] = in[s];
    }
  }
  p.client_block_ = std::make_shared<MaterializedView>(
      p.num_clients_, p.num_servers_, std::move(padded));
  p.AdoptServerBlock(d_ss);
  return p;
}

Problem Problem::FromView(std::shared_ptr<const ClientBlockView> view,
                          std::vector<net::NodeIndex> server_nodes,
                          std::vector<net::NodeIndex> client_nodes,
                          std::span<const double> d_ss) {
  DIACA_CHECK_MSG(view != nullptr, "client block view must not be null");
  CheckDistinct(server_nodes, "server");
  CheckDistinct(client_nodes, "client");
  DIACA_CHECK_MSG(
      view->num_servers() == static_cast<std::int32_t>(server_nodes.size()),
      "view covers " << view->num_servers() << " servers but the node list has "
                     << server_nodes.size());
  DIACA_CHECK_MSG(
      view->num_clients() == static_cast<std::int32_t>(client_nodes.size()),
      "view covers " << view->num_clients() << " clients but the node list has "
                     << client_nodes.size());
  Problem p;
  p.num_servers_ = view->num_servers();
  p.num_clients_ = view->num_clients();
  p.server_stride_ = view->server_stride();
  p.server_nodes_ = std::move(server_nodes);
  p.client_nodes_ = std::move(client_nodes);
  p.client_block_ = std::move(view);
  p.AdoptServerBlock(d_ss);
  return p;
}

Problem Problem::Subset(std::span<const ClientIndex> members) const {
  Problem p;
  p.client_block_ = client_block_->Subset(members);
  std::vector<char> seen(static_cast<std::size_t>(num_clients_), 0);
  p.client_nodes_.reserve(members.size());
  for (const ClientIndex c : members) {
    char& once = seen[static_cast<std::size_t>(c)];
    DIACA_CHECK_MSG(once == 0, "duplicate member client " << c);
    once = 1;
    p.client_nodes_.push_back(client_node(c));
  }
  p.num_servers_ = num_servers_;
  p.num_clients_ = p.client_block_->num_clients();
  p.server_stride_ = server_stride_;
  p.server_nodes_ = server_nodes_;
  p.d_ss_ = d_ss_;
  return p;
}

Problem Problem::FromOracleTiled(const net::DistanceOracle& oracle,
                                 std::span<const net::NodeIndex> server_nodes,
                                 std::span<const net::NodeIndex> client_nodes) {
  CheckNodes(server_nodes, oracle.size(), "server");
  CheckNodes(client_nodes, oracle.size(), "client");
  // A client on a substrate node is attached there with no access delay.
  const std::vector<double> no_access(client_nodes.size(), 0.0);
  auto view = OracleTileView::FromAttachments(oracle, server_nodes,
                                              client_nodes, no_access);
  const std::span<const double> d_ss = view->server_block();
  return FromView(std::move(view),
                  {server_nodes.begin(), server_nodes.end()},
                  {client_nodes.begin(), client_nodes.end()}, d_ss);
}

}  // namespace diaca::core
