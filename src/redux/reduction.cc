#include "redux/reduction.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "core/metrics.h"

namespace diaca::redux {

namespace {

constexpr double kLinkLength = 1.0;

net::Graph BuildGraph(const SetCoverInstance& instance, std::int32_t k) {
  const std::int32_t n = instance.num_elements;
  const auto m = static_cast<std::int32_t>(instance.subsets.size());
  // Node layout: clients 0..n-1, then server s^l_j at n + l*m + j.
  std::vector<net::Graph::Edge> edges;
  // Client-to-server links: c_i — s^l_j iff p_i in Q_j, for every group l.
  for (std::int32_t j = 0; j < m; ++j) {
    for (std::int32_t e : instance.subsets[static_cast<std::size_t>(j)]) {
      for (std::int32_t l = 0; l < k; ++l) {
        edges.push_back({e, n + l * m + j, kLinkLength});
      }
    }
  }
  // Inter-group server links: s^l1_j1 — s^l2_j2 for all j1, j2, l1 != l2.
  for (std::int32_t l1 = 0; l1 < k; ++l1) {
    for (std::int32_t l2 = l1 + 1; l2 < k; ++l2) {
      for (std::int32_t j1 = 0; j1 < m; ++j1) {
        for (std::int32_t j2 = 0; j2 < m; ++j2) {
          edges.push_back({n + l1 * m + j1, n + l2 * m + j2, kLinkLength});
        }
      }
    }
  }
  return net::Graph(n + m * k, edges);
}

}  // namespace

CapInstance BuildCapInstance(const SetCoverInstance& instance,
                             std::int32_t budget_k) {
  instance.Validate();
  DIACA_CHECK_MSG(budget_k >= 2, "reduction requires K >= 2 for connectivity");
  const std::int32_t n = instance.num_elements;
  const auto m = static_cast<std::int32_t>(instance.subsets.size());

  net::Graph graph = BuildGraph(instance, budget_k);
  net::LatencyMatrix distances = graph.AllPairsShortestPaths();

  std::vector<net::NodeIndex> clients(static_cast<std::size_t>(n));
  std::iota(clients.begin(), clients.end(), 0);
  std::vector<net::NodeIndex> servers(static_cast<std::size_t>(m * budget_k));
  std::iota(servers.begin(), servers.end(), n);

  core::Problem problem(distances, servers, clients);
  return CapInstance{std::move(graph), std::move(distances),
                     std::move(problem), n,  m,
                     budget_k};
}

core::Assignment AssignmentFromCover(const CapInstance& cap,
                                     std::span<const std::int32_t> cover) {
  DIACA_CHECK_MSG(static_cast<std::int32_t>(cover.size()) <= cap.budget_k,
                  "cover larger than the budget K");
  core::Assignment a(static_cast<std::size_t>(cap.num_elements));
  // Step l of the proof: subset Q_j gets the unused group l; every still-
  // unassigned client of Q_j goes to s^l_j.
  std::int32_t group = 0;
  for (std::int32_t j : cover) {
    DIACA_CHECK(j >= 0 && j < cap.num_subsets);
    const core::ServerIndex server = cap.ServerOf(group, j);
    bool used = false;
    for (core::ClientIndex c = 0; c < cap.num_elements; ++c) {
      // Client c corresponds to element c; it belongs to Q_j iff a unit
      // link exists, i.e. distance 1.
      if (a[c] == core::kUnassigned && cap.problem.client_block().cs(c, server) <= 1.0) {
        a[c] = server;
        used = true;
      }
    }
    if (used) ++group;
  }
  DIACA_CHECK_MSG(a.IsComplete(), "cover did not cover all elements");
  return a;
}

std::vector<std::int32_t> CoverFromAssignment(const CapInstance& cap,
                                              const core::Assignment& a) {
  const double max_len = core::MaxInteractionPathLength(cap.problem, a);
  DIACA_CHECK_MSG(max_len <= 3.0 + 1e-9,
                  "assignment objective " << max_len << " exceeds 3");
  std::vector<bool> subset_used(static_cast<std::size_t>(cap.num_subsets),
                                false);
  for (core::ClientIndex c = 0; c < cap.num_elements; ++c) {
    const std::int32_t j = a[c] % cap.num_subsets;  // group-local subset id
    subset_used[static_cast<std::size_t>(j)] = true;
  }
  std::vector<std::int32_t> cover;
  for (std::int32_t j = 0; j < cap.num_subsets; ++j) {
    if (subset_used[static_cast<std::size_t>(j)]) cover.push_back(j);
  }
  return cover;
}

}  // namespace diaca::redux
