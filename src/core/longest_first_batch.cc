#include "core/longest_first_batch.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "core/capacity.h"
#include "core/nearest_server.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Candidate {
  ClientIndex client;
  ServerIndex nearest;
  double distance;
};

std::vector<ClientIndex> AllClients(std::int32_t num_clients) {
  std::vector<ClientIndex> all(static_cast<std::size_t>(num_clients));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

Assignment Uncapacitated(const Problem& problem, SolveStats* stats) {
  const std::int32_t num_clients = problem.num_clients();
  const ClientBlockView& view = problem.client_block();
  std::vector<Candidate> order(static_cast<std::size_t>(num_clients));
  // The view's factorized nearest scan: the same (server, distance) pick
  // ArgMinFirst made per exact row, but a lazy backend answers per
  // attachment node instead of synthesizing O(|C| x |S|) tiles.
  {
    std::vector<ServerIndex> near(static_cast<std::size_t>(num_clients));
    std::vector<double> dist(static_cast<std::size_t>(num_clients));
    view.FillNearest(near.data(), dist.data());
    for (ClientIndex c = 0; c < num_clients; ++c) {
      order[static_cast<std::size_t>(c)] = {c, near[static_cast<std::size_t>(c)],
                                            dist[static_cast<std::size_t>(c)]};
    }
  }
  // Longest distance first; stable tie-break on client index.
  std::sort(order.begin(), order.end(), [](const Candidate& a, const Candidate& b) {
    return a.distance != b.distance ? a.distance > b.distance
                                    : a.client < b.client;
  });

  Assignment a(static_cast<std::size_t>(num_clients));
  std::vector<ClientIndex> pending = AllClients(num_clients);
  std::vector<double> column(pending.size());
  for (const Candidate& lead : order) {
    if (a[lead.client] != kUnassigned) continue;
    DIACA_OBS_SPAN("core.lfb.batch");
    // Batch: every unassigned client no farther from lead.nearest than
    // lead. One column gather per batch keeps the lazy backend on its
    // compact server-major path instead of a per-client virtual lookup;
    // the survivors stay pending, in ascending order.
    view.GatherColumn(lead.nearest, pending.data(), pending.size(),
                      column.data());
    std::int32_t batch_size = 0;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const ClientIndex c = pending[i];
      if (column[i] <= lead.distance) {
        a[c] = lead.nearest;
        ++batch_size;
      } else {
        pending[kept++] = c;
      }
    }
    pending.resize(kept);
    if (stats != nullptr) ++stats->iterations;
    DIACA_OBS_COUNT("core.lfb.batches", 1);
    DIACA_OBS_OBSERVE("core.lfb.batch_size", batch_size);
  }
  return a;
}

Assignment Capacitated(const Problem& problem, const AssignOptions& options,
                       SolveStats* stats) {
  const std::int32_t num_clients = problem.num_clients();
  const ClientBlockView& view = problem.client_block();
  const std::size_t stride = view.server_stride();
  std::vector<std::int32_t> remaining(
      static_cast<std::size_t>(problem.num_servers()));
  for (ServerIndex s = 0; s < problem.num_servers(); ++s) {
    remaining[static_cast<std::size_t>(s)] = options.CapacityOf(s);
  }
  Assignment a(static_cast<std::size_t>(num_clients));
  std::vector<ServerIndex> nearest(static_cast<std::size_t>(num_clients),
                                   kUnassigned);
  std::vector<double> avail(static_cast<std::size_t>(problem.num_servers()));
  std::vector<ClientIndex> pending = AllClients(num_clients);
  std::vector<double> column(pending.size());

  while (!pending.empty()) {
    DIACA_OBS_SPAN("core.lfb.batch");
    // Saturation mask for this round (capacities only shrink between
    // rounds, never during the scan).
    for (std::size_t s = 0; s < avail.size(); ++s) {
      avail[s] = remaining[s] > 0 ? 0.0 : kInf;
    }
    // Find the unassigned client whose distance to its nearest unsaturated
    // server is longest. The masked min-plus scan keeps the first minimum
    // — row[s] + 0.0 is exactly row[s] — so each client's pick matches
    // the former "first strict improvement over open servers" loop
    // bit-for-bit, and the deterministic max-reduce keeps the lowest
    // client index on distance ties, exactly like the serial ascending
    // scan with a strict `>`.
    const ThreadPool::Extremum lead_pick = GlobalPool().ParallelMaxReduce(
        0, num_clients, 64, [&](std::int64_t ci) {
          const auto c = static_cast<ClientIndex>(ci);
          if (a[c] != kUnassigned) {
            return -kInf;
          }
          thread_local std::vector<double> scratch;
          scratch.resize(stride);
          const double* row = view.Row(c, scratch.data());
          const simd::ArgResult best =
              simd::ArgMinPlusFirst(row, avail.data(), avail.size());
          DIACA_CHECK_MSG(best.index >= 0, "all servers saturated early");
          nearest[static_cast<std::size_t>(ci)] =
              static_cast<ServerIndex>(best.index);
          return row[best.index];
        });
    DIACA_CHECK(lead_pick.index >= 0);
    const Candidate lead{
        static_cast<ClientIndex>(lead_pick.index),
        nearest[static_cast<std::size_t>(lead_pick.index)],
        lead_pick.value};
    // Batch of unassigned clients within lead.distance of the server,
    // farthest first so the lead client itself is always included. One
    // column gather over the pending clients serves both the membership
    // test and the sort key.
    view.GatherColumn(lead.nearest, pending.data(), pending.size(),
                      column.data());
    std::vector<Candidate> batch;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (column[i] <= lead.distance) {
        batch.push_back({pending[i], lead.nearest, column[i]});
      }
    }
    std::sort(batch.begin(), batch.end(),
              [](const Candidate& x, const Candidate& y) {
                return x.distance != y.distance ? x.distance > y.distance
                                                : x.client < y.client;
              });
    auto& room = remaining[static_cast<std::size_t>(lead.nearest)];
    const auto take = std::min<std::size_t>(batch.size(),
                                            static_cast<std::size_t>(room));
    for (std::size_t i = 0; i < take; ++i) {
      a[batch[i].client] = lead.nearest;
      --room;
    }
    std::erase_if(pending, [&](ClientIndex c) { return a[c] != kUnassigned; });
    if (stats != nullptr) ++stats->iterations;
    DIACA_OBS_COUNT("core.lfb.batches", 1);
    DIACA_OBS_OBSERVE("core.lfb.batch_size", take);
  }
  return a;
}

}  // namespace

Assignment LongestFirstBatchAssign(const Problem& problem,
                                   const AssignOptions& options,
                                   SolveStats* stats) {
  DIACA_OBS_SPAN("core.lfb.solve");
  if (!options.capacitated()) return Uncapacitated(problem, stats);
  CheckCapacityFeasible(problem, options);
  return Capacitated(problem, options, stats);
}

}  // namespace diaca::core
