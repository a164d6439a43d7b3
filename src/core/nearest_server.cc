#include "core/nearest_server.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "core/capacity.h"
#include "obs/obs.h"

namespace diaca::core {

ServerIndex NearestServerOf(const Problem& problem, ClientIndex c) {
  const ClientBlockView& view = problem.client_block();
  thread_local std::vector<double> scratch;
  scratch.resize(view.server_stride());
  // First minimum == the serial ascending scan with a strict `<`.
  return static_cast<ServerIndex>(
      simd::ArgMinFirst(view.Row(c, scratch.data()),
                        static_cast<std::size_t>(view.num_servers()))
          .index);
}

Assignment NearestServerAssign(const Problem& problem,
                               const AssignOptions& options) {
  DIACA_OBS_SPAN("core.nearest.solve");
  CheckCapacityFeasible(problem, options);
  Assignment a(static_cast<std::size_t>(problem.num_clients()));
  const ClientBlockView& view = problem.client_block();

  if (!options.capacitated()) {
    // The view's factorized nearest scan: bit-identical to ArgMinFirst
    // over every exact row, but a lazy backend answers per attachment
    // node instead of synthesizing O(|C| x |S|) rows.
    std::vector<double> dist(static_cast<std::size_t>(problem.num_clients()));
    view.FillNearest(a.server_of.data(), dist.data());
    return a;
  }

  std::vector<std::int32_t> load(static_cast<std::size_t>(problem.num_servers()), 0);
  std::vector<ServerIndex> order(static_cast<std::size_t>(problem.num_servers()));
  std::vector<double> row(view.server_stride());
  // Clients claim servers in ascending index order.
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    // Rank servers by distance from c; take the nearest unsaturated one.
    const double* d = view.Row(c, row.data());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [d](ServerIndex x, ServerIndex y) {
      return d[x] != d[y] ? d[x] < d[y] : x < y;
    });
    for (ServerIndex s : order) {
      if (load[static_cast<std::size_t>(s)] < options.CapacityOf(s)) {
        a[c] = s;
        ++load[static_cast<std::size_t>(s)];
        break;
      }
    }
    DIACA_CHECK_MSG(a[c] != kUnassigned, "no unsaturated server for client " << c);
  }
  return a;
}

}  // namespace diaca::core
