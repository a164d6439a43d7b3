#include "core/exact.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "core/capacity.h"
#include "core/greedy.h"
#include "core/metrics.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

class Search {
 public:
  Search(const Problem& problem, const ExactOptions& options)
      : problem_(problem),
        options_(options),
        // Branch-and-bound revisits arbitrary client rows at every node,
        // so the search holds its own copy of the block for its lifetime.
        // Exhaustive search is only tractable at sizes where the block is
        // small anyway; the copy trades memory the instance can afford
        // for the random access the search needs.
        block_(problem.client_block().MaterializeBlock()),
        stride_(problem.server_stride()),
        far_(static_cast<std::size_t>(problem.num_servers()), -1.0),
        load_(static_cast<std::size_t>(problem.num_servers()), 0),
        current_(static_cast<std::size_t>(problem.num_clients())) {
    // Client order: hardest (largest nearest-server round trip) first for
    // earlier pruning.
    order_.resize(static_cast<std::size_t>(problem.num_clients()));
    std::iota(order_.begin(), order_.end(), 0);
    min_rtt_.resize(order_.size());
    for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
      const double* row = block_.data() + static_cast<std::size_t>(c) * stride_;
      double best = row[0];
      for (ServerIndex s = 1; s < problem.num_servers(); ++s) {
        best = std::min(best, row[s]);
      }
      min_rtt_[static_cast<std::size_t>(c)] = 2.0 * best;
    }
    std::sort(order_.begin(), order_.end(), [this](ClientIndex a, ClientIndex b) {
      return min_rtt_[static_cast<std::size_t>(a)] !=
                     min_rtt_[static_cast<std::size_t>(b)]
                 ? min_rtt_[static_cast<std::size_t>(a)] >
                       min_rtt_[static_cast<std::size_t>(b)]
                 : a < b;
    });
    // Suffix max of round-trip lower bounds over the unassigned tail.
    suffix_bound_.assign(order_.size() + 1, 0.0);
    for (std::size_t i = order_.size(); i-- > 0;) {
      suffix_bound_[i] = std::max(suffix_bound_[i + 1],
                                  min_rtt_[static_cast<std::size_t>(order_[i])]);
    }
    // Incumbent from the greedy heuristic.
    best_assignment_ = GreedyAssign(problem, options.assign);
    best_len_ = MaxInteractionPathLength(problem, best_assignment_);
  }

  bool Run() {
    aborted_ = false;
    // Depth-first from an explicit frame stack, so the depth (one level
    // per client) is not bounded by the call stack. A frame's client holds
    // a branch while current_ maps it to a server; coming back to the
    // frame undoes that branch before the next server is tried.
    Visit(0, 0.0);
    while (!aborted_ && !stack_.empty()) {
      Frame& f = stack_.back();
      const ClientIndex c = order_[f.depth];
      if (const ServerIndex s = current_[c]; s != kUnassigned) {
        current_[c] = kUnassigned;
        --load_[static_cast<std::size_t>(s)];
        far_[static_cast<std::size_t>(s)] = f.saved_far;
      }
      const double* row = block_.data() + static_cast<std::size_t>(c) * stride_;
      double len = 0.0;
      for (; f.next < problem_.num_servers(); ++f.next) {
        const ServerIndex s = f.next;
        if (options_.assign.capacitated() &&
            load_[static_cast<std::size_t>(s)] >=
                options_.assign.CapacityOf(s)) {
          continue;
        }
        const double d = row[s];
        // Objective if c joins s: its self path plus its paths to every
        // already-assigned client (through far()).
        len = std::max(f.partial_len, 2.0 * d);
        if (len < best_len_) {
          len = std::max(len, d + MaxServerReach(problem_, far_, s));
        }
        if (len < best_len_) break;
      }
      if (f.next == problem_.num_servers()) {
        stack_.pop_back();
        continue;
      }
      const ServerIndex s = f.next++;
      f.saved_far = far_[static_cast<std::size_t>(s)];
      far_[static_cast<std::size_t>(s)] = std::max(f.saved_far, row[s]);
      ++load_[static_cast<std::size_t>(s)];
      current_[c] = s;
      Visit(f.depth + 1, len);
    }
    return !aborted_;
  }

  ExactResult TakeResult() && {
    return {std::move(best_assignment_), best_len_, nodes_};
  }

 private:
  // A node on the search path: its depth, the next server to branch its
  // client on, far() of the current branch's server before the branch,
  // and the objective over the clients above it.
  struct Frame {
    std::size_t depth;
    ServerIndex next;
    double saved_far;
    double partial_len;
  };

  // Count a node; settle it if it is a leaf or pruned, else push it.
  void Visit(std::size_t depth, double partial_len) {
    if (++nodes_ > options_.node_limit) {
      aborted_ = true;
      return;
    }
    if (depth == order_.size()) {
      if (partial_len < best_len_) {
        best_len_ = partial_len;
        best_assignment_ = current_;
      }
      return;
    }
    if (std::max(partial_len, suffix_bound_[depth]) >= best_len_) return;
    stack_.push_back({depth, 0, 0.0, partial_len});
  }

  const Problem& problem_;
  const ExactOptions& options_;
  std::vector<double> block_;  // the search's rows, stride_ apart
  std::size_t stride_ = 0;
  std::vector<ClientIndex> order_;
  std::vector<double> min_rtt_;
  std::vector<double> suffix_bound_;
  std::vector<double> far_;
  std::vector<std::int32_t> load_;
  std::vector<Frame> stack_;
  Assignment current_;
  Assignment best_assignment_;
  double best_len_ = std::numeric_limits<double>::infinity();
  std::int64_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

std::optional<ExactResult> ExactAssign(const Problem& problem,
                                       const ExactOptions& options) {
  DIACA_OBS_SPAN("core.exact.solve");
  CheckCapacityFeasible(problem, options.assign);
  Search search(problem, options);
  const bool finished = search.Run();
  ExactResult result = std::move(search).TakeResult();
  DIACA_OBS_COUNT("core.exact.nodes_explored", result.nodes_explored);
  if (!finished) return std::nullopt;
  return result;
}

}  // namespace diaca::core
