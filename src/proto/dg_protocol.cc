#include "proto/dg_protocol.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.h"
#include "core/metrics.h"
#include "core/nearest_server.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace diaca::proto {

namespace {

using core::Assignment;
using core::AssignOptions;
using core::ClientIndex;
using core::kUnassigned;
using core::Problem;
using core::ServerIndex;

constexpr double kEps = 1e-9;

// Estimated wire sizes (bytes) for the traffic accounting.
constexpr std::uint64_t kSmallMsg = 32;
std::uint64_t TableBytes(std::int32_t num_servers) {
  return 16 + 12 * static_cast<std::uint64_t>(num_servers);
}

/// The circulating coordination token. It carries the authoritative
/// l(s)/load tables so the next holder always decides on fresh state —
/// the concurrency-control mechanism the paper requires.
struct Token {
  std::vector<double> l;          // far(s) per server; -1 = no clients
  std::vector<std::int32_t> load; // clients per server
  std::int32_t visits_without_improvement = 0;
  std::int32_t modifications = 0;
  std::vector<double> trace;      // D after each modification
};

class Runner {
 public:
  Runner(const net::LatencyMatrix& matrix, const Problem& problem,
         const AssignOptions& options, const Assignment& initial,
         const ProtocolTransport& transport)
      : problem_(problem),
        options_(options),
        network_(simulator_, matrix),
        rto_ms_(transport.rto_ms),
        agents_(static_cast<std::size_t>(problem.num_servers())) {
    if (transport.loss_probability > 0.0) {
      network_.SetLossProbability(transport.loss_probability);
    }
    for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
      agents_[static_cast<std::size_t>(initial[c])].clients.push_back(c);
    }
  }

  DgProtocolResult Run() {
    // INIT phase: every server reports (far, load) to the coordinator
    // (server 0), which then builds the token and takes the first visit.
    auto token = std::make_shared<Token>();
    token->l.assign(agents_.size(), -1.0);
    token->load.assign(agents_.size(), 0);
    auto pending = std::make_shared<std::int32_t>(
        static_cast<std::int32_t>(agents_.size()));
    for (ServerIndex s = 0; s < NumServers(); ++s) {
      const double far = LocalFar(s, kUnassigned);
      const auto load =
          static_cast<std::int32_t>(agents_[static_cast<std::size_t>(s)].clients.size());
      SendMsg(Node(s), Node(0),
                    [this, token, pending, s, far, load]() {
                      token->l[static_cast<std::size_t>(s)] = far;
                      token->load[static_cast<std::size_t>(s)] = load;
                      if (--*pending == 0) StartVisit(0, token);
                    },
                    kSmallMsg);
    }
    simulator_.Run();
    DIACA_CHECK_MSG(terminated_, "protocol did not terminate");

    DgProtocolResult result;
    result.assignment = Assignment(static_cast<std::size_t>(problem_.num_clients()));
    for (ServerIndex s = 0; s < NumServers(); ++s) {
      for (ClientIndex c : agents_[static_cast<std::size_t>(s)].clients) {
        result.assignment[c] = s;
      }
    }
    DIACA_CHECK(result.assignment.IsComplete());
    result.max_len = core::MaxInteractionPathLength(problem_, result.assignment);
    result.modifications = final_token_->modifications;
    result.max_len_trace = final_token_->trace;
    result.messages_sent = network_.messages_sent();
    result.bytes_sent = network_.bytes_sent();
    result.convergence_time_ms = termination_time_;
    return result;
  }

 private:
  struct Agent {
    std::vector<ClientIndex> clients;
  };

  ServerIndex NumServers() const { return problem_.num_servers(); }
  net::NodeIndex Node(ServerIndex s) const { return problem_.server_node(s); }

  /// All protocol traffic goes over the reliable channel: control messages
  /// must not vanish, so losses cost retransmissions, never correctness.
  void SendMsg(net::NodeIndex from, net::NodeIndex to,
               std::function<void()> on_delivery, std::uint64_t bytes) {
    network_.SendReliable(from, to, std::move(on_delivery), bytes, rto_ms_);
  }

  /// far(s) over this agent's clients, excluding `exclude` (pass
  /// kUnassigned to exclude nothing); -1 if empty.
  double LocalFar(ServerIndex s, ClientIndex exclude) const {
    double far = -1.0;
    for (ClientIndex c : agents_[static_cast<std::size_t>(s)].clients) {
      if (c == exclude) continue;
      far = std::max(far, problem_.client_block().cs(c, s));
    }
    return far;
  }

  /// Longest path through a client of server s at distance `dist`, under
  /// the token's tables.
  double LongestVia(const Token& token, ServerIndex s, double dist) const {
    return std::max(2.0 * dist,
                    dist + core::MaxServerReach(problem_, token.l, s));
  }

  // ---- token visit state machine ----------------------------------------

  void StartVisit(ServerIndex holder, std::shared_ptr<Token> token) {
    visit_holder_ = holder;
    visit_token_ = std::move(token);
    visit_start_len_ =
        core::MaxPathFromEccentricities(problem_, visit_token_->l);
    // Critical clients hosted here (all at the server's eccentricity).
    pending_critical_.clear();
    const double f = visit_token_->l[static_cast<std::size_t>(holder)];
    if (f >= 0.0 &&
        LongestVia(*visit_token_, holder, f) >= visit_start_len_ - kEps) {
      for (ClientIndex c : agents_[static_cast<std::size_t>(holder)].clients) {
        if (problem_.client_block().cs(c, holder) >= f - kEps) pending_critical_.push_back(c);
      }
    }
    ProcessNextCritical();
  }

  void ProcessNextCritical() {
    const ServerIndex holder = visit_holder_;
    while (!pending_critical_.empty()) {
      const ClientIndex c = pending_critical_.front();
      pending_critical_.erase(pending_critical_.begin());
      // Re-check criticality: earlier moves in this visit may have changed
      // the tables (the client itself can only be moved by this holder).
      const double current_len =
          core::MaxPathFromEccentricities(problem_, visit_token_->l);
      const double dist = problem_.client_block().cs(c, holder);
      if (LongestVia(*visit_token_, holder, dist) < current_len - kEps) {
        continue;
      }
      // QUERY all other servers with the tables adjusted for c's removal.
      query_client_ = c;
      query_l_excl_ = LocalFar(holder, c);
      replies_pending_ = NumServers() - 1;
      best_candidate_len_ = std::numeric_limits<double>::infinity();
      best_candidate_ = kUnassigned;
      if (replies_pending_ == 0) {  // single-server network: nothing to try
        continue;
      }
      auto adjusted = std::make_shared<Token>(*visit_token_);
      adjusted->l[static_cast<std::size_t>(holder)] = query_l_excl_;
      for (ServerIndex s = 0; s < NumServers(); ++s) {
        if (s == holder) continue;
        SendMsg(Node(holder), Node(s),
                      [this, s, c, adjusted]() { OnQuery(s, c, *adjusted); },
                      TableBytes(NumServers()));
      }
      return;  // resume in OnReply
    }
    FinishVisit();
  }

  void OnQuery(ServerIndex replier, ClientIndex c, const Token& adjusted) {
    // The replier "measures its distance to c" (matrix lookup) and
    // computes the longest interaction path involving c if c joined it.
    double len;
    if (options_.capacitated() &&
        adjusted.load[static_cast<std::size_t>(replier)] >=
            options_.CapacityOf(replier)) {
      len = std::numeric_limits<double>::infinity();
    } else {
      len = LongestVia(adjusted, replier, problem_.client_block().cs(c, replier));
    }
    SendMsg(Node(replier), Node(visit_holder_),
                  [this, replier, len]() { OnReply(replier, len); },
                  kSmallMsg);
  }

  void OnReply(ServerIndex replier, double len) {
    if (len < best_candidate_len_) {
      best_candidate_len_ = len;
      best_candidate_ = replier;
    }
    if (--replies_pending_ > 0) return;

    const double current_len =
        core::MaxPathFromEccentricities(problem_, visit_token_->l);
    if (best_candidate_ != kUnassigned &&
        best_candidate_len_ < current_len - kEps) {
      // Improvement found: hand the client over.
      const ClientIndex c = query_client_;
      const ServerIndex holder = visit_holder_;
      const ServerIndex winner = best_candidate_;
      auto& mine = agents_[static_cast<std::size_t>(holder)].clients;
      mine.erase(std::find(mine.begin(), mine.end(), c));
      SendMsg(Node(holder), Node(winner),
                    [this, c, winner]() { OnAssign(winner, c); },
                    kSmallMsg);
      // Token tables updated from local knowledge + the pre-computed
      // winner eccentricity (ACK below confirms with the same value).
      visit_token_->l[static_cast<std::size_t>(holder)] = query_l_excl_;
      --visit_token_->load[static_cast<std::size_t>(holder)];
      return;  // resume in OnAssignAck
    }
    ProcessNextCritical();
  }

  void OnAssign(ServerIndex winner, ClientIndex c) {
    agents_[static_cast<std::size_t>(winner)].clients.push_back(c);
    const double far = LocalFar(winner, kUnassigned);
    const auto load = static_cast<std::int32_t>(
        agents_[static_cast<std::size_t>(winner)].clients.size());
    SendMsg(Node(winner), Node(visit_holder_),
                  [this, winner, far, load]() { OnAssignAck(winner, far, load); },
                  kSmallMsg);
  }

  void OnAssignAck(ServerIndex winner, double far, std::int32_t load) {
    visit_token_->l[static_cast<std::size_t>(winner)] = far;
    visit_token_->load[static_cast<std::size_t>(winner)] = load;
    ++visit_token_->modifications;
    const double new_len =
        core::MaxPathFromEccentricities(problem_, visit_token_->l);
    visit_token_->trace.push_back(new_len);
    ProcessNextCritical();
  }

  void FinishVisit() {
    const double end_len =
        core::MaxPathFromEccentricities(problem_, visit_token_->l);
    if (end_len < visit_start_len_ - kEps) {
      visit_token_->visits_without_improvement = 0;
    } else {
      ++visit_token_->visits_without_improvement;
    }
    if (visit_token_->visits_without_improvement >= NumServers()) {
      // A full silent circle: no server can improve D. Terminate.
      terminated_ = true;
      termination_time_ = simulator_.Now();
      final_token_ = visit_token_;
      return;
    }
    const ServerIndex next = (visit_holder_ + 1) % NumServers();
    auto token = visit_token_;
    SendMsg(Node(visit_holder_), Node(next),
                  [this, next, token]() { StartVisit(next, token); },
                  TableBytes(NumServers()));
  }

  const Problem& problem_;
  AssignOptions options_;
  sim::Simulator simulator_;
  sim::Network network_;
  double rto_ms_ = 250.0;
  std::vector<Agent> agents_;

  // Visit-scoped state (only the token holder uses it; the token is unique).
  ServerIndex visit_holder_ = 0;
  std::shared_ptr<Token> visit_token_;
  double visit_start_len_ = 0.0;
  std::vector<ClientIndex> pending_critical_;
  ClientIndex query_client_ = 0;
  double query_l_excl_ = -1.0;
  std::int32_t replies_pending_ = 0;
  double best_candidate_len_ = 0.0;
  ServerIndex best_candidate_ = kUnassigned;

  bool terminated_ = false;
  double termination_time_ = 0.0;
  std::shared_ptr<Token> final_token_;
};

}  // namespace

DgProtocolResult RunDistributedGreedyProtocol(
    const net::LatencyMatrix& matrix, const Problem& problem,
    const AssignOptions& options, const Assignment* initial,
    const ProtocolTransport& transport) {
  Assignment seed = initial != nullptr
                        ? *initial
                        : core::NearestServerAssign(problem, options);
  DIACA_CHECK_MSG(seed.IsComplete(), "initial assignment incomplete");
  Runner runner(matrix, problem, options, seed, transport);
  return runner.Run();
}

}  // namespace diaca::proto
