// Incremental maintenance of the maximum interaction path length under
// single-client moves.
//
// Local search methods (steepest descent, simulated annealing) evaluate
// huge numbers of candidate moves; recomputing
// D = max_{s1,s2} far(s1) + d(s1,s2) + far(s2) from scratch costs
// O(|C| + |U|^2) each time. IncrementalEvaluator keeps each server's
// clients as one flat run of (distance, client) entries, farthest first
// and lowest client first on equal distances, plus the argmax server
// pair. far(s) is the head of s's run, and the head is also the
// bottleneck witness the repair solver and the re-optimizer move. A move
// changes only far(from) and far(to), so:
//   * if the cached argmax pair avoids both changed servers, the new
//     objective is max(old maximum, best pair touching a changed server)
//     — O(|S|);
//   * otherwise the old maximum may fall, and a full O(|U|^2) rescan runs.
// Random/local moves rarely touch the argmax pair, so evaluation is O(|S|)
// in the common case (measured in the evaluator microbenchmark).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "core/types.h"

namespace diaca::core {

class IncrementalEvaluator {
 public:
  /// Tag selecting the partial-assignment constructor below.
  struct AllowPartial {};

  /// One entry of a server's run: a client and its distance to the server.
  using FarEntry = std::pair<double, ClientIndex>;

  /// Build from a complete assignment. O(|C| log |C| + |U|^2).
  IncrementalEvaluator(const Problem& problem, const Assignment& initial);

  /// Build from a possibly-partial assignment: kUnassigned rows are
  /// inactive clients that do not participate in the objective until
  /// attached via AddClient. The churn control plane uses this to keep
  /// one evaluator alive across the whole instance space while only the
  /// current members count.
  IncrementalEvaluator(const Problem& problem, const Assignment& initial,
                       AllowPartial);

  /// Current maximum interaction path length (over active clients).
  double CurrentMax() const { return max_pair_.value; }

  /// Objective if client c moved to server `to` (no state change).
  /// c must be active.
  double EvaluateMove(ClientIndex c, ServerIndex to) const;

  /// Apply the move for real and return the new objective. c must be
  /// active.
  double ApplyMove(ClientIndex c, ServerIndex to);

  /// Objective if the inactive client c were attached to `to` (no state
  /// change). O(|S|) always: an attachment can only raise far(to), so
  /// the cached maximum never needs a full rescan.
  double EvaluateAdd(ClientIndex c, ServerIndex to) const;

  /// Attach the inactive client c to `to` and return the new objective.
  double AddClient(ClientIndex c, ServerIndex to);

  /// Detach the active client c (its row becomes kUnassigned) and return
  /// the new objective. Full rescan only when c's server is an argmax
  /// pair endpoint.
  double RemoveClient(ClientIndex c);

  /// Whether client c currently participates in the objective.
  bool IsActive(ClientIndex c) const { return assignment_[c] != kUnassigned; }
  std::int32_t num_active() const { return active_; }

  /// Current assignment (kept in sync with the applied moves).
  const Assignment& assignment() const { return assignment_; }

  ServerIndex ServerOf(ClientIndex c) const { return assignment_[c]; }
  /// Endpoint servers of the cached argmax interaction pair (kUnassigned
  /// when no server holds a client). The repair solver and the
  /// re-optimizer relocate these servers' witness clients.
  ServerIndex MaxPairFirst() const { return max_pair_.a; }
  ServerIndex MaxPairSecond() const { return max_pair_.b; }
  std::int32_t LoadOf(ServerIndex s) const {
    return static_cast<std::int32_t>(runs_[static_cast<std::size_t>(s)].size());
  }
  /// Server s's active clients with their distances d(c, s), farthest
  /// first and lowest client first on equal distances. The head is far(s)
  /// and its witness. Valid until the next state change.
  std::span<const FarEntry> FarthestFirst(ServerIndex s) const {
    return runs_[static_cast<std::size_t>(s)];
  }
  /// Full O(|U|^2) rescans triggered so far (perf introspection).
  std::int64_t full_rescans() const { return full_rescans_; }

 private:
  struct PairMax {
    double value = 0.0;
    ServerIndex a = kUnassigned;
    ServerIndex b = kUnassigned;
  };

  /// far(s): the head of s's run (-1 when empty).
  double Far(ServerIndex s) const {
    const auto& run = runs_[static_cast<std::size_t>(s)];
    return run.empty() ? -1.0 : run.front().first;
  }

  /// Insert c into, or erase it from, server s's run: a binary search on
  /// (d(c, s), c), then an O(load(s)) shift.
  void InsertInRun(ServerIndex s, ClientIndex c);
  void EraseFromRun(ServerIndex s, ClientIndex c);

  /// Eccentricity with the move (c: from -> to) applied virtually.
  double EffectiveFar(ServerIndex s, ClientIndex c, ServerIndex from,
                      ServerIndex to) const;

  /// Fill eff_buf_ with EffectiveFar(s, ...) for every server and return
  /// it: the pair scans then fold contiguous doubles instead of paying a
  /// run lookup per (s1, s2) pair.
  std::span<const double> MaterializeEffectiveFar(ClientIndex c,
                                                  ServerIndex from,
                                                  ServerIndex to) const;

  /// Full scan over server pairs with the move applied virtually.
  PairMax ScanAllPairs(ClientIndex c, ServerIndex from, ServerIndex to) const;

  /// Best pair with at least one endpoint in {from, to}, move applied
  /// virtually. O(|S|).
  PairMax ScanTouching(ClientIndex c, ServerIndex from, ServerIndex to) const;

  PairMax Evaluate(ClientIndex c, ServerIndex to,
                   bool* used_full_rescan) const;

  const Problem& problem_;
  Assignment assignment_;
  /// Per-server run of (d(c, s), c), farthest first, lowest client first
  /// on equal distances. Flat, so copying the evaluator is |S| copies.
  std::vector<std::vector<FarEntry>> runs_;
  /// Scratch for MaterializeEffectiveFar, reused across evaluations (the
  /// evaluator is single-caller by contract, like the rest of its state).
  mutable std::vector<double> eff_buf_;
  PairMax max_pair_;
  std::int32_t active_ = 0;
  mutable std::int64_t full_rescans_ = 0;
};

}  // namespace diaca::core
