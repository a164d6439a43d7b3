// Incremental maintenance of the maximum interaction path length under
// single-client moves, attachments and detachments.
//
// Local search methods (distributed greedy, steepest descent, simulated
// annealing, the bottleneck descent of the repair solver and the churn
// re-optimizer) evaluate huge numbers of candidate moves; recomputing
// D = max_{s1,s2} far(s1) + d(s1,s2) + far(s2) from scratch costs
// O(|C| + |U|^2) each time. IncrementalEvaluator keeps, per server:
//   * an unsorted member list of (d(c, s), c), with each client's slot in
//     it, so inserts and erases are O(1);
//   * the list's top two entries, farthest first and lowest client first
//     on equal distances. far(s) is the head, and the head is also the
//     bottleneck witness the repair solver and the re-optimizer move. The
//     list is rescanned only when its head or runner-up leaves;
//   * a best-partner row: the top three (value, s2) over s2 >= s with
//     far(s2) >= 0 of (far(s) + d(s, s2)) + far(s2), by value and then
//     the lowest s2. A real change to far(x) recomputes row x and patches
//     column x of every other row in place; such a row is recomputed only
//     when a stored partner x falls behind the row's other entries or
//     empties, so that its top three are no longer known.
// plus the cached argmax server pair. A move changes only far(from) and
// far(to), so:
//   * if the cached argmax pair avoids both changed servers, the new
//     objective is max(old maximum, best pair touching a changed server)
//     — one anchor-first scan per changed server, O(|S|);
//   * otherwise the old maximum may fall, and the lexicographically-first
//     argmax pair is read off the partner table: rows `from` and `to` are
//     recomputed, every other row compares its first stored partner
//     outside {from, to} with its `from` and `to` columns — O(|S|) too.
// So every evaluation, add, remove and move costs O(|S|) amortized, and
// the pair the evaluator reports is the one a full pair scan would.
//
// Trying moves needs no copy either: Checkpoint() snapshots the O(|S|)
// per-server state, ApplyMove logs each move, and Rollback() undoes the
// logged moves and restores the snapshot, so the churn re-optimizer
// proposes on the live evaluator.
#pragma once

#include <array>
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

  /// One member of a server: a client and its distance to the server.
  using FarEntry = std::pair<double, ClientIndex>;

  /// Build from a complete assignment. O(|C| + |U|^2).
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
  /// change). O(|S|): an attachment can only raise far(to), so the cached
  /// maximum competes only with the pairs touching `to`.
  double EvaluateAdd(ClientIndex c, ServerIndex to) const;

  /// The first server t with eligible[t] != 0 minimizing EvaluateAdd(c,
  /// t), or kUnassigned when none is eligible. Every target is scored
  /// against one far vector, one max-plus reduction each, and the scan
  /// stops at the first target that keeps the objective at CurrentMax().
  ServerIndex BestAdd(ClientIndex c, std::span<const char> eligible) const;

  /// Attach the inactive client c to `to` and return the new objective.
  double AddClient(ClientIndex c, ServerIndex to);

  /// Detach the active client c (its row becomes kUnassigned) and return
  /// the new objective.
  double RemoveClient(ClientIndex c);

  /// Open a checkpoint: snapshot the top two, far and partner row of
  /// every server and the cached pair, O(|S|), and log every ApplyMove
  /// from here on. Only moves are logged, so AddClient and RemoveClient
  /// throw until Rollback(). Throws diaca::Error when one is already open.
  void Checkpoint();

  /// Undo every ApplyMove since Checkpoint(), newest first, and close the
  /// checkpoint: each client returns to its old slot in its old server's
  /// member list, and the snapshot comes back, so every accessor reads
  /// what it read at Checkpoint(), bit for bit. O(|S| + moves undone).
  /// full_rescans() keeps counting: it is telemetry, not state.
  void Rollback();

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
    return static_cast<std::int32_t>(
        members_[static_cast<std::size_t>(s)].size());
  }
  /// Server s's farthest client and its distance far(s): the largest
  /// d(c, s), the lowest client on ties. {-1.0, -1} when s is empty.
  FarEntry Farthest(ServerIndex s) const {
    return top_[static_cast<std::size_t>(s)][0];
  }
  /// far(s) for every server, -1 where s is empty: the exact maxima a
  /// full client fold would find, so MaxPathFromEccentricities over them
  /// is that fold's objective bit for bit. Valid until the next state
  /// change.
  std::span<const double> Eccentricities() const { return far_; }
  /// far(a_c) with the active client c left out: the runner-up's
  /// distance when c is the head (-1 when c is alone), far(a_c)
  /// otherwise. O(1).
  double FarWithout(ClientIndex c) const;
  /// Server s's active clients with their distances d(c, s), in no
  /// particular order. Valid until the next state change.
  std::span<const FarEntry> Members(ServerIndex s) const {
    return members_[static_cast<std::size_t>(s)];
  }
  /// A sorted copy of Members(s): farthest first, lowest client first on
  /// equal distances. O(load log load); for tests and diagnostics.
  std::vector<FarEntry> FarthestFirst(ServerIndex s) const;
  /// Evaluations that touched the cached argmax pair so far (perf
  /// introspection): the moves that read the partner table.
  std::int64_t full_rescans() const { return full_rescans_; }

 private:
  struct PairMax {
    double value = 0.0;
    ServerIndex a = kUnassigned;
    ServerIndex b = kUnassigned;
  };
  /// One best-partner table entry: (far(s1) + d(s1, s2)) + far(s2).
  struct Partner {
    double value = 0.0;
    ServerIndex s2 = kUnassigned;
    /// The larger value first, the lower s2 first on equal values.
    bool Ahead(const Partner& other) const;
  };
  /// Row s1 of the best-partner table: its top entries, best first.
  struct PartnerRow {
    std::array<Partner, 3> top;
    std::int32_t size = 0;
    /// Place p among the top three (dropped when it trails all three).
    void Offer(const Partner& p);
  };

  /// far(s): the head's distance (-1 when empty).
  double Far(ServerIndex s) const { return far_[static_cast<std::size_t>(s)]; }

  /// Insert c (at distance d = d(c, s)) into, or erase it from, server
  /// s's member list, keeping the top two and far(s).
  void Insert(ServerIndex s, ClientIndex c, double d);
  void Erase(ServerIndex s, ClientIndex c);

  /// Fill eff_buf_ with far(s) for every server, with far(from) dropping
  /// c and far(to) taking it (kUnassigned legs skipped), and return it.
  std::span<const double> EffectiveFar(ClientIndex c, ServerIndex from,
                                       ServerIndex to) const;

  /// Best pair with at least one endpoint in {from, to} over `eff`,
  /// scanned anchor first. O(|S|).
  PairMax ScanTouching(std::span<const double> eff, ServerIndex from,
                       ServerIndex to) const;

  /// The lexicographically-first argmax pair over `eff`, which differs
  /// from the current far vector at most at servers x and y (kUnassigned
  /// legs skipped): rows x and y are recomputed, the others read off the
  /// partner table. O(|S|).
  PairMax ScanTable(std::span<const double> eff, ServerIndex x,
                    ServerIndex y) const;

  PairMax Evaluate(ClientIndex c, ServerIndex to) const;

  /// Recompute row s1 of the partner table from far_.
  void RebuildRow(ServerIndex s1);
  /// Fold the new far(x) and far(y) into row r (r not x or y); false
  /// when the row's top three can no longer be known without a rebuild.
  bool PatchRow(ServerIndex r, ServerIndex x, ServerIndex y);
  /// Bring the partner table in line with far_ after far(x) and far(y)
  /// changed (kUnassigned: unchanged).
  void RefreshColumns(ServerIndex x, ServerIndex y);

  const Problem& problem_;
  Assignment assignment_;
  /// Per-server unsorted member list, and each active client's slot in
  /// its server's list.
  std::vector<std::vector<FarEntry>> members_;
  std::vector<std::int32_t> slot_;
  /// Per-server top two members, {-1.0, -1} where absent.
  std::vector<std::array<FarEntry, 2>> top_;
  /// far(s) per server, contiguous for the max-plus kernels.
  std::vector<double> far_;
  /// The best-partner table, one row per server.
  std::vector<PartnerRow> partners_;
  /// Scratch far vector of the virtual evaluations, reused across calls
  /// (the evaluator is single-caller by contract, like the rest of its
  /// state).
  mutable std::vector<double> eff_buf_;
  PairMax max_pair_;
  std::int32_t active_ = 0;
  mutable std::int64_t full_rescans_ = 0;

  /// One logged ApplyMove: client c left slot `slot` of server `from`'s
  /// member list, where its distance was `d`.
  struct UndoEntry {
    ClientIndex c;
    ServerIndex from;
    std::int32_t slot;
    double d;
  };
  /// The open checkpoint's snapshot and move log (none open: `open` is
  /// false and the log is empty).
  struct Saved {
    bool open = false;
    std::vector<std::array<FarEntry, 2>> top;
    std::vector<double> far;
    std::vector<PartnerRow> partners;
    PairMax max_pair;
    std::vector<UndoEntry> log;
  };
  Saved saved_;
};

}  // namespace diaca::core
