#include "core/greedy.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "core/capacity.h"
#include "core/metrics.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Geometric (rank, distance) snapshot of a server's sorted candidate
// list, taken at its last compaction (or at its last build). Ranks are
// 0, 1, 3, 7, ... 2^k-1 plus a one-past-the-end sentinel, so a 1M-entry
// list needs 21 points. The snapshot turns the old one-point head bound
// into a bracket-wise lower bound on the server's whole cost curve:
// every *current* candidate with distance in [e_j, e_{j+1}) had rank
// < r_{j+1} when the snapshot was taken, removals only shrink ranks, and
// delta is non-decreasing in distance — so
//
//   cost(p) >= rnd(delta_now(e_j) / min(r_{j+1}, room, unassigned))
//
// holds for every current position p in bracket j even when the snapshot
// is rounds stale (delta_now uses the CURRENT reach and max_len; staler
// snapshots only loosen the bound, never break it). Correctly-rounded
// division is monotone in both arguments, so the fl() evaluation of the
// right-hand side is itself a valid lower bound — the same argument as
// the scan's bucket bound. One further relaxation also holds, which the
// bucket seeding below leans on: replacing any e_j by a LOWER bound on
// the distance at snapshot rank r_j keeps the bracket classification
// conservative (a candidate's bracket can only move down, where delta is
// smaller), so the bound stays certified — just looser.
struct Ladder {
  std::int32_t count = 0;                // number of (rank, dist) points
  std::array<std::int32_t, 24> rank{};   // rank[count] = stale length
  std::array<double, 24> dist_at{};
};

void RebuildLadderRanks(Ladder& ladder, std::size_t len) {
  ladder.count = 0;
  std::size_t r = 0;
  while (r < len && ladder.count < 23) {
    ladder.rank[static_cast<std::size_t>(ladder.count++)] =
        static_cast<std::int32_t>(r);
    r = 2 * r + 1;
  }
  ladder.rank[static_cast<std::size_t>(ladder.count)] =
      static_cast<std::int32_t>(len);
}

// ---- Bucket-refined candidate lists -----------------------------------
//
// Fully sorting every server's column up front costs ~20ms per
// 1M-client column even through a radix kernel — the dominant share of
// a large solve — yet measured runs show only a few dozen servers ever
// win a round; the other ~95% of the sorted order serves nothing but
// bound proofs. Greedy therefore never sorts a whole column, on any
// client-block view. One O(n) counting pass over the n clients a list
// is built over groups each server's clients into distance-monotone
// buckets (value-linear between the column's min and max) and records
// each bucket's EXACT distance minimum and boundary ranks. That
// structure alone certifies everything the round loop needs from a
// loser:
//
//   * fl((d - dmin) * inv) is non-decreasing in d, and equal distances
//     always share a bucket — so concatenating buckets in order, with
//     each bucket internally sorted by (distance, client), IS the exact
//     global (distance, client) sort. Bucket boundaries are exact
//     ranks; a bucket's min bounds every distance inside it.
//   * A scan prunes a whole bucket when delta(bucket_min) / min(end
//     rank, room) cannot beat the running incumbent — the
//     fl-monotonicity argument of the Ladder above, at bucket
//     granularity, without gathering a single lane.
//
// Only a bucket the bound cannot retire is *refined*: its lanes are
// gathered and radix-sorted by (distance, client) in place — exact
// ranks from then on — and the flag is permanent, so refinement work is
// monotone and concentrates on the handful of buckets near each
// round's winning cost. Unsorted buckets keep ids in ascending client
// order (the counting scatter is stable), which is exactly the
// stability the radix sort needs to land the lexicographic tie-break.
//
// Selection stays bit-identical to a flat sorted list because every
// skip is justified by a certified lower bound against the running
// strict-< incumbent (positions in later buckets lose cost ties by
// construction), and every lane that can matter is evaluated with its
// exact rank and the exact per-lane cost expression. None of this
// depends on the view's backend: GatherColumn and cs return the same
// doubles on every view.
//
// The lists follow the unassigned clients (§IV-C picks each batch from
// the clients still unassigned). The first build covers every client;
// whenever half the clients the lists were last built over have been
// assigned, every server with room is rebuilt by the same pass over the
// survivors alone, in ascending id order. A rebuilt list is exactly
// what compaction would leave — distance-monotone buckets, ascending ids
// inside unsorted ones, exact minima — so positions stay exact ranks
// among the unassigned and every scan returns the same winner. Between
// rebuilds, compaction drops assigned entries lazily as before. Build
// sizes halve, so all rebuilds together cost at most one first build,
// and the scans never drag a mostly-assigned list around.
//
// A build is two parts. The counting pass — offsets, minima, ladder,
// and the bucketing origin and scale — is all any server's bounds read.
// The id scatter is needed only by a list a scan actually reads, and
// the first epoch reads few (a couple of the 256 on a 200k-client
// cloud, whose first batch takes ~90% of the clients). So the first
// build only counts; a list's ids are scattered the first time a scan
// reads them, by re-gathering its column over the build's ids and
// recomputing every bucket with the count's own expression — the same
// stable scatter, byte-identical lists. Rebuilds scatter eagerly inside
// their parallel column pass: a deferred scatter is serial and, on a
// resident block, strides the whole block, and after round 1 the scans
// read many lists.
//
// Round 1 can skip even most counts. Its batch is the largest; on that
// 200k-client cloud it leaves under half the clients, so a rebuild
// replaces every list at round 2, and a first build counting every
// client against every server serves a single round. When pruning is
// on and the view groups the clients onto at most half as many
// attachment rows (ForEachColumnFloors), round 1 reads a bound off the
// rows instead. Per server, the rows' floors — each the exact
// minimum distance over its clients — are bucketed with BucketOf over
// their own min and max; with F[k] the smallest floor in bucket k and
// C[k] the clients in buckets <= k,
//
//   bound = min over non-empty k of delta(F[k]) / min(C[k], room, unassigned)
//
// under phase 1's round-1 expressions. Take a client at exact position p
// with distance d. Its own row's floor is <= d, so there is a last
// non-empty bucket k* with F[k*] <= d. Every client ahead of it has a
// distance <= d, so a floor <= d, so a bucket <= k*: p + 1 <= C[k*]. As
// d >= F[k*], delta is non-decreasing and rounded division is
// monotone, cost(p) >= the k* term >= bound. Neither sorted floors nor
// monotone buckets are needed. Phase 1 orders the servers by these
// bounds, and phase 2 counts a list — the first build's count over the
// same ids, byte-identical — only when the traversal reaches it. At
// round 2 either the rebuild replaces every list or the postponed first
// build counts the ones round 1 left uncounted. With pruning off the
// first build counts every list, as bound_pruning promises, which keeps
// a full-count control for the floors; a view with more rows keeps it
// too, since near one client per row the floors cost about as much as
// the count and retire nothing.
//
// The bucket count follows the build: about 32 clients per bucket,
// clamped to [64, 8192] and a power of two so super-groups tile it
// evenly. Large blocks keep the full 8192; small ones (the paper's
// 2000-client sweeps, late rebuilds) do not pay for thousands of empty
// buckets in every scan and compaction.
constexpr std::int32_t kMinBuckets = 64;
constexpr std::int32_t kMaxBuckets = 8192;
constexpr std::int32_t kSuper = 64;  // buckets per super-group

std::int32_t NumBuckets(std::int32_t list_size) {
  const auto target =
      std::bit_ceil(static_cast<std::uint32_t>(list_size) / 32u);
  return static_cast<std::int32_t>(std::clamp<std::uint32_t>(
      target, kMinBuckets, kMaxBuckets));
}

// The bucket of distance d under a build's origin lo and scale inv:
// fl((d - lo) * inv) is non-decreasing in d, so the clamp keeps buckets
// distance-monotone with equal values always co-located — the property
// the exactness argument needs. The counting pass and the scatter both
// call it, so they always agree.
std::int32_t BucketOf(double d, double lo, double inv, std::int32_t nb) {
  const auto q = static_cast<std::int64_t>((d - lo) * inv);
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(q, 0, nb - 1));
}

// The scale with which BucketOf spreads values in [lo, hi] over nb
// buckets: 0 when they are all equal or their range overflows, which
// puts every value in bucket 0.
double BucketScale(double lo, double hi, std::int32_t nb) {
  const double range = hi - lo;
  return range > 0.0 && std::isfinite(range) ? static_cast<double>(nb) / range
                                             : 0.0;
}

struct BucketList {
  // Bucket-grouped ids (see bsorted). Empty until scattered: every list
  // is built over at least one client.
  std::vector<ClientIndex> perm;
  std::vector<std::int32_t> boff;   // num_buckets + 1 bucket offsets
  std::vector<double> bmin;         // certified per-bucket distance min
  std::vector<double> smin;         // per super-group min of bmin
  std::vector<char> bsorted;        // bucket refined to exact order?
  double lo = 0.0;                  // bucketing origin (column minimum)
  double inv = 0.0;                 // bucketing scale
};

// One server's candidate scan: the first position minimizing
//   cost(p) = (max(max(2 d_p, d_p + reach), max_len) - max_len)
//             / min(p + 1, room)
// among costs below the caller's cutoff (pos == -1: none beat it), and
// lb, a certified lower bound on the server's exact minimum cost that
// holds independently of the cutoff.
struct ScanResult {
  double cost = 0.0;  // == the cutoff when pos == -1
  double len = 0.0;
  std::int64_t pos = -1;
  double lb = 0.0;
};

}  // namespace

Assignment GreedyAssign(const Problem& problem, const AssignOptions& options,
                        SolveStats* stats) {
  DIACA_OBS_SPAN("core.greedy.solve");
  const std::int32_t num_clients = problem.num_clients();
  const std::int32_t num_servers = problem.num_servers();
  CheckCapacityFeasible(problem, options);
  // Per server only the bucket structure persists, plus the client-index
  // permutation (4 bytes per entry, never a copy of the block) once a
  // scan has read the list; the rounds gather distances through the
  // view for the few buckets they touch.
  const ClientBlockView& view = problem.client_block();
  // Set by every build (see build_lists below).
  std::int32_t num_buckets = 0;
  std::int32_t num_super = 0;

  Assignment a(static_cast<std::size_t>(num_clients));
  std::vector<std::size_t> head(static_cast<std::size_t>(num_servers), 0);
  std::vector<std::int32_t> hbucket(static_cast<std::size_t>(num_servers), 0);
  std::vector<double> head_dist(static_cast<std::size_t>(num_servers), 0.0);
  std::vector<BucketList> bucket_lists(static_cast<std::size_t>(num_servers));
  std::vector<Ladder> ladders(static_cast<std::size_t>(num_servers));
  std::vector<double> lane_scratch;  // phase-2 gather scratch (serial)
  const bool prune = options.bound_pruning;
  // The clients the lists were last built over, ascending: all of them
  // first, the survivors at each rebuild.
  std::vector<ClientIndex> ids(static_cast<std::size_t>(num_clients));
  std::iota(ids.begin(), ids.end(), 0);

  // Scatter a counted list's ids into bucket order, given the column it
  // was counted over: col[i] = cs(list_ids[i], s), i in [0, n). Each
  // id's bucket is recomputed with the count's expression, and the
  // counting scatter is stable, so ascending ids stay ascending inside
  // every bucket.
  const auto scatter = [](BucketList& bl, const double* col,
                          const ClientIndex* list_ids, std::size_t n) {
    static thread_local std::vector<std::int32_t> cursor;
    const auto nb = static_cast<std::int32_t>(bl.bmin.size());
    cursor.assign(bl.boff.begin(), bl.boff.end() - 1);
    bl.perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto q =
          static_cast<std::size_t>(BucketOf(col[i], bl.lo, bl.inv, nb));
      bl.perm[static_cast<std::size_t>(cursor[q]++)] = list_ids[i];
    }
  };

  // Refine bucket b of server s to exact (distance, client) order. If
  // the head sat inside the bucket, the shuffle may have moved assigned
  // entries past it — re-run the advance from the bucket's start (every
  // position before the bucket is already assigned).
  const auto sort_bucket = [&](ServerIndex s, BucketList& bl, std::int32_t b,
                               std::size_t& h, std::int32_t& hb) {
    if (bl.perm.empty()) {
      // Every first read of a list's ids — a scan's lanes, the zero
      // path's head — comes through a refine, so a list the first build
      // only counted is scattered here: re-gather its column over the
      // build's ids (GatherColumn returns the doubles the build's column
      // pass did). A list counted over other ids — a server saturated
      // at a rebuild keeps its first-build list — is never scanned again.
      DIACA_CHECK(static_cast<std::size_t>(bl.boff.back()) == ids.size());
      lane_scratch.resize(ids.size());
      view.GatherColumn(s, ids.data(), ids.size(), lane_scratch.data());
      scatter(bl, lane_scratch.data(), ids.data(), ids.size());
      DIACA_OBS_COUNT("core.greedy.deferred_scatters", 1);
    }
    const auto lo = static_cast<std::size_t>(bl.boff[static_cast<std::size_t>(b)]);
    const auto hi =
        static_cast<std::size_t>(bl.boff[static_cast<std::size_t>(b) + 1]);
    lane_scratch.resize(hi - lo);
    view.GatherColumn(s, bl.perm.data() + lo, hi - lo, lane_scratch.data());
    simd::RadixSortDistIndex(lane_scratch.data(), bl.perm.data() + lo,
                             hi - lo);
    bl.bsorted[static_cast<std::size_t>(b)] = 1;
    DIACA_OBS_COUNT("core.greedy.bucket_refines", 1);
    if (h >= lo && h < hi) {
      h = lo;
      while (a[bl.perm[h]] != kUnassigned) ++h;
      while (bl.boff[static_cast<std::size_t>(hb) + 1] <=
             static_cast<std::int32_t>(h)) {
        ++hb;
      }
    }
  };

  // Bucket-level candidate scan: bit-identical to gathering the whole
  // bucket-ordered list and scanning positions [h, end) in order with a
  // strict-< incumbent. The cost curve's minimum usually sits DEEP in
  // the list (large denominators), so a position-order walk keeps its
  // incumbent loose across the entire prefix and refines everything on
  // the way — the traversal is best-first instead: all super-group
  // bounds are computed up front, the most promising group (then
  // bucket) is evaluated first, and the incumbent is near-exact after
  // one bucket, retiring the rest on their bounds without touching a
  // lane.
  //
  // Best-first evaluation order changes nothing the position-order scan
  // would return: lane updates keep (cost, position) lexicographic
  // minima (strictly better cost, or equal cost at a smaller position),
  // and a region is skipped only when its certified bound proves it
  // holds neither — which is exactly the first minimizer the
  // position-order scan keeps. Refining the bucket that holds the head
  // can move h (see sort_bucket), which shifts every position; the scan
  // restarts, and restarts are bounded by the monotone sorted flags.
  std::array<double, kMaxBuckets / kSuper> super_bound;
  std::array<double, kSuper> bucket_bound;
  const auto scan_buckets = [&](ServerIndex s, BucketList& bl, std::size_t& h,
                                std::int32_t& hb, double reach_s, double mlen,
                                std::int32_t room, double cutoff) {
    const double room_d = static_cast<double>(room);
    const auto bound_of = [&](double e, double dn_ub) {
      const double len = std::max(std::max(2.0 * e, e + reach_s), mlen);
      return (len - mlen) / std::min(dn_ub, room_d);
    };
    ScanResult best;
    for (bool rescan = true; rescan;) {
      rescan = false;
      best = ScanResult{};
      best.cost = cutoff;
      best.lb = kInf;
      const auto hh = static_cast<std::int32_t>(h);
      std::int64_t evaluated = 0;
      for (std::int32_t g = 0; g < num_super; ++g) {
        const std::int32_t gend =
            bl.boff[static_cast<std::size_t>(g + 1) * kSuper];
        const std::int32_t gbeg =
            std::max(bl.boff[static_cast<std::size_t>(g) * kSuper], hh);
        if (gend <= hh || gend == gbeg) {
          super_bound[static_cast<std::size_t>(g)] = kInf;
          continue;
        }
        const double gb = bound_of(bl.smin[static_cast<std::size_t>(g)],
                                   static_cast<double>(gend - hh));
        super_bound[static_cast<std::size_t>(g)] = gb;
        best.lb = std::min(best.lb, gb);
      }
      while (!rescan) {
        // Most promising unprocessed super-group. A group is worth
        // processing only if its bound could still strictly improve the
        // incumbent, or exactly tie it from a smaller position.
        std::int32_t g = -1;
        double gb = kInf;
        for (std::int32_t j = 0; j < num_super; ++j) {
          if (super_bound[static_cast<std::size_t>(j)] < gb) {
            gb = super_bound[static_cast<std::size_t>(j)];
            g = j;
          }
        }
        if (g < 0 || gb > best.cost) break;
        const std::int32_t gfirst =
            std::max(bl.boff[static_cast<std::size_t>(g) * kSuper], hh) - hh;
        if (gb == best.cost && (best.pos < 0 || gfirst >= best.pos)) {
          super_bound[static_cast<std::size_t>(g)] = kInf;
          continue;
        }
        for (std::int32_t j = 0; j < kSuper; ++j) {
          const std::int32_t b = g * kSuper + j;
          const std::int32_t e1 = bl.boff[static_cast<std::size_t>(b) + 1];
          const std::int32_t b0 =
              std::max(bl.boff[static_cast<std::size_t>(b)], hh);
          bucket_bound[static_cast<std::size_t>(j)] =
              e1 <= hh || e1 == b0
                  ? kInf
                  : bound_of(bl.bmin[static_cast<std::size_t>(b)],
                             static_cast<double>(e1 - hh));
        }
        while (!rescan) {
          std::int32_t j = -1;
          double bb = kInf;
          for (std::int32_t jj = 0; jj < kSuper; ++jj) {
            if (bucket_bound[static_cast<std::size_t>(jj)] < bb) {
              bb = bucket_bound[static_cast<std::size_t>(jj)];
              j = jj;
            }
          }
          if (j < 0 || bb > best.cost) break;
          const std::int32_t b = g * kSuper + j;
          const std::int32_t b0 =
              std::max(bl.boff[static_cast<std::size_t>(b)], hh);
          if (bb == best.cost && (best.pos < 0 || b0 - hh >= best.pos)) {
            bucket_bound[static_cast<std::size_t>(j)] = kInf;
            continue;
          }
          if (!bl.bsorted[static_cast<std::size_t>(b)]) {
            const std::size_t h_before = h;
            sort_bucket(s, bl, b, h, hb);
            if (h != h_before) {
              rescan = true;
              break;
            }
          }
          // b is refined, so sort_bucket has scattered this list's ids.
          const std::int32_t e1 = bl.boff[static_cast<std::size_t>(b) + 1];
          const auto cnt = static_cast<std::size_t>(e1 - b0);
          lane_scratch.resize(cnt);
          view.GatherColumn(s, bl.perm.data() + b0, cnt,
                            lane_scratch.data());
          evaluated += e1 - b0;
          // Stale scans may lower-bound through assigned entries, but
          // evaluating them wastes lanes and lets a drained bucket's
          // stale minimum keep its bound alive round after round. Skip
          // them, and refresh the bucket minimum to the exact min over
          // the entries that still exist: positions before the window
          // start precede the head and are assigned, so the window's
          // unassigned lanes ARE the bucket's current population (a
          // fully drained bucket pins to +inf and is bound-pruned
          // forever after).
          double fresh_min = kInf;
          for (std::size_t i = 0; i < cnt; ++i) {
            if (a[bl.perm[static_cast<std::size_t>(b0) + i]] != kUnassigned) {
              continue;
            }
            const double d = lane_scratch[i];
            fresh_min = std::min(fresh_min, d);
            const double len = std::max(std::max(2.0 * d, d + reach_s), mlen);
            const double dn = std::min(
                static_cast<double>(b0 - hh) + static_cast<double>(i) + 1.0,
                room_d);
            const double cost = (len - mlen) / dn;
            if (cost < best.cost ||
                (cost == best.cost && best.pos >= 0 &&
                 b0 - hh + static_cast<std::int64_t>(i) < best.pos)) {
              best.cost = cost;
              best.len = len;
              best.pos = b0 - hh + static_cast<std::int64_t>(i);
            }
          }
          bl.bmin[static_cast<std::size_t>(b)] = fresh_min;
          bucket_bound[static_cast<std::size_t>(j)] = kInf;
        }
        if (rescan) break;
        double sm = kInf;
        for (std::int32_t b = g * kSuper; b < (g + 1) * kSuper; ++b) {
          sm = std::min(sm, bl.bmin[static_cast<std::size_t>(b)]);
        }
        bl.smin[static_cast<std::size_t>(g)] = sm;
        super_bound[static_cast<std::size_t>(g)] = kInf;
      }
      if (!rescan && prune) {
        // Lanes retired on a bound were never gathered; credit them to
        // the view's filter-and-refine telemetry in 512-lane units.
        const std::int64_t pruned =
            bl.boff[static_cast<std::size_t>(num_buckets)] - hh - evaluated;
        if (pruned > 0) view.CountPrunedTiles((pruned + 511) / 512);
      }
    }
    return best;
  };

  // Drop assigned entries bucket-by-bucket (stable, so sorted buckets
  // stay sorted and unsorted ones keep ascending client order) and
  // refresh the boundary ranks. Bucket minima stay as-is: removals only
  // raise the true minimum, so the stale value remains certified.
  const auto compact_buckets = [&](BucketList& bl, std::size_t& h,
                                   std::int32_t& hb) {
    DIACA_CHECK(!bl.perm.empty());  // only a hit compacts: its lanes read ids
    std::size_t write = 0;
    for (std::int32_t b = 0; b < num_buckets; ++b) {
      const auto lo = static_cast<std::size_t>(bl.boff[static_cast<std::size_t>(b)]);
      const auto hi =
          static_cast<std::size_t>(bl.boff[static_cast<std::size_t>(b) + 1]);
      bl.boff[static_cast<std::size_t>(b)] = static_cast<std::int32_t>(write);
      for (std::size_t pos = lo; pos < hi; ++pos) {
        const ClientIndex c = bl.perm[pos];
        if (a[c] == kUnassigned) bl.perm[write++] = c;
      }
    }
    bl.boff[static_cast<std::size_t>(num_buckets)] =
        static_cast<std::int32_t>(write);
    bl.perm.resize(write);
    h = 0;
    hb = 0;
  };

  // Ladder snapshot off the bucket structure: a rank inside a refined
  // bucket reads its exact distance; inside an unsorted bucket the
  // bucket minimum stands in (a certified lower bound, which the Ladder
  // argument allows).
  const auto seed_ladder_buckets = [&](ServerIndex s, Ladder& ladder,
                                       const BucketList& bl) {
    // boff, not perm: a counted list has no ids yet.
    RebuildLadderRanks(ladder, static_cast<std::size_t>(bl.boff.back()));
    std::int32_t j = 0;
    for (std::int32_t k = 0; k < ladder.count; ++k) {
      const std::int32_t r = ladder.rank[static_cast<std::size_t>(k)];
      while (bl.boff[static_cast<std::size_t>(j) + 1] <= r) ++j;
      ladder.dist_at[static_cast<std::size_t>(k)] =
          bl.bsorted[static_cast<std::size_t>(j)]
              ? view.cs(bl.perm[static_cast<std::size_t>(r)], s)
              : bl.bmin[static_cast<std::size_t>(j)];
    }
  };

  std::vector<std::int32_t> remaining(static_cast<std::size_t>(num_servers));
  for (ServerIndex s = 0; s < num_servers; ++s) {
    remaining[static_cast<std::size_t>(s)] =
        options.capacitated() ? options.CapacityOf(s)
                              : std::numeric_limits<std::int32_t>::max();
  }

  // Count server s's candidate list: one column pass buckets its column
  // over the clients ids[0..n), col[i] = cs(ids[i], s) — no sort (see
  // the bucket note above) and no ids yet: the caller scatters them now
  // or at first read. Until then boff is empty: the list is uncounted.
  const auto count_buckets = [&](ServerIndex s, const double* col,
                                 std::size_t n) {
    const auto si = static_cast<std::size_t>(s);
    const auto nb = static_cast<std::size_t>(num_buckets);
    BucketList& bl = bucket_lists[si];
    double dmin = kInf, dmax = -kInf;
    for (std::size_t i = 0; i < n; ++i) {
      dmin = std::min(dmin, col[i]);
      dmax = std::max(dmax, col[i]);
    }
    bl.lo = dmin;
    bl.inv = BucketScale(dmin, dmax, num_buckets);
    bl.boff.assign(nb + 1, 0);
    bl.bmin.assign(nb, kInf);
    for (std::size_t i = 0; i < n; ++i) {
      const auto q = static_cast<std::size_t>(
          BucketOf(col[i], bl.lo, bl.inv, num_buckets));
      ++bl.boff[q + 1];
      bl.bmin[q] = std::min(bl.bmin[q], col[i]);
    }
    for (std::size_t j = 1; j <= nb; ++j) bl.boff[j] += bl.boff[j - 1];
    bl.perm.clear();
    bl.bsorted.assign(nb, 0);
    bl.smin.assign(static_cast<std::size_t>(num_super), kInf);
    for (std::size_t j = 0; j < nb; ++j) {
      auto& sm = bl.smin[j / kSuper];
      sm = std::min(sm, bl.bmin[j]);
    }
    // Ladder off the fresh buckets (nothing refined yet, so every point
    // reads a bucket minimum) and the exact column minimum as the
    // standing head bound.
    seed_ladder_buckets(s, ladders[si], bl);
    head[si] = 0;
    hbucket[si] = 0;
    head_dist[si] = dmin;
  };

  // Size the lists for the clients in `ids`.
  std::int32_t built_over = 0;
  const auto size_lists = [&] {
    built_over = static_cast<std::int32_t>(ids.size());
    num_buckets = NumBuckets(built_over);
    num_super = num_buckets / kSuper;
  };

  // Build every list over the clients in `ids`. The view runs the
  // columns across the pool in the traversal its layout favors. The
  // first build only counts (see the bucket note above), and a first
  // build postponed past round 1 keeps the lists round 1 counted; a
  // rebuild scatters each column while it holds it. A saturated server
  // never reaches a scan again, so its stale list is left alone.
  const auto build_lists = [&](bool scatter_now) {
    DIACA_OBS_SPAN("core.greedy.build");
    view.ForEachColumn(ids, [&](ServerIndex s, const double* col) {
      BucketList& bl = bucket_lists[static_cast<std::size_t>(s)];
      if (remaining[static_cast<std::size_t>(s)] <= 0 ||
          (!scatter_now && !bl.boff.empty())) {
        return;
      }
      count_buckets(s, col, ids.size());
      if (scatter_now) scatter(bl, col, ids.data(), ids.size());
    });
  };

  // Round 1's bound per server off the view's attachment-row floors (see
  // the bucket note above); phase 1 reads it while a list is uncounted.
  std::vector<double> floor_bound(static_cast<std::size_t>(num_servers),
                                  kInf);
  const auto bound_floors = [&](ServerIndex s, const double* floors,
                                const std::int32_t* counts, std::size_t m) {
    const auto si = static_cast<std::size_t>(s);
    if (remaining[si] <= 0) return;
    const std::int32_t nb = NumBuckets(static_cast<std::int32_t>(m));
    double lo = kInf, hi = -kInf;
    for (std::size_t k = 0; k < m; ++k) {
      lo = std::min(lo, floors[k]);
      hi = std::max(hi, floors[k]);
    }
    const double inv = BucketScale(lo, hi, nb);
    thread_local std::vector<double> fmin;
    thread_local std::vector<std::int64_t> fcount;
    fmin.assign(static_cast<std::size_t>(nb), kInf);
    fcount.assign(static_cast<std::size_t>(nb), 0);
    for (std::size_t k = 0; k < m; ++k) {
      const auto q = static_cast<std::size_t>(BucketOf(floors[k], lo, inv, nb));
      fmin[q] = std::min(fmin[q], floors[k]);
      fcount[q] += counts[k];
    }
    // Phase 1's delta and dn in round 1: no server is used yet and
    // max_len is still 0.
    constexpr double reach0 = -kInf;
    constexpr double mlen0 = 0.0;
    const double room_d = static_cast<double>(remaining[si]);
    const double unassigned_d = static_cast<double>(num_clients);
    double bound = kInf;
    std::int64_t ahead = 0;
    for (std::size_t q = 0; q < fmin.size(); ++q) {
      if (fcount[q] == 0) continue;
      ahead += fcount[q];
      const double e = fmin[q];
      const double delta =
          std::max(std::max(2.0 * e, e + reach0), mlen0) - mlen0;
      const double dn = std::min(static_cast<double>(ahead),
                                 std::min(room_d, unassigned_d));
      bound = std::min(bound, delta / dn);
    }
    floor_bound[si] = bound;
  };

  size_lists();
  bool on_floors = false;  // round 1 left lists uncounted
  if (prune) {
    DIACA_OBS_SPAN("core.greedy.floors");
    on_floors = view.ForEachColumnFloors(ids, ids.size() / 2, bound_floors);
  }
  if (!on_floors) build_lists(false);

  std::vector<double> far(static_cast<std::size_t>(num_servers), -1.0);
  // Cached reach[s] = MaxServerReach(problem, far, s). Eccentricities only
  // grow (clients are only ever added), so after a batch lands on server b
  // the whole cache refreshes with one max per server — O(|S|) per round
  // instead of the O(|S|^2) full recomputation. `max` over doubles is
  // exact, so the cached values are bit-identical to a fresh scan.
  std::vector<double> reach(static_cast<std::size_t>(num_servers), 0.0);
  // Proven-cost memo: a phase-2 scan that missed its cutoff c proved this
  // server's exact minimum cost was >= c at the max_len it ran under (a
  // hit proved it EQUAL to the returned cost). Between rounds, at fixed
  // max_len, a server's minimum only grows — removals and shrinking
  // room/unassigned shrink every dn, reach growth raises every delta — so
  // the proof stays valid; max_len growth m0 -> m1 lowers each delta by at
  // most (m1 - m0) and dn >= 1, so
  //   lb = fl-down(proven - fl-up(m1 - m0))
  // (outward-rounded via nextafter on both steps) is a certified lower
  // bound under the new max_len. Folded into the phase-1 bound with max(),
  // it lets losing servers skip even the bucket-bound stale scan.
  // The zero fast-path invariant survives: delta_head == 0 forces the
  // exact minimum to 0, so any valid memo bound is <= 0 there and the
  // max() leaves the ladder's 0 bound in place.
  std::vector<double> proven_cost(static_cast<std::size_t>(num_servers),
                                  -kInf);
  std::vector<double> proven_mlen(static_cast<std::size_t>(num_servers), 0.0);
  // Bound-sorted traversal order: evaluating the most promising server
  // first makes the incumbent tight immediately, so the sorted suffix
  // whose bounds cannot beat it is skipped in one break. Selection stays
  // exactly the lexicographic (cost, server) minimum of the old serial
  // sweep: a server is skipped only when its lower bound proves it can
  // neither strictly improve the incumbent nor win an exact-tie on a
  // smaller index.
  struct BoundEntry {
    double bound;
    ServerIndex s;
  };
  std::vector<BoundEntry> order;
  order.reserve(static_cast<std::size_t>(num_servers));
  std::vector<double> batch_dist;  // the winning batch's gathered distances
  double max_len = 0.0;
  std::int32_t num_assigned = 0;

  while (num_assigned < num_clients) {
    const std::int32_t unassigned_total = num_clients - num_assigned;
    if (unassigned_total <= built_over / 2) {
      // Half the clients the lists were last built over are assigned:
      // rebuild them over the survivors (see the bucket note above),
      // filtered from that build's ids so they stay ascending. reach,
      // far, max_len, room and the proven-cost memo carry over — the
      // memo bounds a server's exact minimum cost, which does not depend
      // on how its list is stored.
      std::erase_if(ids, [&](ClientIndex c) { return a[c] != kUnassigned; });
      size_lists();
      build_lists(true);
      on_floors = false;
      DIACA_OBS_COUNT("core.greedy.rebuilds", 1);
    } else if (on_floors && num_assigned > 0) {
      // Round 1 ran on floors and took fewer than half the clients: the
      // postponed first build counts every list it left uncounted, over
      // the unchanged ids.
      build_lists(false);
      on_floors = false;
      for (ServerIndex s = 0; s < num_servers; ++s) {
        DIACA_CHECK(remaining[static_cast<std::size_t>(s)] <= 0 ||
                    !bucket_lists[static_cast<std::size_t>(s)].boff.empty());
      }
    }
    DIACA_OBS_SPAN("core.greedy.iteration");
    const double unassigned_d = static_cast<double>(unassigned_total);
    // Phase 1: advance heads and evaluate every eligible server's ladder
    // bound. In the first round no server is used yet, so the reach term
    // is dropped via reach = -infinity (2*d >= 0 always wins). A list
    // round 1 left uncounted has no head, buckets or ladder yet: its
    // floor bound stands in (see the bucket note above).
    order.clear();
    for (ServerIndex s = 0; s < num_servers; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const std::int32_t room = remaining[si];
      if (room <= 0) continue;
      BucketList& bl = bucket_lists[si];
      if (bl.boff.empty()) {
        DIACA_CHECK(num_assigned == 0);
        order.push_back({floor_bound[si], s});
        continue;
      }
      std::size_t& h = head[si];
      // Every unassigned client appears in every list, so the head
      // always lands on one before running off the end. A list with no
      // ids yet keeps head 0 — a valid stale head (every earlier
      // position is assigned, vacuously) — and hb lands on its first
      // non-empty bucket, whose minimum is the certified head bound.
      if (!bl.perm.empty()) {
        while (a[bl.perm[h]] != kUnassigned) ++h;
      }
      std::int32_t& hb = hbucket[si];
      while (bl.boff[static_cast<std::size_t>(hb) + 1] <=
             static_cast<std::int32_t>(h)) {
        ++hb;
      }
      // Inside a refined bucket the head's distance is exact (and the
      // true global head's — earlier buckets are exhausted, later ones
      // only hold larger distances); otherwise the bucket minimum is the
      // certified stand-in.
      const double d_head = bl.bsorted[static_cast<std::size_t>(hb)]
                                ? view.cs(bl.perm[h], s)
                                : bl.bmin[static_cast<std::size_t>(hb)];
      head_dist[si] = d_head;
      const double server_reach = num_assigned > 0 ? reach[si] : -kInf;
      const double room_d = static_cast<double>(room);
      const Ladder& ladder = ladders[si];
      double bound = kInf;
      for (std::int32_t k = 0; k < ladder.count; ++k) {
        // Bracket 0 tightens to the current head distance (the smallest
        // distance any current candidate can have); stale deeper points
        // only loosen the bound (see Ladder above).
        const double e =
            k == 0 ? d_head : ladder.dist_at[static_cast<std::size_t>(k)];
        const double delta =
            std::max(std::max(2.0 * e, e + server_reach), max_len) - max_len;
        const double dn = std::min(
            static_cast<double>(ladder.rank[static_cast<std::size_t>(k + 1)]),
            std::min(room_d, unassigned_d));
        bound = std::min(bound, delta / dn);
        if (bound == 0.0) break;  // costs are non-negative: global minimum
      }
      if (prune && proven_cost[si] != -kInf) {
        double lb = proven_cost[si];
        if (max_len != proven_mlen[si]) {
          const double dm = std::nextafter(max_len - proven_mlen[si], kInf);
          lb = std::nextafter(lb - dm, -kInf);
        }
        bound = std::max(bound, lb);
      }
      order.push_back({bound, s});
    }
    std::sort(order.begin(), order.end(),
              [](const BoundEntry& x, const BoundEntry& y) {
                return x.bound != y.bound ? x.bound < y.bound : x.s < y.s;
              });

    // Phase 2: scan survivors in ascending bound order, seeding every
    // scan with the incumbent as its cutoff. Each server is first
    // scanned over its STALE suffix — the bucket list as of its last
    // build or compaction, minus the advanced head, with assigned entries
    // still present. That scan is a valid lower bound on the server's
    // true (compacted) minimum: every current candidate sits at a stale
    // position >= its true rank (entries only disappear), so its stale
    // cost divides by a dn at least as large, and the extra assigned
    // lanes only deepen the minimum further. A stale scan that cannot
    // beat the cutoff therefore proves the exact scan could not either —
    // the server is skipped without paying compaction, and with the
    // seeded cutoff the scan retires all but a handful of buckets on
    // their bounds. Only a server whose stale scan DOES beat the cutoff
    // compacts and rescans exactly.
    ScanResult best;
    best.cost = kInf;
    ServerIndex best_server = -1;
    double zero_d = 0.0;
    bool zero_path = false;
    for (const BoundEntry& entry : order) {
      const ServerIndex s = entry.s;
      const auto si = static_cast<std::size_t>(s);
      // Bounds ascend, so the first entry that cannot strictly improve
      // the incumbent (or exact-tie it from a smaller index) proves the
      // same for the whole remaining suffix.
      if (entry.bound > best.cost ||
          (entry.bound == best.cost && best_server >= 0 &&
           s > best_server)) {
        break;
      }
      const std::int32_t room = remaining[si];
      std::size_t& h = head[si];
      std::int32_t& hb = hbucket[si];
      BucketList& bl = bucket_lists[si];
      if (bl.boff.empty()) {
        // Round 1 reached a list it left uncounted: count it now over the
        // build's ids, as the first build would have (its ids are still
        // scattered at first read). The count puts the head at 0 and hb
        // on bucket 0, which holds the column minimum, and head_dist is
        // that minimum — where phase 1 would have placed them.
        lane_scratch.resize(ids.size());
        view.GatherColumn(s, ids.data(), ids.size(), lane_scratch.data());
        count_buckets(s, lane_scratch.data(), ids.size());
        DIACA_OBS_COUNT("core.greedy.round1_counts", 1);
      }
      const double server_reach = num_assigned > 0 ? reach[si] : -kInf;
      double d_head = head_dist[si];
      double delta_head =
          std::max(std::max(2.0 * d_head, d_head + server_reach), max_len) -
          max_len;
      // The head bound can sit below the true head distance while the
      // head's bucket is unrefined — a zero there is only a hint. Refine
      // until the head lands in a sorted bucket (so d_head is the true
      // head's exact distance) or the zero disappears; the sorted flags
      // make this terminate.
      while (delta_head == 0.0 && !bl.bsorted[static_cast<std::size_t>(hb)]) {
        sort_bucket(s, bl, hb, h, hb);
        d_head = bl.bsorted[static_cast<std::size_t>(hb)]
                     ? view.cs(bl.perm[h], s)
                     : bl.bmin[static_cast<std::size_t>(hb)];
        head_dist[si] = d_head;
        delta_head =
            std::max(std::max(2.0 * d_head, d_head + server_reach), max_len) -
            max_len;
      }
      if (delta_head == 0.0) {
        // Zero fast-path: cost(0) = 0/dn = 0 exactly, the global minimum
        // (costs are non-negative), at the scan's first position — the
        // batch is the head client alone. Any zero-delta server has a
        // zero ladder bound, and the traversal visits equal bounds in
        // ascending server order, so s is the lexicographic winner among
        // them; a possible earlier survivor that scanned to an exact
        // zero cost was not skipped and holds the incumbent, in which
        // case the break above already fired for s > best_server.
        best.cost = 0.0;
        best.len = max_len;
        best.pos = 0;
        best_server = s;
        zero_d = d_head;
        zero_path = true;
        break;
      }
      // Cutoff for this server: it must beat the incumbent strictly,
      // except that a smaller-indexed server also wins an exact cost tie
      // — widen that cutoff by one ulp so equal-cost candidates are
      // found rather than pruned. A returned pos >= 0 then always means
      // "new lexicographic (cost, server) winner".
      const double cutoff =
          !prune || best_server < 0
              ? kInf
              : (s < best_server ? std::nextafter(best.cost, kInf)
                                 : best.cost);
      ScanResult r =
          scan_buckets(s, bl, h, hb, server_reach, max_len, room, cutoff);
      if (r.pos >= 0) {
        // The stale suffix held something below the cutoff — compact,
        // dropping clients assigned in earlier rounds, rescan exactly,
        // and re-seed the ladder so the next rounds' bounds start tight.
        compact_buckets(bl, h, hb);
        r = scan_buckets(s, bl, h, hb, server_reach, max_len, room, cutoff);
        seed_ladder_buckets(s, ladders[si], bl);
      }
      if (r.pos < 0) {
        // Proven: exact minimum >= max(cutoff, scan lb). The certified
        // bucket-bound minimum can sit far above the cutoff for a server
        // nowhere near the incumbent — memoizing it keeps such servers
        // out of phase 2 until max_len growth erodes the proof. (After a
        // compaction the stale bound was optimistic, but the miss is the
        // same proof.)
        if (prune) {
          proven_cost[si] = cutoff == kInf ? r.lb : std::max(cutoff, r.lb);
          proven_mlen[si] = max_len;
        }
        continue;
      }
      // Exact scan: r.cost IS this server's minimum — the tightest memo.
      if (prune) {
        proven_cost[si] = r.cost;
        proven_mlen[si] = max_len;
      }
      // With pruning on, the cutoff already encodes the incumbent (a hit
      // means "new lexicographic (cost, server) winner"), making this
      // comparison a tautology. With pruning off every infinite-cutoff
      // scan hits, so the explicit comparison is what keeps the round's
      // winner the lexicographic minimum rather than the last scanned.
      if (best_server < 0 || r.cost < best.cost ||
          (r.cost == best.cost && s < best_server)) {
        best = r;
        best_server = s;
      }
    }
    DIACA_CHECK_MSG(best_server >= 0, "no assignable pair found");

    // Batch: the compacted prefix ending at the chosen client — all
    // unassigned by construction; truncated to the farthest `take`
    // members under capacity. The zero fast-path winner skipped
    // compaction, but its batch is the single head client. Either way
    // the winner's scan or head refine read its ids.
    const auto bsi = static_cast<std::size_t>(best_server);
    BucketList& bl = bucket_lists[bsi];
    DIACA_CHECK(!bl.perm.empty());
    auto& room = remaining[bsi];
    double& far_b = far[bsi];
    std::size_t take = 1;
    if (zero_path) {
      std::size_t& h = head[bsi];
      a[bl.perm[h]] = best_server;
      ++h;
      far_b = std::max(far_b, zero_d);
      ++num_assigned;
      if (options.capacitated()) --room;
    } else {
      const auto batch_size = static_cast<std::size_t>(best.pos) + 1;
      take =
          std::min<std::size_t>(batch_size, static_cast<std::size_t>(room));
      DIACA_CHECK(take >= 1);
      const std::size_t lo_r = batch_size - take;
      // Capacity truncation can cut into a bucket; the window's upper
      // end is inside the winner's bucket, which the scan refined. If
      // the lower end splits an unrefined bucket, refine it so the
      // boundary falls on exact ranks — the window's interior buckets
      // need no order (the batch assigns a set; far takes a max).
      std::int32_t b = 0;
      while (bl.boff[static_cast<std::size_t>(b) + 1] <=
             static_cast<std::int32_t>(lo_r)) {
        ++b;
      }
      if (static_cast<std::size_t>(bl.boff[static_cast<std::size_t>(b)]) <
              lo_r &&
          !bl.bsorted[static_cast<std::size_t>(b)]) {
        sort_bucket(best_server, bl, b, head[bsi], hbucket[bsi]);
      }
      // The scan reduced in place without keeping the distances;
      // re-gather just the batch window here.
      batch_dist.resize(take);
      view.GatherColumn(best_server, bl.perm.data() + lo_r, take,
                        batch_dist.data());
      for (std::size_t i = 0; i < take; ++i) {
        a[bl.perm[lo_r + i]] = best_server;
        far_b = std::max(far_b, batch_dist[i]);
        ++num_assigned;
      }
      if (options.capacitated()) room -= static_cast<std::int32_t>(take);
    }
    max_len = std::max(max_len, best.len);

    // Only far(best_server) changed, and it only grew: fold it into every
    // server's cached reach (ss is symmetric, so the column over s is the
    // best server's row).
    simd::MaxAccumulatePlus(reach.data(), problem.ss_row(best_server), far_b,
                            static_cast<std::size_t>(num_servers));
    if (stats != nullptr) ++stats->iterations;
    DIACA_OBS_COUNT("core.greedy.iterations", 1);
    DIACA_OBS_COUNT("core.greedy.reach_cache.refreshes", 1);
    DIACA_OBS_OBSERVE("core.greedy.batch_size", take);
  }
  return a;
}

}  // namespace diaca::core
