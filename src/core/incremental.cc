#include "core/incremental.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

// A run's order: farthest first, the lowest client first on equal
// distances.
bool FartherFirst(const IncrementalEvaluator::FarEntry& x,
                  const IncrementalEvaluator::FarEntry& y) {
  return x.first != y.first ? x.first > y.first : x.second < y.second;
}

}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const Problem& problem,
                                           const Assignment& initial)
    : IncrementalEvaluator(problem, initial, AllowPartial{}) {
  DIACA_CHECK_MSG(initial.IsComplete(),
                  "incremental evaluator needs a complete assignment");
}

IncrementalEvaluator::IncrementalEvaluator(const Problem& problem,
                                           const Assignment& initial,
                                           AllowPartial)
    : problem_(problem), assignment_(initial) {
  runs_.resize(static_cast<std::size_t>(problem.num_servers()));
  // Only the assigned diagonal d(c, a_c) enters the runs: appended in
  // client order, then each run sorted once.
  std::vector<double> diag(static_cast<std::size_t>(problem.num_clients()));
  problem.client_block().GatherAssigned(assignment_.server_of.data(),
                                        diag.data());
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    const ServerIndex s = assignment_[c];
    if (s == kUnassigned) continue;  // inactive until AddClient
    runs_[static_cast<std::size_t>(s)].emplace_back(
        diag[static_cast<std::size_t>(c)], c);
    ++active_;
  }
  for (auto& run : runs_) std::sort(run.begin(), run.end(), FartherFirst);
  // Initial scan with a no-op "move" (from == to short-circuits
  // EffectiveFar to the plain run heads).
  max_pair_ = ScanAllPairs(/*c=*/0, kUnassigned, kUnassigned);
}

void IncrementalEvaluator::InsertInRun(ServerIndex s, ClientIndex c) {
  auto& run = runs_[static_cast<std::size_t>(s)];
  const FarEntry entry{problem_.client_block().cs(c, s), c};
  run.insert(std::lower_bound(run.begin(), run.end(), entry, FartherFirst),
             entry);
}

void IncrementalEvaluator::EraseFromRun(ServerIndex s, ClientIndex c) {
  auto& run = runs_[static_cast<std::size_t>(s)];
  const FarEntry entry{problem_.client_block().cs(c, s), c};
  const auto it = std::lower_bound(run.begin(), run.end(), entry, FartherFirst);
  DIACA_CHECK(it != run.end() && it->second == c);
  run.erase(it);
}

double IncrementalEvaluator::EffectiveFar(ServerIndex s, ClientIndex c,
                                          ServerIndex from,
                                          ServerIndex to) const {
  if (from == to) return Far(s);  // no-op move
  if (s == from) {
    // c leaves: if it is the head, the survivor max is the next entry.
    const auto& run = runs_[static_cast<std::size_t>(from)];
    if (run.front().second != c) return run.front().first;
    return run.size() > 1 ? run[1].first : -1.0;
  }
  if (s == to) return std::max(Far(to), problem_.client_block().cs(c, to));
  return Far(s);
}

std::span<const double> IncrementalEvaluator::MaterializeEffectiveFar(
    ClientIndex c, ServerIndex from, ServerIndex to) const {
  const auto num_servers = static_cast<std::size_t>(problem_.num_servers());
  eff_buf_.resize(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    eff_buf_[s] = EffectiveFar(static_cast<ServerIndex>(s), c, from, to);
  }
  return eff_buf_;
}

IncrementalEvaluator::PairMax IncrementalEvaluator::ScanAllPairs(
    ClientIndex c, ServerIndex from, ServerIndex to) const {
  const std::int32_t num_servers = problem_.num_servers();
  // The rows of the pair scan are independent, so the full O(|U|^2)
  // rescan fans out across the pool by anchor server s1. Each row runs
  // the masked max-plus kernel over its s2 >= s1 subrange (first partner
  // on value ties, like the serial strict `>` scan, with the same
  // (f1 + d) + f2 association); the deterministic max-reduce then keeps
  // the lowest s1 on cross-row ties — together that reproduces the serial
  // lexicographically-first argmax pair exactly. Effective eccentricities
  // are materialized once, not looked up per pair.
  const std::span<const double> eff = MaterializeEffectiveFar(c, from, to);
  std::vector<ServerIndex> best_s2(static_cast<std::size_t>(num_servers),
                                   kUnassigned);
  const ThreadPool::Extremum row_best = GlobalPool().ParallelMaxReduce(
      0, num_servers, 8, [&](std::int64_t si) {
        const auto s1 = static_cast<ServerIndex>(si);
        const double f1 = eff[static_cast<std::size_t>(si)];
        if (f1 < 0.0) return -std::numeric_limits<double>::infinity();
        const simd::ArgResult r = simd::ArgMaxPlusFirst(
            problem_.ss_row(s1) + s1, eff.data() + si,
            static_cast<std::size_t>(num_servers - s1), f1);
        if (r.index < 0) return -std::numeric_limits<double>::infinity();
        best_s2[static_cast<std::size_t>(si)] =
            s1 + static_cast<ServerIndex>(r.index);
        return r.value;
      });
  if (row_best.index < 0) return PairMax{};
  const auto s1 = static_cast<ServerIndex>(row_best.index);
  return {row_best.value, s1, best_s2[static_cast<std::size_t>(row_best.index)]};
}

IncrementalEvaluator::PairMax IncrementalEvaluator::ScanTouching(
    ClientIndex c, ServerIndex from, ServerIndex to) const {
  PairMax best;
  const auto num_servers = static_cast<std::size_t>(problem_.num_servers());
  const std::span<const double> eff = MaterializeEffectiveFar(c, from, to);
  for (ServerIndex anchor : {from, to}) {
    if (anchor < 0) continue;  // attach/detach legs pass kUnassigned
    const double fa = eff[static_cast<std::size_t>(anchor)];
    if (fa < 0.0) continue;
    const simd::ArgResult r = simd::ArgMaxPlusFirst(
        problem_.ss_row(anchor), eff.data(), num_servers, fa);
    if (r.index < 0) continue;
    const auto s = static_cast<ServerIndex>(r.index);
    if (r.value > best.value || best.a == kUnassigned) {
      best = {r.value, std::min(anchor, s), std::max(anchor, s)};
    }
  }
  return best;
}

IncrementalEvaluator::PairMax IncrementalEvaluator::Evaluate(
    ClientIndex c, ServerIndex to, bool* used_full_rescan) const {
  const ServerIndex from = assignment_[c];
  DIACA_CHECK_MSG(from != kUnassigned,
                  "move of inactive client " << c << " (use EvaluateAdd)");
  if (to == from) {
    if (used_full_rescan != nullptr) *used_full_rescan = false;
    return max_pair_;
  }
  const bool max_pair_touched =
      max_pair_.a == from || max_pair_.a == to || max_pair_.b == from ||
      max_pair_.b == to;
  if (!max_pair_touched) {
    // Pairs avoiding {from, to} are unchanged; the cached maximum still
    // stands among them. Only pairs touching a changed server can beat it.
    if (used_full_rescan != nullptr) *used_full_rescan = false;
    DIACA_OBS_COUNT("core.incremental.cache_hits", 1);
    const PairMax touching = ScanTouching(c, from, to);
    return touching.value > max_pair_.value ? touching : max_pair_;
  }
  if (used_full_rescan != nullptr) *used_full_rescan = true;
  ++full_rescans_;
  DIACA_OBS_COUNT("core.incremental.cache_misses", 1);
  return ScanAllPairs(c, from, to);
}

double IncrementalEvaluator::EvaluateMove(ClientIndex c, ServerIndex to) const {
  return Evaluate(c, to, nullptr).value;
}

double IncrementalEvaluator::ApplyMove(ClientIndex c, ServerIndex to) {
  const ServerIndex from = assignment_[c];
  if (to == from) return max_pair_.value;
  const PairMax new_max = Evaluate(c, to, nullptr);
  EraseFromRun(from, c);
  InsertInRun(to, c);
  assignment_[c] = to;
  max_pair_ = new_max;
  return max_pair_.value;
}

double IncrementalEvaluator::EvaluateAdd(ClientIndex c, ServerIndex to) const {
  DIACA_CHECK_MSG(assignment_[c] == kUnassigned,
                  "EvaluateAdd of active client " << c
                                                  << " (use EvaluateMove)");
  // An attachment only raises far(to); every pair avoiding `to` is
  // unchanged, so the cached maximum competes only with pairs touching
  // `to` — no full rescan, ever. The kUnassigned "from" leg is skipped
  // by the touching scan and matches no server in EffectiveFar.
  const PairMax touching = ScanTouching(c, kUnassigned, to);
  return std::max(max_pair_.value, touching.value);
}

double IncrementalEvaluator::AddClient(ClientIndex c, ServerIndex to) {
  DIACA_CHECK_MSG(assignment_[c] == kUnassigned,
                  "AddClient of active client " << c);
  DIACA_CHECK(to >= 0 && to < problem_.num_servers());
  const PairMax touching = ScanTouching(c, kUnassigned, to);
  if (max_pair_.a == kUnassigned || touching.value > max_pair_.value) {
    max_pair_ = touching;
  }
  InsertInRun(to, c);
  assignment_[c] = to;
  ++active_;
  return max_pair_.value;
}

double IncrementalEvaluator::RemoveClient(ClientIndex c) {
  const ServerIndex from = assignment_[c];
  DIACA_CHECK_MSG(from != kUnassigned, "RemoveClient of inactive client " << c);
  if (max_pair_.a == from || max_pair_.b == from) {
    // far(from) may fall, taking the cached maximum with it: rescan with
    // the detachment applied virtually (EffectiveFar's from-leg drops c's
    // distance; the kUnassigned "to" matches no server).
    ++full_rescans_;
    DIACA_OBS_COUNT("core.incremental.cache_misses", 1);
    max_pair_ = ScanAllPairs(c, from, kUnassigned);
  }
  // Otherwise pairs avoiding `from` are untouched and pairs touching it
  // only fall, so the cached maximum stands exactly.
  EraseFromRun(from, c);
  assignment_[c] = kUnassigned;
  --active_;
  return max_pair_.value;
}

}  // namespace diaca::core
