#include "core/incremental.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/simd/kernels.h"
#include "obs/obs.h"

namespace diaca::core {

namespace {

using FarEntry = IncrementalEvaluator::FarEntry;

// An absent member: loses to every (d >= 0, c) entry.
constexpr FarEntry kNoEntry{-1.0, -1};

// Farthest first, the lowest client first on equal distances.
bool FartherFirst(const FarEntry& x, const FarEntry& y) {
  return x.first != y.first ? x.first > y.first : x.second < y.second;
}

// Fold one member into a server's top two.
void FoldTopTwo(std::array<FarEntry, 2>& top, const FarEntry& entry) {
  if (FartherFirst(entry, top[0])) {
    top[1] = top[0];
    top[0] = entry;
  } else if (FartherFirst(entry, top[1])) {
    top[1] = entry;
  }
}

}  // namespace

bool IncrementalEvaluator::Partner::Ahead(const Partner& other) const {
  return value != other.value ? value > other.value : s2 < other.s2;
}

void IncrementalEvaluator::PartnerRow::Offer(const Partner& p) {
  if (size == 3) {
    if (!p.Ahead(top[2])) return;
    top[2] = p;
  } else {
    top[static_cast<std::size_t>(size++)] = p;
  }
  for (auto i = static_cast<std::size_t>(size - 1);
       i > 0 && top[i].Ahead(top[i - 1]); --i) {
    std::swap(top[i], top[i - 1]);
  }
}

IncrementalEvaluator::IncrementalEvaluator(const Problem& problem,
                                           const Assignment& initial)
    : IncrementalEvaluator(problem, initial, AllowPartial{}) {
  DIACA_CHECK_MSG(initial.IsComplete(),
                  "incremental evaluator needs a complete assignment");
}

IncrementalEvaluator::IncrementalEvaluator(const Problem& problem,
                                           const Assignment& initial,
                                           AllowPartial)
    : problem_(problem),
      assignment_(initial),
      members_(static_cast<std::size_t>(problem.num_servers())),
      slot_(static_cast<std::size_t>(problem.num_clients()), -1),
      top_(static_cast<std::size_t>(problem.num_servers()),
           {kNoEntry, kNoEntry}),
      far_(static_cast<std::size_t>(problem.num_servers()), -1.0),
      partners_(static_cast<std::size_t>(problem.num_servers())) {
  // Only the assigned diagonal d(c, a_c) enters the lists, appended in
  // client order.
  std::vector<double> diag(static_cast<std::size_t>(problem.num_clients()));
  problem.client_block().GatherAssigned(assignment_.server_of.data(),
                                        diag.data());
  for (ClientIndex c = 0; c < problem.num_clients(); ++c) {
    const ServerIndex s = assignment_[c];
    if (s == kUnassigned) continue;  // inactive until AddClient
    Insert(s, c, diag[static_cast<std::size_t>(c)]);
    ++active_;
  }
  for (ServerIndex s = 0; s < problem.num_servers(); ++s) RebuildRow(s);
  max_pair_ = ScanTable(far_, kUnassigned, kUnassigned);
}

std::vector<FarEntry> IncrementalEvaluator::FarthestFirst(
    ServerIndex s) const {
  std::vector<FarEntry> sorted = members_[static_cast<std::size_t>(s)];
  std::sort(sorted.begin(), sorted.end(), FartherFirst);
  return sorted;
}

void IncrementalEvaluator::Insert(ServerIndex s, ClientIndex c, double d) {
  const auto si = static_cast<std::size_t>(s);
  auto& list = members_[si];
  slot_[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(list.size());
  list.emplace_back(d, c);
  FoldTopTwo(top_[si], list.back());
  far_[si] = top_[si][0].first;
}

void IncrementalEvaluator::Erase(ServerIndex s, ClientIndex c) {
  const auto si = static_cast<std::size_t>(s);
  auto& list = members_[si];
  const auto slot =
      static_cast<std::size_t>(slot_[static_cast<std::size_t>(c)]);
  DIACA_CHECK(slot < list.size() && list[slot].second == c);
  list[slot] = list.back();
  slot_[static_cast<std::size_t>(list[slot].second)] =
      static_cast<std::int32_t>(slot);
  list.pop_back();
  slot_[static_cast<std::size_t>(c)] = -1;
  auto& top = top_[si];
  if (top[0].second == c || top[1].second == c) {
    // The head or the runner-up left: rescan for the new top two.
    top = {kNoEntry, kNoEntry};
    for (const FarEntry& entry : list) FoldTopTwo(top, entry);
  }
  far_[si] = top[0].first;
}

double IncrementalEvaluator::FarWithout(ClientIndex c) const {
  const ServerIndex s = assignment_[c];
  DIACA_CHECK_MSG(s != kUnassigned, "FarWithout of inactive client " << c);
  // When c is the head, the runner-up takes over.
  const auto& top = top_[static_cast<std::size_t>(s)];
  return top[0].second == c ? top[1].first : top[0].first;
}

std::span<const double> IncrementalEvaluator::EffectiveFar(
    ClientIndex c, ServerIndex from, ServerIndex to) const {
  eff_buf_ = far_;
  if (from != kUnassigned) {
    eff_buf_[static_cast<std::size_t>(from)] = FarWithout(c);
  }
  if (to != kUnassigned) {
    eff_buf_[static_cast<std::size_t>(to)] =
        std::max(Far(to), problem_.client_block().cs(c, to));
  }
  return eff_buf_;
}

IncrementalEvaluator::PairMax IncrementalEvaluator::ScanTouching(
    std::span<const double> eff, ServerIndex from, ServerIndex to) const {
  PairMax best;
  for (ServerIndex anchor : {from, to}) {
    if (anchor < 0) continue;  // attach/detach legs pass kUnassigned
    const double fa = eff[static_cast<std::size_t>(anchor)];
    if (fa < 0.0) continue;
    const simd::ArgResult r = simd::ArgMaxPlusFirst(
        problem_.ss_row(anchor), eff.data(), eff.size(), fa);
    if (r.index < 0) continue;
    const auto s = static_cast<ServerIndex>(r.index);
    if (r.value > best.value || best.a == kUnassigned) {
      best = {r.value, std::min(anchor, s), std::max(anchor, s)};
    }
  }
  return best;
}

IncrementalEvaluator::PairMax IncrementalEvaluator::ScanTable(
    std::span<const double> eff, ServerIndex x, ServerIndex y) const {
  // Row r's best partner is the first s2 >= r maximizing
  // (eff[r] + d(r, s2)) + eff[s2], and the pair is the best row, the
  // lowest r on equal values. Rows x and y changed wholesale; every other
  // row changed at most in columns x and y, and its first stored partner
  // outside them is its best unchanged column: at most two of its top
  // three are x and y, and a row holding fewer than three holds every
  // non-empty column.
  const auto num_servers = static_cast<ServerIndex>(eff.size());
  PairMax best;
  for (ServerIndex r = 0; r < num_servers; ++r) {
    const double f1 = eff[static_cast<std::size_t>(r)];
    if (f1 < 0.0) continue;
    Partner p;
    if (r == x || r == y) {
      const simd::ArgResult res = simd::ArgMaxPlusFirst(
          problem_.ss_row(r) + r, eff.data() + r,
          static_cast<std::size_t>(num_servers - r), f1);
      if (res.index < 0) continue;
      p = {res.value, r + static_cast<ServerIndex>(res.index)};
    } else {
      const PartnerRow& row = partners_[static_cast<std::size_t>(r)];
      for (std::int32_t k = 0; k < row.size; ++k) {
        const Partner& q = row.top[static_cast<std::size_t>(k)];
        if (q.s2 != x && q.s2 != y) {
          p = q;
          break;
        }
      }
      for (const ServerIndex z : {x, y}) {
        const double fz = z > r ? eff[static_cast<std::size_t>(z)] : -1.0;
        if (fz < 0.0) continue;
        const Partner q{(f1 + problem_.ss(r, z)) + fz, z};
        if (p.s2 == kUnassigned || q.Ahead(p)) p = q;
      }
      if (p.s2 == kUnassigned) continue;
    }
    if (best.a == kUnassigned || p.value > best.value) {
      best = {p.value, r, p.s2};
    }
  }
  return best;
}

void IncrementalEvaluator::RebuildRow(ServerIndex s1) {
  PartnerRow& row = partners_[static_cast<std::size_t>(s1)];
  row.size = 0;
  const double f1 = Far(s1);
  if (f1 < 0.0) return;
  const double* ss = problem_.ss_row(s1);
  for (ServerIndex s2 = s1; s2 < problem_.num_servers(); ++s2) {
    const double f2 = Far(s2);
    if (f2 < 0.0) continue;
    row.Offer({(f1 + ss[s2]) + f2, s2});
  }
}

bool IncrementalEvaluator::PatchRow(ServerIndex r, ServerIndex x,
                                    ServerIndex y) {
  PartnerRow& row = partners_[static_cast<std::size_t>(r)];
  // A row holding fewer than three entries holds every non-empty column;
  // a full row's unstored columns all trail its third entry.
  const bool complete = row.size < 3;
  PartnerRow next;
  for (std::int32_t k = 0; k < row.size; ++k) {
    const Partner& q = row.top[static_cast<std::size_t>(k)];
    if (q.s2 != x && q.s2 != y) {
      next.top[static_cast<std::size_t>(next.size++)] = q;
    }
  }
  // The kept entries lead every unstored unchanged column, so a new x or
  // y value ahead of the last kept entry is certainly placed; one behind
  // it might trail an unstored column.
  const Partner last =
      next.top[static_cast<std::size_t>(std::max(next.size - 1, 0))];
  const double f1 = Far(r);
  for (const ServerIndex z : {x, y}) {
    if (z <= r || Far(z) < 0.0) continue;
    const Partner q{(f1 + problem_.ss(r, z)) + Far(z), z};
    if (complete || q.Ahead(last)) next.Offer(q);
  }
  if (!complete && next.size < 3) return false;
  row = next;
  return true;
}

void IncrementalEvaluator::RefreshColumns(ServerIndex x, ServerIndex y) {
  for (const ServerIndex z : {x, y}) {
    if (z != kUnassigned) RebuildRow(z);
  }
  const ServerIndex hi = std::max(x, y);
  for (ServerIndex r = 0; r < hi; ++r) {
    if (r == x || r == y || Far(r) < 0.0) continue;
    if (!PatchRow(r, x, y)) RebuildRow(r);
  }
}

IncrementalEvaluator::PairMax IncrementalEvaluator::Evaluate(
    ClientIndex c, ServerIndex to) const {
  const ServerIndex from = assignment_[c];
  DIACA_CHECK_MSG(from != kUnassigned,
                  "move of inactive client " << c << " (use EvaluateAdd)");
  if (to == from) return max_pair_;
  const std::span<const double> eff = EffectiveFar(c, from, to);
  const bool max_pair_touched =
      max_pair_.a == from || max_pair_.a == to || max_pair_.b == from ||
      max_pair_.b == to;
  if (!max_pair_touched) {
    // Pairs avoiding {from, to} are unchanged; the cached maximum still
    // stands among them. Only pairs touching a changed server can beat it.
    DIACA_OBS_COUNT("core.incremental.cache_hits", 1);
    const PairMax touching = ScanTouching(eff, from, to);
    return touching.value > max_pair_.value ? touching : max_pair_;
  }
  ++full_rescans_;
  DIACA_OBS_COUNT("core.incremental.cache_misses", 1);
  return ScanTable(eff, from, to);
}

double IncrementalEvaluator::EvaluateMove(ClientIndex c, ServerIndex to) const {
  return Evaluate(c, to).value;
}

double IncrementalEvaluator::ApplyMove(ClientIndex c, ServerIndex to) {
  const ServerIndex from = assignment_[c];
  if (to == from) return max_pair_.value;
  const PairMax new_max = Evaluate(c, to);
  if (saved_.open) {
    const std::int32_t slot = slot_[static_cast<std::size_t>(c)];
    const auto& list = members_[static_cast<std::size_t>(from)];
    saved_.log.push_back(
        {c, from, slot, list[static_cast<std::size_t>(slot)].first});
  }
  const double from_before = Far(from);
  const double to_before = Far(to);
  Erase(from, c);
  Insert(to, c, problem_.client_block().cs(c, to));
  assignment_[c] = to;
  RefreshColumns(Far(from) != from_before ? from : kUnassigned,
                 Far(to) != to_before ? to : kUnassigned);
  max_pair_ = new_max;
  return max_pair_.value;
}

double IncrementalEvaluator::EvaluateAdd(ClientIndex c, ServerIndex to) const {
  DIACA_CHECK_MSG(assignment_[c] == kUnassigned,
                  "EvaluateAdd of active client " << c
                                                  << " (use EvaluateMove)");
  // An attachment only raises far(to); every pair avoiding `to` is
  // unchanged, so the cached maximum competes only with pairs touching
  // `to`.
  const PairMax touching =
      ScanTouching(EffectiveFar(c, kUnassigned, to), kUnassigned, to);
  return std::max(max_pair_.value, touching.value);
}

ServerIndex IncrementalEvaluator::BestAdd(
    ClientIndex c, std::span<const char> eligible) const {
  DIACA_CHECK_MSG(assignment_[c] == kUnassigned,
                  "BestAdd of active client " << c);
  DIACA_CHECK(eligible.size() == far_.size());
  // EvaluateAdd(c, t) is max(CurrentMax(), the touching scan's value) —
  // the max-plus reduction of row t over far with far[t] raised to
  // d(c, t) — so each target patches one lane of a shared far vector.
  // Nothing scores below CurrentMax(): the first target reaching it wins.
  eff_buf_ = far_;
  const double floor = max_pair_.value;
  ServerIndex best = kUnassigned;
  double best_value = std::numeric_limits<double>::infinity();
  for (ServerIndex t = 0; t < problem_.num_servers(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (eligible[ti] == 0) continue;
    const double ft = std::max(far_[ti], problem_.client_block().cs(c, t));
    eff_buf_[ti] = ft;
    const double value =
        std::max(floor, simd::MaxPlusReduce(problem_.ss_row(t),
                                            eff_buf_.data(), far_.size(), ft));
    eff_buf_[ti] = far_[ti];
    if (value < best_value) {
      best_value = value;
      best = t;
      if (value == floor) break;
    }
  }
  return best;
}

double IncrementalEvaluator::AddClient(ClientIndex c, ServerIndex to) {
  DIACA_CHECK_MSG(!saved_.open, "AddClient inside a checkpoint");
  DIACA_CHECK_MSG(assignment_[c] == kUnassigned,
                  "AddClient of active client " << c);
  DIACA_CHECK(to >= 0 && to < problem_.num_servers());
  const PairMax touching =
      ScanTouching(EffectiveFar(c, kUnassigned, to), kUnassigned, to);
  if (max_pair_.a == kUnassigned || touching.value > max_pair_.value) {
    max_pair_ = touching;
  }
  const double to_before = Far(to);
  Insert(to, c, problem_.client_block().cs(c, to));
  assignment_[c] = to;
  ++active_;
  if (Far(to) != to_before) RefreshColumns(to, kUnassigned);
  return max_pair_.value;
}

double IncrementalEvaluator::RemoveClient(ClientIndex c) {
  DIACA_CHECK_MSG(!saved_.open, "RemoveClient inside a checkpoint");
  const ServerIndex from = assignment_[c];
  DIACA_CHECK_MSG(from != kUnassigned, "RemoveClient of inactive client " << c);
  if (max_pair_.a == from || max_pair_.b == from) {
    // far(from) may fall, taking the cached maximum with it: read the
    // first argmax pair off the table with the detachment applied
    // virtually.
    ++full_rescans_;
    DIACA_OBS_COUNT("core.incremental.cache_misses", 1);
    max_pair_ =
        ScanTable(EffectiveFar(c, from, kUnassigned), from, kUnassigned);
  }
  // Otherwise pairs avoiding `from` are untouched and pairs touching it
  // only fall, so the cached maximum stands exactly.
  const double from_before = Far(from);
  Erase(from, c);
  assignment_[c] = kUnassigned;
  --active_;
  if (Far(from) != from_before) RefreshColumns(from, kUnassigned);
  return max_pair_.value;
}

void IncrementalEvaluator::Checkpoint() {
  DIACA_CHECK_MSG(!saved_.open, "a checkpoint is already open");
  saved_.top = top_;
  saved_.far = far_;
  saved_.partners = partners_;
  saved_.max_pair = max_pair_;
  saved_.open = true;
}

void IncrementalEvaluator::Rollback() {
  DIACA_CHECK_MSG(saved_.open, "no checkpoint to roll back to");
  // Newest first: each undo meets the lists exactly as its move left
  // them, so the client is the last entry of its new server's list, and
  // Erase had moved the old list's last entry into its slot.
  for (auto it = saved_.log.rbegin(); it != saved_.log.rend(); ++it) {
    auto& to_list = members_[static_cast<std::size_t>(assignment_[it->c])];
    DIACA_CHECK(!to_list.empty() && to_list.back().second == it->c);
    to_list.pop_back();
    auto& list = members_[static_cast<std::size_t>(it->from)];
    const auto slot = static_cast<std::size_t>(it->slot);
    if (slot < list.size()) {
      list.push_back(list[slot]);
      slot_[static_cast<std::size_t>(list.back().second)] =
          static_cast<std::int32_t>(list.size() - 1);
      list[slot] = {it->d, it->c};
    } else {
      list.emplace_back(it->d, it->c);
    }
    slot_[static_cast<std::size_t>(it->c)] = it->slot;
    assignment_[it->c] = it->from;
  }
  saved_.log.clear();
  top_.swap(saved_.top);
  far_.swap(saved_.far);
  partners_.swap(saved_.partners);
  max_pair_ = saved_.max_pair;
  saved_.open = false;
}

}  // namespace diaca::core
