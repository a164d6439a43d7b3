// Shared vocabulary types of the client assignment problem (§II).
#pragma once

#include <cstdint>
#include <vector>

namespace diaca::core {

/// Index into a Problem's client list.
using ClientIndex = std::int32_t;
/// Index into a Problem's server list.
using ServerIndex = std::int32_t;

/// Sentinel for "client not (yet) assigned".
inline constexpr ServerIndex kUnassigned = -1;

/// A client assignment: the mapping C -> S of §II-A. server_of[c] is the
/// index (into the problem's server list) of client c's assigned server.
struct Assignment {
  std::vector<ServerIndex> server_of;

  Assignment() = default;
  explicit Assignment(std::size_t num_clients)
      : server_of(num_clients, kUnassigned) {}

  bool IsComplete() const {
    for (ServerIndex s : server_of) {
      if (s == kUnassigned) return false;
    }
    return true;
  }

  std::size_t size() const { return server_of.size(); }

  ServerIndex operator[](ClientIndex c) const {
    return server_of[static_cast<std::size_t>(c)];
  }
  ServerIndex& operator[](ClientIndex c) {
    return server_of[static_cast<std::size_t>(c)];
  }

  friend bool operator==(const Assignment&, const Assignment&) = default;
};

/// Options shared by all assignment algorithms (§IV-E).
struct AssignOptions {
  /// Maximum number of clients per server; kUnlimitedCapacity disables the
  /// constraint (the "uncapacitated" algorithms of §IV-A..D).
  std::int32_t capacity = kUnlimitedCapacity;

  /// Heterogeneous capacities (extension beyond the paper's uniform
  /// capacity): when non-empty, entry s bounds server s and `capacity` is
  /// ignored. Must have one entry per server.
  std::vector<std::int32_t> per_server_capacity;

  static constexpr std::int32_t kUnlimitedCapacity = -1;

  /// Enables the certified bound-driven pruning inside the solvers
  /// (cutoff-seeded candidate scans, proven-cost memos, bounds-first
  /// block rejection). Off forces every bound-gated path to do the full exact
  /// work — slower, bit-identical assignments — which is how the tier-1
  /// smoke validates the certification.
  bool bound_pruning = true;

  bool capacitated() const {
    return capacity != kUnlimitedCapacity || !per_server_capacity.empty();
  }

  /// Effective capacity of server s (meaningful only when capacitated()).
  std::int32_t CapacityOf(ServerIndex s) const {
    if (!per_server_capacity.empty()) {
      return per_server_capacity[static_cast<std::size_t>(s)];
    }
    return capacity;
  }

  /// Sum of capacities over `num_servers` servers.
  std::int64_t TotalCapacity(std::int32_t num_servers) const {
    std::int64_t total = 0;
    for (ServerIndex s = 0; s < num_servers; ++s) total += CapacityOf(s);
    return total;
  }
};

}  // namespace diaca::core
