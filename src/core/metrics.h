// Interaction-path metrics (§II-A, §II-C).
//
// The length of the interaction path between clients ci and cj under
// assignment A is d(ci,A(ci)) + d(A(ci),A(cj)) + d(A(cj),cj); the paper
// proves the minimum achievable interaction time equals the maximum such
// length D over all client pairs (self-pairs included: the self path is
// the client-server round trip). D is the optimization objective.
#pragma once

#include <vector>

#include "core/problem.h"
#include "core/types.h"

namespace diaca::core {

/// Length of the interaction path between ci and cj (ci == cj gives the
/// round trip 2 d(ci, A(ci))). Requires both clients assigned.
double InteractionPathLength(const Problem& problem, const Assignment& a,
                             ClientIndex ci, ClientIndex cj);

/// Per-server eccentricity far(s) = max_{A(c)=s} d(c, s); entries for
/// servers with no clients are -1. Partial assignments are allowed
/// (unassigned clients are skipped).
std::vector<double> ServerEccentricities(const Problem& problem,
                                         const Assignment& a);

/// The objective's pair fold from eccentricities already in hand: the
/// maximum over used servers s1 <= s2 of (far(s1) + d(s1, s2)) + far(s2),
/// starting from 0.0 (servers with far < 0 are unused). Every caller that
/// holds far calls this instead of folding the clients again.
double MaxPathFromEccentricities(const Problem& problem,
                                 std::span<const double> far);

/// Maximum interaction path length D over all client pairs — the paper's
/// objective and the minimum achievable interaction time (§II-C).
/// Computed in O(|C| + |U|^2) for U = set of used servers:
/// D = max_{s1,s2 in U} far(s1) + d(s1,s2) + far(s2), s1 == s2 allowed.
/// Requires a complete assignment.
double MaxInteractionPathLength(const Problem& problem, const Assignment& a);

/// MaxInteractionPathLength evaluated against ground-truth distances from
/// an exact oracle rather than the problem's stored blocks. This is how
/// plans made on estimated distances (landmark / coordinate backends) are
/// scored: build the problem and assignment on the estimate, then measure
/// the real D it achieves. Costs |used servers| oracle row queries plus
/// one pass over the clients; never materializes a matrix. Requires
/// oracle.exact(), a complete assignment, and problem node ids that live
/// in the oracle (no virtual streaming ids).
double MaxInteractionPathLengthExact(const net::DistanceOracle& oracle,
                                     const Problem& problem,
                                     const Assignment& a);

/// Incremental view used by the iterative algorithms: given eccentricities
/// (far) over used servers, the maximum path length touching server `s`
/// for a client at distance `dist` from s is
/// max(2*dist, dist + max_{s''}(d(s,s'') + far(s''))).
/// This helper returns max_{s'' used}(d(s,s'') + far(s'')), or 0 if no
/// server is used.
double MaxServerReach(const Problem& problem, std::span<const double> far,
                      ServerIndex s);

/// Clients that are an endpoint of some longest interaction path (within
/// `tolerance`). Requires a complete assignment.
std::vector<ClientIndex> CriticalClients(const Problem& problem,
                                         const Assignment& a,
                                         double tolerance = 1e-9);

/// Verify a complete assignment respects a uniform capacity; returns the
/// most loaded server's client count.
std::int32_t MaxServerLoad(const Problem& problem, const Assignment& a);

/// Mean interaction path length over all ordered client pairs (self pairs
/// included) — a complementary objective to the paper's worst-pair D:
/// operators tuning for typical rather than worst-case experience may
/// prefer it. Computed in O(|C| + |U|^2) via per-server load/distance
/// aggregates. Requires a complete assignment.
double MeanInteractionPathLength(const Problem& problem, const Assignment& a);

}  // namespace diaca::core
