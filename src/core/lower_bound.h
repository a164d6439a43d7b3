// Theoretical lower bound on the maximum interaction path length (§V).
//
//   LB = max_{c,c' in C} min_{s,s' in S} d(c,s) + d(s,s') + d(s',c').
//
// In this bound a client may use different servers for different
// interactions, so it is a super-optimum: no real assignment can beat it,
// and it need not be achievable. The paper normalizes every algorithm's D
// by this bound ("normalized interactivity").
#pragma once

#include "core/problem.h"

namespace diaca::core {

/// Compute the lower bound by certified filter-and-refine, identically on
/// every client-block view. Cost: one nearest-server scan, one add and
/// compare per pair the row filter keeps, O(|S|) per refined pair, and
/// O(|S|^2) per client that keeps a refined pair; the worst case is
/// unchanged at O(|C||S|^2 + |C|^2|S|). Memory: O(|C|) plus O(|S|) per
/// pool lane; no |C| x |S| matrix is built.
double InteractivityLowerBound(const Problem& problem);

struct LowerBoundDetail {
  double value = 0.0;
  /// The client pair attaining the bound.
  ClientIndex first = 0;
  ClientIndex second = 0;
};

/// The pairwise bound plus its argmax pair (used to target the triple
/// strengthening below).
LowerBoundDetail InteractivityLowerBoundDetailed(const Problem& problem);

/// Strengthened bound over client *triples* (beyond the paper): each
/// client in a triple must commit to a single server for both of its
/// interactions, so
///
///   LB3(a,b,c) = min_{sa,sb,sc} max( path(a,sa,b,sb), path(a,sa,c,sc),
///                                    path(b,sb,c,sc), self paths )
///
/// is a valid lower bound on D and can exceed the pairwise bound (which
/// lets a client use different servers per pair). Exhaustive triples are
/// O(|C|^3 |S|^3); this samples: every triple containing the pairwise
/// argmax pair plus `samples` random triples, each solved in O(|S|^3)
/// with early pruning. Never below the pairwise bound.
double TripleEnhancedLowerBound(const Problem& problem,
                                std::int32_t samples = 64,
                                std::uint64_t seed = 1);

/// Normalized interactivity D / LB (>= 1 up to floating point). Guards
/// against a zero bound (degenerate colocated instances).
double NormalizedInteractivity(double max_path_length, double lower_bound);

}  // namespace diaca::core
