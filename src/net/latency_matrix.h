// Dense pairwise network-latency matrix — the system model of §II-A.
//
// The paper models the network as a graph with shortest-path routing and
// then extends the distance function d(u,v) to all node pairs; its
// evaluation uses complete pairwise latency matrices (Meridian / MIT King
// data). LatencyMatrix is that extended distance function: a dense,
// symmetric matrix with a zero diagonal, in milliseconds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/simd/simd.h"

namespace diaca::net {

/// Index of a node in a latency matrix.
using NodeIndex = std::int32_t;

class LatencyMatrix {
 public:
  /// An n x n matrix of zeros (diagonal stays zero; off-diagonal entries
  /// must be Set() before use).
  explicit LatencyMatrix(NodeIndex n);

  /// Construct from a row-major buffer of n*n entries. Throws diaca::Error
  /// if the buffer is not n*n, any entry is negative or non-finite, the
  /// diagonal is non-zero, or the matrix is asymmetric beyond 1e-9.
  LatencyMatrix(NodeIndex n, std::span<const double> row_major);

  NodeIndex size() const { return n_; }

  /// Storage distance between consecutive rows, in doubles. Rows are
  /// padded to a multiple of simd::kPadWidth (stride() >= size()); the
  /// padded lanes hold 0.0, the sum/max-inert sentinel for non-negative
  /// latency data (see common/simd/simd.h).
  std::size_t stride() const { return stride_; }

  /// Latency between u and v in milliseconds. O(1).
  double operator()(NodeIndex u, NodeIndex v) const {
    return d_[static_cast<std::size_t>(u) * stride_ +
              static_cast<std::size_t>(v)];
  }

  /// Set the symmetric pair (u,v) and (v,u). Requires u != v, value > 0,
  /// finite.
  void Set(NodeIndex u, NodeIndex v, double value);

  /// Pointer to row u (n valid doubles, then stride() - n zero pad
  /// lanes). For hot loops.
  const double* Row(NodeIndex u) const {
    return d_.data() + static_cast<std::size_t>(u) * stride_;
  }

  /// Writable row pointer for code that fills a matrix in place
  /// (Graph::AllPairsShortestPaths). Bypasses the per-cell checks of
  /// Set(): the caller owns the invariants — symmetry, zero diagonal, finite
  /// non-negative entries and 0.0 pad lanes — by the time the matrix is
  /// handed to anyone else (Validate() still enforces them).
  double* MutableRow(NodeIndex u) {
    return d_.data() + static_cast<std::size_t>(u) * stride_;
  }

  /// Submatrix restricted to `nodes` (in the given order). Useful for
  /// extracting client-to-server / server-to-server blocks.
  LatencyMatrix Restrict(std::span<const NodeIndex> nodes) const;

  /// True if every off-diagonal entry is strictly positive (a complete
  /// matrix ready for assignment experiments).
  bool IsComplete() const;

  /// Largest off-diagonal entry.
  double MaxEntry() const;

  /// Validate invariants (symmetry, zero diagonal, non-negative entries,
  /// intact zero padding lanes). Throws diaca::Error with a description
  /// on violation.
  void Validate() const;

 private:
  NodeIndex n_;
  std::size_t stride_;  // simd::PaddedStride(n_)
  std::vector<double> d_;  // n_ rows of stride_ doubles, pad lanes 0.0
};

}  // namespace diaca::net
