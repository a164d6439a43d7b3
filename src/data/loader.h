// On-disk latency matrix formats.
//
// Two formats are supported so the real Meridian/MIT matrices can be used
// when available:
//   * "dense": first token n, then n*n whitespace-separated latencies in
//     row-major order (the p2psim King matrix layout). A non-positive or
//     missing entry off the diagonal is an error.
//   * "triples": lines of `u v latency_ms` with 0-based node ids; the node
//     count is one more than the largest id seen. Pairs may appear in
//     either or both orders (values averaged if both are present).
// Asymmetric inputs are symmetrized by averaging; this is logged.
#pragma once

#include <string>

#include "net/graph.h"
#include "net/latency_matrix.h"

namespace diaca::data {

/// Load a dense-format matrix. Throws diaca::Error on IO or format errors.
net::LatencyMatrix LoadDenseMatrix(const std::string& path);

/// Save in dense format (row-major, one row per line).
void SaveDenseMatrix(const net::LatencyMatrix& m, const std::string& path);

/// Load a triples-format matrix. Throws diaca::Error on IO/format errors,
/// on a node id above 65535 (the dense loader's 65536-node cap) or if any
/// pair is missing.
net::LatencyMatrix LoadTriplesMatrix(const std::string& path);

/// Load a *sparse* graph from the same `u v length_ms` triples layout:
/// each line is one undirected link, pairs may be absent (that is the
/// point — the file is an edge list, not a matrix), and repeated pairs
/// become parallel links (shortest wins during routing). The node count
/// is one more than the largest id seen. This is the substrate input for
/// the sublinear distance-oracle backends, which never want the routed
/// closure materialized. Throws diaca::Error on IO/format errors and on a
/// node id above 2147483646 (the node count must fit a NodeIndex).
net::Graph LoadGraphTriples(const std::string& path);

}  // namespace diaca::data
