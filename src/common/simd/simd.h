// SIMD-friendly layout contract shared by the matrix storage and the
// max-plus kernels (common/simd/kernels.h).
//
// Every dense latency row (net::LatencyMatrix, core::Problem) is padded to
// a multiple of kPadWidth doubles — one cache line — so rows start on a
// predictable boundary and a vector loop never straddles two logical rows.
// The padding sentinels are chosen so padded lanes are inert:
//   * matrix rows pad with 0.0  (cannot perturb a sum against a 0 weight,
//     cannot win a max against a non-negative entry),
//   * companion "far"/eccentricity buffers pad with -1.0 / -infinity (the
//     kernels treat far < 0 as "server unused", so a padded lane can never
//     win a max-plus reduction).
//
// The kernels themselves take explicit element counts and handle remainder
// lanes internally, so callers may pass either the logical width n or the
// padded stride when the companion buffer's sentinels make the tail inert.
#pragma once

#include <cstddef>

namespace diaca::simd {

/// Doubles per padded row quantum: one 64-byte cache line, a whole
/// number of vectors at every x86 width. Every padded row stride is a
/// multiple of this.
inline constexpr std::size_t kPadWidth = 8;

/// Smallest multiple of kPadWidth that is >= n (n = 0 maps to 0), skipping
/// strides that place nearby rows at the same 4 KiB page offset. A stride
/// of 512 doubles (one page) makes every row-(i+1) load false-alias the
/// row-i store issued at the same column — the store buffer only compares
/// address bits [11:0] — and 256 mod 512 does the same for rows two apart;
/// both serialize row kernels that load one row while storing another
/// (measured 3.6x on a 2048-node blocked Floyd–Warshall, an all-pairs
/// engine since retired; see docs/performance.md). One extra
/// pad quantum per row removes the hazard for any window of four
/// consecutive rows.
constexpr std::size_t PaddedStride(std::size_t n) {
  std::size_t stride = (n + kPadWidth - 1) / kPadWidth * kPadWidth;
  const std::size_t page_slot = stride % 512;
  if (stride > 0 && (page_slot == 0 || page_slot == 256)) stride += kPadWidth;
  return stride;
}

/// Kernel implementation selected at runtime. kScalar is the reference
/// the vector paths are tested against; kPortable is the
/// autovectorizable pragma-omp-simd path, widened to whatever ISA the
/// build targets (DIACA_NATIVE in CMakeLists.txt) and the default.
enum class Backend { kScalar = 0, kPortable = 1 };

/// The backend new kernel calls dispatch to: kPortable until SetBackend.
Backend ActiveBackend();

/// Override the dispatch backend (tests and benches use this to compare
/// the scalar reference against the vector paths in-process). Call from
/// one thread while no kernels are in flight.
void SetBackend(Backend backend);

/// Human-readable backend name ("scalar" | "portable").
const char* BackendName(Backend backend);

}  // namespace diaca::simd
