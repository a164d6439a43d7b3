// Umbrella header for the observability layer: runtime switches, atexit
// exporters, and the instrumentation macros used on hot paths.
//
// Two independent channels, both off by default:
//   * metrics  — Counter/Gauge/Histogram (obs/metrics.h), aggregated into
//                a JSON snapshot; enabled by SetMetricsEnabled(true) or
//                the --metrics-out built-in flag.
//   * tracing  — TraceSpan (obs/trace.h), exported as a Chrome trace;
//                enabled by SetTracingEnabled(true) or --trace-out.
//
// Cost model: with DIACA_OBS=1 (the default) and the channel disabled,
// every macro site is one relaxed atomic load and a predictable branch.
// Compiling with -DDIACA_OBS=0 (CMake: -DDIACA_OBS_ENABLED=OFF) removes
// the instrumentation entirely. Either way the recorded values never
// feed back into algorithm decisions, so assignments are bit-identical
// with observability on, off, or compiled out.
//
// Macro usage (names must be string literals or otherwise outlive the
// process — they are cached in function-local statics):
//
//   DIACA_OBS_SPAN("core.greedy.solve");        // traces this scope
//   DIACA_OBS_COUNT("core.greedy.iterations", 1);
//   DIACA_OBS_GAUGE_SET("common.pool.queue_depth", depth);
//   DIACA_OBS_OBSERVE("core.greedy.batch_size", batch);
#pragma once

#include <atomic>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace diaca::obs {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// Runtime switch for metric recording (see file comment).
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// Register an atexit handler that writes Registry::Default()'s JSON
/// snapshot (resp. Tracer::Default()'s Chrome trace) to `path` when the
/// process exits normally. Used by the --metrics-out / --trace-out
/// built-in flags; safe to call once per process each.
void WriteMetricsJsonAtExit(std::string path);
void WriteChromeTraceAtExit(std::string path);

}  // namespace diaca::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. DIACA_OBS=0 compiles them away.

#ifndef DIACA_OBS
#define DIACA_OBS 1
#endif

#define DIACA_OBS_CONCAT_INNER(a, b) a##b
#define DIACA_OBS_CONCAT(a, b) DIACA_OBS_CONCAT_INNER(a, b)

#if DIACA_OBS

/// Trace the rest of the scope as a span named `name_literal`.
#define DIACA_OBS_SPAN(name_literal)                 \
  ::diaca::obs::TraceSpan DIACA_OBS_CONCAT(          \
      diaca_obs_span_, __LINE__) { name_literal }

#define DIACA_OBS_COUNT(name_literal, delta)                           \
  do {                                                                 \
    if (::diaca::obs::MetricsEnabled()) {                              \
      static ::diaca::obs::Counter& diaca_obs_counter =                \
          ::diaca::obs::Registry::Default().GetCounter(name_literal);  \
      diaca_obs_counter.Add(delta);                                    \
    }                                                                  \
  } while (false)

#define DIACA_OBS_GAUGE_SET(name_literal, value)                       \
  do {                                                                 \
    if (::diaca::obs::MetricsEnabled()) {                              \
      static ::diaca::obs::Gauge& diaca_obs_gauge =                    \
          ::diaca::obs::Registry::Default().GetGauge(name_literal);    \
      diaca_obs_gauge.Set(value);                                      \
    }                                                                  \
  } while (false)

#define DIACA_OBS_OBSERVE(name_literal, value)                           \
  do {                                                                   \
    if (::diaca::obs::MetricsEnabled()) {                                \
      static ::diaca::obs::Histogram& diaca_obs_histogram =              \
          ::diaca::obs::Registry::Default().GetHistogram(name_literal);  \
      diaca_obs_histogram.Record(static_cast<double>(value));            \
    }                                                                    \
  } while (false)

#else  // DIACA_OBS == 0

#define DIACA_OBS_SPAN(name_literal) static_cast<void>(0)
#define DIACA_OBS_COUNT(name_literal, delta) \
  do {                                       \
  } while (false)
#define DIACA_OBS_GAUGE_SET(name_literal, value) \
  do {                                           \
  } while (false)
#define DIACA_OBS_OBSERVE(name_literal, value) \
  do {                                         \
  } while (false)

#endif  // DIACA_OBS
