// In-memory span recorder for the benchmark driver's traced run.
//
// The driver wraps every call it makes into a library layer in a Span.
// Spans nest on the calling thread (the driver is a single closed-loop
// caller), carry the id of the request they belong to, and stay in memory
// until WriteChromeTrace dumps them as Chrome trace-event JSON. Each
// exported event's args hold its id, parent id, request id and self time:
// the span's duration minus the union of its direct children's intervals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace diaca::benchmark {

class SpanRecorder {
 public:
  /// Off until enabled: a disabled recorder keeps nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Request id stamped onto spans opened from now on (a set-up, a
  /// closed-loop request or a sweep trial).
  void set_request(std::int64_t request) { request_ = request; }

  /// Open a span; returns its index for Close, or -1 when disabled.
  std::int64_t Open(const char* name);
  void Close(std::int64_t index);

  /// Chrome trace-event JSON: the benchmark's spans as process 2, plus the
  /// events of `obs_trace` (a Chrome trace written by obs::Tracer, whose
  /// events stay process 1) so one file shows both on the same clock.
  /// Throws diaca::Error when the file cannot be written.
  void WriteChromeTrace(const std::string& path,
                        const std::string& obs_trace) const;

 private:
  struct Record {
    std::int64_t id = 0;
    std::int64_t parent = -1;  ///< -1 for a root span
    std::int64_t request = -1;
    const char* name = nullptr;  ///< string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Self time of each record, in ns (index-aligned with records_).
  std::vector<std::int64_t> SelfTimesNs() const;

  bool enabled_ = false;
  std::int64_t request_ = -1;
  std::vector<Record> records_;
  std::vector<std::int64_t> open_;  ///< stack of open record indices
};

/// RAII span over a recorder (no-op when the recorder is disabled).
class Span {
 public:
  Span(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.Open(name)) {}
  ~Span() { recorder_.Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

}  // namespace diaca::benchmark
