#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/error.h"
#include "obs/clock.h"
#include "obs/json.h"

namespace diaca::benchmark {

std::int64_t SpanRecorder::Open(const char* name) {
  if (!enabled_) return -1;
  Record record;
  record.id = static_cast<std::int64_t>(records_.size());
  record.parent = open_.empty() ? -1 : open_.back();
  record.request = request_;
  record.name = name;
  record.start_ns = obs::NowNs();
  records_.push_back(record);
  open_.push_back(record.id);
  return record.id;
}

void SpanRecorder::Close(std::int64_t index) {
  if (index < 0) return;
  records_[static_cast<std::size_t>(index)].end_ns = obs::NowNs();
  // Spans are RAII-scoped, so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::SelfTimesNs() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      records_.size());
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns,
                                                                r.end_ns);
    }
  }
  std::vector<std::int64_t> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cursor = records_[i].start_ns;
    for (const auto& [begin, end] : kids) {
      const std::int64_t b = std::max(begin, cursor);
      const std::int64_t e = std::min(end, records_[i].end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = (records_[i].end_ns - records_[i].start_ns) - covered;
  }
  return self;
}

void SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& obs_trace) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  const std::vector<std::int64_t> self = SelfTimesNs();
  out << "{\"traceEvents\": [\n"
      << "  {\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"benchmark\"}},\n"
      << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"libdiaca\"}}";
  // The obs trace's event list sits between its first '[' and last ']'.
  const std::size_t open = obs_trace.find('[');
  const std::size_t close = obs_trace.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    const std::string events = obs_trace.substr(open + 1, close - open - 1);
    if (events.find('{') != std::string::npos) out << "," << events;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << ",\n  {\"ph\": \"X\", \"pid\": 2, \"tid\": 0, \"name\": ";
    obs::internal::AppendJsonString(out, r.name);
    out << ", \"cat\": \"benchmark\", \"ts\": ";
    obs::internal::AppendJsonNumber(out, static_cast<double>(r.start_ns) / 1e3);
    out << ", \"dur\": ";
    obs::internal::AppendJsonNumber(
        out, static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    out << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"request\": " << r.request << ", \"self_us\": ";
    obs::internal::AppendJsonNumber(out, static_cast<double>(self[i]) / 1e3);
    out << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  if (!out) throw Error("failed writing '" + path + "'");
}

}  // namespace diaca::benchmark
