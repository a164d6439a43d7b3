#include "data/loader.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/log.h"

namespace diaca::data {

namespace {

// A dense file above this is almost certainly a corrupt header, not a real
// measurement set: 65536 nodes already means a 34 GB double matrix.
constexpr std::int64_t kMaxDenseNodes = 65536;

// A graph's node count is a NodeIndex.
constexpr std::int64_t kMaxGraphNodes =
    std::numeric_limits<net::NodeIndex>::max();

std::ifstream OpenForRead(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "' for reading");
  return in;
}

/// Line-oriented reader that keeps the current line number for error
/// context. Blank lines and lines starting with '#' are skipped.
class LineReader {
 public:
  LineReader(std::ifstream in, std::string path, std::string kind)
      : in_(std::move(in)), path_(std::move(path)), kind_(std::move(kind)) {}

  /// Next data line, or false at end of file.
  bool Next(std::string* line) {
    while (std::getline(in_, *line)) {
      ++line_no_;
      const std::size_t first = line->find_first_not_of(" \t\r");
      if (first == std::string::npos || (*line)[first] == '#') continue;
      return true;
    }
    return false;
  }

  [[noreturn]] void Fail(const std::string& why) const {
    throw Error(kind_ + " '" + path_ + "' line " + std::to_string(line_no_) +
                ": " + why);
  }

  [[noreturn]] void FailFile(const std::string& why) const {
    throw Error(kind_ + " '" + path_ + "': " + why);
  }

 private:
  std::ifstream in_;
  std::string path_;
  std::string kind_;
  std::int64_t line_no_ = 0;
};

/// Rejects a line whose ids fall outside [0, limit): the node count
/// max id + 1 must not exceed `limit`.
void CheckNodeIds(const LineReader& reader, std::int64_t u, std::int64_t v,
                  std::int64_t limit) {
  if (u < 0 || v < 0) reader.Fail("negative node id");
  const std::int64_t id = std::max(u, v);
  if (id >= limit) {
    reader.Fail("node id " + std::to_string(id) + " out of range (max " +
                std::to_string(limit - 1) + ")");
  }
}

}  // namespace

net::LatencyMatrix LoadDenseMatrix(const std::string& path) {
  LineReader reader(OpenForRead(path), path, "dense matrix");
  std::string line;
  if (!reader.Next(&line)) reader.FailFile("empty file (expected node count)");
  std::int64_t n = 0;
  {
    std::istringstream header(line);
    std::string extra;
    if (!(header >> n)) reader.Fail("bad node count '" + line + "'");
    if (header >> extra) reader.Fail("trailing tokens after node count");
  }
  if (n < 2) reader.Fail("node count must be >= 2, got " + std::to_string(n));
  if (n > kMaxDenseNodes) {
    reader.Fail("implausible node count " + std::to_string(n) + " (max " +
                std::to_string(kMaxDenseNodes) + "); corrupt header?");
  }
  const auto sn = static_cast<std::size_t>(n);
  std::vector<double> values(sn * sn);
  for (std::size_t row = 0; row < sn; ++row) {
    if (!reader.Next(&line)) {
      reader.FailFile("truncated: expected " + std::to_string(n) +
                      " rows, got " + std::to_string(row));
    }
    std::istringstream fields(line);
    for (std::size_t col = 0; col < sn; ++col) {
      if (!(fields >> values[row * sn + col])) {
        reader.Fail("ragged row " + std::to_string(row) + ": expected " +
                    std::to_string(n) + " entries, got " +
                    std::to_string(col));
      }
    }
    std::string extra;
    if (fields >> extra) {
      reader.Fail("ragged row " + std::to_string(row) + ": more than " +
                  std::to_string(n) + " entries");
    }
  }
  if (reader.Next(&line)) {
    reader.Fail("trailing data after " + std::to_string(n) + " rows");
  }
  // Symmetrize by averaging; validate entries.
  bool asymmetric = false;
  for (std::size_t u = 0; u < sn; ++u) {
    if (!(values[u * sn + u] == 0.0)) {  // NaN-safe: NaN fails the check too
      reader.FailFile("non-zero diagonal at " + std::to_string(u));
    }
    for (std::size_t v = u + 1; v < sn; ++v) {
      double a = values[u * sn + v];
      double b = values[v * sn + u];
      if (!std::isfinite(a) || !std::isfinite(b) || a <= 0.0 || b <= 0.0) {
        reader.FailFile("invalid latency at (" + std::to_string(u) + "," +
                        std::to_string(v) +
                        "): entries must be finite and positive");
      }
      if (a != b) asymmetric = true;
      const double avg = 0.5 * (a + b);
      values[u * sn + v] = avg;
      values[v * sn + u] = avg;
    }
  }
  if (asymmetric) {
    DIACA_LOG(kWarn) << "dense matrix '" << path
                     << "' was asymmetric; symmetrized by averaging";
  }
  return net::LatencyMatrix(static_cast<net::NodeIndex>(n), values);
}

void SaveDenseMatrix(const net::LatencyMatrix& m, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out.precision(9);
  out << m.size() << "\n";
  for (net::NodeIndex u = 0; u < m.size(); ++u) {
    for (net::NodeIndex v = 0; v < m.size(); ++v) {
      if (v > 0) out << " ";
      out << m(u, v);
    }
    out << "\n";
  }
  if (!out) throw Error("write failed for '" + path + "'");
}

net::LatencyMatrix LoadTriplesMatrix(const std::string& path) {
  LineReader reader(OpenForRead(path), path, "triples matrix");
  struct Entry {
    double sum = 0.0;
    int count = 0;
  };
  std::int64_t max_id = -1;
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> triples;
  std::string line;
  while (reader.Next(&line)) {
    std::istringstream fields(line);
    std::int64_t u = 0;
    std::int64_t v = 0;
    double latency = 0.0;
    if (!(fields >> u >> v >> latency)) {
      reader.Fail("expected 'u v latency', got '" + line + "'");
    }
    std::string extra;
    if (fields >> extra) {
      reader.Fail("trailing tokens after 'u v latency' in '" + line + "'");
    }
    // n = max id + 1 stays inside the dense cap, or n * n would wrap (or
    // ask for terabytes) before any pair is checked.
    CheckNodeIds(reader, u, v, kMaxDenseNodes);
    if (u == v) reader.Fail("self-pair (" + std::to_string(u) + ")");
    if (!std::isfinite(latency) || latency <= 0.0) {
      reader.Fail("latency must be finite and positive, got " +
                  std::to_string(latency));
    }
    max_id = std::max({max_id, u, v});
    triples.emplace_back(u, v, latency);
  }
  if (max_id < 1) reader.FailFile("no data");
  const auto n = static_cast<std::size_t>(max_id + 1);
  std::vector<Entry> entries(n * n);
  for (const auto& [a, b, lat] : triples) {
    const std::size_t lo = static_cast<std::size_t>(std::min(a, b));
    const std::size_t hi = static_cast<std::size_t>(std::max(a, b));
    Entry& e = entries[lo * n + hi];
    e.sum += lat;
    ++e.count;
  }
  net::LatencyMatrix m(static_cast<net::NodeIndex>(n));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const Entry& e = entries[a * n + b];
      if (e.count == 0) {
        reader.FailFile("missing pair (" + std::to_string(a) + "," +
                        std::to_string(b) + ")");
      }
      m.Set(static_cast<net::NodeIndex>(a), static_cast<net::NodeIndex>(b),
            e.sum / e.count);
    }
  }
  return m;
}

net::Graph LoadGraphTriples(const std::string& path) {
  LineReader reader(OpenForRead(path), path, "graph triples");
  std::int64_t max_id = -1;
  std::vector<net::Graph::Edge> edges;
  std::string line;
  while (reader.Next(&line)) {
    std::istringstream fields(line);
    std::int64_t u = 0;
    std::int64_t v = 0;
    double length = 0.0;
    if (!(fields >> u >> v >> length)) {
      reader.Fail("expected 'u v length_ms', got '" + line + "'");
    }
    std::string extra;
    if (fields >> extra) {
      reader.Fail("trailing tokens after 'u v length_ms' in '" + line + "'");
    }
    CheckNodeIds(reader, u, v, kMaxGraphNodes);
    if (u == v) reader.Fail("self-loop (" + std::to_string(u) + ")");
    if (!std::isfinite(length) || length <= 0.0) {
      reader.Fail("length must be finite and positive, got " +
                  std::to_string(length));
    }
    max_id = std::max({max_id, u, v});
    edges.push_back({static_cast<net::NodeIndex>(u),
                     static_cast<net::NodeIndex>(v), length});
  }
  if (max_id < 1) reader.FailFile("no data");
  // Every consumer needs a connected graph, which on n nodes takes at
  // least n - 1 links; checking that before the CSR is sized keeps one
  // large id from allocating offsets for nodes no link reaches.
  if (max_id > static_cast<std::int64_t>(edges.size())) {
    reader.FailFile(std::to_string(max_id + 1) + " nodes need at least " +
                    std::to_string(max_id) + " links to be connected, got " +
                    std::to_string(edges.size()));
  }
  return net::Graph(static_cast<net::NodeIndex>(max_id + 1), edges);
}

}  // namespace diaca::data
