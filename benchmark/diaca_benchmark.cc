// diaca_benchmark — the repository benchmark driver.
//
// With --workload it runs one workload in this process and prints every
// metric as `workload metric value unit`, the output fingerprints, and,
// as the last line, one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs with the obs
// instrumentation on, reports the per-layer metrics and writes a Chrome
// trace into the output directory.
//
// Without --workload it is the orchestrator: it re-executes itself once
// per workload and run (so peak RSS is per workload), plus one traced run
// per workload with --trace, aggregates medians and quartiles, cross-checks
// that the tiled and resident cloud backends agree, prints every metric,
// and writes results.json into the output directory. Exit code 0 means
// every output check passed.
//
//   diaca_benchmark [--workload NAME] [--seed N] [--seconds S]
//                   [--trace [0|1]] [--threads N] [--runs N]
//                   [--scale=full|smoke] [--out-dir DIR]
//
// The output directory defaults to the binary's own (build/benchmark).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/simd/simd.h"
#include "obs/json.h"
#include "workloads.h"

namespace diaca::benchmark {
namespace {

/// Directory holding this binary (the default output directory).
std::string BinaryDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw Error("cannot resolve /proc/self/exe");
  const std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2011;
  double seconds = -1.0;  ///< < 0: the scale's default
  bool trace = false;
  int threads = 2;
  int runs = 3;
  std::string scale = "full";
  std::string out_dir;  ///< results.json and traces; "" = next to the binary
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw Error("unexpected argument '" + key + "'");
    std::string value;
    bool has_value = false;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    const bool bare_trace =
        key == "--trace" && !has_value &&
        (i + 1 >= argc || (std::string(argv[i + 1]) != "0" &&
                           std::string(argv[i + 1]) != "1"));
    if (!has_value && !bare_trace) {
      if (i + 1 >= argc) throw Error(key + " needs a value");
      value = argv[++i];
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = bare_trace || value == "1";
    } else if (key == "--threads") {
      args.threads = std::stoi(value);
    } else if (key == "--runs") {
      args.runs = std::stoi(value);
    } else if (key == "--scale") {
      args.scale = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw Error("unknown flag '" + key + "'");
    }
  }
  if (args.scale != "full" && args.scale != "smoke") {
    throw Error("--scale must be full or smoke");
  }
  if (args.runs < 1) throw Error("--runs must be >= 1");
  // One load-generating process; never more lanes than the machine has.
  // The default of 2 lanes is measured (README.md, "Load model"): on a
  // shared 4-vCPU host, 4 lanes let one busy vCPU stall every parallel
  // phase, and run-to-run medians swing by 10-25%.
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  args.threads = std::clamp(args.threads, 1, std::max(1, nproc));
  if (args.seconds < 0) args.seconds = args.scale == "smoke" ? 0.2 : 10.0;
  if (args.out_dir.empty()) args.out_dir = BinaryDir();
  return args;
}

std::string HashHex(std::uint64_t hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

std::string Number(double v) {
  std::ostringstream os;
  obs::internal::AppendJsonNumber(os, v);
  return os.str();
}

int RunOne(const Args& args) {
  RunOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.threads = args.threads;
  options.trace = args.trace;
  options.scale = args.scale == "smoke" ? SmokeScale() : Scale{};
  options.pins_path = std::string(DIACA_BENCH_SOURCE_DIR) + "/pins.txt";
  if (args.trace) {
    options.trace_path = args.out_dir + "/trace-" + args.workload + ".json";
  }
  const RunOutput out = RunWorkload(options);

  for (const Metric& m : out.metrics) {
    std::cout << args.workload << " " << m.name << " " << Number(m.value) << " "
              << m.unit << "\n";
  }
  for (const Fingerprint& f : out.fingerprints) {
    std::cout << "fingerprint " << f.solver << " " << HashHex(f.hash) << " "
              << Number(f.objective_ms) << "\n";
  }
  if (!options.trace_path.empty()) {
    std::cout << "trace " << options.trace_path << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i == 0 ? "" : ", ");
    obs::internal::AppendJsonString(json, m.name);
    json << ": {\"value\": " << Number(m.value) << ", \"unit\": ";
    obs::internal::AppendJsonString(json, m.unit);
    json << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return out.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Orchestrator.

struct ChildRun {
  std::uint64_t seed = 0;
  bool ok = false;  ///< exited 0 and printed a result line
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Fingerprint> fingerprints;
  std::string trace_path;
};

std::int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": ");
  return at == std::string::npos ? -1 : std::stoll(json.substr(at + key.size() + 4));
}

ChildRun RunChild(const Args& args, const std::string& workload,
                  std::uint64_t seed, bool trace) {
  std::ostringstream cmd;
  cmd << "'" << BinaryDir() << "/diaca_benchmark' --workload " << workload
      << " --seed " << seed << " --seconds " << Number(args.seconds)
      << " --threads " << args.threads << " --scale " << args.scale
      << " --trace " << (trace ? 1 : 0) << " --out-dir '" << args.out_dir << "'";
  ChildRun run;
  run.seed = seed;
  FILE* pipe = popen(cmd.str().c_str(), "r");
  if (pipe == nullptr) throw Error("cannot start '" + cmd.str() + "'");
  std::string output;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = pclose(pipe);  // waits for the child

  std::istringstream lines(output);
  std::string line;
  std::string result;
  while (std::getline(lines, line)) {
    std::istringstream row(line);
    std::string first;
    std::string second;
    std::string third;
    std::string fourth;
    row >> first >> second >> third >> fourth;
    if (first == workload && !fourth.empty()) {
      run.metrics.push_back({second, std::stod(third), fourth});
    } else if (first == "fingerprint") {
      run.fingerprints.push_back(
          {second, std::stoull(third, nullptr, 16), std::stod(fourth)});
    } else if (first == "trace") {
      run.trace_path = second;
    } else if (!line.empty() && line[0] == '{') {
      result = line;
    }
  }
  run.attempted = JsonInt(result, "attempted");
  run.failed = JsonInt(result, "failed");
  run.ok = status == 0 && !result.empty() &&
           result.find("\"correct\": true") != std::string::npos;
  if (!run.ok) {
    std::cerr << "run failed: " << cmd.str() << " (status " << status << ")\n";
  }
  return run;
}

struct Series {
  std::string unit;
  std::string kind;
  std::vector<double> values;
};

std::string MetadataValue(const std::string& file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

int Orchestrate(const Args& args) {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  struct WorkloadResult {
    std::vector<ChildRun> runs;
    std::map<std::string, Series> series;  // insertion order kept below
    std::vector<std::string> order;
    std::string trace_path;
  };
  std::map<std::string, WorkloadResult> results;

  for (const std::string& workload : WorkloadNames()) {
    WorkloadResult& wr = results[workload];
    auto absorb = [&](const ChildRun& run, const char* kind) {
      ++attempted;  // the run itself: exited 0 with a correct result
      if (!run.ok) ++failed;
      attempted += std::max<std::int64_t>(run.attempted, 0);
      failed += std::max<std::int64_t>(run.failed, 0);
      for (const Metric& m : run.metrics) {
        auto [it, inserted] = wr.series.emplace(m.name, Series{m.unit, kind, {}});
        if (inserted) wr.order.push_back(m.name);
        it->second.values.push_back(m.value);
      }
    };
    for (int r = 0; r < args.runs; ++r) {
      wr.runs.push_back(RunChild(args, workload, args.seed + r, false));
      absorb(wr.runs.back(), "end_to_end");
    }
    if (args.trace) {
      const ChildRun traced = RunChild(args, workload, args.seed, true);
      absorb(traced, "per_layer");
      wr.trace_path = traced.trace_path;
    }
  }

  // The tiled and resident backends must plan identically at every seed.
  const auto& tiled = results["cloud-tiled"].runs;
  const auto& resident = results["cloud-resident"].runs;
  for (std::size_t r = 0; r < tiled.size() && r < resident.size(); ++r) {
    ++attempted;
    bool same = tiled[r].fingerprints.size() == resident[r].fingerprints.size() &&
                !tiled[r].fingerprints.empty();
    for (std::size_t i = 0; same && i < tiled[r].fingerprints.size(); ++i) {
      const Fingerprint& a = tiled[r].fingerprints[i];
      const Fingerprint& b = resident[r].fingerprints[i];
      same = a.solver == b.solver && a.hash == b.hash &&
             a.objective_ms == b.objective_ms;
    }
    if (!same) {
      ++failed;
      std::cerr << "check failed: cloud-tiled and cloud-resident differ at seed "
                << tiled[r].seed << "\n";
    }
  }

  const std::string out_path = args.out_dir + "/results.json";
  std::ofstream out(out_path);
  if (!out) throw Error("cannot open '" + out_path + "' for writing");
  using obs::internal::AppendJsonString;
  const char* git = std::getenv("DIACA_BENCH_GIT_REV");
  out << "{\n  \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"threads\": " << args.threads << ", \"cpu\": ";
  AppendJsonString(out, MetadataValue("/proc/cpuinfo", "model name"));
  out << ", \"simd_backend\": ";
  AppendJsonString(out, simd::BackendName(simd::ActiveBackend()));
  out << ", \"compiler\": ";
  AppendJsonString(out, DIACA_BENCH_COMPILER);
  out << ", \"flags\": ";
  AppendJsonString(out, DIACA_BENCH_CXX_FLAGS);
  out << ", \"git_revision\": ";
  AppendJsonString(out, git != nullptr && *git != '\0' ? git : "unknown");
  out << "},\n  \"seed\": " << args.seed << ", \"runs\": " << args.runs
      << ", \"seconds\": " << Number(args.seconds) << ", \"scale\": ";
  AppendJsonString(out, args.scale);
  out << ",\n  \"attempted\": " << attempted << ", \"failed\": " << failed
      << ",\n  \"workloads\": {";
  bool first_workload = true;
  for (const std::string& workload : WorkloadNames()) {
    const WorkloadResult& wr = results[workload];
    out << (first_workload ? "\n" : ",\n") << "    ";
    first_workload = false;
    AppendJsonString(out, workload);
    out << ": {\n      \"seeds\": [";
    for (std::size_t r = 0; r < wr.runs.size(); ++r) {
      out << (r == 0 ? "" : ", ") << wr.runs[r].seed;
    }
    out << "],\n      \"fingerprints\": {";
    for (std::size_t r = 0; r < wr.runs.size(); ++r) {
      out << (r == 0 ? "" : ", ") << "\"" << wr.runs[r].seed << "\": {";
      const auto& fps = wr.runs[r].fingerprints;
      for (std::size_t i = 0; i < fps.size(); ++i) {
        out << (i == 0 ? "" : ", ");
        AppendJsonString(out, fps[i].solver);
        out << ": {\"hash\": \"" << HashHex(fps[i].hash)
            << "\", \"objective_ms\": " << Number(fps[i].objective_ms) << "}";
      }
      out << "}";
    }
    out << "},\n      \"trace\": ";
    AppendJsonString(out, wr.trace_path);
    out << ",\n      \"metrics\": {";
    for (std::size_t i = 0; i < wr.order.size(); ++i) {
      const Series& s = wr.series.at(wr.order[i]);
      const Quartiles q = ComputeQuartiles(s.values);
      out << (i == 0 ? "\n" : ",\n") << "        ";
      AppendJsonString(out, wr.order[i]);
      out << ": {\"unit\": ";
      AppendJsonString(out, s.unit);
      out << ", \"kind\": \"" << s.kind << "\", \"median\": " << Number(q.median)
          << ", \"q1\": " << Number(q.q1) << ", \"q3\": " << Number(q.q3)
          << ", \"values\": [";
      for (std::size_t v = 0; v < s.values.size(); ++v) {
        out << (v == 0 ? "" : ", ") << Number(s.values[v]);
      }
      out << "]}";
      std::cout << workload << " " << wr.order[i] << " " << Number(q.median)
                << " " << s.unit << "\n";
    }
    out << "\n      }\n    }";
  }
  out << "\n  }\n}\n";
  out.close();
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(std::max<std::int64_t>(attempted, 1));
  std::cout << "failed_frac " << Number(failed_frac) << " (" << failed << " of "
            << attempted << " checks)\nresults " << out_path << "\n";
  return failed == 0 && out ? 0 : 1;
}

}  // namespace
}  // namespace diaca::benchmark

int main(int argc, char** argv) {
  using namespace diaca::benchmark;
  try {
    const Args args = ParseArgs(argc, argv);
    return args.workload.empty() ? Orchestrate(args) : RunOne(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
