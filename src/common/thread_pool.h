// Fixed-size worker pool with deterministic parallel primitives.
//
// All parallelism in libdiaca flows through one process-wide pool so the
// thread count is a single knob (`--threads`, SetGlobalThreads). The
// primitives are designed so results are bit-identical at every thread
// count:
//   * ParallelFor partitions [begin, end) into grain-sized chunks; the
//     body must only write state owned by its indices.
//   * ParallelMinReduce / ParallelMaxReduce score each index with a pure
//     function and return the extremal (value, index) pair, resolving
//     value ties by the LOWEST index — exactly what a serial ascending
//     scan with a strict comparison produces. Scores are computed
//     per-index (never accumulated across indices), so floating-point
//     results cannot depend on the chunking.
//
// Every primitive is fork-join: it returns only after its last chunk has
// run, so bodies may borrow the caller's stack and no queued job ever
// outlives its caller. The calling thread always participates in the
// work, so a ParallelFor issued from inside a pool task completes even if
// every worker is busy (no nested-submit deadlock). A pool of size 1 has no workers at all and
// runs everything inline — the exact legacy serial path. The first
// exception thrown by a body/scorer cancels the remaining chunks and is
// rethrown on the calling thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace diaca {

class ThreadPool {
 public:
  /// A pool with `threads` total lanes of parallelism (the caller counts
  /// as one, so `threads - 1` workers are spawned). 0 means hardware
  /// concurrency. Throws diaca::Error on negative counts.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes of parallelism, including the calling thread. >= 1.
  int num_threads() const { return num_threads_; }

  /// Run body(chunk_begin, chunk_end) over a partition of [begin, end)
  /// into chunks of at most `grain` indices. Blocks until every chunk is
  /// done. Chunks run concurrently; the body owns its index range.
  void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                   const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Extremal (value, index) over [begin, end); `index == -1` when the
  /// range is empty or every score is +/-infinity (reduce identity).
  struct Extremum {
    double value = 0.0;
    std::int64_t index = -1;
  };

  /// Minimum of score(i) over [begin, end); value ties resolve to the
  /// lowest index, matching a serial ascending scan with `<`. Indices
  /// scoring +infinity are never selected. Scores must not be NaN.
  Extremum ParallelMinReduce(std::int64_t begin, std::int64_t end,
                             std::int64_t grain,
                             const std::function<double(std::int64_t)>& score);

  /// Maximum counterpart (serial ascending scan with `>`); indices
  /// scoring -infinity are never selected.
  Extremum ParallelMaxReduce(std::int64_t begin, std::int64_t end,
                             std::int64_t grain,
                             const std::function<double(std::int64_t)>& score);

 private:
  struct Job;

  /// Claim and run chunks of `job` until none remain. `worker` only tags
  /// the pool.chunks_stolen / pool.chunks_inline metric split.
  static void RunChunks(Job& job, bool worker);
  void WorkerLoop();

  int num_threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<std::jthread> workers_;
};

/// The process-wide pool used by every parallel algorithm. Created on
/// first use with the configured thread count (default: hardware
/// concurrency).
ThreadPool& GlobalPool();

/// Configure (and rebuild) the global pool: 1 = serial, 0 = hardware
/// concurrency. Call from the main thread while no parallel work is in
/// flight (benches do this once at startup from `--threads`).
void SetGlobalThreads(int threads);

/// Thread count the global pool has (or would be created with).
int GlobalThreads();

}  // namespace diaca
