#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/error.h"
#include "obs/obs.h"

namespace diaca {

// A ParallelFor in flight: a bag of chunks claimed via an atomic cursor.
// Workers that pick the job up from the queue and the calling thread all
// drain the same bag; the caller then waits for the last chunk to finish.
struct ThreadPool::Job {
  std::int64_t begin = 0;
  std::int64_t grain = 1;
  std::int64_t num_chunks = 0;
  std::int64_t total = 0;  // end - begin
  const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;

  std::atomic<std::int64_t> next_chunk{0};
  std::atomic<std::int64_t> done_chunks{0};
  std::atomic<bool> cancelled{false};

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr first_exception;
};

ThreadPool::ThreadPool(int threads) {
  DIACA_CHECK_MSG(threads >= 0, "thread count must be >= 0, got " << threads);
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  num_threads_ = threads;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // std::jthread joins on destruction.
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      DIACA_OBS_GAUGE_SET("pool.queue_depth", static_cast<std::int64_t>(queue_.size()));
    }
    DIACA_OBS_COUNT("pool.worker_wakeups", 1);
    RunChunks(*job, /*worker=*/true);
  }
}

void ThreadPool::RunChunks(Job& job, bool worker) {
  std::int64_t chunks_run = 0;
  for (;;) {
    const std::int64_t chunk = job.next_chunk.fetch_add(1);
    if (chunk >= job.num_chunks) break;
    ++chunks_run;
    if (!job.cancelled.load(std::memory_order_relaxed)) {
      const std::int64_t b = job.begin + chunk * job.grain;
      const std::int64_t e = job.begin + std::min(job.total, (chunk + 1) * job.grain);
      try {
        // One span per chunk puts the pool's work on every worker lane of
        // the trace; chunks are coarse, so the cost is per-chunk, not
        // per-index.
        DIACA_OBS_SPAN("pool.chunk");
        (*job.body)(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mu);
        if (!job.first_exception) job.first_exception = std::current_exception();
        job.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (job.done_chunks.fetch_add(1) + 1 == job.num_chunks) {
      // Last chunk: wake the caller. Take the job mutex so the notify
      // cannot race with the caller checking the predicate and leaving.
      std::lock_guard<std::mutex> lock(job.mu);
      job.done_cv.notify_all();
    }
  }
  if (chunks_run > 0) {
    // "Stolen" chunks ran on a pool worker; "inline" ones on the calling
    // thread while it waited. Emitted once per drain, not per chunk.
    if (worker) {
      DIACA_OBS_COUNT("pool.chunks_stolen", chunks_run);
    } else {
      DIACA_OBS_COUNT("pool.chunks_inline", chunks_run);
    }
  }
}

void ThreadPool::ParallelFor(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  DIACA_CHECK_MSG(grain >= 1, "grain must be >= 1, got " << grain);
  if (begin >= end) return;
  const std::int64_t total = end - begin;
  if (num_threads_ == 1 || total <= grain) {
    // Serial path: same chunking, run inline in order, no pool machinery.
    // An exception aborts the remaining chunks, as in the parallel path.
    for (std::int64_t b = begin; b < end; b += grain) {
      body(b, std::min(end, b + grain));
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->grain = grain;
  job->total = total;
  job->num_chunks = (total + grain - 1) / grain;
  job->body = &body;

  // Enough helpers to saturate the pool, but never more than chunks.
  const std::int64_t helpers =
      std::min<std::int64_t>(num_threads_ - 1, job->num_chunks - 1);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::int64_t i = 0; i < helpers; ++i) queue_.push_back(job);
      DIACA_OBS_GAUGE_SET("pool.queue_depth", static_cast<std::int64_t>(queue_.size()));
    }
    if (helpers == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  // The caller drains chunks too, so completion never depends on a free
  // worker — a nested ParallelFor issued from a pool task cannot deadlock.
  RunChunks(*job, /*worker=*/false);
  {
    std::unique_lock<std::mutex> lock(job->mu);
    if (job->done_chunks.load() != job->num_chunks) {
      DIACA_OBS_COUNT("pool.caller_waits", 1);
      job->done_cv.wait(lock, [&job] {
        return job->done_chunks.load() == job->num_chunks;
      });
    }
  }
  if (job->first_exception) std::rethrow_exception(job->first_exception);
}

ThreadPool::Extremum ThreadPool::ParallelMinReduce(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<double(std::int64_t)>& score) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Extremum best{kInf, -1};
  std::mutex best_mu;
  ParallelFor(begin, end, grain, [&](std::int64_t b, std::int64_t e) {
    Extremum local{kInf, -1};
    for (std::int64_t i = b; i < e; ++i) {
      const double v = score(i);
      if (v < local.value) local = {v, i};
    }
    if (local.index < 0) return;
    std::lock_guard<std::mutex> lock(best_mu);
    // Lexicographic (value, index) merge: order-independent, so the result
    // is identical for any chunking / thread interleaving.
    if (local.value < best.value ||
        (local.value == best.value && local.index < best.index)) {
      best = local;
    }
  });
  if (best.index < 0) best.value = 0.0;
  return best;
}

ThreadPool::Extremum ThreadPool::ParallelMaxReduce(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<double(std::int64_t)>& score) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Extremum best{-kInf, -1};
  std::mutex best_mu;
  ParallelFor(begin, end, grain, [&](std::int64_t b, std::int64_t e) {
    Extremum local{-kInf, -1};
    for (std::int64_t i = b; i < e; ++i) {
      const double v = score(i);
      if (v > local.value) local = {v, i};
    }
    if (local.index < 0) return;
    std::lock_guard<std::mutex> lock(best_mu);
    if (local.value > best.value ||
        (local.value == best.value && local.index < best.index)) {
      best = local;
    }
  });
  if (best.index < 0) best.value = 0.0;
  return best;
}

namespace {

std::mutex g_pool_mu;
int g_configured_threads = 0;  // 0 = hardware concurrency
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(g_configured_threads);
  return *g_pool;
}

void SetGlobalThreads(int threads) {
  DIACA_CHECK_MSG(threads >= 0,
                  "--threads must be >= 0 (0 = hardware concurrency), got "
                      << threads);
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_configured_threads = threads;
  if (g_pool && g_pool->num_threads() !=
                    (threads == 0
                         ? std::max(1, static_cast<int>(
                                           std::thread::hardware_concurrency()))
                         : threads)) {
    g_pool.reset();
  }
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(g_configured_threads);
}

int GlobalThreads() {
  return GlobalPool().num_threads();
}

}  // namespace diaca
