// Fixed-size worker pool for index-parallel batches.
//
// The pool exists for *deterministic* parallelism: run_indexed() hands
// each index to exactly one worker, the caller stores results by index,
// and nothing about scheduling order can leak into the results. The
// calling thread is worker 0 and works the batch alongside N - 1 helper
// threads; every worker takes the next index from one shared counter,
// so a batch costs one wake-up of the helpers, not one queued closure
// per index. A one-worker pool starts no thread at all.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fcdpm::par {

class WorkerPool {
 public:
  /// `threads == 0` resolves to the hardware concurrency (at least 1).
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers, the calling thread included.
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return helpers_.size() + 1;
  }

  /// The thread count a given `threads` request resolves to (0 -> the
  /// hardware concurrency, floor 1). Lets callers that must size
  /// per-worker state *before* constructing the pool — telemetry
  /// shards, watchdog heartbeat slots — agree exactly with the pool.
  [[nodiscard]] static std::size_t resolve(std::size_t threads) noexcept;

  /// Run fn(0) .. fn(count-1) across the pool and block until all have
  /// finished. The first exception thrown by any invocation is captured
  /// and rethrown here after the batch drains (the remaining tasks still
  /// run — a sweep point must not be silently skipped). One batch at a
  /// time: the pool's owner is its only caller.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// Like run_indexed, but the task also learns which worker runs it
  /// (0 .. thread_count()-1; 0 is the calling thread). The resilience
  /// watchdog keys its per-worker heartbeat slots off this index;
  /// results must never depend on it.
  void run_indexed_on_workers(
      std::size_t count,
      const std::function<void(std::size_t worker, std::size_t index)>& fn);

 private:
  /// Take indices from the shared counter until the batch runs out.
  void drain(std::size_t worker) noexcept;

  std::mutex mutex_;
  std::condition_variable batch_ready_;  ///< helpers wait for a batch
  std::condition_variable helpers_done_;  ///< the caller waits for helpers
  // The batch, published under mutex_ before generation_ moves on.
  const std::function<void(std::size_t, std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;
  std::size_t helpers_busy_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> helpers_;
};

}  // namespace fcdpm::par
