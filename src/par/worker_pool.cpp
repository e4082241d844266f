#include "par/worker_pool.hpp"

#include <algorithm>
#include <utility>

namespace fcdpm::par {

std::size_t WorkerPool::resolve(std::size_t threads) noexcept {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
  }
  return std::max<std::size_t>(threads, 1);
}

WorkerPool::WorkerPool(std::size_t threads) {
  const std::size_t helpers = WorkerPool::resolve(threads) - 1;
  helpers_.reserve(helpers);
  for (std::size_t k = 1; k <= helpers; ++k) {
    helpers_.emplace_back([this, k] {
      std::uint64_t seen = 0;
      std::unique_lock lock(mutex_);
      for (;;) {
        batch_ready_.wait(lock,
                          [&] { return stopping_ || generation_ != seen; });
        if (stopping_) {
          return;
        }
        seen = generation_;
        lock.unlock();
        drain(k);
        lock.lock();
        if (--helpers_busy_ == 0) {
          helpers_done_.notify_one();
        }
      }
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  batch_ready_.notify_all();
  for (std::thread& thread : helpers_) {
    thread.join();
  }
}

void WorkerPool::drain(std::size_t worker) noexcept {
  for (;;) {
    const std::size_t k = next_.fetch_add(1, std::memory_order_relaxed);
    if (k >= count_) {
      return;
    }
    try {
      (*fn_)(worker, k);
    } catch (...) {
      const std::lock_guard lock(mutex_);
      if (first_error_ == nullptr) {
        first_error_ = std::current_exception();
      }
    }
  }
}

void WorkerPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  run_indexed_on_workers(
      count, [&fn](std::size_t /*worker*/, std::size_t index) { fn(index); });
}

void WorkerPool::run_indexed_on_workers(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) {
    return;
  }
  {
    const std::lock_guard lock(mutex_);
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    helpers_busy_ = helpers_.size();
    ++generation_;
  }
  batch_ready_.notify_all();
  drain(0);

  // Every helper leaves the batch before the next one can be published,
  // so none can miss a generation or run an index of the wrong batch.
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    helpers_done_.wait(lock, [&] { return helpers_busy_ == 0; });
    fn_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace fcdpm::par
