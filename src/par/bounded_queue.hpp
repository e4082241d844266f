// Bounded multi-producer / multi-consumer work queue. push() blocks
// while the queue is full, pop() blocks while it is empty, close() wakes
// everyone — pops drain the remaining items and then return nullopt.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/contracts.hpp"

namespace fcdpm::par {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    FCDPM_EXPECTS(capacity >= 1, "queue capacity must be >= 1");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false when the queue was closed before
  /// the item could be taken (the item is dropped).
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once the queue is closed and
  /// drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return std::nullopt;
    }
    std::optional<T> item{std::move(items_.front())};
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  void close() {
    {
      const std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace fcdpm::par
