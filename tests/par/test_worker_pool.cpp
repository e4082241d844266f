#include "par/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "par/bounded_queue.hpp"

namespace fcdpm::par {
namespace {

TEST(BoundedQueue, PreservesFifoOrder) {
  BoundedQueue<int> queue(4);
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(queue.push(k));
  }
  for (int k = 0; k < 4; ++k) {
    const std::optional<int> value = queue.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, k);
  }
}

TEST(BoundedQueue, PopReturnsNulloptAfterCloseAndDrain) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.push(7));
  queue.close();
  EXPECT_FALSE(queue.push(8));  // closed queues reject producers
  const std::optional<int> first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 7);  // close still drains what was queued
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueue, BlockedProducerUnblocksOnConsume) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.push(2);  // blocks: queue is full
    pushed.store(true);
  });
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.pop().value_or(-1), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.pop().value_or(-1), 2);
}

TEST(WorkerPool, ZeroThreadsResolvesToAtLeastOne) {
  WorkerPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kCount = 100;  // far more tasks than threads
  std::vector<std::atomic<int>> counts(kCount);
  pool.run_indexed(kCount,
                   [&](std::size_t k) { counts[k].fetch_add(1); });
  for (std::size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(counts[k].load(), 1) << "index " << k;
  }
}

TEST(WorkerPool, EmptyBatchReturnsImmediately) {
  WorkerPool pool(2);
  bool ran = false;
  pool.run_indexed(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPool, PoolIsReusableAcrossBatches) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  pool.run_indexed(10, [&](std::size_t) { total.fetch_add(1); });
  pool.run_indexed(10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 20);
}

TEST(WorkerPool, IndexedOnWorkersReportsInRangeWorkerIds) {
  WorkerPool pool(3);
  constexpr std::size_t kCount = 60;
  std::vector<std::atomic<int>> counts(kCount);
  std::atomic<bool> worker_in_range{true};
  pool.run_indexed_on_workers(
      kCount, [&](std::size_t worker, std::size_t index) {
        if (worker >= pool.thread_count()) {
          worker_in_range.store(false);
        }
        counts[index].fetch_add(1);
      });
  EXPECT_TRUE(worker_in_range.load());
  for (std::size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(counts[k].load(), 1) << "index " << k;
  }
}

TEST(WorkerPool, CallingThreadIsWorkerZero) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::atomic<bool> zero_is_caller{true};
    std::atomic<int> on_caller{0};
    pool.run_indexed_on_workers(
        60, [&](std::size_t worker, std::size_t /*index*/) {
          const bool here = std::this_thread::get_id() == caller;
          if ((worker == 0) != here) {
            zero_is_caller.store(false);
          }
          on_caller.fetch_add(here ? 1 : 0);
        });
    EXPECT_TRUE(zero_is_caller.load());
    if (threads == 1) {
      EXPECT_EQ(on_caller.load(), 60);  // a one-worker pool has no thread
    }
  }
}

TEST(WorkerPool, FirstExceptionPropagatesAfterBatchDrains) {
  WorkerPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run_indexed(20,
                       [&](std::size_t k) {
                         if (k == 3) {
                           throw std::runtime_error("boom");
                         }
                         completed.fetch_add(1);
                       }),
      std::runtime_error);
  // The failing task must not cancel the rest of the batch.
  EXPECT_EQ(completed.load(), 19);
}

}  // namespace
}  // namespace fcdpm::par
