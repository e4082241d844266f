// Per-worker telemetry shards for sweep-scale engines.
//
// Each worker of a sweep owns exactly one `WorkerShard`: a cache-line-
// aligned block of relaxed-atomic counters and fixed-bucket latency
// histograms. Workers write their own shard lock-free on the hot path
// (a handful of relaxed increments per *grid point*, never per slot);
// the snapshot aggregator (sweep_telemetry.hpp) reads every shard from
// another thread and merges them into a `SweepSnapshot`. Because every
// field only ever increases, any interleaving of reads yields totals
// that are monotone across successive snapshots.
//
// Telemetry is derived observation only: nothing in this file is ever
// consulted by the simulation, so results stay bit-identical with
// telemetry on or off (bench/perf_tracing_overhead.cpp holds the
// attached-shards overhead under the repo-wide 2 % budget).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/sweep_stats.hpp"

namespace fcdpm::telemetry {

/// Destructive-interference granularity. 64 is right for every
/// mainstream x86/ARM part this repo targets; std::hardware_destructive_
/// interference_size is deliberately avoided (libstdc++ warns that its
/// value is ABI-fragile).
inline constexpr std::size_t kCacheLine = 64;

/// Lock-free fixed-bucket histogram for nonnegative samples.
///
/// Bucket k holds samples in [2^(k-1), 2^k) (bucket 0 holds [0, 1)), so
/// 32 buckets span 1 .. ~2^30 in the caller's unit — microseconds cover
/// point latencies from sub-microsecond to ~18 minutes. Quantiles are
/// approximate (geometric bucket midpoints, clamped to the exact
/// observed max); count/sum/max are exact.
class AtomicHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  /// Relaxed, wait-free on the fast path (one fetch_add per field; max
  /// uses a CAS loop that almost always exits on the first compare).
  void observe(double value) noexcept {
    if (!(value >= 0.0)) {  // negative or NaN: clamp into bucket 0
      value = 0.0;
    }
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    // Nonnegative IEEE doubles order the same as their bit patterns.
    const std::uint64_t bits = double_bits(value);
    std::uint64_t seen = max_bits_.load(std::memory_order_relaxed);
    while (bits > seen && !max_bits_.compare_exchange_weak(
                              seen, bits, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept {
    return bits_double(max_bits_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t k) const noexcept {
    return buckets_[k].load(std::memory_order_relaxed);
  }

  [[nodiscard]] static std::size_t bucket_of(double value) noexcept {
    if (value < 1.0) {
      return 0;
    }
    const int e = std::ilogb(value);  // >= 0 here
    const std::size_t index = static_cast<std::size_t>(e) + 1;
    return index < kBuckets ? index : kBuckets - 1;
  }

  /// Geometric midpoint of bucket k (the inverse of bucket_of).
  [[nodiscard]] static double bucket_representative(std::size_t k) noexcept {
    if (k == 0) {
      return 0.5;
    }
    return std::ldexp(1.5, static_cast<int>(k) - 1);
  }

 private:
  [[nodiscard]] static std::uint64_t double_bits(double v) noexcept {
    return std::bit_cast<std::uint64_t>(v);
  }
  [[nodiscard]] static double bits_double(std::uint64_t bits) noexcept {
    return std::bit_cast<double>(bits);
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> max_bits_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// The sweep counters, one member each. `WorkerShard` holds them as
/// relaxed atomics; `WorkerSnapshot` and `SweepSnapshot` as plain
/// integers. `for_each_counter` below lists them: a new counter is a
/// member here and a line there, and the snapshot merge and the one
/// JSON encoder (progress.hpp) follow.
template <typename T>
struct SweepCounters {
  T done{};         ///< points completed ok, served twins included
  T twins{};        ///< ok twins served from their canonical's result
  T retried{};      ///< failed attempts that will re-run
  T quarantined{};
  T cache_hits{};   ///< via the per-worker tap
  T cache_misses{};
  T hot_dispatches{};  ///< hot lane actually ran
  T reference_dispatches{};
  T batched_dispatches{};  ///< batch lane ran
  T heartbeats{};     ///< watchdog-token slot beats
  T slots{};          ///< simulated slots executed
  T capped_slots{};   ///< governor-throttled slots
  T audited_slots{};  ///< auditor-sampled slots
  T audit_violations{};
  T engine_fallbacks{};  ///< hot runs self-healed
};

/// Calls `visit(key, gate, field...)` once per counter, in JSON key
/// order; each `c` is a (const) SweepCounters of any value type, so
/// passing several visits the same counter of each side by side.
template <typename Visit, typename... C>
void for_each_counter(Visit&& visit, C&... c) {
  visit("done", Gate::Always, c.done...);
  visit("twins", Gate::Nonzero, c.twins...);
  visit("retried", Gate::Always, c.retried...);
  visit("quarantined", Gate::Always, c.quarantined...);
  visit("cache_hits", Gate::Always, c.cache_hits...);
  visit("cache_misses", Gate::Always, c.cache_misses...);
  visit("hot_dispatches", Gate::Always, c.hot_dispatches...);
  visit("reference_dispatches", Gate::Always, c.reference_dispatches...);
  visit("batched_dispatches", Gate::Nonzero, c.batched_dispatches...);
  visit("heartbeats", Gate::Always, c.heartbeats...);
  visit("slots", Gate::Always, c.slots...);
  visit("capped_slots", Gate::Nonzero, c.capped_slots...);
  visit("audited_slots", Gate::Audited, c.audited_slots...);
  visit("audit_violations", Gate::Audited, c.audit_violations...);
  visit("engine_fallbacks", Gate::Audited, c.engine_fallbacks...);
}

/// One worker's private counters. Writers: exactly one worker thread
/// (plus the resilience layer's end-of-point accounting on that same
/// thread). Readers: the aggregator, concurrently, relaxed.
struct alignas(kCacheLine) WorkerShard
    : SweepCounters<std::atomic<std::uint64_t>> {
  std::atomic<std::uint64_t> busy_ns{0};  ///< wall time inside points
  AtomicHistogram wall_us;  ///< per-point wall latency, microseconds
  AtomicHistogram sim_s;    ///< per-point simulated duration, seconds
};

static_assert(alignof(WorkerShard) == kCacheLine);
static_assert(sizeof(WorkerShard) % kCacheLine == 0,
              "shards must not share cache lines");

/// The fixed shard array for one sweep; sized once, never reallocated,
/// so shard references stay valid for the sweep's lifetime.
class ShardSet {
 public:
  explicit ShardSet(std::size_t workers)
      : shards_(workers > 0 ? workers : 1) {}

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return shards_.size(); }
  [[nodiscard]] WorkerShard& shard(std::size_t worker) noexcept {
    return shards_[worker];
  }
  [[nodiscard]] const WorkerShard& shard(std::size_t worker) const noexcept {
    return shards_[worker];
  }

 private:
  std::vector<WorkerShard> shards_;
};

}  // namespace fcdpm::telemetry
