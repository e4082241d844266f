// Sweep-scale live telemetry: the shard owner, the snapshot
// aggregator, and the opt-in sampler thread.
//
// A `SweepTelemetry` is created by the caller (the CLI, a bench, a
// test) with the resolved worker count and the grid size, handed to
// `par::run_sweep` / `resilience::run_resilient_sweep` via their
// options, and read — concurrently, at any time — through
// `snapshot()`. Snapshots are *derived, never consulted*: the engines
// write shards and otherwise behave bit-identically to a telemetry-off
// run (tests/par/test_sweep.cpp holds them to it).
//
// Monotonicity: every shard field only increases, and a snapshot reads
// each field exactly once, so for any two snapshots taken in order,
// every total in the later one is >= the earlier one.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "telemetry/lanes.hpp"
#include "telemetry/shard.hpp"

namespace fcdpm::telemetry {

/// One worker's slice of a snapshot.
struct WorkerSnapshot : SweepCounters<std::uint64_t> {
  std::size_t worker = 0;
  double busy_seconds = 0.0;
};

/// A merged, monotonic view of every shard at one instant; the counters
/// are the sums over `workers`.
struct SweepSnapshot : SweepCounters<std::uint64_t> {
  std::uint64_t seq = 0;          ///< 1, 2, ... per SweepTelemetry
  double elapsed_seconds = 0.0;   ///< wall time since construction
  std::size_t total_points = 0;   ///< grid size (constant)
  double throughput_points_per_s = 0.0;
  /// Remaining points / throughput; 0 when done or unknown.
  double eta_seconds = 0.0;
  /// Per-point wall latency quantiles (microseconds; approximate,
  /// max exact).
  double wall_p50_us = 0.0;
  double wall_p95_us = 0.0;
  double wall_p99_us = 0.0;
  double wall_max_us = 0.0;
  /// Per-point simulated duration quantiles (seconds).
  double sim_p50_s = 0.0;
  double sim_p95_s = 0.0;
  double sim_p99_s = 0.0;
  double sim_max_s = 0.0;
  /// max / mean over workers of the points each simulated (done -
  /// twins: the calling thread serves every rho twin on worker 0, and a
  /// hot task's worker its capacity twins); 1 =
  /// perfectly even, equals worker count when one worker did
  /// everything. 1 when nothing was simulated.
  double worker_skew = 1.0;
  std::vector<WorkerSnapshot> workers;

  [[nodiscard]] double cache_hit_rate() const noexcept {
    const double total =
        static_cast<double>(cache_hits) + static_cast<double>(cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  /// done + quarantined: grid points that will not run again.
  [[nodiscard]] std::uint64_t settled() const noexcept {
    return done + quarantined;
  }
};

struct TelemetryConfig {
  /// Shard count; must be >= the worker-pool thread count the sweep
  /// resolves (par::WorkerPool::resolve gives the exact number).
  std::size_t workers = 1;
  /// Grid size, for ETA and the progress denominator.
  std::size_t total_points = 0;
  /// Record per-point lane events for Perfetto track emission
  /// (allocates one pre-reserved vector per worker up front; the
  /// record path itself stays allocation-free until the reserve is
  /// exhausted).
  bool record_lanes = false;
};

/// Owner of the shard set (and optional lane recorder) for one sweep.
/// The wall clock starts at construction — construct immediately
/// before running the sweep.
class SweepTelemetry {
 public:
  explicit SweepTelemetry(const TelemetryConfig& config);

  SweepTelemetry(const SweepTelemetry&) = delete;
  SweepTelemetry& operator=(const SweepTelemetry&) = delete;

  [[nodiscard]] ShardSet& shards() noexcept { return shards_; }
  [[nodiscard]] const ShardSet& shards() const noexcept { return shards_; }
  /// nullptr when lane recording is off.
  [[nodiscard]] LaneRecorder* lanes() noexcept {
    return lanes_.has_value() ? &*lanes_ : nullptr;
  }
  [[nodiscard]] const LaneRecorder* lanes() const noexcept {
    return lanes_.has_value() ? &*lanes_ : nullptr;
  }

  [[nodiscard]] std::size_t total_points() const noexcept {
    return config_.total_points;
  }
  /// Wall nanoseconds since construction (the lane/event timebase).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Merge every shard into a monotonic snapshot. Thread-safe with
  /// respect to concurrent shard writers; callable from any thread
  /// (the sampler and the final on-demand pull share seq numbering).
  [[nodiscard]] SweepSnapshot snapshot() const;

 private:
  TelemetryConfig config_;
  std::chrono::steady_clock::time_point start_;
  ShardSet shards_;
  std::optional<LaneRecorder> lanes_;
  mutable std::atomic<std::uint64_t> seq_{0};
};

/// Opt-in background sampler: calls `callback` with a fresh snapshot
/// every `period` until stopped. The callback runs on the sampler
/// thread — keep it to serialization + I/O. stop() (and the
/// destructor) joins; after stop() returns no further callback runs,
/// so a final on-demand snapshot() from the caller cannot interleave.
class Sampler {
 public:
  using Callback = std::function<void(const SweepSnapshot&)>;

  Sampler(const SweepTelemetry& telemetry, std::chrono::milliseconds period,
          Callback callback);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Emissions so far (for reports/tests).
  [[nodiscard]] std::uint64_t emitted() const noexcept {
    return emitted_.load(std::memory_order_relaxed);
  }

  void stop();

 private:
  void loop(std::chrono::milliseconds period);

  const SweepTelemetry* telemetry_;
  Callback callback_;
  std::atomic<std::uint64_t> emitted_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace fcdpm::telemetry
