#include "telemetry/sweep_telemetry.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

namespace fcdpm::telemetry {

namespace {

/// Approximate quantile over a merged bucket array; clamped to the
/// exact observed maximum so p99/max never invert.
double merged_quantile(
    const std::array<std::uint64_t, AtomicHistogram::kBuckets>& buckets,
    std::uint64_t count, double max_value, double q) {
  if (count == 0) {
    return 0.0;
  }
  if (q >= 1.0) {
    return max_value;
  }
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    cumulative += static_cast<double>(buckets[k]);
    if (cumulative >= target) {
      return std::min(AtomicHistogram::bucket_representative(k), max_value);
    }
  }
  return max_value;
}

struct MergedHistogram {
  std::array<std::uint64_t, AtomicHistogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  double max = 0.0;

  void add(const AtomicHistogram& h) {
    count += h.count();
    max = std::max(max, h.max());
    for (std::size_t k = 0; k < buckets.size(); ++k) {
      buckets[k] += h.bucket(k);
    }
  }
  [[nodiscard]] double quantile(double q) const {
    return merged_quantile(buckets, count, max, q);
  }
};

}  // namespace

SweepTelemetry::SweepTelemetry(const TelemetryConfig& config)
    : config_(config),
      start_(std::chrono::steady_clock::now()),
      shards_(config.workers) {
  if (config.record_lanes) {
    lanes_.emplace(shards_.size(), config.total_points);
  }
}

std::uint64_t SweepTelemetry::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

SweepSnapshot SweepTelemetry::snapshot() const {
  SweepSnapshot snap;
  snap.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap.elapsed_seconds = static_cast<double>(now_ns()) * 1e-9;
  snap.total_points = config_.total_points;
  snap.workers.reserve(shards_.size());

  MergedHistogram wall;
  MergedHistogram sim;
  std::uint64_t simulated = 0;
  std::uint64_t max_simulated = 0;
  for (std::size_t w = 0; w < shards_.size(); ++w) {
    const WorkerShard& shard = shards_.shard(w);
    WorkerSnapshot& row = snap.workers.emplace_back();
    row.worker = w;
    for_each_counter(
        [](std::string_view, Gate, std::uint64_t& into, std::uint64_t& total,
           const std::atomic<std::uint64_t>& from) {
          into = from.load(std::memory_order_relaxed);
          total += into;
        },
        row, snap, shard);
    row.busy_seconds =
        static_cast<double>(shard.busy_ns.load(std::memory_order_relaxed)) *
        1e-9;
    // A live read may see a twin before its done count.
    const std::uint64_t own = row.done - std::min(row.done, row.twins);
    simulated += own;
    max_simulated = std::max(max_simulated, own);
    wall.add(shard.wall_us);
    sim.add(shard.sim_s);
  }

  if (snap.elapsed_seconds > 0.0) {
    snap.throughput_points_per_s =
        static_cast<double>(snap.done) / snap.elapsed_seconds;
  }
  const std::uint64_t settled = snap.settled();
  if (snap.throughput_points_per_s > 0.0 &&
      settled < snap.total_points) {
    snap.eta_seconds =
        static_cast<double>(snap.total_points - settled) /
        snap.throughput_points_per_s;
  }

  snap.wall_p50_us = wall.quantile(0.50);
  snap.wall_p95_us = wall.quantile(0.95);
  snap.wall_p99_us = wall.quantile(0.99);
  snap.wall_max_us = wall.max;
  snap.sim_p50_s = sim.quantile(0.50);
  snap.sim_p95_s = sim.quantile(0.95);
  snap.sim_p99_s = sim.quantile(0.99);
  snap.sim_max_s = sim.max;

  if (simulated > 0) {
    const double mean = static_cast<double>(simulated) /
                        static_cast<double>(snap.workers.size());
    snap.worker_skew = static_cast<double>(max_simulated) / mean;
  }
  return snap;
}

// --- Sampler -----------------------------------------------------------------

Sampler::Sampler(const SweepTelemetry& telemetry,
                 std::chrono::milliseconds period, Callback callback)
    : telemetry_(&telemetry), callback_(std::move(callback)) {
  thread_ = std::thread([this, period] { loop(period); });
}

Sampler::~Sampler() { stop(); }

void Sampler::loop(std::chrono::milliseconds period) {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    if (cv_.wait_for(lock, period, [this] { return stopping_; })) {
      return;
    }
    // Sample outside the lock so stop() is never delayed by a slow
    // callback (it still joins the in-flight emission).
    lock.unlock();
    callback_(telemetry_->snapshot());
    emitted_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
}

void Sampler::stop() {
  {
    const std::lock_guard lock(mutex_);
    if (stopping_ && !thread_.joinable()) {
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

}  // namespace fcdpm::telemetry
