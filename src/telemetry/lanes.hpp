// Per-worker Perfetto track lanes for sweep execution.
//
// Workers append one `PointLane` per completed grid-point attempt to
// their own pre-reserved vector (no locks, no cross-worker sharing);
// after the sweep, `emit_lanes` replays the records into an
// obs::TraceSink on one thread: one named track per worker (span per
// point, wall-clock timeline) plus counter tracks for the solve-cache
// hit rate and the remaining-queue depth. Emission is entirely
// post-hoc, so the trace sink — which is not thread-safe — is never
// touched from a worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace fcdpm::obs {
class TraceSink;
}  // namespace fcdpm::obs

namespace fcdpm::telemetry {

/// One executed grid-point attempt, stamped on the sweep's wall-clock
/// timebase (nanoseconds since SweepTelemetry construction).
struct PointLane {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t point_index = 0;
  std::uint32_t attempt = 1;
  std::uint32_t cache_hits = 0;    ///< this attempt's tap delta
  std::uint32_t cache_misses = 0;
  bool ok = true;
  /// Failed final attempt: the point will not run again. Lets the
  /// queue-depth counter settle failed points too.
  bool quarantined = false;
  /// The loop that ran this attempt (a batched task: Batched).
  sim::Engine engine = sim::Engine::Reference;
};

class LaneRecorder {
 public:
  /// Pre-reserves `expected_points` records per worker so the record
  /// path does not allocate in the steady state.
  LaneRecorder(std::size_t workers, std::size_t expected_points);

  LaneRecorder(const LaneRecorder&) = delete;
  LaneRecorder& operator=(const LaneRecorder&) = delete;

  /// Called by worker `worker` only (single writer per lane).
  void record(std::size_t worker, const PointLane& lane) {
    lanes_[worker].push_back(lane);
  }

  [[nodiscard]] std::size_t workers() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] const std::vector<PointLane>& lane(
      std::size_t worker) const noexcept {
    return lanes_[worker];
  }

 private:
  std::vector<std::vector<PointLane>> lanes_;
};

/// Replay the recorded lanes into `sink` (single-threaded):
///   track base_track + 1 + w  — named "sweep worker w", one span per
///                               point attempt with index, attempt,
///                               cache_hits and engine (0 reference,
///                               1 hot, 2 batched) args;
///   track base_track          — counter samples "sweep.queue_depth"
///                               (grid points not yet settled) and
///                               "sweep.cache_hit_rate" (cumulative),
///                               one sample per point completion in
///                               wall order.
/// Event times are wall seconds since the sweep started (the sweep's
/// trace file holds only telemetry events, so the simulated-time axis
/// is not mixed in).
void emit_lanes(const LaneRecorder& recorder, std::size_t total_points,
                obs::TraceSink& sink, int base_track = 0);

}  // namespace fcdpm::telemetry
