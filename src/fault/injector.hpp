// Runtime companion of FaultSchedule: tracks which faults are active at
// the current simulated time, hands one-shot brownouts to the storage
// layer exactly once, provides the deterministic sensor-noise stream,
// and owns the run's RobustnessStats.
//
// Threading model mirrors obs::Context — the simulators and the hybrid
// source hold a non-owning `FaultInjector*` that defaults to nullptr;
// every hook is a pointer compare, so a run without an injector is
// bit-identical to a build without the subsystem.
//
// `advance_to` must be called with non-decreasing simulated time (the
// hybrid source's accumulated segment clock); it samples each event's
// activity window at segment boundaries, which matches the simulators'
// piecewise-constant segment model.
#pragma once

#include <random>
#include <vector>

#include "fault/fault.hpp"
#include "fault/schedule.hpp"

namespace fcdpm::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule);

  /// Back to t = 0: clears activation state, stats, pending brownouts
  /// and reseeds the noise stream. Called by the simulators unless the
  /// run continues a previous pass (lifetime multi-pass).
  void reset();

  /// Move the fault clock to `now` (clamped to be non-decreasing) and
  /// recompute the combined active set. Counts newly entered windows,
  /// arms brownouts whose start was crossed, and accrues degraded time
  /// for the elapsed interval when it began with faults active.
  const ActiveFaults& advance_to(Seconds now);

  [[nodiscard]] const ActiveFaults& active() const noexcept {
    return active_;
  }
  [[nodiscard]] bool any_active() const noexcept { return active_.any(); }

  /// Combined stored-charge fraction the storage layer must drop for
  /// brownouts armed since the last call; returns 0 when none are
  /// pending and clears the pending state (each brownout fires once).
  [[nodiscard]] double consume_brownout() noexcept;

  /// One draw from the deterministic noise stream: normal(0, sigma),
  /// or exactly 0 when sigma <= 0 (no engine state consumed, so a
  /// schedule without sensor noise perturbs nothing).
  [[nodiscard]] double noise(double sigma);

  /// Report the storage fraction after a segment; drives the recovery
  /// timer (time from the last fault clearing until the buffer is back
  /// at its pre-fault level).
  void note_storage(Seconds now, double fraction);

  [[nodiscard]] RobustnessStats& stats() noexcept { return stats_; }
  [[nodiscard]] const RobustnessStats& stats() const noexcept {
    return stats_;
  }

 private:
  FaultSchedule schedule_;
  ActiveFaults active_;
  RobustnessStats stats_;
  std::vector<bool> entered_;     ///< per event: window-entry counted
  double pending_brownout_ = 0.0; ///< combined lost fraction to consume
  Seconds last_time_{0.0};
  bool was_active_ = false;
  std::mt19937_64 noise_engine_;

  // Recovery accounting: storage fraction snapshotted when a fault
  // episode begins, and the instant the last fault cleared.
  double last_fraction_ = -1.0;
  double prefault_fraction_ = -1.0;
  bool recovering_ = false;
  Seconds recovering_since_{0.0};
};

}  // namespace fcdpm::fault
