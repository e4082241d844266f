// Dynamic voltage/frequency scaling substrate.
//
// The paper builds on the authors' FC-aware DVS work ([10] DAC'06,
// [11] ISLPED'06): a processor with discrete (voltage, frequency)
// levels, where running slower is energy-cheaper per cycle (dynamic
// power ~ V^2 * f and V scales with f) but stretches the active period.
// This module supplies that substrate so the DVS-vs-DPM interaction can
// be reproduced (bench abl_dvs).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace fcdpm::dvs {

/// One operating point of the processor.
struct DvsLevel {
  /// Normalized speed in (0, 1]; 1 is the maximum frequency.
  double speed = 1.0;
  /// Supply voltage at this level (scales roughly with speed).
  Volt supply{1.4};
  /// Total board power when running at this level (12 V bus side).
  Watt run_power{14.0};
};

/// A DVS-capable device: sorted levels plus an idle (slack) power.
class DvsProcessor {
 public:
  /// Levels must be non-empty, sorted by ascending speed, with strictly
  /// increasing power; speeds in (0, 1].
  DvsProcessor(std::vector<DvsLevel> levels, Watt idle_power,
               Volt bus_voltage = Volt(12.0));

  /// Four-level embedded core calibrated so the top level's current
  /// (1.53 A) exceeds the paper FC's 1.2 A load-following ceiling while
  /// the lower levels sit inside it — the regime where FC-aware DVS
  /// differs from plain energy-aware DVS.
  [[nodiscard]] static DvsProcessor typical_embedded();

  [[nodiscard]] const std::vector<DvsLevel>& levels() const noexcept {
    return levels_;
  }
  [[nodiscard]] std::size_t level_count() const noexcept {
    return levels_.size();
  }
  [[nodiscard]] const DvsLevel& level(std::size_t k) const;
  [[nodiscard]] Volt bus_voltage() const noexcept { return bus_voltage_; }

  /// Wall time to retire `cycles` (in units of cycles-at-full-speed
  /// seconds: a workload of W takes W / speed seconds).
  [[nodiscard]] Seconds time_for(double full_speed_seconds,
                                 std::size_t level) const;

  /// Device energy to run the workload at `level` and idle out the rest
  /// of `period` (the classic DVS energy account).
  [[nodiscard]] Joule energy_for(double full_speed_seconds,
                                 std::size_t level, Seconds period) const;

  /// Bus current when running at `level` / when idle.
  [[nodiscard]] Ampere run_current(std::size_t level) const;
  [[nodiscard]] Ampere idle_current() const;

  /// Slowest level that still finishes within `period`; throws
  /// PreconditionError when even full speed cannot.
  [[nodiscard]] std::size_t slowest_feasible(double full_speed_seconds,
                                             Seconds period) const;

 private:
  std::vector<DvsLevel> levels_;
  Watt idle_power_;
  Volt bus_voltage_;
};

/// A periodic task: `work` seconds at full speed, every `period`.
struct PeriodicTask {
  double work_full_speed_s = 1.0;
  Seconds period{3.0};

  /// Utilization at full speed.
  [[nodiscard]] double utilization() const {
    return work_full_speed_s / period.value();
  }
};

}  // namespace fcdpm::dvs
