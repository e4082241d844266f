// Trace analysis: the statistics the paper's workloads are characterized
// by (idle durations, scene correlation, duty cycle, average load), as
// `fcdpm_cli analyze` prints them and the generators' tests check them.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "workload/trace.hpp"

namespace fcdpm::wl {

/// Idle durations / active durations / active powers of a trace.
[[nodiscard]] std::vector<double> idle_durations(const Trace& trace);
[[nodiscard]] std::vector<double> active_durations(const Trace& trace);
[[nodiscard]] std::vector<double> active_powers(const Trace& trace);

/// Lag-k autocorrelation of a sample sequence (k >= 1; requires more
/// than k samples). Near 0 for i.i.d. draws, positive for scene-
/// structured traces like the camcorder's.
[[nodiscard]] double autocorrelation(const std::vector<double>& samples,
                                     std::size_t lag);

/// Duty cycle: active time / total time.
[[nodiscard]] double duty_cycle(const Trace& trace);

/// Time-average device current of a trace on `bus` given the idle-state
/// current (what a DPM policy would pin during idles). This is the load
/// the flat FC setting converges to.
[[nodiscard]] Ampere average_load_current(const Trace& trace, Volt bus,
                                          Ampere idle_current);

}  // namespace fcdpm::wl
