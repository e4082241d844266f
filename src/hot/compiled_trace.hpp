// A workload trace compiled once against a device power model into the
// structure-of-arrays form the hot slot loop walks: per-slot idle time,
// effective active duration (RUN transitions absorbed, Section 3.3.2)
// and run current on the bus; the active charge Ild,a * Ta' is derived
// from the last two on demand.
//
// Compilation happens once; the compiled trace is immutable and shared
// read-only across sweep points and lifetime passes, instead of the
// reference loop re-deriving the same three values per slot per run.
// The per-slot arithmetic is the reference loop's own (same expression,
// evaluated once), so runs over the compiled form stay bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "dpm/power_states.hpp"
#include "workload/trace.hpp"

namespace fcdpm::hot {

class CompiledTrace {
 public:
  /// Compile `trace` against `device`. The trace is validated (the Trace
  /// constructor enforces the slot contract) and copied; the device's
  /// bus voltage and RUN-transition delays are baked into the arrays.
  CompiledTrace(wl::Trace trace, const dpm::DevicePowerModel& device);

  [[nodiscard]] const wl::Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] std::size_t size() const noexcept { return idle_.size(); }
  [[nodiscard]] bool empty() const noexcept { return idle_.empty(); }

  /// Idle period Ti of slot k.
  [[nodiscard]] Seconds idle(std::size_t k) const noexcept {
    return Seconds(idle_[k]);
  }
  /// Effective active duration Ta' = tSR + Ta + tRS of slot k.
  [[nodiscard]] Seconds active_eff(std::size_t k) const noexcept {
    return Seconds(active_eff_[k]);
  }
  /// Active-phase bus current Ild,a = P / VF of slot k.
  [[nodiscard]] Ampere run_current(std::size_t k) const noexcept {
    return Ampere(run_current_[k]);
  }
  /// Active-phase charge Ild,a * Ta' of slot k.
  [[nodiscard]] Coulomb active_charge(std::size_t k) const noexcept {
    return run_current(k) * active_eff(k);
  }

  /// Total charge the device consumes over the whole trace (idle phases
  /// excluded — those depend on the DPM policy's layout).
  [[nodiscard]] Coulomb total_active_charge() const noexcept {
    Coulomb total{0.0};
    for (std::size_t k = 0; k < size(); ++k) {
      total += active_charge(k);
    }
    return total;
  }

  /// True when `device` matches the model this trace was compiled with
  /// (exact comparison on every value baked into the arrays). The hot
  /// engine refuses to run a compiled trace against a different device.
  [[nodiscard]] bool compatible_with(
      const dpm::DevicePowerModel& device) const noexcept;

 private:
  wl::Trace trace_;
  std::vector<double> idle_;
  std::vector<double> active_eff_;
  std::vector<double> run_current_;
  double bus_voltage_ = 0.0;
  double standby_to_run_ = 0.0;
  double run_to_standby_ = 0.0;
};

}  // namespace fcdpm::hot
