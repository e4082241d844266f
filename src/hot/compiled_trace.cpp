#include "hot/compiled_trace.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace fcdpm::hot {

CompiledTrace::CompiledTrace(wl::Trace trace,
                             const dpm::DevicePowerModel& device)
    : trace_(std::move(trace)) {
  device.validate();
  bus_voltage_ = device.bus_voltage.value();
  standby_to_run_ = device.standby_to_run_delay.value();
  run_to_standby_ = device.run_to_standby_delay.value();

  const std::size_t n = trace_.size();
  idle_.reserve(n);
  active_eff_.reserve(n);
  run_current_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const wl::TaskSlot& slot = trace_[k];
    // Exactly the reference loop's per-slot derivations, evaluated once.
    const Ampere run_current = slot.active_power / device.bus_voltage;
    const Seconds active_eff =
        device.standby_to_run_delay + slot.active + device.run_to_standby_delay;
    idle_.push_back(slot.idle.value());
    active_eff_.push_back(active_eff.value());
    run_current_.push_back(run_current.value());
  }
}

bool CompiledTrace::compatible_with(
    const dpm::DevicePowerModel& device) const noexcept {
  return device.bus_voltage.value() == bus_voltage_ &&
         device.standby_to_run_delay.value() == standby_to_run_ &&
         device.run_to_standby_delay.value() == run_to_standby_;
}

}  // namespace fcdpm::hot
