#include "workload/analysis.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace fcdpm::wl {

std::vector<double> idle_durations(const Trace& trace) {
  std::vector<double> out;
  out.reserve(trace.size());
  for (const TaskSlot& slot : trace.slots()) {
    out.push_back(slot.idle.value());
  }
  return out;
}

std::vector<double> active_durations(const Trace& trace) {
  std::vector<double> out;
  out.reserve(trace.size());
  for (const TaskSlot& slot : trace.slots()) {
    out.push_back(slot.active.value());
  }
  return out;
}

std::vector<double> active_powers(const Trace& trace) {
  std::vector<double> out;
  out.reserve(trace.size());
  for (const TaskSlot& slot : trace.slots()) {
    out.push_back(slot.active_power.value());
  }
  return out;
}

double autocorrelation(const std::vector<double>& samples,
                       std::size_t lag) {
  FCDPM_EXPECTS(lag >= 1, "lag must be >= 1");
  FCDPM_EXPECTS(samples.size() > lag, "need more samples than the lag");

  double mean = 0.0;
  for (const double s : samples) {
    mean += s;
  }
  mean /= static_cast<double>(samples.size());

  double numerator = 0.0;
  double denominator = 0.0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double d = samples[k] - mean;
    denominator += d * d;
    if (k >= lag) {
      numerator += d * (samples[k - lag] - mean);
    }
  }
  FCDPM_EXPECTS(denominator > 0.0,
                "autocorrelation of a constant sequence is undefined");
  return numerator / denominator;
}

double duty_cycle(const Trace& trace) {
  const TraceStats stats = trace.stats();
  return stats.total_active / stats.total_duration();
}

Ampere average_load_current(const Trace& trace, Volt bus,
                            Ampere idle_current) {
  FCDPM_EXPECTS(bus.value() > 0.0, "bus voltage must be positive");
  Coulomb charge{0.0};
  Seconds time{0.0};
  for (const TaskSlot& slot : trace.slots()) {
    charge += idle_current * slot.idle;
    charge += (slot.active_power / bus) * slot.active;
    time += slot.idle + slot.active;
  }
  FCDPM_EXPECTS(time.value() > 0.0, "empty trace");
  return charge / time;
}

}  // namespace fcdpm::wl
