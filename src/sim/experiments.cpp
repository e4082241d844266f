#include "sim/experiments.hpp"

#include <optional>

#include "common/contracts.hpp"
#include "workload/camcorder.hpp"
#include "workload/synthetic.hpp"

namespace fcdpm::sim {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Conv:
      return "Conv-DPM";
    case PolicyKind::Asap:
      return "ASAP-DPM";
    case PolicyKind::FcDpm:
      return "FC-DPM";
    case PolicyKind::Oracle:
      return "Oracle-FC-DPM";
  }
  return "?";
}

ExperimentConfig experiment1_config() {
  ExperimentConfig config;
  config.trace = wl::paper_camcorder_trace();
  config.device = wl::camcorder_device();
  // The camcorder's active period is fixed, so no active prediction is
  // needed (paper, Section 5.1); the seeds below only matter for the
  // first slot.
  config.initial_active_estimate = Seconds(5.0);
  config.active_current_estimate = Watt(14.65) / Volt(12.0);
  config.simulation.initial_storage = config.initial_storage;
  return config;
}

ExperimentConfig experiment2_config() {
  ExperimentConfig config;
  config.trace = wl::paper_synthetic_trace();
  config.device = wl::synthetic_device();
  // Paper: rho = sigma = 0.5, I'ld,a estimated as 1.2 A.
  config.active_current_estimate = Ampere(1.2);
  config.simulation.initial_storage = config.initial_storage;
  return config;
}

std::unique_ptr<core::FcOutputPolicy> make_fc_policy(
    PolicyKind kind, const ExperimentConfig& config) {
  switch (kind) {
    case PolicyKind::Conv:
      return std::make_unique<core::ConvFcPolicy>(config.efficiency);
    case PolicyKind::Asap:
      return std::make_unique<core::AsapFcPolicy>(config.efficiency);
    case PolicyKind::FcDpm:
      return std::make_unique<core::FcDpmPolicy>(
          core::FcDpmPolicy::paper_policy(
              config.efficiency, config.device, config.sigma,
              config.initial_active_estimate,
              config.active_current_estimate));
    case PolicyKind::Oracle:
      return std::make_unique<core::OracleFcPolicy>(config.efficiency,
                                                    config.device);
  }
  FCDPM_ENSURES(false, "unknown policy kind");
}

dpm::PredictiveDpmPolicy make_dpm_policy(const ExperimentConfig& config) {
  return dpm::PredictiveDpmPolicy::paper_policy(
      config.device, config.rho, config.initial_idle_estimate);
}

power::HybridPowerSource make_hybrid(const ExperimentConfig& config) {
  if (config.stacks.enabled) {
    return power::HybridPowerSource(
        stacks::make_multi_stack(config.stacks, config.efficiency),
        std::make_unique<power::SuperCapacitor>(config.storage_capacity,
                                                1.0));
  }
  return power::HybridPowerSource(
      std::make_unique<power::LinearFuelSource>(config.efficiency),
      std::make_unique<power::SuperCapacitor>(config.storage_capacity,
                                              1.0));
}

SimulationResult run_policy(PolicyKind kind,
                            const ExperimentConfig& config) {
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc_policy =
      make_fc_policy(kind, config);
  power::HybridPowerSource hybrid = make_hybrid(config);

  SimulationOptions options = config.simulation;
  options.initial_storage = config.initial_storage;
  std::optional<cap::Governor> governor;
  if (config.cap.enabled && options.governor == nullptr) {
    governor.emplace(cap::make_governor(config.cap, config.efficiency));
    options.governor = &*governor;
  }
  // Reference-engine auditing: strict fails fast (the resilience layer
  // classifies the escape as contract_violation), sample records.
  // Tamper models a hot-engine defect; the reference run is the truth
  // it is checked against, so it never tampers here.
  std::optional<audit::Auditor> auditor;
  if (config.audit.enabled() && options.auditor == nullptr) {
    audit::AuditSpec spec = config.audit;
    spec.tamper_slot = audit::npos;
    auditor.emplace(spec, spec.mode == audit::Mode::Strict);
    options.auditor = &*auditor;
  }
  return simulate(config.trace, dpm_policy, *fc_policy, hybrid, options);
}

PolicyComparison compare_policies(const ExperimentConfig& config) {
  return {run_policy(PolicyKind::Conv, config),
          run_policy(PolicyKind::Asap, config),
          run_policy(PolicyKind::FcDpm, config)};
}

}  // namespace fcdpm::sim
