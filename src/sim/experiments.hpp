// Canonical experiment configurations (Sections 5.1 and 5.2) shared by
// the test suite, the bench harness and the examples, so every consumer
// reproduces the same Table 2 / Table 3 runs.
#pragma once

#include <memory>
#include <string>

#include "cap/governor.hpp"
#include "core/fc_policy.hpp"
#include "dpm/dpm_policy.hpp"
#include "sim/metrics.hpp"
#include "sim/slot_simulator.hpp"
#include "workload/trace.hpp"

namespace fcdpm::sim {

/// The FC output policies the paper compares (plus the oracle bound).
enum class PolicyKind { Conv, Asap, FcDpm, Oracle };

[[nodiscard]] const char* to_string(PolicyKind kind);

/// True for the FC policy that reads the DPM's idle prediction: FC-DPM
/// hands it to the slot optimizer. Conv, ASAP and the oracle see only
/// the sleep decision, so their runs depend on rho through it alone.
[[nodiscard]] constexpr bool reads_idle_prediction(PolicyKind kind) noexcept {
  return kind == PolicyKind::FcDpm;
}

/// Everything needed to reproduce one of the paper's experiments.
struct ExperimentConfig {
  wl::Trace trace;
  dpm::DevicePowerModel device;
  power::LinearEfficiencyModel efficiency =
      power::LinearEfficiencyModel::paper_default();

  double rho = 0.5;    ///< idle predictor factor (Eq. (14))
  double sigma = 0.5;  ///< active predictor factor (Eq. (15))
  Seconds initial_idle_estimate{10.0};
  Seconds initial_active_estimate{5.0};
  Ampere active_current_estimate{1.2};  ///< I'ld,a seed

  /// Storage capacity of the hybrid's buffer (paper: 6 A-s supercap).
  Coulomb storage_capacity{6.0};
  /// Cini(1): a small reserve keeps FC-DPM's end-of-slot target off the
  /// storage floor under misprediction (see EXPERIMENTS.md).
  Coulomb initial_storage{1.0};

  /// Opt-in power capping. When enabled, run_policy / par::run_point
  /// build one cap::Governor per run from this spec (the simulation
  /// options' raw governor pointer is for callers that manage their
  /// own instance).
  cap::CapSpec cap;

  /// Opt-in multi-stack fuel source. When enabled, make_hybrid builds a
  /// stacks::MultiStackFuelSource (N copies of `efficiency`, or the
  /// spec's heterogeneous fleet CSV) instead of a LinearFuelSource.
  stacks::StacksSpec stacks;

  /// Opt-in runtime invariant auditing. When enabled, run_policy /
  /// par::run_point build one audit::Auditor per run from this spec
  /// (the simulation options' raw auditor pointer is for callers that
  /// manage their own instance). Hot-lane violations self-heal by
  /// replaying on the reference engine; strict reference violations
  /// throw audit::AuditError.
  audit::AuditSpec audit;

  SimulationOptions simulation;
};

/// Experiment 1: the 28-min DVD-camcorder MPEG trace (Table 2, Fig 7).
[[nodiscard]] ExperimentConfig experiment1_config();

/// Experiment 2: the synthetic uniform-random workload (Table 3).
[[nodiscard]] ExperimentConfig experiment2_config();

/// Build the FC output policy of the given kind for a configuration.
[[nodiscard]] std::unique_ptr<core::FcOutputPolicy> make_fc_policy(
    PolicyKind kind, const ExperimentConfig& config);

/// Build the paper's predictive DPM policy for a configuration.
[[nodiscard]] dpm::PredictiveDpmPolicy make_dpm_policy(
    const ExperimentConfig& config);

/// Build the hybrid source (linear paper efficiency + lossless supercap
/// of the configured capacity).
[[nodiscard]] power::HybridPowerSource make_hybrid(
    const ExperimentConfig& config);

/// Run one policy through the configured experiment.
[[nodiscard]] SimulationResult run_policy(PolicyKind kind,
                                          const ExperimentConfig& config);

/// All of Table 2/3's columns in one shot, same trace and settings.
struct PolicyComparison {
  SimulationResult conv;
  SimulationResult asap;
  SimulationResult fcdpm;
};

[[nodiscard]] PolicyComparison compare_policies(
    const ExperimentConfig& config);

}  // namespace fcdpm::sim
