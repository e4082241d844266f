// Cross-validation property: the exact-integration slot simulator and the
// dt-stepped simulator must agree on fuel and storage to within O(dt) for
// every policy. This exercises the segment-splitting logic (ASAP's
// recharge cut) and the piecewise-constant integration independently.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "sim/slot_simulator.hpp"
#include "sim/timed_simulator.hpp"
#include "workload/camcorder.hpp"
#include "workload/synthetic.hpp"

namespace fcdpm::sim {
namespace {

using core::AsapFcPolicy;
using core::ConvFcPolicy;
using core::FcDpmPolicy;
using core::FcOutputPolicy;
using dpm::DevicePowerModel;
using dpm::PredictiveDpmPolicy;
using power::HybridPowerSource;
using power::LinearEfficiencyModel;
using power::LinearFuelSource;
using power::SuperCapacitor;

struct AgreementCase {
  std::string policy;   // "conv" | "asap" | "fcdpm"
  std::string workload; // "camcorder" | "synthetic"
};

// Without this, gtest prints the case as raw bytes, which include the
// strings' heap pointers; the discovered test names would then change on
// every build.
void PrintTo(const AgreementCase& c, std::ostream* os) {
  *os << c.policy << "/" << c.workload;
}

std::unique_ptr<FcOutputPolicy> make_policy(const std::string& kind,
                                            const DevicePowerModel& device) {
  const LinearEfficiencyModel model =
      LinearEfficiencyModel::paper_default();
  if (kind == "conv") {
    return std::make_unique<ConvFcPolicy>(model);
  }
  if (kind == "asap") {
    return std::make_unique<AsapFcPolicy>(model);
  }
  return std::make_unique<FcDpmPolicy>(FcDpmPolicy::paper_policy(
      model, device, 0.5, Seconds(5.0), Ampere(1.2)));
}

class TimedVsSlot : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(TimedVsSlot, FuelAndStorageAgree) {
  const AgreementCase c = GetParam();

  wl::Trace trace;
  DevicePowerModel device;
  if (c.workload == "camcorder") {
    trace = wl::paper_camcorder_trace().truncated(Seconds(240.0));
    device = DevicePowerModel::dvd_camcorder();
  } else {
    wl::SyntheticConfig config;
    config.slot_count = 12;
    trace = wl::generate_synthetic_trace(config);
    device = DevicePowerModel::experiment2_device();
  }

  PredictiveDpmPolicy dpm_a =
      PredictiveDpmPolicy::paper_policy(device, 0.5, Seconds(10.0));
  PredictiveDpmPolicy dpm_b =
      PredictiveDpmPolicy::paper_policy(device, 0.5, Seconds(10.0));
  const std::unique_ptr<FcOutputPolicy> fc_a = make_policy(c.policy, device);
  const std::unique_ptr<FcOutputPolicy> fc_b = make_policy(c.policy, device);

  HybridPowerSource hybrid_a(
      std::make_unique<LinearFuelSource>(
          LinearEfficiencyModel::paper_default()),
      std::make_unique<SuperCapacitor>(Coulomb(6.0), 1.0));
  HybridPowerSource hybrid_b = hybrid_a.clone();

  const SimulationResult exact = simulate(trace, dpm_a, *fc_a, hybrid_a);

  TimedOptions timed;
  timed.timestep = Seconds(0.005);
  const SimulationResult stepped =
      simulate_timed(trace, dpm_b, *fc_b, hybrid_b, timed);

  EXPECT_NEAR(exact.totals.duration.value(),
              stepped.totals.duration.value(), 1e-6);
  // Fuel within 0.5 % — dt discretization plus policy re-query jitter.
  EXPECT_NEAR(stepped.fuel().value(), exact.fuel().value(),
              0.005 * exact.fuel().value());
  EXPECT_NEAR(stepped.storage_end.value(), exact.storage_end.value(), 0.15);
  EXPECT_EQ(stepped.sleeps, exact.sleeps);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TimedVsSlot,
    ::testing::Values(AgreementCase{"conv", "camcorder"},
                      AgreementCase{"asap", "camcorder"},
                      AgreementCase{"fcdpm", "camcorder"},
                      AgreementCase{"conv", "synthetic"},
                      AgreementCase{"asap", "synthetic"},
                      AgreementCase{"fcdpm", "synthetic"}),
    [](const ::testing::TestParamInfo<AgreementCase>& info) {
      return info.param.policy + "_" + info.param.workload;
    });

}  // namespace
}  // namespace fcdpm::sim
