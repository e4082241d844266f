#include "sim/slot_simulator.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.hpp"
#include "workload/camcorder.hpp"

namespace fcdpm::sim {
namespace {

using core::AsapFcPolicy;
using core::ConvFcPolicy;
using core::FcDpmPolicy;
using dpm::DevicePowerModel;
using dpm::PredictiveDpmPolicy;
using power::HybridPowerSource;
using power::LinearEfficiencyModel;
using power::LinearFuelSource;
using power::SuperCapacitor;
using wl::Trace;

LinearEfficiencyModel model() {
  return LinearEfficiencyModel::paper_default();
}

HybridPowerSource lossless_hybrid(double capacity) {
  return HybridPowerSource(
      std::make_unique<LinearFuelSource>(model()),
      std::make_unique<SuperCapacitor>(Coulomb(capacity), 1.0));
}

PredictiveDpmPolicy paper_dpm() {
  return PredictiveDpmPolicy::paper_policy(
      DevicePowerModel::dvd_camcorder(), 0.5, Seconds(10.0));
}

Trace one_slot_trace() {
  return Trace("one", {{Seconds(10.0), Seconds(3.03), Watt(14.65)}});
}

TEST(SlotSimulator, ConvFuelIsMaxRateTimesDuration) {
  Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(1000.0);

  const SimulationResult r = simulate(trace, dpm, conv, hybrid);
  // Slot duration: 10 idle + (1.5 + 3.03 + 0.5) active-effective.
  const double duration = 10.0 + 5.03;
  EXPECT_NEAR(r.totals.duration.value(), duration, 1e-9);
  // Conv burns g(1.2) = 1.306 A for the whole run.
  EXPECT_NEAR(r.fuel().value(), 1.30612 * duration, 1e-2);
}

TEST(SlotSimulator, SleepDecisionFollowsPredictor) {
  // Initial prediction 10 s >= Tbe = 1 s: the single idle sleeps.
  Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(1000.0);
  const SimulationResult r = simulate(trace, dpm, conv, hybrid);
  EXPECT_EQ(r.sleeps, 1u);
  ASSERT_TRUE(r.idle_accuracy.has_value());
  EXPECT_EQ(r.idle_accuracy->total(), 1u);
}

TEST(SlotSimulator, AsapFollowsLoadSegments) {
  Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  AsapFcPolicy asap(model());
  HybridPowerSource hybrid = lossless_hybrid(1000.0);

  SimulationOptions options;
  options.record_profiles = true;
  options.initial_storage = Coulomb(-1.0);  // full: no recharge burst
  const SimulationResult r = simulate(trace, dpm, asap, hybrid, options);
  ASSERT_TRUE(r.profiles.has_value());
  const StepSeries& fc = r.profiles->fc_output();
  // During the sleep stretch the FC follows 0.2 A; during the active
  // burst it follows the (clamped) run current 1.2 A.
  EXPECT_NEAR(fc.sample(Seconds(5.0)), 0.2, 1e-9);
  EXPECT_NEAR(fc.sample(Seconds(12.0)), 1.2, 1e-9);
}

TEST(SlotSimulator, LoadProfileMatchesDevicePlan) {
  Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(1000.0);

  SimulationOptions options;
  options.record_profiles = true;
  const SimulationResult r = simulate(trace, dpm, conv, hybrid, options);
  const StepSeries& load = r.profiles->load_current();
  // Power-down transition at t=0.25, sleep mid-idle, run burst later.
  EXPECT_NEAR(load.sample(Seconds(0.25)), 4.84 / 12.0, 1e-9);
  EXPECT_NEAR(load.sample(Seconds(5.0)), 0.2, 1e-9);
  EXPECT_NEAR(load.sample(Seconds(12.0)), 14.65 / 12.0, 1e-9);
}

TEST(SlotSimulator, FcDpmProducesFlatterProfileThanAsap) {
  const Trace trace = wl::paper_camcorder_trace().truncated(Seconds(300.0));

  PredictiveDpmPolicy dpm1 = paper_dpm();
  AsapFcPolicy asap(model());
  HybridPowerSource h1 = lossless_hybrid(6.0);
  SimulationOptions options;
  options.record_profiles = true;
  const SimulationResult ra = simulate(trace, dpm1, asap, h1, options);

  PredictiveDpmPolicy dpm2 = paper_dpm();
  FcDpmPolicy fcdpm = FcDpmPolicy::paper_policy(
      model(), DevicePowerModel::dvd_camcorder(), 0.5, Seconds(5.0),
      Ampere(14.65 / 12.0));
  HybridPowerSource h2 = lossless_hybrid(6.0);
  const SimulationResult rf = simulate(trace, dpm2, fcdpm, h2, options);

  // Variance of the FC output: FC-DPM must be much flatter (Figure 7).
  const auto variance_of = [](const StepSeries& s) {
    const double mu = s.time_average();
    double acc = 0.0;
    double total = 0.0;
    const auto& pts = s.points();
    for (std::size_t k = 0; k < pts.size(); ++k) {
      const double stop = (k + 1 < pts.size()) ? pts[k + 1].time.value()
                                               : s.end_time().value();
      const double span = stop - pts[k].time.value();
      acc += span * (pts[k].value - mu) * (pts[k].value - mu);
      total += span;
    }
    return acc / total;
  };
  EXPECT_LT(variance_of(rf.profiles->fc_output()),
            0.25 * variance_of(ra.profiles->fc_output()));
}

TEST(SlotSimulator, StorageStaysWithinBounds) {
  const Trace trace = wl::paper_camcorder_trace().truncated(Seconds(600.0));
  PredictiveDpmPolicy dpm = paper_dpm();
  FcDpmPolicy fcdpm = FcDpmPolicy::paper_policy(
      model(), DevicePowerModel::dvd_camcorder(), 0.5, Seconds(5.0),
      Ampere(14.65 / 12.0));
  HybridPowerSource hybrid = lossless_hybrid(6.0);
  const SimulationResult r = simulate(trace, dpm, fcdpm, hybrid);
  EXPECT_GE(r.storage_min.value(), -1e-9);
  EXPECT_LE(r.storage_max.value(), 6.0 + 1e-9);
}

TEST(SlotSimulator, SlotRecordsWhenRequested) {
  const Trace trace = wl::paper_camcorder_trace().truncated(Seconds(120.0));
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(1000.0);
  SimulationOptions options;
  options.keep_slot_records = true;
  const SimulationResult r = simulate(trace, dpm, conv, hybrid, options);
  ASSERT_EQ(r.slot_records.size(), trace.size());
  Coulomb total{0.0};
  for (const SlotRecord& record : r.slot_records) {
    total += record.fuel;
    EXPECT_NEAR(record.if_active.value(), 1.2, 1e-9);
  }
  EXPECT_NEAR(total.value(), r.fuel().value(), 1e-6);
}

TEST(SlotSimulator, InitialStorageOptionRespected) {
  Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(100.0);
  SimulationOptions options;
  options.initial_storage = Coulomb(25.0);
  const SimulationResult r = simulate(trace, dpm, conv, hybrid, options);
  EXPECT_DOUBLE_EQ(r.storage_initial.value(), 25.0);
}

TEST(SlotSimulator, DefaultInitialStorageIsEmpty) {
  // FC-DPM pins Cend to Cini(1); an empty start gives its idle-phase
  // charging full headroom (the paper's motivational example uses
  // Cini = 0).
  Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(100.0);
  const SimulationResult r = simulate(trace, dpm, conv, hybrid);
  EXPECT_DOUBLE_EQ(r.storage_initial.value(), 0.0);
  // "Start full" remains available through the negative sentinel.
  HybridPowerSource hybrid2 = lossless_hybrid(100.0);
  PredictiveDpmPolicy dpm2 = paper_dpm();
  SimulationOptions options;
  options.initial_storage = Coulomb(-1.0);
  const SimulationResult full =
      simulate(trace, dpm2, conv, hybrid2, options);
  EXPECT_DOUBLE_EQ(full.storage_initial.value(), 100.0);
}

TEST(SlotSimulator, EmptyTraceProducesEmptyResult) {
  Trace trace("empty", {});
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(10.0);
  const SimulationResult r = simulate(trace, dpm, conv, hybrid);
  EXPECT_EQ(r.slots, 0u);
  EXPECT_DOUBLE_EQ(r.fuel().value(), 0.0);
}

TEST(SlotSimulator, AsapRechargeSplitStopsAtFull) {
  // Drain the buffer below half, then give ASAP a long idle: it must
  // recharge at 1.2 A, stop exactly at full, and bleed nothing.
  Trace trace("recharge", {{Seconds(60.0), Seconds(3.03), Watt(14.65)}});
  PredictiveDpmPolicy dpm = paper_dpm();
  AsapFcPolicy asap(model());
  HybridPowerSource hybrid = lossless_hybrid(6.0);
  SimulationOptions options;
  options.initial_storage = Coulomb(1.0);  // below half
  const SimulationResult r = simulate(trace, dpm, asap, hybrid, options);
  EXPECT_NEAR(r.storage_max.value(), 6.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.totals.bled.value(), 0.0);
}

TEST(SlotSimulator, KineticBatteryBufferWorksInTheLoop) {
  // Swap the supercap for a KiBaM battery: its recovery dynamics run
  // through ChargeStorage::advance() inside every segment. The run must
  // stay physical (no negative storage, bounded fuel) and the battery's
  // rate limit shows up as a little unserved charge at worst.
  const Trace trace = wl::paper_camcorder_trace().truncated(Seconds(300.0));
  PredictiveDpmPolicy dpm = paper_dpm();
  FcDpmPolicy fcdpm = FcDpmPolicy::paper_policy(
      model(), DevicePowerModel::dvd_camcorder(), 0.5, Seconds(5.0),
      Ampere(14.65 / 12.0));

  // The available well must hold the active-phase draw (~4 A-s), or the
  // rate-limited battery browns out where a supercap would not — the
  // paper's Section 1 observation about power vs energy density.
  power::KineticBattery::Params params;
  params.total_capacity = Coulomb(12.0);
  params.available_fraction = 0.7;
  params.recovery_rate_per_s = 0.3;
  HybridPowerSource hybrid(
      std::make_unique<power::LinearFuelSource>(model()),
      std::make_unique<power::KineticBattery>(params));

  SimulationOptions options;
  options.initial_storage = Coulomb(2.0);
  const SimulationResult r = simulate(trace, dpm, fcdpm, hybrid, options);
  EXPECT_GT(r.fuel().value(), 0.0);
  EXPECT_GE(r.storage_min.value(), -1e-9);
  EXPECT_LE(r.storage_max.value(), 12.0 + 1e-9);
  // The battery's rate gate may brown out slightly vs the supercap, but
  // not catastrophically.
  const double delivered = r.totals.delivered_energy.value() / 12.0;
  EXPECT_LT(r.totals.unserved.value(), 0.05 * delivered);
}

TEST(SlotSimulator, ProfileLimitTruncatesRecordingOnly) {
  const Trace trace = wl::paper_camcorder_trace().truncated(Seconds(400.0));
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(1000.0);
  SimulationOptions options;
  options.record_profiles = true;
  options.profile_limit = Seconds(100.0);
  const SimulationResult r = simulate(trace, dpm, conv, hybrid, options);
  ASSERT_TRUE(r.profiles.has_value());
  EXPECT_NEAR(r.profiles->load_current().end_time().value(), 100.0, 1e-9);
  // The simulation itself ran the full trace.
  EXPECT_GT(r.totals.duration.value(), 390.0);
}

TEST(SlotSimulator, PreserveSourceStateAccumulatesTotals) {
  const Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  HybridPowerSource hybrid = lossless_hybrid(100.0);

  SimulationOptions first;
  first.initial_storage = Coulomb(10.0);
  const SimulationResult a = simulate(trace, dpm, conv, hybrid, first);

  SimulationOptions continued = first;
  continued.preserve_source_state = true;
  const SimulationResult b =
      simulate(trace, dpm, conv, hybrid, continued);

  // Totals carry across the second pass instead of resetting.
  EXPECT_NEAR(b.totals.duration.value(), 2.0 * a.totals.duration.value(),
              1e-9);
  EXPECT_NEAR(b.fuel().value(), 2.0 * a.fuel().value(), 1e-6);
  // The preserved run starts from the storage level the first left.
  EXPECT_DOUBLE_EQ(b.storage_initial.value(), a.storage_end.value());
}

TEST(SlotSimulator, PaperHybridConvenienceRuns) {
  Trace trace = one_slot_trace();
  PredictiveDpmPolicy dpm = paper_dpm();
  ConvFcPolicy conv(model());
  power::HybridPowerSource hybrid = power::HybridPowerSource::paper_hybrid();
  const SimulationResult r = simulate(trace, dpm, conv, hybrid);
  EXPECT_GT(r.fuel().value(), 0.0);
  EXPECT_EQ(r.fc_policy, "Conv-DPM");
  EXPECT_EQ(r.trace_name, "one");
}

}  // namespace
}  // namespace fcdpm::sim
