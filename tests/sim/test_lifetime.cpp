#include "sim/lifetime.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "sim/experiments.hpp"
#include "workload/camcorder.hpp"

namespace fcdpm::sim {
namespace {

LifetimeResult measure(PolicyKind kind, Coulomb tank,
                       Seconds trace_length = Seconds(120.0)) {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(trace_length);
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(kind, config);
  power::HybridPowerSource hybrid = make_hybrid(config);

  LifetimeOptions options;
  options.tank = tank;
  options.simulation = config.simulation;
  options.simulation.initial_storage = config.initial_storage;
  return measure_lifetime(config.trace, dpm_policy, *fc, hybrid, options);
}

TEST(Lifetime, TankEmptiesAndLifetimeIsPositive) {
  const LifetimeResult r = measure(PolicyKind::Conv, Coulomb(500.0));
  EXPECT_TRUE(r.tank_emptied);
  EXPECT_GT(r.lifetime.value(), 0.0);
  EXPECT_GT(r.passes, 1u);
  EXPECT_GT(r.slots_completed, 0u);
}

TEST(Lifetime, ConvLifetimeMatchesClosedForm) {
  // Conv burns a constant 1.306 A: lifetime = tank / 1.306 exactly.
  const LifetimeResult r = measure(PolicyKind::Conv, Coulomb(500.0));
  EXPECT_NEAR(r.lifetime.value(), 500.0 / 1.30612, 1.0);
  EXPECT_NEAR(r.average_fuel_current.value(), 1.306, 1e-2);
}

TEST(Lifetime, OrderingMatchesFuelOrdering) {
  const Coulomb tank(500.0);
  const LifetimeResult conv = measure(PolicyKind::Conv, tank);
  const LifetimeResult asap = measure(PolicyKind::Asap, tank);
  const LifetimeResult fcdpm = measure(PolicyKind::FcDpm, tank);
  EXPECT_GT(asap.lifetime.value(), conv.lifetime.value());
  EXPECT_GT(fcdpm.lifetime.value(), asap.lifetime.value());
}

TEST(Lifetime, ExtensionFactorAgreesWithSteadyStateFuelRatio) {
  // The paper's equivalence: lifetime is inversely proportional to fuel
  // consumption — in steady state (a single short pass still carries
  // warm-up transients: cold predictors, initial buffer fill). Build a
  // long looped trace, take its fuel ratio, and compare against the
  // directly measured lifetime ratio.
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0)).repeated(12);
  const SimulationResult asap_run = run_policy(PolicyKind::Asap, config);
  const SimulationResult fcdpm_run =
      run_policy(PolicyKind::FcDpm, config);
  const double fuel_ratio =
      asap_run.fuel().value() / fcdpm_run.fuel().value();

  const Coulomb tank(800.0);
  const LifetimeResult asap = measure(PolicyKind::Asap, tank);
  const LifetimeResult fcdpm = measure(PolicyKind::FcDpm, tank);
  const double lifetime_ratio =
      fcdpm.lifetime.value() / asap.lifetime.value();

  EXPECT_NEAR(lifetime_ratio, fuel_ratio, 0.03 * fuel_ratio);
}

TEST(Lifetime, BiggerTankLastsProportionallyLonger) {
  const LifetimeResult small = measure(PolicyKind::FcDpm, Coulomb(300.0));
  const LifetimeResult large = measure(PolicyKind::FcDpm, Coulomb(900.0));
  EXPECT_NEAR(large.lifetime.value() / small.lifetime.value(), 3.0, 0.1);
}

TEST(Lifetime, MaxPassesCapsTheSearch) {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(60.0));
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::Conv, config);
  power::HybridPowerSource hybrid = make_hybrid(config);

  LifetimeOptions options;
  options.tank = Coulomb(1e9);  // effectively infinite
  options.max_passes = 3;
  const LifetimeResult r =
      measure_lifetime(config.trace, dpm_policy, *fc, hybrid, options);
  EXPECT_FALSE(r.tank_emptied);
  EXPECT_EQ(r.passes, 3u);
  EXPECT_GT(r.lifetime.value(), 0.0);
}

TEST(Lifetime, RejectsBadInput) {
  ExperimentConfig config = experiment1_config();
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::Conv, config);
  power::HybridPowerSource hybrid = make_hybrid(config);

  LifetimeOptions options;
  options.tank = Coulomb(0.0);
  EXPECT_THROW((void)measure_lifetime(config.trace, dpm_policy, *fc,
                                      hybrid, options),
               PreconditionError);

  options.tank = Coulomb(10.0);
  const wl::Trace empty("empty", {});
  EXPECT_THROW(
      (void)measure_lifetime(empty, dpm_policy, *fc, hybrid, options),
      PreconditionError);
}

// --- resolve_crossing --------------------------------------------------------

SlotRecord make_record(double span, double fuel_end) {
  SlotRecord record;
  record.idle = Seconds(span * 0.6);
  record.active = Seconds(span * 0.4);
  record.fuel_end = Coulomb(fuel_end);
  return record;
}

TEST(ResolveCrossing, InterpolatesInsideTheCrossingSlot) {
  const std::vector<SlotRecord> records = {make_record(5.0, 10.0),
                                           make_record(5.0, 20.0)};
  const CrossingPoint point =
      resolve_crossing(records, Coulomb(0.0), Coulomb(15.0));
  EXPECT_TRUE(point.crossed);
  EXPECT_EQ(point.slots_completed, 1u);
  EXPECT_DOUBLE_EQ(point.elapsed_in_pass.value(), 7.5);
}

TEST(ResolveCrossing, ZeroSpanRecordsYieldAFiniteZeroCrossing) {
  // Degenerate records (no simulated time, fuel still attributed): the
  // walk must cross at time zero rather than divide by a zero span —
  // and the caller's average-current guard turns the 0-lifetime case
  // into 0 A, never Inf.
  const std::vector<SlotRecord> records = {make_record(0.0, 4.0)};
  const CrossingPoint point =
      resolve_crossing(records, Coulomb(0.0), Coulomb(2.0));
  EXPECT_TRUE(point.crossed);
  EXPECT_EQ(point.slots_completed, 0u);
  EXPECT_EQ(point.elapsed_in_pass.value(), 0.0);
  EXPECT_TRUE(std::isfinite(point.elapsed_in_pass.value()));
}

TEST(ResolveCrossing, ReportsWhenTheTankIsNeverReached) {
  const std::vector<SlotRecord> records = {make_record(5.0, 10.0)};
  const CrossingPoint point =
      resolve_crossing(records, Coulomb(0.0), Coulomb(50.0));
  EXPECT_FALSE(point.crossed);
  EXPECT_EQ(point.slots_completed, 1u);
}

TEST(ResolveCrossing, CrossesOnExactTankEqualityAtTheFinalRecord) {
  // The lifetime loop detects emptiness with `fuel_cum + pass_fuel >=
  // tank` and the last record carries `fuel_end == pass_fuel` — when the
  // sum equals the tank exactly, the walk must still cross. (The old
  // walk re-summed per-slot `fuel` deltas, a *different* series whose
  // rounding can land one ulp short and miss the crossing entirely.)
  const double fuel_start = 75.186978448148267;  // one real ASAP pass
  const std::vector<SlotRecord> records = {make_record(5.0, 30.0),
                                           make_record(5.0, 69.38048906734663)};
  const Coulomb tank = Coulomb(fuel_start) + records.back().fuel_end;
  const CrossingPoint point =
      resolve_crossing(records, Coulomb(fuel_start), tank);
  EXPECT_TRUE(point.crossed);
  EXPECT_EQ(point.slots_completed, 1u);
}

// --- lifetime accounting regressions -----------------------------------------

// Bugfix regression: the crossing walk must read the same cumulative
// fuel series as the emptiness test. The old implementation re-summed
// per-slot `record.fuel` deltas from the multi-pass base; accumulated
// rounding let that re-sum fall one ulp short of the pass total, the
// walk ran off the end of the records, and the run was credited a full
// extra slot (and its span). This test places the tank exactly at the
// end of a pass where the drift manifests and pins the correct count.
TEST(Lifetime, CrossingWalkReconcilesWithTheEmptinessSeries) {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));

  // Reference runs replicating measure_lifetime's pass-local
  // accounting, records on (records never feed back into the
  // arithmetic). Find a pass where the telescoped re-sum of
  // `record.fuel` from the pre-pass base misses the pass-end tank.
  dpm::PredictiveDpmPolicy ref_dpm = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> ref_fc =
      make_fc_policy(PolicyKind::Asap, config);
  power::HybridPowerSource ref_hybrid = make_hybrid(config);
  SimulationOptions sim_options = config.simulation;
  sim_options.initial_storage = config.initial_storage;
  sim_options.keep_slot_records = true;

  Coulomb fuel_cum{0.0};
  Coulomb tank{0.0};
  std::size_t crossing_pass = 0;
  std::size_t expected_slots = 0;
  std::size_t slots_before = 0;
  for (std::size_t pass = 1; pass <= 64 && crossing_pass == 0; ++pass) {
    const SimulationResult r =
        simulate(config.trace, ref_dpm, *ref_fc, ref_hybrid, sim_options);
    sim_options.preserve_source_state = true;
    const Coulomb pass_fuel = ref_hybrid.totals().fuel;
    const Coulomb pass_tank = fuel_cum + pass_fuel;
    // Old walk: telescoped deltas from the multi-pass base.
    double walk = fuel_cum.value();
    bool old_walk_crosses = false;
    for (const SlotRecord& record : r.slot_records) {
      if (walk + record.fuel.value() < pass_tank.value()) {
        walk += record.fuel.value();
        continue;
      }
      old_walk_crosses = true;
      break;
    }
    if (!old_walk_crosses) {
      crossing_pass = pass;
      tank = pass_tank;
      // Correct count: every slot of every prior pass, plus all but the
      // final (crossing) slot of this pass.
      expected_slots = slots_before + r.slots - 1;
    }
    slots_before += r.slots;
    fuel_cum = pass_tank;
    ref_hybrid.reset_totals();
  }
  if (crossing_pass == 0) {
    GTEST_SKIP() << "telescoped-sum drift does not manifest on this "
                    "platform's floating-point";
  }

  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::Asap, config);
  power::HybridPowerSource hybrid = make_hybrid(config);
  LifetimeOptions options;
  options.tank = tank;
  options.simulation = config.simulation;
  options.simulation.initial_storage = config.initial_storage;
  const LifetimeResult r =
      measure_lifetime(config.trace, dpm_policy, *fc, hybrid, options);

  EXPECT_TRUE(r.tank_emptied);
  EXPECT_EQ(r.passes, crossing_pass);
  // The old walk missed the crossing and credited the full pass
  // (expected_slots + 1); the fuel_end series is guaranteed to cross.
  EXPECT_EQ(r.slots_completed, expected_slots);
  EXPECT_EQ(r.record_passes, 1u);
  EXPECT_GT(r.lifetime.value(), 0.0);
  EXPECT_TRUE(std::isfinite(r.average_fuel_current.value()));
}

// Bugfix regression: slot records are kept only for the crossing pass
// (re-run from a snapshot), not for every pass of the whole search.
TEST(Lifetime, RecordsAreKeptOnlyForTheCrossingPass) {
  const LifetimeResult emptied = measure(PolicyKind::FcDpm, Coulomb(500.0));
  EXPECT_TRUE(emptied.tank_emptied);
  EXPECT_EQ(emptied.record_passes, 1u);
  EXPECT_EQ(emptied.passes,
            emptied.simulated_passes + emptied.extrapolated_passes);

  // A search that never empties the tank keeps records for no pass.
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(60.0));
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::Conv, config);
  power::HybridPowerSource hybrid = make_hybrid(config);
  LifetimeOptions options;
  options.tank = Coulomb(1e9);
  options.max_passes = 3;
  const LifetimeResult capped =
      measure_lifetime(config.trace, dpm_policy, *fc, hybrid, options);
  EXPECT_EQ(capped.record_passes, 0u);
}

// --- steady-state fast path --------------------------------------------------

TEST(Lifetime, SteadyStateFastPathIsBitIdenticalToBruteForce) {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));

  LifetimeResult results[2];
  for (const bool fast : {false, true}) {
    dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc =
        make_fc_policy(PolicyKind::FcDpm, config);
    power::HybridPowerSource hybrid = make_hybrid(config);
    LifetimeOptions options;
    options.tank = Coulomb(3000.0);
    options.simulation = config.simulation;
    options.simulation.initial_storage = config.initial_storage;
    options.steady_state = fast;
    results[fast ? 1 : 0] =
        measure_lifetime(config.trace, dpm_policy, *fc, hybrid, options);
  }
  const LifetimeResult& brute = results[0];
  const LifetimeResult& fast = results[1];

  EXPECT_TRUE(brute.tank_emptied);
  EXPECT_TRUE(fast.tank_emptied);
  EXPECT_EQ(fast.lifetime.value(), brute.lifetime.value());
  EXPECT_EQ(fast.passes, brute.passes);
  EXPECT_EQ(fast.slots_completed, brute.slots_completed);
  EXPECT_EQ(fast.average_fuel_current.value(),
            brute.average_fuel_current.value());
  // The point of the fast path: most passes were answered arithmetically.
  EXPECT_EQ(brute.extrapolated_passes, 0u);
  EXPECT_GT(fast.extrapolated_passes, 0u);
  EXPECT_LT(fast.simulated_passes, brute.simulated_passes);
}

TEST(Lifetime, FastPathIsDisabledUnderFaultInjection) {
  // Faults live on the absolute timeline; extrapolated passes would
  // jump future fault windows, so the fast path must stand down.
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::FcDpm, config);
  power::HybridPowerSource hybrid = make_hybrid(config);

  fault::FaultInjector injector{
      fault::FaultSchedule::random_storm(11, 6, Seconds(2000.0))};
  LifetimeOptions options;
  options.tank = Coulomb(1500.0);
  options.simulation = config.simulation;
  options.simulation.initial_storage = config.initial_storage;
  options.simulation.faults = &injector;
  const LifetimeResult r =
      measure_lifetime(config.trace, dpm_policy, *fc, hybrid, options);
  EXPECT_TRUE(r.tank_emptied);
  EXPECT_EQ(r.extrapolated_passes, 0u);
  EXPECT_EQ(r.passes, r.simulated_passes);
}

// --- the tank as a fuel gauge ------------------------------------------------
// A finite tank drained by a run's cumulative fuel series: where it runs
// dry (resolve_crossing) and how long it lasts (measure_lifetime).

TEST(FuelGauge, ConsumeTracksRemaining) {
  // 20 A-s burned out of a 100 A-s tank: no crossing, the slot completes.
  const std::vector<SlotRecord> records = {make_record(10.0, 20.0)};
  const CrossingPoint fresh =
      resolve_crossing(records, Coulomb(0.0), Coulomb(100.0));
  EXPECT_FALSE(fresh.crossed);
  EXPECT_EQ(fresh.slots_completed, 1u);
  EXPECT_DOUBLE_EQ(fresh.elapsed_in_pass.value(), 10.0);
  // With 80 A-s already burned the same slot empties the tank at its end.
  const CrossingPoint last =
      resolve_crossing(records, Coulomb(80.0), Coulomb(100.0));
  EXPECT_TRUE(last.crossed);
  EXPECT_EQ(last.slots_completed, 0u);
  EXPECT_DOUBLE_EQ(last.elapsed_in_pass.value(), 10.0);
}

TEST(FuelGauge, RunsDryMidSegment) {
  // 2 A for 10 s against 10 A-s: dry after 5 s; later slots never run.
  const std::vector<SlotRecord> records = {make_record(10.0, 20.0),
                                           make_record(10.0, 25.0)};
  const CrossingPoint point =
      resolve_crossing(records, Coulomb(0.0), Coulomb(10.0));
  EXPECT_TRUE(point.crossed);
  EXPECT_EQ(point.slots_completed, 0u);
  EXPECT_DOUBLE_EQ(point.elapsed_in_pass.value(), 5.0);
}

TEST(FuelGauge, ZeroCurrentCostsNothing) {
  // Slots that burn nothing (FC idled) never empty the tank.
  const std::vector<SlotRecord> records = {make_record(100.0, 0.0),
                                           make_record(100.0, 0.0)};
  const CrossingPoint point =
      resolve_crossing(records, Coulomb(0.0), Coulomb(10.0));
  EXPECT_FALSE(point.crossed);
  EXPECT_EQ(point.slots_completed, 2u);
  EXPECT_DOUBLE_EQ(point.elapsed_in_pass.value(), 200.0);
}

TEST(FuelGauge, ResetRestoresCapacity) {
  // The crossing depends only on the fuel burned before the pass: a full
  // tank lasts the whole 5 s again after a nearly empty one.
  const std::vector<SlotRecord> records = {make_record(10.0, 20.0)};
  EXPECT_DOUBLE_EQ(
      resolve_crossing(records, Coulomb(9.0), Coulomb(10.0))
          .elapsed_in_pass.value(),
      0.5);
  EXPECT_DOUBLE_EQ(
      resolve_crossing(records, Coulomb(0.0), Coulomb(10.0))
          .elapsed_in_pass.value(),
      5.0);
}

TEST(FuelGauge, RejectsBadInput) {
  ExperimentConfig config = experiment1_config();
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::Conv, config);
  power::HybridPowerSource hybrid = make_hybrid(config);
  LifetimeOptions options;
  options.tank = Coulomb(-1.0);
  EXPECT_THROW((void)measure_lifetime(config.trace, dpm_policy, *fc,
                                      hybrid, options),
               PreconditionError);
  options.tank = Coulomb(10.0);
  options.convergence_passes = 0;
  EXPECT_THROW((void)measure_lifetime(config.trace, dpm_policy, *fc,
                                      hybrid, options),
               PreconditionError);
}

TEST(Lifetime, InverselyProportionalToBurnRate) {
  // The paper's core lifetime argument: lifetime = fuel / average Ifc.
  const Coulomb tank(500.0);
  const LifetimeResult conv = measure(PolicyKind::Conv, tank);
  const LifetimeResult fcdpm = measure(PolicyKind::FcDpm, tank);
  EXPECT_GT(fcdpm.lifetime, conv.lifetime);
  for (const LifetimeResult* r : {&conv, &fcdpm}) {
    EXPECT_NEAR((r->average_fuel_current * r->lifetime).value(), 500.0,
                1e-9);
  }
  EXPECT_NEAR(fcdpm.lifetime / conv.lifetime,
              conv.average_fuel_current / fcdpm.average_fuel_current, 1e-9);
}

// --- projecting the remaining lifetime ---------------------------------------
// What a device's runtime gauge shows: the time a tank lasts at the burn
// rate the policies settle into.

TEST(RemainingLifetime, ProjectsConstantBurnExactly) {
  // Conv burns at a constant rate, so the time left in a tank scales
  // exactly with the fuel left in it.
  const LifetimeResult one = measure(PolicyKind::Conv, Coulomb(500.0));
  const LifetimeResult two = measure(PolicyKind::Conv, Coulomb(1000.0));
  EXPECT_NEAR(two.lifetime.value(), 2.0 * one.lifetime.value(),
              1e-6 * one.lifetime.value());
}

TEST(RemainingLifetime, SmoothingTracksRateChanges) {
  // Warm-up passes (cold predictors, initial buffer fill) burn at another
  // rate than the steady state; the bigger the tank, the closer its
  // average current lies to the steady-state rate.
  const double settled =
      measure(PolicyKind::FcDpm, Coulomb(20000.0)).average_fuel_current.value();
  const double small =
      measure(PolicyKind::FcDpm, Coulomb(20.0)).average_fuel_current.value();
  const double large =
      measure(PolicyKind::FcDpm, Coulomb(2000.0)).average_fuel_current.value();
  EXPECT_LT(std::abs(large - settled), std::abs(small - settled));
}

TEST(RemainingLifetime, EmptiesWhenConsumedExceedsTank) {
  // A tank smaller than one pass's fuel empties inside the first pass,
  // which is the only (crossing) pass.
  const LifetimeResult r = measure(PolicyKind::Conv, Coulomb(3.0));
  EXPECT_TRUE(r.tank_emptied);
  EXPECT_EQ(r.passes, 1u);
  EXPECT_EQ(r.simulated_passes, 1u);
  EXPECT_GT(r.lifetime.value(), 0.0);
  EXPECT_LT(r.lifetime.value(), 120.0);
}

TEST(RemainingLifetime, ExtensionOverReference) {
  // Against Conv's constant burn at full output, 0.32 * 1.2 / (0.45 -
  // 0.13 * 1.2) A, FC-DPM's tank lasts reference / average times as
  // long: about 3.1x on this trace.
  const double reference = 0.32 * 1.2 / (0.45 - 0.13 * 1.2);
  const LifetimeResult fcdpm = measure(PolicyKind::FcDpm, Coulomb(500.0));
  const double extension = fcdpm.lifetime.value() / (500.0 / reference);
  EXPECT_NEAR(extension, reference / fcdpm.average_fuel_current.value(),
              1e-9 * extension);
  EXPECT_NEAR(extension, 3.09, 0.05);
}

TEST(RemainingLifetime, RequiresTelemetryBeforeProjection) {
  // No slot records, no crossing; no workload, no lifetime.
  const CrossingPoint point = resolve_crossing({}, Coulomb(0.0), Coulomb(10.0));
  EXPECT_FALSE(point.crossed);
  EXPECT_EQ(point.slots_completed, 0u);
  EXPECT_EQ(point.elapsed_in_pass.value(), 0.0);

  ExperimentConfig config = experiment1_config();
  dpm::PredictiveDpmPolicy dpm_policy = make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      make_fc_policy(PolicyKind::FcDpm, config);
  power::HybridPowerSource hybrid = make_hybrid(config);
  const wl::Trace empty("empty", {});
  EXPECT_THROW((void)measure_lifetime(empty, dpm_policy, *fc, hybrid,
                                      LifetimeOptions{}),
               PreconditionError);
}

TEST(RemainingLifetime, AgreesWithDirectLifetimeMeasurement) {
  // Ten tanks' worth of one pass's fuel lasts about ten passes.
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(300.0));
  const SimulationResult pass = run_policy(PolicyKind::FcDpm, config);
  const LifetimeResult r = measure(PolicyKind::FcDpm,
                                   Coulomb(10.0 * pass.fuel().value()),
                                   Seconds(300.0));
  const double expected = 10.0 * pass.totals.duration.value();
  EXPECT_NEAR(r.lifetime.value(), expected, 0.1 * expected);
}

}  // namespace
}  // namespace fcdpm::sim
