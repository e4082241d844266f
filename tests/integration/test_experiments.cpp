// End-to-end reproduction tests: Tables 2 and 3 and the Section 3.2
// example, asserted at the *shape* level (orderings, rough factors,
// crossovers) per EXPERIMENTS.md. Exact paper percentages depend on the
// authors' unpublished measured trace; our synthesized trace matches its
// published statistics.
#include <gtest/gtest.h>

#include <memory>

#include "sim/experiments.hpp"
#include "sim/slot_simulator.hpp"

namespace fcdpm {
namespace {

using sim::ExperimentConfig;
using sim::PolicyKind;
using sim::SimulationResult;

struct Experiment {
  SimulationResult conv;
  SimulationResult asap;
  SimulationResult fcdpm;
  SimulationResult oracle;
};

const Experiment& experiment1() {
  static const Experiment cached = [] {
    const ExperimentConfig config = sim::experiment1_config();
    return Experiment{sim::run_policy(PolicyKind::Conv, config),
                      sim::run_policy(PolicyKind::Asap, config),
                      sim::run_policy(PolicyKind::FcDpm, config),
                      sim::run_policy(PolicyKind::Oracle, config)};
  }();
  return cached;
}

const Experiment& experiment2() {
  static const Experiment cached = [] {
    const ExperimentConfig config = sim::experiment2_config();
    return Experiment{sim::run_policy(PolicyKind::Conv, config),
                      sim::run_policy(PolicyKind::Asap, config),
                      sim::run_policy(PolicyKind::FcDpm, config),
                      sim::run_policy(PolicyKind::Oracle, config)};
  }();
  return cached;
}

// --- Table 2 (Experiment 1, camcorder) -----------------------------------------

TEST(Table2, PolicyOrderingMatchesPaper) {
  const Experiment& e = experiment1();
  EXPECT_LT(e.fcdpm.fuel().value(), e.asap.fuel().value());
  EXPECT_LT(e.asap.fuel().value(), e.conv.fuel().value());
}

TEST(Table2, AsapNormalizedFuelNearPaper) {
  // Paper: 40.8 %. Ours lands ~39 % (trace-synthesis tolerance).
  const Experiment& e = experiment1();
  const double normalized = sim::normalized_fuel(e.asap, e.conv);
  EXPECT_GT(normalized, 0.30);
  EXPECT_LT(normalized, 0.50);
}

TEST(Table2, FcDpmNormalizedFuelNearPaper) {
  // Paper: 30.8 %. Ours lands ~33 %.
  const Experiment& e = experiment1();
  const double normalized = sim::normalized_fuel(e.fcdpm, e.conv);
  EXPECT_GT(normalized, 0.25);
  EXPECT_LT(normalized, 0.40);
}

TEST(Table2, FcDpmSavesDoubleDigitFuelOverAsap) {
  // Paper: 24.4 % saving; ours ~15 % on the synthesized trace.
  const Experiment& e = experiment1();
  const double saving = sim::fuel_saving(e.fcdpm, e.asap);
  EXPECT_GT(saving, 0.10);
  EXPECT_LT(saving, 0.35);
}

TEST(Table2, LifetimeExtensionFactorAboveOneTenth) {
  // Paper: 1.32x; ours ~1.18x.
  const Experiment& e = experiment1();
  EXPECT_GT(sim::lifetime_extension(e.fcdpm, e.asap), 1.1);
}

TEST(Table2, FcDpmTracksTheOracleClosely) {
  // Prediction costs almost nothing on the camcorder's regular workload:
  // within 2 % of the clairvoyant setting.
  const Experiment& e = experiment1();
  EXPECT_GE(e.fcdpm.fuel().value(), e.oracle.fuel().value() - 1e-6);
  EXPECT_LT(e.fcdpm.fuel().value(), 1.02 * e.oracle.fuel().value());
}

TEST(Table2, CamcorderAlwaysSleeps) {
  // Idle 8-20 s vs Tbe = 1 s: the predictive policy must sleep in every
  // slot once warmed up.
  const Experiment& e = experiment1();
  EXPECT_EQ(e.fcdpm.sleeps, e.fcdpm.slots);
}

TEST(Table2, ConvBleedsMassively) {
  // The FC pinned at 1.2 A dumps most of its output: this is exactly why
  // Conv-DPM wastes fuel.
  const Experiment& e = experiment1();
  EXPECT_GT(e.conv.totals.bled.value(), 0.3 * e.conv.fuel().value());
  EXPECT_LT(e.fcdpm.totals.bled.value(), 0.01 * e.fcdpm.fuel().value());
}

TEST(Table2, UnservedChargeIsNegligible) {
  // Brownouts must stay under 1 % of delivered charge for every policy.
  const Experiment& e = experiment1();
  for (const SimulationResult* r : {&e.conv, &e.asap, &e.fcdpm, &e.oracle}) {
    const double delivered =
        r->totals.delivered_energy.value() / 12.0;  // bus charge
    EXPECT_LT(r->totals.unserved.value(), 0.01 * delivered)
        << r->fc_policy;
  }
}

TEST(Table2, AllPoliciesServeTheSameLoad) {
  const Experiment& e = experiment1();
  EXPECT_NEAR(e.asap.totals.load_energy.value(),
              e.conv.totals.load_energy.value(), 1.0);
  EXPECT_NEAR(e.fcdpm.totals.load_energy.value(),
              e.conv.totals.load_energy.value(), 1.0);
  EXPECT_NEAR(e.fcdpm.totals.duration.value(),
              e.conv.totals.duration.value(), 1e-6);
}

TEST(Table2, ComparisonHelperAgreesWithIndividualRuns) {
  const sim::PolicyComparison comparison =
      sim::compare_policies(sim::experiment1_config());
  const Experiment& e = experiment1();
  EXPECT_NEAR(comparison.conv.fuel().value(), e.conv.fuel().value(), 1e-9);
  EXPECT_NEAR(comparison.fcdpm.fuel().value(), e.fcdpm.fuel().value(),
              1e-9);
  EXPECT_DOUBLE_EQ(sim::normalized_fuel(comparison.conv, comparison.conv),
                   1.0);
  EXPECT_LT(sim::normalized_fuel(comparison.fcdpm, comparison.conv),
            sim::normalized_fuel(comparison.asap, comparison.conv));
}

// --- Table 3 (Experiment 2, synthetic) --------------------------------------------

TEST(Table3, PolicyOrderingMatchesPaper) {
  const Experiment& e = experiment2();
  EXPECT_LT(e.fcdpm.fuel().value(), e.asap.fuel().value());
  EXPECT_LT(e.asap.fuel().value(), e.conv.fuel().value());
}

TEST(Table3, NormalizedFuelsNearPaper) {
  // Paper: ASAP 49.1 %, FC-DPM 41.5 %. Ours: ~42 % and ~38 %.
  const Experiment& e = experiment2();
  const double asap = sim::normalized_fuel(e.asap, e.conv);
  const double fcdpm = sim::normalized_fuel(e.fcdpm, e.conv);
  EXPECT_GT(asap, 0.35);
  EXPECT_LT(asap, 0.55);
  EXPECT_GT(fcdpm, 0.30);
  EXPECT_LT(fcdpm, 0.50);
}

TEST(Table3, SavingSmallerThanExperimentOne) {
  // The paper's observation: Exp 2's saving (15.5 %) is smaller than
  // Exp 1's (24.4 %) because ASAP's current variance is smaller and the
  // average currents higher.
  const Experiment& e1 = experiment1();
  const Experiment& e2 = experiment2();
  const double saving1 = sim::fuel_saving(e1.fcdpm, e1.asap);
  const double saving2 = sim::fuel_saving(e2.fcdpm, e2.asap);
  EXPECT_GT(saving2, 0.04);
  EXPECT_LT(saving2, saving1);
}

TEST(Table3, SomeIdlesStayInStandby) {
  // Tbe ~= 10 s against idle U[5,25]: unlike the camcorder, a fraction
  // of idle periods must not sleep.
  const Experiment& e = experiment2();
  EXPECT_LT(e.fcdpm.sleeps, e.fcdpm.slots);
  EXPECT_GT(e.fcdpm.sleeps, e.fcdpm.slots / 2);
}

TEST(Table3, MispredictionsExistButAreBounded) {
  const Experiment& e = experiment2();
  ASSERT_TRUE(e.fcdpm.idle_accuracy.has_value());
  const dpm::PredictionAccuracy& acc = *e.fcdpm.idle_accuracy;
  EXPECT_GT(acc.false_sleeps() + acc.missed_sleeps(), 0u);
  EXPECT_GT(acc.decision_accuracy(), 0.5);
}

TEST(Table3, UnservedChargeIsNegligible) {
  const Experiment& e = experiment2();
  for (const SimulationResult* r : {&e.conv, &e.asap, &e.fcdpm}) {
    const double delivered = r->totals.delivered_energy.value() / 12.0;
    EXPECT_LT(r->totals.unserved.value(), 0.01 * delivered)
        << r->fc_policy;
  }
}

// --- Section 3.2 motivational example, end-to-end through the hybrid -----------------

TEST(MotivationalExample, EndToEndFuelNumbers) {
  using power::HybridPowerSource;
  using power::LinearEfficiencyModel;
  using power::LinearFuelSource;
  using power::SuperCapacitor;

  const auto run_setting = [](Ampere if_idle, Ampere if_active) {
    HybridPowerSource hybrid(
        std::make_unique<LinearFuelSource>(
            LinearEfficiencyModel::paper_default()),
        std::make_unique<SuperCapacitor>(Coulomb(200.0), 1.0));
    hybrid.reset(Coulomb(0.0));
    (void)hybrid.run_segment(Seconds(20.0), Ampere(0.2), if_idle);
    (void)hybrid.run_segment(Seconds(10.0), Ampere(1.2), if_active);
    return hybrid.totals().fuel.value();
  };

  const double conv = run_setting(Ampere(1.2), Ampere(1.2));
  const double asap = run_setting(Ampere(0.2), Ampere(1.2));
  const double flat =
      run_setting(Ampere(16.0 / 30.0), Ampere(16.0 / 30.0));

  EXPECT_NEAR(conv, 39.18, 0.01);  // paper prints 36 via an IF/Ifc slip
  EXPECT_NEAR(asap, 16.08, 0.01);  // paper: 16
  EXPECT_NEAR(flat, 13.45, 0.01);  // paper: 13.45
  // Paper's percentages: 62.6 % below Conv (vs 36), 15.9 % below ASAP.
  EXPECT_NEAR(1.0 - flat / 36.0, 0.626, 0.005);
  EXPECT_NEAR(1.0 - flat / 16.0, 0.159, 0.005);
}

}  // namespace
}  // namespace fcdpm
