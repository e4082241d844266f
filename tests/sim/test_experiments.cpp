#include "sim/experiments.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/contracts.hpp"

namespace fcdpm::sim {
namespace {

TEST(ExperimentConfig, Experiment1MatchesPaperSetup) {
  const ExperimentConfig config = experiment1_config();
  EXPECT_EQ(config.trace.name(), "camcorder");
  EXPECT_DOUBLE_EQ(config.rho, 0.5);
  EXPECT_DOUBLE_EQ(config.efficiency.alpha(), 0.45);
  EXPECT_DOUBLE_EQ(config.efficiency.beta(), 0.13);
  EXPECT_DOUBLE_EQ(config.storage_capacity.value(), 6.0);
  EXPECT_NEAR(config.device.break_even_time().value(), 1.0, 1e-9);
  EXPECT_NEAR(config.active_current_estimate.value(), 14.65 / 12.0,
              1e-12);
}

TEST(ExperimentConfig, Experiment2MatchesPaperSetup) {
  const ExperimentConfig config = experiment2_config();
  EXPECT_EQ(config.trace.name(), "synthetic");
  EXPECT_DOUBLE_EQ(config.sigma, 0.5);
  EXPECT_DOUBLE_EQ(config.active_current_estimate.value(), 1.2);
  EXPECT_NEAR(config.device.break_even_time().value(), 9.84, 0.01);
}

TEST(PolicyFactory, BuildsEveryKind) {
  const ExperimentConfig config = experiment1_config();
  EXPECT_EQ(make_fc_policy(PolicyKind::Conv, config)->name(), "Conv-DPM");
  EXPECT_EQ(make_fc_policy(PolicyKind::Asap, config)->name(), "ASAP-DPM");
  EXPECT_EQ(make_fc_policy(PolicyKind::FcDpm, config)->name(), "FC-DPM");
  EXPECT_EQ(make_fc_policy(PolicyKind::Oracle, config)->name(),
            "Oracle-FC-DPM");
}

TEST(PolicyKindNames, AreStable) {
  EXPECT_STREQ(to_string(PolicyKind::Conv), "Conv-DPM");
  EXPECT_STREQ(to_string(PolicyKind::Asap), "ASAP-DPM");
  EXPECT_STREQ(to_string(PolicyKind::FcDpm), "FC-DPM");
  EXPECT_STREQ(to_string(PolicyKind::Oracle), "Oracle-FC-DPM");
}

TEST(HybridFactory, UsesConfiguredCapacityAndModel) {
  ExperimentConfig config = experiment1_config();
  config.storage_capacity = Coulomb(17.0);
  power::HybridPowerSource hybrid = make_hybrid(config);
  EXPECT_DOUBLE_EQ(hybrid.storage().capacity().value(), 17.0);
  EXPECT_DOUBLE_EQ(hybrid.source().max_output().value(), 1.2);
}

TEST(RunPolicy, IsDeterministic) {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));
  const SimulationResult a = run_policy(PolicyKind::FcDpm, config);
  const SimulationResult b = run_policy(PolicyKind::FcDpm, config);
  EXPECT_DOUBLE_EQ(a.fuel().value(), b.fuel().value());
  EXPECT_EQ(a.sleeps, b.sleeps);
}

TEST(RunPolicy, HonorsEfficiencyOverride) {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));
  const SimulationResult paper = run_policy(PolicyKind::Conv, config);
  config.efficiency = config.efficiency.with_coefficients(0.45, 0.0);
  const SimulationResult flat_eta = run_policy(PolicyKind::Conv, config);
  // With beta = 0 the max-output fuel rate is lower (0.32*1.2/0.45).
  EXPECT_LT(flat_eta.fuel().value(), paper.fuel().value());
}

TEST(Normalized, ComparisonVectorShape) {
  ExperimentConfig config = experiment1_config();
  config.trace = config.trace.truncated(Seconds(60.0));
  const PolicyComparison c = compare_policies(config);
  // The Table 2/3 row: fuel normalized to Conv-DPM.
  EXPECT_DOUBLE_EQ(normalized_fuel(c.conv, c.conv), 1.0);
  const double asap = normalized_fuel(c.asap, c.conv);
  EXPECT_GT(asap, 0.0);
  EXPECT_LT(asap, 1.0);
  EXPECT_LT(normalized_fuel(c.fcdpm, c.conv), asap);
}

// Golden regression numbers: the experiments are fully deterministic, so
// any change here is a *behavioral* change that must be reviewed (and
// EXPERIMENTS.md updated).
TEST(GoldenNumbers, Table2Regression) {
  const PolicyComparison c = compare_policies(experiment1_config());
  EXPECT_NEAR(c.conv.fuel().value(), 2501.8, 0.5);
  EXPECT_NEAR(c.asap.fuel().value(), 975.8, 0.5);
  EXPECT_NEAR(c.fcdpm.fuel().value(), 826.8, 0.5);
}

TEST(GoldenNumbers, Table3Regression) {
  const PolicyComparison c = compare_policies(experiment2_config());
  EXPECT_NEAR(c.conv.fuel().value(), 2460.6, 0.5);
  EXPECT_NEAR(c.asap.fuel().value(), 1035.8, 0.5);
  EXPECT_NEAR(c.fcdpm.fuel().value(), 947.5, 0.5);
}

}  // namespace
}  // namespace fcdpm::sim
