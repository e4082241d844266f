#include "power/efficiency_model.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace fcdpm::power {
namespace {

TEST(LinearEfficiency, PaperDefaultConstants) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  EXPECT_DOUBLE_EQ(m.alpha(), 0.45);
  EXPECT_DOUBLE_EQ(m.beta(), 0.13);
  EXPECT_DOUBLE_EQ(m.bus_voltage().value(), 12.0);
  EXPECT_DOUBLE_EQ(m.zeta(), 37.5);
  EXPECT_DOUBLE_EQ(m.min_output().value(), 0.1);
  EXPECT_DOUBLE_EQ(m.max_output().value(), 1.2);
  // The Eq. (4) prefactor VF/zeta = 0.32.
  EXPECT_DOUBLE_EQ(m.k(), 0.32);
}

TEST(LinearEfficiency, EfficiencyLine) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  EXPECT_NEAR(m.efficiency(Ampere(0.0)), 0.45, 1e-12);
  EXPECT_NEAR(m.efficiency(Ampere(1.0)), 0.32, 1e-12);
  EXPECT_NEAR(m.efficiency(Ampere(0.5333)), 0.45 - 0.13 * 0.5333, 1e-12);
}

TEST(LinearEfficiency, PaperStackCurrents) {
  // The motivational example's Eq. (4) evaluations (Section 3.2).
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  EXPECT_NEAR(m.stack_current(Ampere(1.2)).value(), 1.306, 1e-3);
  EXPECT_NEAR(m.stack_current(Ampere(0.2)).value(), 0.151, 1e-3);
  EXPECT_NEAR(m.stack_current(Ampere(16.0 / 30.0)).value(), 0.448, 1e-3);
}

TEST(LinearEfficiency, FuelCharge) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  // Setting (c): 0.448 A for 30 s = 13.45 A-s (the paper's number).
  EXPECT_NEAR((m.stack_current(Ampere(16.0 / 30.0)) * Seconds(30.0)).value(),
              13.45, 0.01);
}

TEST(LinearEfficiency, StackCurrentIsConvexIncreasing) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  double previous = m.stack_current(Ampere(0.1)).value();
  double previous_delta = 0.0;
  for (double i = 0.15; i <= 1.2; i += 0.05) {
    const double current = m.stack_current(Ampere(i)).value();
    const double delta = current - previous;
    EXPECT_GT(delta, 0.0) << "not increasing at " << i;
    EXPECT_GE(delta, previous_delta - 1e-12) << "not convex at " << i;
    previous = current;
    previous_delta = delta;
  }
}

TEST(LinearEfficiency, FlatBeatsAlternatingUnderConvexity) {
  // Jensen: a flat IF burns less fuel than alternating extremes with the
  // same average — the property the whole paper rests on.
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  const double avg = 0.7;
  const double flat = m.stack_current(Ampere(avg)).value() * 20.0;
  const double alternating = m.stack_current(Ampere(0.2)).value() * 10.0 +
                             m.stack_current(Ampere(1.2)).value() * 10.0;
  EXPECT_LT(flat, alternating);
}

TEST(LinearEfficiency, RangeHelpers) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  EXPECT_TRUE(m.in_range(Ampere(0.1)));
  EXPECT_TRUE(m.in_range(Ampere(1.2)));
  EXPECT_FALSE(m.in_range(Ampere(0.05)));
  EXPECT_FALSE(m.in_range(Ampere(1.3)));
  EXPECT_EQ(m.clamp_to_range(Ampere(0.05)), Ampere(0.1));
  EXPECT_EQ(m.clamp_to_range(Ampere(2.0)), Ampere(1.2));
  EXPECT_EQ(m.clamp_to_range(Ampere(0.7)), Ampere(0.7));
}

TEST(LinearEfficiency, WithRangeAndCoefficients) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  const LinearEfficiencyModel wide = m.with_range(Ampere(0.05), Ampere(1.3));
  EXPECT_DOUBLE_EQ(wide.min_output().value(), 0.05);
  EXPECT_DOUBLE_EQ(wide.alpha(), 0.45);
  const LinearEfficiencyModel flat = m.with_coefficients(0.45, 0.0);
  EXPECT_DOUBLE_EQ(flat.beta(), 0.0);
  // With beta = 0 the stack current is linear in IF: no convexity gain.
  EXPECT_NEAR(flat.stack_current(Ampere(0.6)).value(),
              2.0 * flat.stack_current(Ampere(0.3)).value(), 1e-12);
}

TEST(LinearEfficiency, RejectsInvalidConstruction) {
  EXPECT_THROW(LinearEfficiencyModel(Volt(0.0), 37.5, 0.45, 0.13,
                                     Ampere(0.1), Ampere(1.2)),
               PreconditionError);
  EXPECT_THROW(LinearEfficiencyModel(Volt(12.0), 0.0, 0.45, 0.13,
                                     Ampere(0.1), Ampere(1.2)),
               PreconditionError);
  EXPECT_THROW(LinearEfficiencyModel(Volt(12.0), 37.5, -0.1, 0.13,
                                     Ampere(0.1), Ampere(1.2)),
               PreconditionError);
  // Pole inside the range: eta would go non-positive at if_max.
  EXPECT_THROW(LinearEfficiencyModel(Volt(12.0), 37.5, 0.45, 0.5,
                                     Ampere(0.1), Ampere(1.2)),
               PreconditionError);
  // Empty range.
  EXPECT_THROW(LinearEfficiencyModel(Volt(12.0), 37.5, 0.45, 0.13,
                                     Ampere(1.2), Ampere(0.1)),
               PreconditionError);
}

TEST(LinearEfficiency, EvaluationPastPoleThrows) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  // alpha/beta = 3.46 A: the model is meaningless there.
  EXPECT_THROW((void)m.efficiency(Ampere(4.0)), PreconditionError);
  EXPECT_THROW((void)m.efficiency(Ampere(-0.1)), PreconditionError);
}

class EfficiencySweep : public ::testing::TestWithParam<double> {};

TEST_P(EfficiencySweep, StackCurrentMatchesClosedForm) {
  const LinearEfficiencyModel m = LinearEfficiencyModel::paper_default();
  const double i_f = GetParam();
  const double expected = 0.32 * i_f / (0.45 - 0.13 * i_f);
  EXPECT_NEAR(m.stack_current(Ampere(i_f)).value(), expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Currents, EfficiencySweep,
                         ::testing::Values(0.1, 0.2, 0.4, 0.533, 0.7, 0.9,
                                           1.0, 1.2));

}  // namespace
}  // namespace fcdpm::power
