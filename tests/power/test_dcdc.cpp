#include "power/dcdc.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace fcdpm::power {
namespace {

TEST(ConverterLosses, PolynomialEvaluation) {
  const ConverterLosses losses{Watt(0.5), 0.2, 0.1};
  EXPECT_DOUBLE_EQ(losses.at(Ampere(0.0)).value(), 0.5);
  EXPECT_DOUBLE_EQ(losses.at(Ampere(1.0)).value(), 0.8);
  EXPECT_DOUBLE_EQ(losses.at(Ampere(2.0)).value(), 1.3);
}

TEST(PwmConverter, EfficiencySagsAtLightLoad) {
  const PwmConverter pwm = PwmConverter::typical_12v();
  const double light = pwm.efficiency(Ampere(0.05));
  const double heavy = pwm.efficiency(Ampere(1.0));
  EXPECT_LT(light, 0.65);
  EXPECT_GT(heavy, 0.85);
}

TEST(PwmConverter, ZeroLoadIsZeroEfficiencyByConvention) {
  const PwmConverter pwm = PwmConverter::typical_12v();
  EXPECT_DOUBLE_EQ(pwm.efficiency(Ampere(0.0)), 0.0);
}

TEST(PwmConverter, EfficiencyAlwaysBelowOne) {
  const PwmConverter pwm = PwmConverter::typical_12v();
  for (double i = 0.01; i <= 2.0; i += 0.01) {
    const double eta = pwm.efficiency(Ampere(i));
    EXPECT_GT(eta, 0.0);
    EXPECT_LT(eta, 1.0);
  }
}

TEST(PwmConverter, InputPowerExceedsOutputPower) {
  const PwmConverter pwm = PwmConverter::typical_12v();
  for (const double i : {0.1, 0.5, 1.0, 1.3}) {
    const Watt pout = pwm.output_voltage() * Ampere(i);
    EXPECT_GT(pwm.input_power(Ampere(i)).value(), pout.value());
  }
  EXPECT_DOUBLE_EQ(pwm.input_power(Ampere(0.0)).value(), 0.0);
}

TEST(PwmPfmConverter, FlatEfficiencyAcrossLoadRange) {
  // The paper's point about PWM-PFM: high efficiency over the *entire*
  // range, because PFM mode kills fixed losses at light load.
  const PwmPfmConverter conv = PwmPfmConverter::high_efficiency_12v();
  double lo = 1.0;
  double hi = 0.0;
  for (double i = 0.05; i <= 1.3; i += 0.05) {
    const double eta = conv.efficiency(Ampere(i));
    lo = std::min(lo, eta);
    hi = std::max(hi, eta);
  }
  EXPECT_GT(lo, 0.80);
  EXPECT_LT(hi - lo, 0.06);
}

TEST(PwmPfmConverter, BeatsPlainPwmAtLightLoad) {
  const PwmConverter pwm = PwmConverter::typical_12v();
  const PwmPfmConverter pfm = PwmPfmConverter::high_efficiency_12v();
  EXPECT_GT(pfm.efficiency(Ampere(0.05)), pwm.efficiency(Ampere(0.05)));
  EXPECT_GT(pfm.efficiency(Ampere(0.10)), pwm.efficiency(Ampere(0.10)));
}

TEST(PwmPfmConverter, HighEfficiencyVariantIsFlatAndHigh) {
  const PwmPfmConverter conv = PwmPfmConverter::high_efficiency_12v();
  for (double i = 0.05; i <= 1.3; i += 0.05) {
    EXPECT_GT(conv.efficiency(Ampere(i)), 0.92) << "at " << i;
  }
}

TEST(PwmPfmConverter, ModeSwitchAtThreshold) {
  const PwmPfmConverter conv = PwmPfmConverter::high_efficiency_12v();
  const double just_below =
      conv.efficiency(conv.pfm_threshold() - Ampere(1e-6));
  const double just_above =
      conv.efficiency(conv.pfm_threshold() + Ampere(1e-6));
  // Different loss polynomials on either side of the threshold.
  EXPECT_NE(just_below, just_above);
}

TEST(Converters, RejectInvalidInput) {
  EXPECT_THROW(PwmConverter(Volt(0.0), {}), PreconditionError);
  EXPECT_THROW(PwmPfmConverter(Volt(12.0), {}, {}, Ampere(0.0)),
               PreconditionError);
  const PwmConverter pwm = PwmConverter::typical_12v();
  EXPECT_THROW((void)pwm.efficiency(Ampere(-0.1)), PreconditionError);
}

TEST(Converters, CloneIsIndependentCopy) {
  const PwmPfmConverter conv = PwmPfmConverter::high_efficiency_12v();
  const std::unique_ptr<DcDcConverter> copy = conv.clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->name(), "PWM-PFM");
  EXPECT_DOUBLE_EQ(copy->efficiency(Ampere(0.8)),
                   conv.efficiency(Ampere(0.8)));
}

}  // namespace
}  // namespace fcdpm::power
