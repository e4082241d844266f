#include "workload/analysis.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "workload/camcorder.hpp"
#include "workload/synthetic.hpp"

namespace fcdpm::wl {
namespace {

Trace small_trace() {
  return Trace("t", {{Seconds(10.0), Seconds(2.0), Watt(12.0)},
                     {Seconds(20.0), Seconds(4.0), Watt(16.0)}});
}

TEST(Extractors, PullSlotFields) {
  const Trace t = small_trace();
  EXPECT_EQ(idle_durations(t), (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(active_durations(t), (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(active_powers(t), (std::vector<double>{12.0, 16.0}));
}

TEST(Autocorrelation, AlternatingSequenceIsNegative) {
  const std::vector<double> samples{1.0, -1.0, 1.0, -1.0, 1.0, -1.0,
                                    1.0, -1.0};
  EXPECT_LT(autocorrelation(samples, 1), -0.8);
}

TEST(Autocorrelation, SmoothRampIsPositive) {
  std::vector<double> samples;
  for (int k = 0; k < 50; ++k) {
    samples.push_back(static_cast<double>(k % 10));
  }
  EXPECT_GT(autocorrelation(samples, 1), 0.5);
}

TEST(Autocorrelation, CamcorderBeatsSynthetic) {
  // The scene-structured camcorder idles are correlated; the synthetic
  // i.i.d. draws are not — exactly the distributional difference the
  // two experiments probe.
  const double cam = autocorrelation(
      idle_durations(paper_camcorder_trace()), 1);
  const double syn = autocorrelation(
      idle_durations(paper_synthetic_trace()), 1);
  EXPECT_GT(cam, 0.3);
  EXPECT_LT(std::abs(syn), 0.25);
}

TEST(Autocorrelation, RejectsBadInput) {
  const std::vector<double> constant{2.0, 2.0, 2.0};
  EXPECT_THROW((void)autocorrelation(constant, 1), PreconditionError);
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW((void)autocorrelation(two, 2), PreconditionError);
  EXPECT_THROW((void)autocorrelation(two, 0), PreconditionError);
}

TEST(DutyCycle, MatchesHandComputation) {
  EXPECT_NEAR(duty_cycle(small_trace()), 6.0 / 36.0, 1e-12);
}

TEST(AverageLoadCurrent, WeightsIdleAndActive) {
  const Trace t = small_trace();
  // idle 30 s at 0.2 A + (12*2 + 16*4)/12 A-s active over 36 s.
  const double expected = (30.0 * 0.2 + (12.0 * 2 + 16.0 * 4) / 12.0) / 36.0;
  EXPECT_NEAR(
      average_load_current(t, Volt(12.0), Ampere(0.2)).value(), expected,
      1e-12);
}

TEST(AverageLoadCurrent, CamcorderMatchesFcDpmFlatLevel) {
  // The flat FC-DPM setting converges to this average (sanity link
  // between the analysis and the policy).
  const Ampere avg = average_load_current(paper_camcorder_trace(),
                                          Volt(12.0), Ampere(0.2));
  EXPECT_GT(avg.value(), 0.35);
  EXPECT_LT(avg.value(), 0.55);
}

}  // namespace
}  // namespace fcdpm::wl
