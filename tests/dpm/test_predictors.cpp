#include "dpm/predictors.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/contracts.hpp"
#include "common/math.hpp"

namespace fcdpm::dpm {
namespace {

// --- exponential average (Eq. (14)) -----------------------------------------

TEST(ExpAverage, FirstPredictionIsSeed) {
  const ExponentialAveragePredictor p(0.5, Seconds(10.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 10.0);
}

TEST(ExpAverage, RecurrenceMatchesEquation14) {
  ExponentialAveragePredictor p(0.5, Seconds(10.0));
  p.observe(Seconds(20.0));
  // T'(k) = rho*T'(k-1) + (1-rho)*T(k-1) = 0.5*10 + 0.5*20 = 15.
  EXPECT_DOUBLE_EQ(p.predict().value(), 15.0);
  p.observe(Seconds(8.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 11.5);
}

TEST(ExpAverage, RhoOneIgnoresObservations) {
  ExponentialAveragePredictor p(1.0, Seconds(7.0));
  p.observe(Seconds(100.0));
  p.observe(Seconds(200.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 7.0);
}

TEST(ExpAverage, RhoZeroTracksLastObservation) {
  ExponentialAveragePredictor p(0.0, Seconds(7.0));
  p.observe(Seconds(100.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 100.0);
  p.observe(Seconds(3.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 3.0);
}

TEST(ExpAverage, ConvergesToConstantInput) {
  ExponentialAveragePredictor p(0.5, Seconds(0.0));
  for (int k = 0; k < 60; ++k) {
    p.observe(Seconds(14.0));
  }
  EXPECT_NEAR(p.predict().value(), 14.0, 1e-9);
}

TEST(ExpAverage, ResetRestoresSeed) {
  ExponentialAveragePredictor p(0.5, Seconds(10.0));
  p.observe(Seconds(30.0));
  p.reset();
  EXPECT_DOUBLE_EQ(p.predict().value(), 10.0);
}

TEST(ExpAverage, RejectsInvalidParameters) {
  EXPECT_THROW(ExponentialAveragePredictor(-0.1, Seconds(1.0)),
               PreconditionError);
  EXPECT_THROW(ExponentialAveragePredictor(1.1, Seconds(1.0)),
               PreconditionError);
  EXPECT_THROW(ExponentialAveragePredictor(0.5, Seconds(-1.0)),
               PreconditionError);
  ExponentialAveragePredictor p(0.5, Seconds(1.0));
  EXPECT_THROW(p.observe(Seconds(-1.0)), PreconditionError);
}

// --- regression --------------------------------------------------------------

TEST(Regression, SeedsUntilHistoryAccumulates) {
  RegressionPredictor p(8, Seconds(12.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 12.0);
  p.observe(Seconds(6.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 6.0);  // last value until 3 samples
}

TEST(Regression, LearnsALinearRamp) {
  RegressionPredictor p(16, Seconds(0.0));
  for (int k = 1; k <= 10; ++k) {
    p.observe(Seconds(static_cast<double>(k)));
  }
  // A perfect T(k) = T(k-1) + 1 relation: next should be ~11.
  EXPECT_NEAR(p.predict().value(), 11.0, 0.2);
}

TEST(Regression, ConstantHistoryPredictsConstant) {
  RegressionPredictor p(8, Seconds(0.0));
  for (int k = 0; k < 8; ++k) {
    p.observe(Seconds(9.0));
  }
  EXPECT_NEAR(p.predict().value(), 9.0, 1e-9);
}

TEST(Regression, NeverPredictsNegative) {
  RegressionPredictor p(8, Seconds(0.0));
  // Steeply decreasing history would extrapolate below zero.
  for (const double v : {50.0, 30.0, 10.0, 1.0}) {
    p.observe(Seconds(v));
  }
  EXPECT_GE(p.predict().value(), 0.0);
}

TEST(Regression, WindowSlides) {
  RegressionPredictor p(3, Seconds(0.0));
  for (const double v : {100.0, 100.0, 100.0, 5.0, 5.0, 5.0}) {
    p.observe(Seconds(v));
  }
  // Old regime fully evicted.
  EXPECT_NEAR(p.predict().value(), 5.0, 1e-6);
}

// Bugfix regression: predict() regresses in place over its window (it
// runs in the per-slot hot loop). The streaming accumulation must stay
// bit-identical to the original copy-into-vectors implementation, which
// this reference reproduces.
TEST(Regression, InPlaceFitIsBitIdenticalToTheCopyingReference) {
  RegressionPredictor p(16, Seconds(0.0));
  std::vector<double> history;
  const auto reference_predict = [&history]() {
    std::vector<double> xs(history.begin(), history.end() - 1);
    std::vector<double> ys(history.begin() + 1, history.end());
    const double x_min = *std::min_element(xs.begin(), xs.end());
    const double x_max = *std::max_element(xs.begin(), xs.end());
    if (x_max - x_min < 1e-12) {
      return mean(ys);
    }
    const LinearFit fit = linear_least_squares(xs, ys);
    return std::max(fit(history.back()), 0.0);
  };

  // Irregular values exercise both the fitted and the clamped paths.
  const double values[] = {12.25, 3.5,  17.75, 9.0, 14.5, 1.25,
                           22.0,  8.75, 8.75,  0.5, 30.25, 6.0,
                           11.5,  19.0, 2.75,  13.25, 27.5, 4.25};
  for (const double v : values) {
    p.observe(Seconds(v));
    history.push_back(v);
    if (history.size() > 16) {
      history.erase(history.begin());
    }
    if (history.size() >= 3) {
      EXPECT_EQ(p.predict().value(), reference_predict())
          << "after observing " << v;
    }
  }
}

TEST(Regression, RejectsTinyWindow) {
  EXPECT_THROW(RegressionPredictor(2, Seconds(1.0)), PreconditionError);
}

// --- learning tree -----------------------------------------------------------

LearningTreePredictor make_tree() {
  return LearningTreePredictor({Seconds(5.0), Seconds(15.0)}, 2,
                               Seconds(10.0));
}

TEST(LearningTree, QuantizesByEdges) {
  const LearningTreePredictor p = make_tree();
  EXPECT_EQ(p.quantize(Seconds(1.0)), 0);
  EXPECT_EQ(p.quantize(Seconds(5.0)), 1);
  EXPECT_EQ(p.quantize(Seconds(10.0)), 1);
  EXPECT_EQ(p.quantize(Seconds(15.0)), 2);
  EXPECT_EQ(p.quantize(Seconds(40.0)), 2);
}

TEST(LearningTree, LevelRepresentatives) {
  const LearningTreePredictor p = make_tree();
  EXPECT_DOUBLE_EQ(p.level_representative(0).value(), 2.5);
  EXPECT_DOUBLE_EQ(p.level_representative(1).value(), 10.0);
  EXPECT_DOUBLE_EQ(p.level_representative(2).value(), 20.0);
  EXPECT_THROW((void)p.level_representative(3), PreconditionError);
}

TEST(LearningTree, LearnsAPeriodicPattern) {
  LearningTreePredictor p = make_tree();
  // Pattern: short, short, long, short, short, long, ...
  const double cycle[] = {2.0, 2.0, 20.0};
  for (int k = 0; k < 30; ++k) {
    p.observe(Seconds(cycle[k % 3]));
  }
  // History ends ...2, 20 -> wait: after 30 obs the last two are
  // (2.0, 20.0)? 30 % 3 == 0 so last obs was cycle[29%3]=cycle[2]=20,
  // before it cycle[1]=2: pattern (2, 20) -> next is 2 (level 0).
  EXPECT_NEAR(p.predict().value(), 2.5, 1e-9);
  p.observe(Seconds(2.0));  // now pattern (20, 2) -> next 2
  EXPECT_NEAR(p.predict().value(), 2.5, 1e-9);
  p.observe(Seconds(2.0));  // pattern (2, 2) -> next 20
  EXPECT_NEAR(p.predict().value(), 20.0, 1e-9);
}

TEST(LearningTree, FallsBackBeforePatternsSeen) {
  LearningTreePredictor p = make_tree();
  EXPECT_DOUBLE_EQ(p.predict().value(), 10.0);  // fallback seed
  p.observe(Seconds(4.0));
  // Still not enough history for a depth-2 pattern.
  EXPECT_GT(p.predict().value(), 0.0);
}

TEST(LearningTree, ResetForgetsEverything) {
  LearningTreePredictor p = make_tree();
  for (int k = 0; k < 12; ++k) {
    p.observe(Seconds(2.0));
  }
  p.reset();
  EXPECT_DOUBLE_EQ(p.predict().value(), 10.0);
}

TEST(LearningTree, RejectsBadConstruction) {
  EXPECT_THROW(LearningTreePredictor({}, 2, Seconds(1.0)),
               PreconditionError);
  EXPECT_THROW(LearningTreePredictor({Seconds(5.0), Seconds(2.0)}, 2,
                                     Seconds(1.0)),
               PreconditionError);
  EXPECT_THROW(
      LearningTreePredictor({Seconds(5.0)}, 0, Seconds(1.0)),
      PreconditionError);
}

// --- fixed ---------------------------------------------------------

TEST(Fixed, AlwaysTheSame) {
  FixedPredictor p(Seconds(4.0));
  p.observe(Seconds(100.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 4.0);
}

TEST(Predictors, CloneIsIndependent) {
  ExponentialAveragePredictor p(0.5, Seconds(10.0));
  p.observe(Seconds(20.0));
  const std::unique_ptr<DurationPredictor> copy = p.clone();
  copy->observe(Seconds(100.0));
  EXPECT_DOUBLE_EQ(p.predict().value(), 15.0);
  EXPECT_DOUBLE_EQ(copy->predict().value(), 57.5);
}

// --- current estimator --------------------------------------------------------

TEST(CurrentEstimator, SeedsThenAverages) {
  CurrentEstimator e(Ampere(1.2));
  EXPECT_DOUBLE_EQ(e.estimate().value(), 1.2);
  e.observe(Ampere(1.0));
  EXPECT_DOUBLE_EQ(e.estimate().value(), 1.0);
  e.observe(Ampere(1.4));
  EXPECT_DOUBLE_EQ(e.estimate().value(), 1.2);
  e.reset();
  EXPECT_DOUBLE_EQ(e.estimate().value(), 1.2);
}

// --- accuracy tally ------------------------------------------------------------

TEST(PredictionAccuracy, CountsDecisionErrors) {
  PredictionAccuracy acc;
  const Seconds threshold(10.0);
  acc.record(Seconds(15.0), Seconds(20.0), threshold);  // correct sleep
  acc.record(Seconds(15.0), Seconds(5.0), threshold);   // false sleep
  acc.record(Seconds(5.0), Seconds(20.0), threshold);   // missed sleep
  acc.record(Seconds(5.0), Seconds(5.0), threshold);    // correct standby
  EXPECT_EQ(acc.total(), 4u);
  EXPECT_EQ(acc.false_sleeps(), 1u);
  EXPECT_EQ(acc.missed_sleeps(), 1u);
  EXPECT_DOUBLE_EQ(acc.decision_accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(acc.mean_absolute_error(), (5 + 10 + 15 + 0) / 4.0);
}

TEST(PredictionAccuracy, EmptyTallyIsPerfect) {
  const PredictionAccuracy acc;
  EXPECT_DOUBLE_EQ(acc.decision_accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(acc.mean_absolute_error(), 0.0);
}

}  // namespace
}  // namespace fcdpm::dpm
