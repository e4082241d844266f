// Duration predictors for DPM.
//
// FC-DPM (Section 4) predicts the coming idle period T'i, active period
// T'a and active current I'ld,a before each idle slot. The paper uses the
// exponential-average predictor of Hwang & Wu [1] (Eq. (14)/(15)); the
// regression predictor of Srivastava et al. [2] and an adaptive-learning-
// tree predictor after Chung et al. [3] are provided for the predictor-
// sensitivity ablation (its upper bound is core::OracleFcPolicy).
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace fcdpm::dpm {

/// Online scalar predictor: observe actual values, predict the next one.
class DurationPredictor {
 public:
  virtual ~DurationPredictor() = default;

  /// Prediction for the next (not yet observed) duration.
  [[nodiscard]] virtual Seconds predict() const = 0;

  /// Record the duration that actually happened.
  virtual void observe(Seconds actual) = 0;

  virtual void reset() = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual std::unique_ptr<DurationPredictor> clone() const = 0;

  /// True when `other` is an interchangeable copy of this predictor:
  /// same dynamic type, same configuration, and bitwise-equal mutable
  /// state, so the two return bit-identical predictions forever given
  /// identical observation streams. Consumers (the batch engine's lane
  /// merging) use this to prove two policies can share one plan, so
  /// implementations must compare every behavior-bearing member.
  /// Conservative default: not equivalent.
  [[nodiscard]] virtual bool equivalent(
      const DurationPredictor& /*other*/) const noexcept {
    return false;
  }
};

/// Hwang-Wu exponential average (Eq. (14)):
///   T'(k) = rho * T'(k-1) + (1 - rho) * T(k-1)
class ExponentialAveragePredictor final : public DurationPredictor {
 public:
  /// rho in [0, 1]; `initial` seeds T'(0).
  ExponentialAveragePredictor(double rho, Seconds initial);

  [[nodiscard]] Seconds predict() const override { return estimate_; }
  void observe(Seconds actual) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "exp-average"; }
  [[nodiscard]] std::unique_ptr<DurationPredictor> clone() const override;
  [[nodiscard]] bool equivalent(
      const DurationPredictor& other) const noexcept override;

 private:
  double rho_;
  Seconds initial_;
  Seconds estimate_;
};

/// Sliding-window linear regression on (T(k-1) -> T(k)) pairs
/// (Srivastava et al. [2]): predicts a + b * T(k-1). Falls back to the
/// window mean until it has enough distinct samples.
class RegressionPredictor final : public DurationPredictor {
 public:
  RegressionPredictor(std::size_t window, Seconds initial);

  [[nodiscard]] Seconds predict() const override;
  void observe(Seconds actual) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "regression"; }
  [[nodiscard]] std::unique_ptr<DurationPredictor> clone() const override;
  [[nodiscard]] bool equivalent(
      const DurationPredictor& other) const noexcept override;

 private:
  std::size_t window_;
  Seconds initial_;
  std::deque<double> history_;
};

/// Adaptive-learning-tree style predictor (after Chung et al. [3]):
/// quantizes durations into levels and learns, per recent level-pattern,
/// which level tends to follow; falls back to an exponential average when
/// a pattern has not been seen.
class LearningTreePredictor final : public DurationPredictor {
 public:
  /// `level_edges` are ascending quantization boundaries (n edges define
  /// n+1 levels); `depth` is the pattern length (>= 1).
  LearningTreePredictor(std::vector<Seconds> level_edges, std::size_t depth,
                        Seconds initial);

  [[nodiscard]] Seconds predict() const override;
  void observe(Seconds actual) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "learning-tree"; }
  [[nodiscard]] std::unique_ptr<DurationPredictor> clone() const override;
  [[nodiscard]] bool equivalent(
      const DurationPredictor& other) const noexcept override;

  [[nodiscard]] int quantize(Seconds value) const;
  [[nodiscard]] Seconds level_representative(int level) const;

 private:
  std::vector<Seconds> edges_;
  std::size_t depth_;
  ExponentialAveragePredictor fallback_;
  std::deque<int> pattern_;
  /// pattern -> histogram over next levels.
  std::map<std::vector<int>, std::vector<int>> counts_;
};

/// Constant predictor (predicts a fixed value regardless of history);
/// degenerate baseline and a handy test double.
class FixedPredictor final : public DurationPredictor {
 public:
  explicit FixedPredictor(Seconds value);

  [[nodiscard]] Seconds predict() const override { return value_; }
  void observe(Seconds actual) override;
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] std::unique_ptr<DurationPredictor> clone() const override;
  [[nodiscard]] bool equivalent(
      const DurationPredictor& other) const noexcept override;

 private:
  Seconds value_;
};

/// Online estimator for the active-slot current I'ld,a: running mean of
/// the observed active currents (Section 4.2's suggestion), seeded with a
/// configurable initial estimate.
class CurrentEstimator {
 public:
  explicit CurrentEstimator(Ampere initial);

  [[nodiscard]] Ampere estimate() const;
  void observe(Ampere actual);
  void reset();

  /// Bitwise state equality (see DurationPredictor::equivalent).
  [[nodiscard]] bool equivalent(const CurrentEstimator& other) const noexcept;

 private:
  Ampere initial_;
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

/// Running tally of prediction quality (used by metrics and ablations).
class PredictionAccuracy {
 public:
  /// Record one (predicted, actual) pair with the sleep threshold that
  /// was in force: tracks over/under-prediction and decision flips.
  void record(Seconds predicted, Seconds actual, Seconds threshold);

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// Predicted sleep-worthy but the idle ended sooner than the threshold.
  [[nodiscard]] std::size_t false_sleeps() const noexcept {
    return false_sleeps_;
  }
  /// Idle was sleep-worthy but the prediction said otherwise.
  [[nodiscard]] std::size_t missed_sleeps() const noexcept {
    return missed_sleeps_;
  }
  [[nodiscard]] double mean_absolute_error() const;
  [[nodiscard]] double decision_accuracy() const;

 private:
  std::size_t total_ = 0;
  std::size_t false_sleeps_ = 0;
  std::size_t missed_sleeps_ = 0;
  double abs_error_sum_ = 0.0;
};

}  // namespace fcdpm::dpm
