#include "dpm/predictors.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"
#include "common/math.hpp"

namespace fcdpm::dpm {

namespace {

/// Equivalence compares doubles bitwise, not by ==: two states that
/// differ only in -0.0 vs 0.0 (or carry NaNs) can still drift apart
/// arithmetically, and consumers rely on bit-identical futures.
[[nodiscard]] bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_bits(Seconds a, Seconds b) noexcept {
  return same_bits(a.value(), b.value());
}

}  // namespace

// --- ExponentialAveragePredictor --------------------------------------------

ExponentialAveragePredictor::ExponentialAveragePredictor(double rho,
                                                         Seconds initial)
    : rho_(rho), initial_(initial), estimate_(initial) {
  FCDPM_EXPECTS(rho >= 0.0 && rho <= 1.0, "rho must lie in [0, 1]");
  FCDPM_EXPECTS(initial.value() >= 0.0, "initial estimate must be >= 0");
}

void ExponentialAveragePredictor::observe(Seconds actual) {
  FCDPM_EXPECTS(actual.value() >= 0.0, "durations are non-negative");
  estimate_ = rho_ * estimate_ + (1.0 - rho_) * actual;
}

void ExponentialAveragePredictor::reset() { estimate_ = initial_; }

std::unique_ptr<DurationPredictor> ExponentialAveragePredictor::clone()
    const {
  return std::make_unique<ExponentialAveragePredictor>(*this);
}

bool ExponentialAveragePredictor::equivalent(
    const DurationPredictor& other) const noexcept {
  const auto* o = dynamic_cast<const ExponentialAveragePredictor*>(&other);
  return o != nullptr && same_bits(rho_, o->rho_) &&
         same_bits(initial_, o->initial_) && same_bits(estimate_, o->estimate_);
}

// --- RegressionPredictor -----------------------------------------------------

RegressionPredictor::RegressionPredictor(std::size_t window, Seconds initial)
    : window_(window), initial_(initial) {
  FCDPM_EXPECTS(window >= 3, "regression window must hold >= 3 samples");
  FCDPM_EXPECTS(initial.value() >= 0.0, "initial estimate must be >= 0");
}

Seconds RegressionPredictor::predict() const {
  if (history_.empty()) {
    return initial_;
  }
  if (history_.size() < 3) {
    return Seconds(history_.back());
  }

  // Regress T(k) on T(k-1) over the window, streaming straight over the
  // deque: xs = history[0 .. n-2], ys = history[1 .. n-1]. This runs in
  // the simulator's per-slot hot loop, so no scratch copies — the
  // accumulation order matches linear_least_squares exactly and the
  // result is bit-identical to the copying implementation.
  const std::size_t pairs = history_.size() - 1;
  double x_min = history_[0];
  double x_max = history_[0];
  double x_sum = 0.0;
  double y_sum = 0.0;
  for (std::size_t k = 0; k < pairs; ++k) {
    const double x = history_[k];
    x_min = std::min(x_min, x);
    x_max = std::max(x_max, x);
    x_sum += x;
    y_sum += history_[k + 1];
  }
  const double y_bar = y_sum / static_cast<double>(pairs);

  // Degenerate windows (constant xs) have no regression line; fall back
  // to the window mean.
  if (x_max - x_min < 1e-12) {
    return Seconds(y_bar);
  }

  const double x_bar = x_sum / static_cast<double>(pairs);
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t k = 0; k < pairs; ++k) {
    const double dx = history_[k] - x_bar;
    const double dy = history_[k + 1] - y_bar;
    sxx += dx * dx;
    sxy += dx * dy;
  }
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = y_bar - fit.slope * x_bar;
  const double predicted = fit(history_.back());
  return Seconds(std::max(predicted, 0.0));
}

void RegressionPredictor::observe(Seconds actual) {
  FCDPM_EXPECTS(actual.value() >= 0.0, "durations are non-negative");
  history_.push_back(actual.value());
  while (history_.size() > window_) {
    history_.pop_front();
  }
}

void RegressionPredictor::reset() { history_.clear(); }

std::unique_ptr<DurationPredictor> RegressionPredictor::clone() const {
  return std::make_unique<RegressionPredictor>(*this);
}

bool RegressionPredictor::equivalent(
    const DurationPredictor& other) const noexcept {
  const auto* o = dynamic_cast<const RegressionPredictor*>(&other);
  if (o == nullptr || window_ != o->window_ ||
      !same_bits(initial_, o->initial_) ||
      history_.size() != o->history_.size()) {
    return false;
  }
  return std::equal(history_.begin(), history_.end(), o->history_.begin(),
                    [](double a, double b) { return same_bits(a, b); });
}

// --- LearningTreePredictor ---------------------------------------------------

LearningTreePredictor::LearningTreePredictor(std::vector<Seconds> level_edges,
                                             std::size_t depth,
                                             Seconds initial)
    : edges_(std::move(level_edges)),
      depth_(depth),
      fallback_(0.5, initial) {
  FCDPM_EXPECTS(!edges_.empty(), "need at least one quantization edge");
  FCDPM_EXPECTS(std::is_sorted(edges_.begin(), edges_.end()),
                "quantization edges must be ascending");
  FCDPM_EXPECTS(depth >= 1, "pattern depth must be >= 1");
}

int LearningTreePredictor::quantize(Seconds value) const {
  int level = 0;
  for (const Seconds edge : edges_) {
    if (value < edge) {
      break;
    }
    ++level;
  }
  return level;
}

Seconds LearningTreePredictor::level_representative(int level) const {
  FCDPM_EXPECTS(level >= 0 && level <= static_cast<int>(edges_.size()),
                "level out of range");
  if (level == 0) {
    // Midpoint of [0, first edge).
    return edges_.front() * 0.5;
  }
  if (level == static_cast<int>(edges_.size())) {
    // Open-ended top level: extrapolate past the last edge by half the
    // last bin width (or the edge itself when there is a single edge).
    if (edges_.size() == 1) {
      return edges_.back() * 1.5;
    }
    const Seconds last_width = edges_.back() - edges_[edges_.size() - 2];
    return edges_.back() + last_width * 0.5;
  }
  return (edges_[static_cast<std::size_t>(level) - 1] +
          edges_[static_cast<std::size_t>(level)]) *
         0.5;
}

Seconds LearningTreePredictor::predict() const {
  if (pattern_.size() < depth_) {
    return fallback_.predict();
  }
  const std::vector<int> key(pattern_.begin(), pattern_.end());
  const auto it = counts_.find(key);
  if (it == counts_.end()) {
    return fallback_.predict();
  }
  const std::vector<int>& histogram = it->second;
  const auto best = std::max_element(histogram.begin(), histogram.end());
  if (best == histogram.end() || *best == 0) {
    return fallback_.predict();
  }
  const int level = static_cast<int>(best - histogram.begin());
  return level_representative(level);
}

void LearningTreePredictor::observe(Seconds actual) {
  FCDPM_EXPECTS(actual.value() >= 0.0, "durations are non-negative");
  const int level = quantize(actual);

  if (pattern_.size() == depth_) {
    const std::vector<int> key(pattern_.begin(), pattern_.end());
    std::vector<int>& histogram = counts_[key];
    histogram.resize(edges_.size() + 1, 0);
    ++histogram[static_cast<std::size_t>(level)];
  }

  pattern_.push_back(level);
  while (pattern_.size() > depth_) {
    pattern_.pop_front();
  }
  fallback_.observe(actual);
}

void LearningTreePredictor::reset() {
  pattern_.clear();
  counts_.clear();
  fallback_.reset();
}

std::unique_ptr<DurationPredictor> LearningTreePredictor::clone() const {
  return std::make_unique<LearningTreePredictor>(*this);
}

bool LearningTreePredictor::equivalent(
    const DurationPredictor& other) const noexcept {
  const auto* o = dynamic_cast<const LearningTreePredictor*>(&other);
  if (o == nullptr || depth_ != o->depth_ ||
      edges_.size() != o->edges_.size() ||
      !fallback_.equivalent(o->fallback_) || pattern_ != o->pattern_) {
    return false;
  }
  if (!std::equal(edges_.begin(), edges_.end(), o->edges_.begin(),
                  [](Seconds a, Seconds b) { return same_bits(a, b); })) {
    return false;
  }
  return counts_ == o->counts_;  // integer histograms: exact compare
}

// --- FixedPredictor ----------------------------------------------------------

FixedPredictor::FixedPredictor(Seconds value) : value_(value) {
  FCDPM_EXPECTS(value.value() >= 0.0, "durations are non-negative");
}

void FixedPredictor::observe(Seconds /*actual*/) {}

std::unique_ptr<DurationPredictor> FixedPredictor::clone() const {
  return std::make_unique<FixedPredictor>(*this);
}

bool FixedPredictor::equivalent(
    const DurationPredictor& other) const noexcept {
  const auto* o = dynamic_cast<const FixedPredictor*>(&other);
  return o != nullptr && same_bits(value_, o->value_);
}

// --- CurrentEstimator --------------------------------------------------------

CurrentEstimator::CurrentEstimator(Ampere initial) : initial_(initial) {
  FCDPM_EXPECTS(initial.value() >= 0.0, "currents are non-negative");
}

Ampere CurrentEstimator::estimate() const {
  if (count_ == 0) {
    return initial_;
  }
  return Ampere(sum_ / static_cast<double>(count_));
}

void CurrentEstimator::observe(Ampere actual) {
  FCDPM_EXPECTS(actual.value() >= 0.0, "currents are non-negative");
  sum_ += actual.value();
  ++count_;
}

void CurrentEstimator::reset() {
  sum_ = 0.0;
  count_ = 0;
}

bool CurrentEstimator::equivalent(
    const CurrentEstimator& other) const noexcept {
  return same_bits(initial_.value(), other.initial_.value()) &&
         same_bits(sum_, other.sum_) && count_ == other.count_;
}

// --- PredictionAccuracy ------------------------------------------------------

void PredictionAccuracy::record(Seconds predicted, Seconds actual,
                                Seconds threshold) {
  ++total_;
  abs_error_sum_ += std::fabs(predicted.value() - actual.value());
  const bool predicted_sleep = predicted >= threshold;
  const bool actual_sleep = actual >= threshold;
  if (predicted_sleep && !actual_sleep) {
    ++false_sleeps_;
  } else if (!predicted_sleep && actual_sleep) {
    ++missed_sleeps_;
  }
}

double PredictionAccuracy::mean_absolute_error() const {
  if (total_ == 0) {
    return 0.0;
  }
  return abs_error_sum_ / static_cast<double>(total_);
}

double PredictionAccuracy::decision_accuracy() const {
  if (total_ == 0) {
    return 1.0;
  }
  return 1.0 - static_cast<double>(false_sleeps_ + missed_sleeps_) /
                   static_cast<double>(total_);
}

}  // namespace fcdpm::dpm
