#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fcdpm::obs {
namespace {

TEST(Counter, AccumulatesTotalAndCallCount) {
  Counter counter;
  counter.increment();
  counter.increment(2.5);
  EXPECT_DOUBLE_EQ(counter.total(), 3.5);
  EXPECT_EQ(counter.count(), 2u);
}

TEST(Gauge, TracksLastAndRange) {
  Gauge gauge;
  EXPECT_EQ(gauge.count(), 0u);
  gauge.set(5.0);
  EXPECT_DOUBLE_EQ(gauge.min(), 5.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 5.0);
  gauge.set(-1.0);
  gauge.set(2.0);
  EXPECT_DOUBLE_EQ(gauge.last(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.min(), -1.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 5.0);
  EXPECT_EQ(gauge.count(), 3u);
}

TEST(Histogram, ExactMoments) {
  Histogram histogram;
  histogram.observe(1.0);
  histogram.observe(2.0);
  histogram.observe(3.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 6.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 3.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 2.0);
}

TEST(Histogram, QuantilesExactAtEndsAndMonotonic) {
  Histogram histogram;
  for (int k = 1; k <= 100; ++k) {
    histogram.observe(static_cast<double>(k));
  }
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 100.0);
  double previous = histogram.quantile(0.0);
  for (double q = 0.1; q < 1.0; q += 0.1) {
    const double value = histogram.quantile(q);
    EXPECT_GE(value, previous);
    EXPECT_GE(value, histogram.min());
    EXPECT_LE(value, histogram.max());
    previous = value;
  }
  // Log-spaced buckets: the median of 1..100 lands in the right octave.
  EXPECT_GE(histogram.quantile(0.5), 32.0);
  EXPECT_LE(histogram.quantile(0.5), 96.0);
}

TEST(Histogram, HandlesZeroNegativeAndTinyValues) {
  Histogram histogram;
  histogram.observe(0.0);
  histogram.observe(-4.0);
  histogram.observe(1e-12);
  histogram.observe(4.0);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.min(), -4.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 4.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.0), -4.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 4.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
}

// Power-of-two buckets: [1, 2) answers 1.5, [2, 4) answers 3, each
// clamped into [min, max].
TEST(Histogram, BinsAndFractions) {
  Histogram histogram;
  for (const double v : {1.0, 1.5, 2.0, 2.5, 3.0, 3.0}) {
    histogram.observe(v);
  }
  EXPECT_EQ(histogram.count(), 6u);
  // Two of six samples in [1, 2), four in [2, 4).
  EXPECT_DOUBLE_EQ(histogram.quantile(0.25), 1.5);
  EXPECT_DOUBLE_EQ(histogram.quantile(2.0 / 6.0), 1.5);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.75), 3.0);
}

TEST(Histogram, MaxSampleLandsInLastBin) {
  Histogram histogram;
  histogram.observe(0.0);
  histogram.observe(10.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.25), 0.0);
  // [8, 16) answers 12, clamped to the largest sample.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 10.0);
}

TEST(Histogram, DegenerateSamplesUseOneBin) {
  Histogram histogram;
  for (int k = 0; k < 3; ++k) {
    histogram.observe(2.0);
  }
  for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.quantile(q), 2.0) << q;
  }
}

TEST(Histogram, RejectsBadInput) {
  // A NaN sample is dropped: it moves no count, bound or quantile.
  Histogram histogram;
  histogram.observe(std::nan(""));
  EXPECT_EQ(histogram.count(), 0u);
  histogram.observe(1.0);
  histogram.observe(std::nan(""));
  EXPECT_EQ(histogram.count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 1.0);
}

TEST(MetricsRegistry, HandsOutStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  registry.counter("y").increment();
  registry.histogram("h").observe(1.0);
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.increment(3.0);
  EXPECT_DOUBLE_EQ(registry.counter("x").total(), 3.0);
}

TEST(MetricsRegistry, RowsSortedByTypeThenName) {
  MetricsRegistry registry;
  registry.histogram("zz").observe(1.0);
  registry.counter("beta").increment();
  registry.counter("alpha").increment(2.0);
  registry.gauge("g").set(7.0);

  const std::vector<MetricRow> rows = registry.rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "alpha");
  EXPECT_EQ(rows[0].type, "counter");
  EXPECT_DOUBLE_EQ(rows[0].value, 2.0);
  EXPECT_EQ(rows[1].name, "beta");
  EXPECT_EQ(rows[2].type, "gauge");
  EXPECT_DOUBLE_EQ(rows[2].value, 7.0);
  EXPECT_EQ(rows[3].type, "histogram");
  EXPECT_EQ(rows[3].count, 1u);
}

TEST(Histogram, P99AndMaxEdgeCases) {
  // Empty: every summary statistic is zero.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);

  // Single sample: p50 == p99 == max == the sample.
  Histogram one;
  one.observe(42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(one.max(), 42.0);

  // All-equal samples: the distribution is a spike; every quantile
  // collapses onto it.
  Histogram equal;
  for (int k = 0; k < 1000; ++k) {
    equal.observe(7.0);
  }
  EXPECT_DOUBLE_EQ(equal.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(equal.quantile(0.99), 7.0);
  EXPECT_DOUBLE_EQ(equal.max(), 7.0);
}

TEST(MetricsRegistry, RowsExposeP99BetweenP95AndMax) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  for (int k = 1; k <= 100; ++k) {
    h.observe(static_cast<double>(k));
  }
  const std::vector<MetricRow> rows = registry.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].p99, h.quantile(0.99));
  EXPECT_GE(rows[0].p99, rows[0].p95);
  EXPECT_LE(rows[0].p99, rows[0].max);
  EXPECT_GT(rows[0].p99, 0.0);
}

TEST(MetricsRegistry, EmptyAndClear) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.counter("n").increment();
  EXPECT_FALSE(registry.empty());
  registry.clear();
  EXPECT_TRUE(registry.empty());
  EXPECT_TRUE(registry.rows().empty());
}

}  // namespace
}  // namespace fcdpm::obs
