#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

namespace fcdpm::obs {
namespace {

using std::chrono::nanoseconds;

TEST(Profiler, RecordAccumulatesStats) {
  Profiler profiler;
  profiler.record("solve", nanoseconds(100));
  profiler.record("solve", nanoseconds(300));
  profiler.record("solve", nanoseconds(200));

  ASSERT_EQ(profiler.scopes().size(), 1u);
  const Profiler::ScopeStats& stats = profiler.scopes().at("solve");
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.total, nanoseconds(600));
  EXPECT_EQ(stats.min, nanoseconds(100));
  EXPECT_EQ(stats.max, nanoseconds(300));
}

TEST(Profiler, ScopeRecordsOnDestruction) {
  Profiler profiler;
  {
    ProfileScope scope(&profiler, "work");
  }
  ASSERT_FALSE(profiler.empty());
  const Profiler::ScopeStats& stats = profiler.scopes().at("work");
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_GE(stats.total.count(), 0);
}

TEST(Profiler, NullProfilerScopeIsANoop) {
  ProfileScope scope(nullptr, "ignored");
  SUCCEED();
}

TEST(Profiler, SummaryOrdersByTotalDescending) {
  Profiler profiler;
  profiler.record("small", nanoseconds(1000));
  profiler.record("large", nanoseconds(9000000));

  const std::string summary = profiler.summary();
  const std::size_t large_at = summary.find("large");
  const std::size_t small_at = summary.find("small");
  ASSERT_NE(large_at, std::string::npos);
  ASSERT_NE(small_at, std::string::npos);
  EXPECT_LT(large_at, small_at);
}

// The summary's bytes: "%-32s %10s %12s %10s %10s %10s" columns, a
// scope name longer than its column, and values that round.
TEST(Profiler, SummaryBytesArePinned) {
  Profiler profiler;
  const char* const long_name = "par.sweep.point_with_a_long_scope_name";
  profiler.record(long_name, nanoseconds(1234));
  profiler.record(long_name, nanoseconds(9000000));
  profiler.record("solve", nanoseconds(5));
  profiler.record("solve", nanoseconds(500));
  profiler.record("solve", nanoseconds(2000));
  EXPECT_EQ(profiler.summary(),
            "scope                                 calls     total_ms    "
            "mean_us     min_us     max_us\n"
            "par.sweep.point_with_a_long_scope_name          2        9.001"
            "    4500.62       1.23    9000.00\n"
            "solve                                     3        0.003     "
            "  0.83       0.01       2.00\n");
}

TEST(Profiler, ClearEmptiesScopes) {
  Profiler profiler;
  profiler.record("x", nanoseconds(10));
  profiler.clear();
  EXPECT_TRUE(profiler.empty());
}

}  // namespace
}  // namespace fcdpm::obs
