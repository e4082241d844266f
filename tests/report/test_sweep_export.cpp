#include "report/sweep_export.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <string>

namespace fcdpm::report {
namespace {

// The doubles that stress a %.17g / %.12g encoder: a signed zero, the
// smallest subnormal, an inexact decimal, the exponent switch-over, the
// largest finite value and an integer past 2^53's exact range.
constexpr double kNegZero = -0.0;
constexpr double kSubnormal = 5e-324;
constexpr double kTenth = 0.1;
constexpr double kBig = 1e21;
constexpr double kMax = DBL_MAX;
constexpr double kWide = 123456789012345678.0;

SweepBenchReport pinned_report() {
  SweepBenchReport bench;
  bench.trace_name = "cam\"corder";
  bench.points = 3;
  bench.jobs = 2;
  bench.wall_seconds = kTenth;
  bench.points_per_second = kWide;
  bench.cache_hits = 7;
  bench.cache_misses = 9;
  bench.cache_hit_rate = kNegZero;
  bench.serial_wall_seconds = kSubnormal;
  bench.speedup = kBig;
  bench.bit_identical_to_serial = 1;
  bench.cap_enabled = true;
  bench.capped_slots = 11;
  bench.capped_points = 1;
  bench.cap_violations = 0;
  bench.cap_deferred_j = kMax;
  bench.stacks_enabled = true;
  bench.stack_points = 1;
  bench.stack_startups = 4;
  bench.stack_max_wear = kSubnormal;
  bench.batched_points = 3;
  bench.batch_merge_sets = 2;
  bench.batch_merged_lane_slots = 17;
  bench.batch_splits = 1;
  bench.batch_journal_hits = 0;
  bench.audit_enabled = true;
  bench.audit_mode = "sample";
  bench.audited_slots = 95;
  bench.audit_checks = 1023;
  bench.audit_violations = 1;
  bench.engine_fallbacks = 2;
  bench.fallback_points = 1;

  SweepPointRow ok;
  ok.policy = "fcdpm";
  ok.rho = kTenth;
  ok.capacity = kBig;
  ok.storm_seed = 18446744073709551557ull;
  ok.attempts = 2;
  ok.fuel = kWide;
  ok.bled = kNegZero;
  ok.unserved = kSubnormal;
  ok.duration = kMax;
  ok.storage_end = 1.0 / 3.0;
  ok.latency = -kTenth;
  ok.slots = 112;
  ok.sleeps = 40;
  ok.cap_enabled = true;
  ok.capped_slots = 11;
  ok.cap_violations = 0;
  ok.cap_deferred_j = kMax;
  ok.cap_deferred_s = kTenth;
  ok.stacks_enabled = true;
  ok.stacks = 2;
  ok.distribution = "wear";
  ok.stack_startups = 4;
  ok.stack_max_wear = kSubnormal;
  ok.stack_fuel = {kNegZero, kWide};
  ok.audit_enabled = true;
  ok.audit_slots = 95;
  ok.audit_checks = 1023;
  ok.audit_violations = 1;
  ok.engine_fallbacks = 2;
  ok.audit_first = "fuel \"integral\"";
  bench.results.push_back(ok);

  SweepPointRow quarantined;
  quarantined.policy = "oracle";
  quarantined.rho = kNegZero;
  quarantined.capacity = kSubnormal;
  quarantined.ok = false;
  quarantined.error = "power\t\"undeliverable\"\n\x01";
  quarantined.attempts = 3;
  bench.results.push_back(quarantined);

  SweepPointRow replayed;
  replayed.policy = "asap";
  replayed.rho = kMax;
  replayed.capacity = kWide;
  replayed.replayed = true;
  replayed.fuel = kBig;
  replayed.slots = 1;
  bench.results.push_back(replayed);

  bench.resilience.enabled = true;
  bench.resilience.scheduled = 2;
  bench.resilience.replayed = 1;
  bench.resilience.retries = 3;
  bench.resilience.quarantined = 1;
  bench.resilience.rounds = 4;
  bench.resilience.spot_checks = 1;
  bench.resilience.torn_tail_recovered = true;
  bench.resilience.torn_bytes_dropped = 57;
  bench.resilience.watchdog_stalls = 0;
  bench.resilience.max_retries = 2;
  bench.resilience.point_deadline_slots = 500;
  bench.resilience.cap_enabled = true;
  bench.resilience.capped_ok = 1;

  telemetry::SweepSnapshot& t = bench.telemetry.emplace();
  bench.telemetry_snapshots = 5;
  t.done = 3;
  t.retried = 3;
  t.quarantined = 1;
  t.cache_hits = 7;
  t.cache_misses = 9;
  t.hot_dispatches = 1;
  t.reference_dispatches = 2;
  t.batched_dispatches = 3;
  t.heartbeats = 12;
  t.slots = 336;
  t.capped_slots = 11;
  t.audited_slots = 95;
  t.audit_violations = 1;
  t.engine_fallbacks = 2;
  t.throughput_points_per_s = kWide;
  t.wall_p50_us = kTenth;
  t.wall_p95_us = kNegZero;
  t.wall_p99_us = kSubnormal;
  t.wall_max_us = kMax;
  t.worker_skew = kBig;
  telemetry::WorkerSnapshot busy;
  busy.worker = 0;
  busy.done = 2;
  busy.batched_dispatches = 3;
  busy.capped_slots = 11;
  busy.audited_slots = 95;
  busy.audit_violations = 1;
  busy.engine_fallbacks = 2;
  busy.busy_seconds = kTenth;
  t.workers.push_back(busy);
  telemetry::WorkerSnapshot idle;
  idle.worker = 1;
  idle.busy_seconds = kMax;
  t.workers.push_back(idle);
  return bench;
}

// The exact BENCH_sweep.json bytes of a report that carries every
// optional block: an ok row with the cap, stacks and audit blocks, a
// quarantined row whose error needs escaping and a replayed row. Any
// encoder change must keep these bytes.
TEST(SweepExportTest, BenchJsonBytesArePinned) {
  EXPECT_EQ(sweep_bench_to_json(pinned_report()),
            R"({"trace":"cam\"corder","points":3,"jobs":2,"wall_s":0.1)"
            R"(,"points_per_s":1.23456789012e+17,"cache":{"hits":7)"
            R"(,"misses":9,"hit_rate":-0})"
            R"(,"serial_wall_s":4.94065645841e-324,"speedup":1e+21)"
            R"(,"bit_identical_to_serial":1,"cap":{"capped_slots":11)"
            R"(,"capped_points":1,"violations":0)"
            R"(,"deferred_j":1.79769313486e+308},"stacks":{"points":1)"
            R"(,"startups":4,"max_wear":4.9406564584124654e-324})"
            R"(,"batch":{"points":3,"merge_sets":2,"merged_lane_slots":17)"
            R"(,"splits":1,"journal_hits":0},"audit":{"mode":"sample")"
            R"(,"audited_slots":95,"checks":1023,"violations":1)"
            R"(,"engine_fallbacks":2,"fallback_points":1})"
            R"(,"resilience":{"scheduled":2,"replayed":1,"retries":3)"
            R"(,"quarantined":1,"rounds":4,"spot_checks":1)"
            R"(,"torn_tail_recovered":true,"torn_bytes_dropped":57)"
            R"(,"watchdog_stalls":0,"max_retries":2)"
            R"(,"point_deadline_slots":500,"capped_ok":1})"
            R"(,"telemetry":{"snapshots":5,"done":3,"retried":3)"
            R"(,"quarantined":1,"cache_hits":7,"cache_misses":9)"
            R"(,"hot_dispatches":1,"reference_dispatches":2)"
            R"(,"batched_dispatches":3,"heartbeats":12,"slots":336)"
            R"(,"capped_slots":11,"audited_slots":95,"audit_violations":1)"
            R"(,"engine_fallbacks":2,"points_per_s":1.23456789012e+17)"
            R"(,"wall_p50_us":0.1,"wall_p95_us":-0)"
            R"(,"wall_p99_us":4.94065645841e-324)"
            R"(,"wall_max_us":1.79769313486e+308,"worker_skew":1e+21)"
            R"(,"workers":[{"worker":0,"done":2,"retried":0,"quarantined":0)"
            R"(,"cache_hits":0,"cache_misses":0,"hot_dispatches":0)"
            R"(,"reference_dispatches":0,"batched_dispatches":3)"
            R"(,"heartbeats":0,"slots":0,"capped_slots":11)"
            R"(,"audited_slots":95,"audit_violations":1)"
            R"(,"engine_fallbacks":2,"busy_s":0.1},{"worker":1,"done":0)"
            R"(,"retried":0,"quarantined":0,"cache_hits":0,"cache_misses":0)"
            R"(,"hot_dispatches":0,"reference_dispatches":0,"heartbeats":0)"
            R"(,"slots":0,"busy_s":1.79769313486e+308}]})"
            R"(,"results":[{"policy":"fcdpm","rho":0.10000000000000001)"
            R"(,"capacity":1e+21,"storm_seed":18446744073709551557)"
            R"(,"ok":true,"attempts":2,"replayed":false)"
            R"(,"fuel":1.2345678901234568e+17,"bled":-0)"
            R"(,"unserved":4.9406564584124654e-324)"
            R"(,"duration":1.7976931348623157e+308)"
            R"(,"storage_end":0.33333333333333331)"
            R"(,"latency":-0.10000000000000001,"slots":112,"sleeps":40)"
            R"(,"capped_slots":11,"cap_violations":0)"
            R"(,"cap_deferred_j":1.7976931348623157e+308)"
            R"(,"cap_deferred_s":0.10000000000000001,"stacks":2)"
            R"(,"distribution":"wear","stack_startups":4)"
            R"(,"stack_max_wear":4.9406564584124654e-324,"stack_fuel":[-0)"
            R"(,1.2345678901234568e+17],"audit_slots":95)"
            R"(,"audit_checks":1023,"audit_violations":1)"
            R"(,"engine_fallbacks":2,"audit_first":"fuel \"integral\""})"
            R"(,{"policy":"oracle","rho":-0)"
            R"(,"capacity":4.9406564584124654e-324,"storm_seed":0)"
            R"(,"ok":false,"error":"power\t\"undeliverable\"\n\u0001")"
            R"(,"attempts":3,"replayed":false},{"policy":"asap")"
            R"(,"rho":1.7976931348623157e+308)"
            R"(,"capacity":1.2345678901234568e+17,"storm_seed":0,"ok":true)"
            R"(,"attempts":1,"replayed":true,"fuel":1e+21,"bled":0)"
            R"(,"unserved":0,"duration":0,"storage_end":0,"latency":0)"
            R"(,"slots":1,"sleeps":0}]})"
            "\n");
}

TEST(SweepExportTest, EmptyReportBytesArePinned) {
  EXPECT_EQ(sweep_bench_to_json(SweepBenchReport{}),
            R"({"trace":"","points":0,"jobs":0,"wall_s":0,"points_per_s":0)"
            R"(,"cache":{"hits":0,"misses":0,"hit_rate":0})"
            R"(,"serial_wall_s":0,"speedup":0,"bit_identical_to_serial":-1)"
            R"(,"results":[]})"
            "\n");
}

// A nonzero twin count is the one run key gated on its value: it follows
// points_per_s, and a report without twins keeps the bytes above.
TEST(SweepExportTest, TwinsFollowPointsPerSecondWhenNonzero) {
  SweepBenchReport bench;
  bench.twins = 5;
  EXPECT_EQ(sweep_bench_to_json(bench),
            R"({"trace":"","points":0,"jobs":0,"wall_s":0,"points_per_s":0)"
            R"(,"twins":5,"cache":{"hits":0,"misses":0,"hit_rate":0})"
            R"(,"serial_wall_s":0,"speedup":0,"bit_identical_to_serial":-1)"
            R"(,"results":[]})"
            "\n");
}

}  // namespace
}  // namespace fcdpm::report
