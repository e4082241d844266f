#include "telemetry/sweep_telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <thread>
#include <vector>

#include "telemetry/progress.hpp"

namespace fcdpm::telemetry {
namespace {

TelemetryConfig two_worker_config() {
  TelemetryConfig config;
  config.workers = 2;
  config.total_points = 10;
  return config;
}

TEST(SweepTelemetryTest, SnapshotMergesEveryShard) {
  SweepTelemetry tel(two_worker_config());
  WorkerShard& w0 = tel.shards().shard(0);
  WorkerShard& w1 = tel.shards().shard(1);
  w0.done.fetch_add(3, std::memory_order_relaxed);
  w0.cache_hits.fetch_add(5, std::memory_order_relaxed);
  w0.wall_us.observe(100.0);
  w1.done.fetch_add(2, std::memory_order_relaxed);
  w1.retried.fetch_add(1, std::memory_order_relaxed);
  w1.cache_misses.fetch_add(4, std::memory_order_relaxed);
  w1.wall_us.observe(300.0);

  const SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.seq, 1u);
  EXPECT_EQ(snap.total_points, 10u);
  EXPECT_EQ(snap.done, 5u);
  EXPECT_EQ(snap.retried, 1u);
  EXPECT_EQ(snap.cache_hits, 5u);
  EXPECT_EQ(snap.cache_misses, 4u);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate(), 5.0 / 9.0);
  // Quantile clamps to the exact observed max.
  EXPECT_DOUBLE_EQ(snap.wall_max_us, 300.0);
  ASSERT_EQ(snap.workers.size(), 2u);
  EXPECT_EQ(snap.workers[0].done, 3u);
  EXPECT_EQ(snap.workers[1].done, 2u);
  // skew = max(3,2) / mean(2.5).
  EXPECT_DOUBLE_EQ(snap.worker_skew, 3.0 / 2.5);
}

TEST(SweepTelemetryTest, SnapshotsAreMonotonic) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).done.fetch_add(1,
                                              std::memory_order_relaxed);
  const SweepSnapshot first = tel.snapshot();
  tel.shards().shard(1).done.fetch_add(3,
                                              std::memory_order_relaxed);
  const SweepSnapshot second = tel.snapshot();
  EXPECT_GT(second.seq, first.seq);
  EXPECT_GE(second.done, first.done);
  EXPECT_GE(second.elapsed_seconds, first.elapsed_seconds);
}

TEST(SweepTelemetryTest, EtaCountsOnlyUnsettledPoints) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).done.fetch_add(4,
                                              std::memory_order_relaxed);
  tel.shards().shard(1).quarantined.fetch_add(
      6, std::memory_order_relaxed);
  const SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.settled(), 10u);
  // Everything settled: no ETA even though throughput is nonzero.
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);
}

TEST(SweepTelemetryTest, SnapshotOfIdleTelemetryIsAllZeros) {
  SweepTelemetry tel(two_worker_config());
  const SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.done, 0u);
  EXPECT_DOUBLE_EQ(snap.wall_p50_us, 0.0);
  EXPECT_DOUBLE_EQ(snap.worker_skew, 1.0);
  EXPECT_DOUBLE_EQ(snap.eta_seconds, 0.0);
}

TEST(SamplerTest, EmitsPeriodicallyAndStopsCleanly) {
  SweepTelemetry tel(two_worker_config());
  std::atomic<int> calls{0};
  std::uint64_t last_seq = 0;
  {
    Sampler sampler(tel, std::chrono::milliseconds(5),
                    [&](const SweepSnapshot& snap) {
                      calls.fetch_add(1);
                      last_seq = snap.seq;
                    });
    while (calls.load() < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sampler.stop();
    const int after_stop = calls.load();
    EXPECT_EQ(sampler.emitted(), static_cast<std::uint64_t>(after_stop));
    // After stop() returns no further callback runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(calls.load(), after_stop);
    // A final on-demand snapshot continues the seq numbering.
    EXPECT_GT(tel.snapshot().seq, last_seq);
  }
}

TEST(SamplerTest, DestructorStopsWithoutExplicitStop) {
  SweepTelemetry tel(two_worker_config());
  std::atomic<int> calls{0};
  {
    Sampler sampler(tel, std::chrono::milliseconds(1),
                    [&](const SweepSnapshot&) { calls.fetch_add(1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  SUCCEED();  // no crash, no leak (ASan job watches this test)
}

TEST(ProgressTest, SnapshotJsonCarriesTheHeadlineFields) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).done.fetch_add(4,
                                              std::memory_order_relaxed);
  tel.shards().shard(0).cache_hits.fetch_add(2, std::memory_order_relaxed);
  const SweepSnapshot snap = tel.snapshot();
  const std::string line = snapshot_to_json(snap);
  EXPECT_NE(line.find("\"schema\":\"fcdpm.sweep_progress.v1\""),
            std::string::npos);
  EXPECT_NE(line.find("\"done\":4"), std::string::npos);
  EXPECT_NE(line.find("\"total_points\":10"), std::string::npos);
  EXPECT_NE(line.find("\"cache_hits\":2"), std::string::npos);
  EXPECT_NE(line.find("\"workers\":["), std::string::npos);
  // One line, one object.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

// The exact --progress-out bytes of a two-worker snapshot: worker 0 has
// every gated counter nonzero, worker 1 is all zeros, and the doubles
// hit the %.12g edges (signed zero, smallest subnormal, largest finite).
// Any encoder change must keep these bytes.
TEST(ProgressTest, SnapshotJsonBytesArePinned) {
  SweepSnapshot snap;
  snap.seq = 7;
  snap.elapsed_seconds = 0.1;
  snap.total_points = 12;
  snap.done = 3;
  snap.retried = 3;
  snap.quarantined = 1;
  snap.cache_hits = 7;
  snap.cache_misses = 9;
  snap.hot_dispatches = 1;
  snap.reference_dispatches = 2;
  snap.batched_dispatches = 3;
  snap.heartbeats = 12;
  snap.slots = 336;
  snap.capped_slots = 11;
  snap.audited_slots = 95;
  snap.audit_violations = 1;
  snap.engine_fallbacks = 2;
  snap.throughput_points_per_s = 123456789012345678.0;
  snap.eta_seconds = -0.0;
  snap.wall_p50_us = 5e-324;
  snap.wall_p95_us = DBL_MAX;
  snap.wall_p99_us = 1e21;
  snap.wall_max_us = 0.1;
  snap.sim_p50_s = -0.0;
  snap.sim_p95_s = 5e-324;
  snap.sim_p99_s = DBL_MAX;
  snap.sim_max_s = 1e21;
  snap.worker_skew = 2.0;
  WorkerSnapshot busy;
  busy.worker = 0;
  busy.done = 2;
  busy.retried = 1;
  busy.quarantined = 1;
  busy.cache_hits = 5;
  busy.cache_misses = 4;
  busy.hot_dispatches = 1;
  busy.reference_dispatches = 1;
  busy.batched_dispatches = 3;
  busy.heartbeats = 10;
  busy.slots = 224;
  busy.capped_slots = 11;
  busy.audited_slots = 95;
  busy.audit_violations = 1;
  busy.engine_fallbacks = 2;
  busy.busy_seconds = 5e-324;
  snap.workers.push_back(busy);
  WorkerSnapshot idle;
  idle.worker = 1;
  idle.busy_seconds = -0.0;
  snap.workers.push_back(idle);

  EXPECT_EQ(snapshot_to_json(snap),
            R"({"schema":"fcdpm.sweep_progress.v1","seq":7,"elapsed_s":0.1)"
            R"(,"total_points":12,"done":3,"retried":3,"quarantined":1)"
            R"(,"cache_hits":7,"cache_misses":9,"cache_hit_rate":0.4375)"
            R"(,"hot_dispatches":1,"reference_dispatches":2)"
            R"(,"batched_dispatches":3,"heartbeats":12,"slots":336)"
            R"(,"capped_slots":11,"audited_slots":95,"audit_violations":1)"
            R"(,"engine_fallbacks":2,"points_per_s":1.23456789012e+17)"
            R"(,"eta_s":-0,"wall_p50_us":4.94065645841e-324)"
            R"(,"wall_p95_us":1.79769313486e+308,"wall_p99_us":1e+21)"
            R"(,"wall_max_us":0.1,"sim_p50_s":-0)"
            R"(,"sim_p95_s":4.94065645841e-324)"
            R"(,"sim_p99_s":1.79769313486e+308,"sim_max_s":1e+21)"
            R"(,"worker_skew":2,"workers":[{"worker":0,"done":2)"
            R"(,"retried":1,"quarantined":1,"cache_hits":5,"cache_misses":4)"
            R"(,"hot_dispatches":1,"reference_dispatches":1)"
            R"(,"batched_dispatches":3,"heartbeats":10,"slots":224)"
            R"(,"capped_slots":11,"audited_slots":95,"audit_violations":1)"
            R"(,"engine_fallbacks":2,"busy_s":4.94065645841e-324})"
            R"(,{"worker":1,"done":0,"retried":0,"quarantined":0)"
            R"(,"cache_hits":0,"cache_misses":0,"hot_dispatches":0)"
            R"(,"reference_dispatches":0,"heartbeats":0,"slots":0)"
            R"(,"busy_s":-0}]})");
}

TEST(ProgressTest, ProgressLineShowsCompletionAndThroughput) {
  SweepTelemetry tel(two_worker_config());
  tel.shards().shard(0).done.fetch_add(5,
                                              std::memory_order_relaxed);
  const std::string line = progress_line(tel.snapshot());
  EXPECT_NE(line.find("sweep 5/10"), std::string::npos);
  EXPECT_NE(line.find("pt/s"), std::string::npos);
}

}  // namespace
}  // namespace fcdpm::telemetry
