#include "telemetry/lanes.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"

namespace fcdpm::telemetry {
namespace {

/// Captures everything for assertions.
class CaptureSink final : public obs::TraceSink {
 public:
  struct Captured {
    obs::EventKind kind;
    std::string name;
    int track;
    double time;
    double arg0;
  };

  void event(const obs::TraceEvent& event) override {
    events.push_back({event.kind, event.name, event.track,
                      event.time.value(),
                      event.arg_count > 0 ? event.args[0].value : 0.0});
  }
  void track_name(int track, const char* name) override {
    names[track] = name;
  }
  void flush() override { ++flushes; }

  std::vector<Captured> events;
  std::map<int, std::string> names;
  int flushes = 0;
};

PointLane lane(std::uint64_t start_ns, std::uint64_t end_ns,
               std::uint32_t index) {
  PointLane l;
  l.start_ns = start_ns;
  l.end_ns = end_ns;
  l.point_index = index;
  return l;
}

TEST(LanesTest, EveryWorkerGetsItsOwnNamedTrack) {
  LaneRecorder recorder(3, 4);
  recorder.record(0, lane(0, 100, 0));
  // Worker 1 stays idle; worker 2 runs one point.
  recorder.record(2, lane(50, 150, 1));

  CaptureSink sink;
  emit_lanes(recorder, 2, sink, /*base_track=*/10);

  EXPECT_EQ(sink.names[10], "sweep counters");
  EXPECT_EQ(sink.names[11], "sweep worker 0");
  EXPECT_EQ(sink.names[12], "sweep worker 1");
  EXPECT_EQ(sink.names[13], "sweep worker 2");
  EXPECT_EQ(sink.flushes, 1);

  int spans_on_11 = 0;
  int spans_on_13 = 0;
  for (const CaptureSink::Captured& e : sink.events) {
    if (e.kind == obs::EventKind::SpanBegin) {
      spans_on_11 += e.track == 11;
      spans_on_13 += e.track == 13;
    }
  }
  EXPECT_EQ(spans_on_11, 1);
  EXPECT_EQ(spans_on_13, 1);
}

TEST(LanesTest, PointSpansCarryTheLandedEngine) {
  LaneRecorder recorder(1, 3);
  PointLane reference = lane(0, 1000, 0);
  PointLane hot = lane(1000, 2000, 1);
  hot.engine = sim::Engine::Hot;
  PointLane batched = lane(2000, 3000, 2);
  batched.engine = sim::Engine::Batched;
  recorder.record(0, reference);
  recorder.record(0, hot);
  recorder.record(0, batched);

  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  emit_lanes(recorder, 3, sink);

  std::vector<std::string> begins;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\":\"B\"") != std::string::npos) {
      begins.push_back(line);
    }
  }
  // sim::Engine's order: 0 reference, 1 hot, 2 batched.
  ASSERT_EQ(begins.size(), 3u);
  EXPECT_EQ(begins[0],
            R"({"ph":"B","name":"point","cat":"sweep","t":0,"track":1,)"
            R"("args":{"index":0,"attempt":1,"cache_hits":0,"engine":0}})");
  EXPECT_EQ(begins[1],
            R"({"ph":"B","name":"point","cat":"sweep",)"
            R"("t":1.0000000000000002e-06,"track":1,)"
            R"("args":{"index":1,"attempt":1,"cache_hits":0,"engine":1}})");
  EXPECT_EQ(begins[2],
            R"({"ph":"B","name":"point","cat":"sweep",)"
            R"("t":2.0000000000000003e-06,"track":1,)"
            R"("args":{"index":2,"attempt":1,"cache_hits":0,"engine":2}})");
}

TEST(LanesTest, QueueDepthSettlesOkAndQuarantinedButNotRetries) {
  LaneRecorder recorder(1, 4);
  PointLane first = lane(0, 100, 0);  // ok
  PointLane retry = lane(100, 200, 1);
  retry.ok = false;  // failed attempt, will re-run: not settled
  PointLane quarantine = lane(200, 300, 1);
  quarantine.ok = false;
  quarantine.quarantined = true;  // final failure: settled
  recorder.record(0, first);
  recorder.record(0, retry);
  recorder.record(0, quarantine);

  CaptureSink sink;
  emit_lanes(recorder, 2, sink);

  std::vector<double> depths;
  int failed_instants = 0;
  for (const CaptureSink::Captured& e : sink.events) {
    if (e.kind == obs::EventKind::Counter &&
        e.name == "sweep.queue_depth") {
      depths.push_back(e.arg0);
    }
    failed_instants += e.kind == obs::EventKind::Instant &&
                       e.name == "point.failed";
  }
  // Completion order: ok (depth 1), retry (still 1), quarantine (0).
  ASSERT_EQ(depths.size(), 3u);
  EXPECT_DOUBLE_EQ(depths[0], 1.0);
  EXPECT_DOUBLE_EQ(depths[1], 1.0);
  EXPECT_DOUBLE_EQ(depths[2], 0.0);
  EXPECT_EQ(failed_instants, 2);
}

TEST(LanesTest, CacheHitRateAccumulatesAcrossCompletionsInWallOrder) {
  LaneRecorder recorder(2, 2);
  PointLane a = lane(0, 100, 0);
  a.cache_hits = 0;
  a.cache_misses = 2;
  PointLane b = lane(0, 200, 1);
  b.cache_hits = 2;
  b.cache_misses = 0;
  // Recorded out of wall order across workers; emission sorts by end.
  recorder.record(1, b);
  recorder.record(0, a);

  CaptureSink sink;
  emit_lanes(recorder, 2, sink);

  std::vector<double> rates;
  for (const CaptureSink::Captured& e : sink.events) {
    if (e.kind == obs::EventKind::Counter &&
        e.name == "sweep.cache_hit_rate") {
      rates.push_back(e.arg0);
    }
  }
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);  // after a: 0 of 2
  EXPECT_DOUBLE_EQ(rates[1], 0.5);  // after b: 2 of 4
}

TEST(LanesTest, SpanTimesAreWallSecondsSinceSweepStart) {
  LaneRecorder recorder(1, 1);
  recorder.record(0, lane(1500000000ull, 2500000000ull, 7));
  CaptureSink sink;
  emit_lanes(recorder, 1, sink);
  ASSERT_GE(sink.events.size(), 2u);
  EXPECT_DOUBLE_EQ(sink.events[0].time, 1.5);
  EXPECT_DOUBLE_EQ(sink.events[1].time, 2.5);
  EXPECT_DOUBLE_EQ(sink.events[0].arg0, 7.0);  // index arg
}

}  // namespace
}  // namespace fcdpm::telemetry
