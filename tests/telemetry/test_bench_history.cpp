#include "telemetry/bench_history.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"
#include "telemetry/json.hpp"

namespace fcdpm::telemetry {
namespace {

// --- the JSON reader -------------------------------------------------

TEST(JsonTest, ParsesScalarsArraysAndNestedObjects) {
  const json::ParseResult r = json::parse(
      R"({"a":1.5,"b":"x","c":[1,2,3],"d":{"e":true,"f":null},"g":-2e3})");
  ASSERT_TRUE(r.ok) << r.error;
  const json::Value& v = r.value;
  EXPECT_DOUBLE_EQ(v.number_at("a").value(), 1.5);
  EXPECT_EQ(v.string_at("b"), "x");
  ASSERT_NE(v.find("c"), nullptr);
  EXPECT_EQ(v.find("c")->items().size(), 3u);
  EXPECT_TRUE(v.at_path("d.e")->as_bool());
  EXPECT_TRUE(v.at_path("d.f")->is_null());
  EXPECT_DOUBLE_EQ(v.number_at("g").value(), -2000.0);
}

TEST(JsonTest, PreservesMemberOrderAndFirstWinsLookup) {
  const json::ParseResult r = json::parse(R"({"z":1,"a":2,"z":3})");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.value.members().size(), 3u);
  EXPECT_EQ(r.value.members()[0].first, "z");
  EXPECT_EQ(r.value.members()[1].first, "a");
  EXPECT_DOUBLE_EQ(r.value.find("z")->as_number(), 1.0);  // first wins
}

TEST(JsonTest, UnescapesStringsIncludingBmpUnicode) {
  const json::ParseResult r =
      json::parse(R"({"s":"a\"b\\c\nd\u0041\u00e9"})");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.string_at("s"), "a\"b\\c\nd"
                                    "A\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedDocumentsWithAPosition) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"\\q\""}) {
    const json::ParseResult r = json::parse(bad);
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_FALSE(r.error.empty()) << bad;
  }
  // Error position points at the offending byte.
  const json::ParseResult r = json::parse("{\"a\":1,xxx}");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_byte, 7u);
}

// The journal's flat read and the tree parse share one escape rule:
// every string the JSON writer can emit comes back as the same bytes,
// and both reject the same malformed strings.
TEST(JsonTest, FlatAndTreeReadsShareOneEscapeRule) {
  std::vector<std::string> texts;
  for (int byte = 0x01; byte <= 0x7f; ++byte) {
    texts.push_back(std::string(1, static_cast<char>(byte)) + "x");
  }
  texts.emplace_back("a\xc3\xa9\xe2\x82\xac\xf0\x9f\x94\x8b\"\n");
  json::FlatObject flat;
  for (const std::string& text : texts) {
    SCOPED_TRACE(testing::Message()
                 << "byte=" << static_cast<int>(text.front()));
    std::string doc = R"({"n":1,"s":")";
    obs::append_json_escaped(doc, text.c_str());
    doc += R"("})";
    const json::ParseResult tree = json::parse(doc);
    ASSERT_TRUE(tree.ok) << tree.error;
    EXPECT_EQ(tree.value.string_at("s"), text);
    ASSERT_TRUE(json::parse_flat(doc, flat));
    ASSERT_EQ(flat.members.size(), 2u);
    EXPECT_EQ(flat.members[1].first, "s");
    EXPECT_EQ(flat.members[1].second.kind, json::Kind::String);
    EXPECT_EQ(flat.members[1].second.text, text);
  }
  for (const char* bad :
       {R"({"s":"abc)", R"({"s":"a\q"})", R"({"s":"\u00"})",
        R"({"s":"\u00g1"})", R"({"s":"a",})", R"({"s":"a"} x)"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(json::parse(bad).ok);
    EXPECT_FALSE(json::parse_flat(bad, flat));
  }
}

// The flat read keeps integers exact past 2^53, saturates past 2^64 - 1,
// and refuses every value that is not a string, unsigned integer or bool.
TEST(JsonTest, FlatReadTakesScalarsOnlyWithExactIntegers) {
  json::FlatObject flat;
  ASSERT_TRUE(json::parse_flat(
      R"( {"a":18446744073709551557, "b":true,"c":99999999999999999999999,)"
      R"("a":2,"d":false} )",
      flat));
  ASSERT_EQ(flat.members.size(), 4u);  // the repeated "a" keeps its first
  EXPECT_EQ(flat.members[0].second.kind, json::Kind::Number);
  EXPECT_EQ(flat.members[0].second.integer, 18446744073709551557ull);
  EXPECT_TRUE(flat.members[1].second.boolean);
  EXPECT_EQ(flat.members[2].second.integer, 18446744073709551615ull);
  EXPECT_EQ(flat.members[3].first, "d");
  EXPECT_FALSE(flat.members[3].second.boolean);
  ASSERT_TRUE(json::parse_flat("{}", flat));
  EXPECT_TRUE(flat.members.empty());
  for (const char* bad :
       {R"({"a":null})", R"({"a":{"b":1}})", R"({"a":[1]})", R"({"a":-1})",
        R"({"a":1.5})", R"({"a":1e3})", R"({"a":+1})", R"([1])", R"("a")",
        ""}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(json::parse_flat(bad, flat));
  }
}

TEST(JsonTest, NumberAtReturnsNulloptForMissingOrMistyped) {
  const json::ParseResult r = json::parse(R"({"a":{"b":"s"}})");
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.value.number_at("a.b").has_value());
  EXPECT_FALSE(r.value.number_at("a.c").has_value());
  EXPECT_FALSE(r.value.number_at("x.y.z").has_value());
}

// --- row construction ------------------------------------------------

json::Value parse_ok(const std::string& text) {
  const json::ParseResult r = json::parse(text);
  EXPECT_TRUE(r.ok) << r.error;
  return r.value;
}

TEST(BenchHistoryTest, BuildsACoreRowFromBenchCoreJson) {
  const json::Value bench = parse_ok(R"({
    "schema": "fcdpm.bench.core.v1",
    "env": {"compiler": "gcc 13", "cpp_standard": 202002, "assertions": true},
    "timing": {
      "single_run": {"hot_us": 420.5, "speedup": 2.0},
      "lifetime": {"hot_ms": 37.25, "speedup": 2.05}
    }
  })");
  HistoryRow row;
  std::string error;
  ASSERT_TRUE(make_history_row(bench, "BENCH_core.json", row, error))
      << error;
  EXPECT_EQ(row.kind, "core");
  EXPECT_EQ(row.source, "BENCH_core.json");
  ASSERT_EQ(row.env.size(), 3u);
  EXPECT_EQ(row.env[0].second, "gcc 13");
  EXPECT_EQ(row.env[1].second, "202002");  // numbers stringify integrally
  EXPECT_EQ(row.env[2].second, "true");
  ASSERT_NE(row.metric("hot_us"), nullptr);
  EXPECT_DOUBLE_EQ(*row.metric("hot_us"), 420.5);
  EXPECT_DOUBLE_EQ(*row.metric("lifetime_speedup"), 2.05);
  EXPECT_EQ(row.metric("nope"), nullptr);
}

TEST(BenchHistoryTest, BuildsASweepRowFromBenchSweepJson) {
  const json::Value bench = parse_ok(R"({
    "trace": "camcorder", "points": 24, "jobs": 4,
    "wall_s": 1.25, "points_per_s": 19.2, "speedup": 3.1,
    "cache": {"hits": 10, "misses": 2, "hit_rate": 0.8333}
  })");
  HistoryRow row;
  std::string error;
  ASSERT_TRUE(make_history_row(bench, "BENCH_sweep.json", row, error));
  EXPECT_EQ(row.kind, "sweep");
  EXPECT_DOUBLE_EQ(*row.metric("wall_s"), 1.25);
  EXPECT_DOUBLE_EQ(*row.metric("points_per_s"), 19.2);
  // Sweeps attach a solve memo only for snapped keys, so the hit rate
  // usually reads 0; it is not a ledger metric and never gates.
  EXPECT_EQ(row.metric("cache_hit_rate"), nullptr);
  Direction direction{};
  EXPECT_FALSE(metric_direction("cache_hit_rate", direction));
}

TEST(BenchHistoryTest, BuildsABatchRowFromBenchBatchJson) {
  const json::Value bench = parse_ok(R"({
    "schema": "fcdpm.bench.batch.v1",
    "env": {"compiler": "gcc 13"},
    "timing": {
      "jobs1": {"speedup": 5.4, "devices_per_s": 140000.0},
      "jobsN": {"jobs": 2, "speedup": 5.5}
    }
  })");
  HistoryRow row;
  std::string error;
  ASSERT_TRUE(make_history_row(bench, "BENCH_batch.json", row, error))
      << error;
  EXPECT_EQ(row.kind, "batch");
  EXPECT_DOUBLE_EQ(*row.metric("speedup_jobs1"), 5.4);
  EXPECT_DOUBLE_EQ(*row.metric("speedup_jobsN"), 5.5);
  EXPECT_DOUBLE_EQ(*row.metric("devices_per_s"), 140000.0);
  // Batch speedups gate as higher-is-better like every other speedup.
  Direction direction{};
  ASSERT_TRUE(metric_direction("speedup_jobs1", direction));
  EXPECT_EQ(direction, Direction::HigherIsBetter);
  ASSERT_TRUE(metric_direction("devices_per_s", direction));
  EXPECT_EQ(direction, Direction::HigherIsBetter);
}

TEST(BenchHistoryTest, RejectsUnknownDocuments) {
  HistoryRow row;
  std::string error;
  EXPECT_FALSE(
      make_history_row(parse_ok(R"({"hello": 1})"), "x.json", row, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(make_history_row(parse_ok(R"({"schema": "other.v9"})"),
                                "x.json", row, error));
  EXPECT_NE(error.find("other.v9"), std::string::npos);
}

// --- ledger round-trip -----------------------------------------------

HistoryRow sample_row(double points_per_s, double wall_s) {
  HistoryRow row;
  row.kind = "sweep";
  row.timestamp = "2026-08-08T00:00:00Z";
  row.git_sha = "abc123";
  row.source = "BENCH_sweep.json";
  row.env.emplace_back("compiler", "gcc");
  row.metrics.emplace_back("points_per_s", points_per_s);
  row.metrics.emplace_back("wall_s", wall_s);
  return row;
}

TEST(BenchHistoryTest, RowsRoundTripThroughTheLedgerLine) {
  const HistoryRow row = sample_row(19.25, 1.5);
  const std::string line = history_row_to_json(row);
  EXPECT_NE(line.find("\"schema\":\"fcdpm.bench_history.v1\""),
            std::string::npos);
  HistoryRow back;
  ASSERT_TRUE(parse_history_row(line, back));
  EXPECT_EQ(back.kind, row.kind);
  EXPECT_EQ(back.timestamp, row.timestamp);
  EXPECT_EQ(back.git_sha, row.git_sha);
  EXPECT_EQ(back.source, row.source);
  ASSERT_EQ(back.env.size(), 1u);
  EXPECT_EQ(back.env[0].second, "gcc");
  ASSERT_EQ(back.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(*back.metric("points_per_s"), 19.25);
}

TEST(BenchHistoryTest, ParseRowRejectsForeignSchemasAndBadMetrics) {
  HistoryRow row;
  EXPECT_FALSE(parse_history_row("{}", row));
  EXPECT_FALSE(parse_history_row(R"({"schema":"other"})", row));
  EXPECT_FALSE(parse_history_row(
      R"({"schema":"fcdpm.bench_history.v1","kind":"core",)"
      R"("metrics":{"a":"not a number"}})",
      row));
  EXPECT_FALSE(parse_history_row(
      R"({"schema":"fcdpm.bench_history.v1","kind":"","metrics":{}})", row));
}

TEST(BenchHistoryTest, LoadHistorySkipsTornRowsAndMissingFilesAreEmpty) {
  const std::string path = ::testing::TempDir() + "history_torn.jsonl";
  {
    std::ofstream out(path);
    out << history_row_to_json(sample_row(10.0, 1.0)) << '\n';
    out << "{\"schema\":\"fcdpm.bench_history.v1\",\"kind\":\"sw" << '\n';
    out << history_row_to_json(sample_row(11.0, 0.9)) << '\n';
  }
  std::size_t skipped = 0;
  const std::vector<HistoryRow> rows = load_history(path, &skipped);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(skipped, 1u);
  std::remove(path.c_str());

  const std::vector<HistoryRow> none =
      load_history(::testing::TempDir() + "no_such_ledger.jsonl", &skipped);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(skipped, 0u);
}

TEST(BenchHistoryTest, AppendHistoryAppendsOneLinePerCall) {
  const std::string path = ::testing::TempDir() + "history_append.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(append_history(path, sample_row(10.0, 1.0)));
  ASSERT_TRUE(append_history(path, sample_row(12.0, 0.8)));
  const std::vector<HistoryRow> rows = load_history(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(*rows[1].metric("points_per_s"), 12.0);
  std::remove(path.c_str());
}

// --- the regression gate ---------------------------------------------

std::vector<HistoryRow> history_of(std::initializer_list<double> rates) {
  std::vector<HistoryRow> rows;
  for (const double rate : rates) {
    rows.push_back(sample_row(rate, 10.0 / rate));
  }
  return rows;
}

TEST(BenchHistoryTest, FirstRunHasNothingToGateAndPasses) {
  const CheckResult result =
      check_regression({}, sample_row(5.0, 2.0), CheckOptions{});
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.checks.empty());
}

TEST(BenchHistoryTest, HigherIsBetterMetricRegressesBelowTolerance) {
  const std::vector<HistoryRow> history = history_of({10.0, 10.0, 10.0});
  CheckOptions options;
  options.tolerance = 0.15;
  // 9.0 is within 15% of the median 10.0; 8.0 is not.
  EXPECT_TRUE(
      check_regression(history, sample_row(9.0, 1.0), options).ok);
  const CheckResult bad =
      check_regression(history, sample_row(8.0, 1.0), options);
  EXPECT_FALSE(bad.ok);
  bool found = false;
  for (const MetricCheck& check : bad.checks) {
    if (check.name == "points_per_s") {
      found = true;
      EXPECT_TRUE(check.regressed);
      EXPECT_DOUBLE_EQ(check.baseline, 10.0);
      EXPECT_EQ(check.samples, 3u);
      EXPECT_EQ(check.direction, Direction::HigherIsBetter);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchHistoryTest, LowerIsBetterMetricRegressesAboveTolerance) {
  std::vector<HistoryRow> history = history_of({10.0, 10.0});
  CheckOptions options;
  options.tolerance = 0.10;
  // wall_s baseline is 1.0; 1.05 passes, 1.2 regresses even though
  // points_per_s (also present) is fine.
  HistoryRow slow = sample_row(10.0, 1.2);
  const CheckResult result = check_regression(history, slow, options);
  EXPECT_FALSE(result.ok);
  for (const MetricCheck& check : result.checks) {
    if (check.name == "wall_s") {
      EXPECT_TRUE(check.regressed);
      EXPECT_EQ(check.direction, Direction::LowerIsBetter);
    }
    if (check.name == "points_per_s") {
      EXPECT_FALSE(check.regressed);
    }
  }
  EXPECT_TRUE(
      check_regression(history, sample_row(10.0, 1.05), options).ok);
}

TEST(BenchHistoryTest, BaselineUsesOnlyTheTrailingWindow) {
  // Six old fast rows, then two recent slow ones; window 2 means the
  // baseline is the slow median and a slow value passes.
  std::vector<HistoryRow> history =
      history_of({20.0, 20.0, 20.0, 20.0, 20.0, 20.0, 5.0, 5.0});
  CheckOptions options;
  options.window = 2;
  EXPECT_TRUE(check_regression(history, sample_row(5.0, 2.0), options).ok);
  // Window 8 pulls the fast rows back in: 5.0 regresses.
  options.window = 8;
  EXPECT_FALSE(
      check_regression(history, sample_row(5.0, 2.0), options).ok);
}

TEST(BenchHistoryTest, KindsAreGatedSeparately) {
  std::vector<HistoryRow> history = history_of({10.0});
  HistoryRow core;
  core.kind = "core";
  core.metrics.emplace_back("hot_us", 1e9);  // terrible, but no core history
  EXPECT_TRUE(check_regression(history, core, CheckOptions{}).ok);
}

TEST(BenchHistoryTest, MetricsFilterLimitsTheGate) {
  std::vector<HistoryRow> history = history_of({10.0});
  CheckOptions options;
  options.metrics = {"wall_s"};
  // points_per_s collapsed but is not gated under the filter.
  HistoryRow row = sample_row(1.0, 1.0);
  const CheckResult result = check_regression(history, row, options);
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.checks.size(), 1u);
  EXPECT_EQ(result.checks[0].name, "wall_s");
}

TEST(BenchHistoryTest, UnknownMetricsAreRecordedButNeverGated) {
  Direction direction{};
  EXPECT_FALSE(metric_direction("bogus_metric", direction));
  std::vector<HistoryRow> history = history_of({10.0});
  history[0].metrics.emplace_back("bogus_metric", 100.0);
  HistoryRow row = sample_row(10.0, 1.0);
  row.metrics.emplace_back("bogus_metric", 1.0);
  EXPECT_TRUE(check_regression(history, row, CheckOptions{}).ok);
}

}  // namespace
}  // namespace fcdpm::telemetry
