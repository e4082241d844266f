#include "telemetry/bench_history.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/text.hpp"
#include "obs/trace_sink.hpp"  // obs::json_escape

namespace fcdpm::telemetry {

namespace {

/// Stringify an env value (numbers without a spurious ".0").
std::string env_to_string(const json::Value& v) {
  switch (v.kind()) {
    case json::Kind::String:
      return v.as_string();
    case json::Kind::Bool:
      return v.as_bool() ? "true" : "false";
    case json::Kind::Number: {
      const double n = v.as_number();
      if (n == static_cast<double>(static_cast<long long>(n))) {
        return std::to_string(static_cast<long long>(n));
      }
      return format_g17(n);
    }
    default:
      return {};
  }
}

void capture_env(const json::Value& bench, HistoryRow& row) {
  const json::Value* env = bench.find("env");
  if (env == nullptr || !env->is_object()) {
    return;
  }
  for (const auto& [key, value] : env->members()) {
    row.env.emplace_back(key, env_to_string(value));
  }
}

void add_metric(const json::Value& bench, const char* path, const char* name,
                HistoryRow& row) {
  if (const auto n = bench.number_at(path)) {
    row.metrics.emplace_back(name, *n);
  }
}

}  // namespace

bool make_history_row(const json::Value& bench,
                      const std::string& source_name, HistoryRow& out,
                      std::string& error) {
  out = HistoryRow{};
  out.source = source_name;
  capture_env(bench, out);

  const std::string schema = bench.string_at("schema");
  if (schema == "fcdpm.bench.core.v1") {
    out.kind = "core";
    add_metric(bench, "timing.single_run.hot_us", "hot_us", out);
    add_metric(bench, "timing.single_run.speedup", "single_run_speedup", out);
    add_metric(bench, "timing.lifetime.hot_ms", "hot_ms", out);
    add_metric(bench, "timing.lifetime.speedup", "lifetime_speedup", out);
    return true;
  }
  if (schema == "fcdpm.bench.batch.v1") {
    out.kind = "batch";
    add_metric(bench, "timing.jobs1.speedup", "speedup_jobs1", out);
    add_metric(bench, "timing.jobsN.speedup", "speedup_jobsN", out);
    add_metric(bench, "timing.jobs1.devices_per_s", "devices_per_s", out);
    return true;
  }
  if (bench.at_path("points_per_s") != nullptr) {
    out.kind = "sweep";
    add_metric(bench, "wall_s", "wall_s", out);
    add_metric(bench, "points_per_s", "points_per_s", out);
    add_metric(bench, "speedup", "speedup", out);
    return true;
  }
  error = schema.empty()
              ? "unrecognized bench document (no schema, no sweep fields)"
              : "unrecognized bench schema: " + schema;
  return false;
}

std::string history_row_to_json(const HistoryRow& row) {
  std::string out = "{\"schema\":\"";
  out += kHistorySchema;
  out += "\",\"kind\":\"" + obs::json_escape(row.kind.c_str()) + "\"";
  out += ",\"timestamp\":\"" + obs::json_escape(row.timestamp.c_str()) + "\"";
  out += ",\"git_sha\":\"" + obs::json_escape(row.git_sha.c_str()) + "\"";
  out += ",\"source\":\"" + obs::json_escape(row.source.c_str()) + "\"";
  out += ",\"env\":{";
  for (std::size_t i = 0; i < row.env.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += "\"" + obs::json_escape(row.env[i].first.c_str()) + "\":\"" +
           obs::json_escape(row.env[i].second.c_str()) + "\"";
  }
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < row.metrics.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += "\"" + obs::json_escape(row.metrics[i].first.c_str()) +
           "\":" + format_g17(row.metrics[i].second);
  }
  out += "}}";
  return out;
}

bool parse_history_row(const std::string& line, HistoryRow& out) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.ok || !parsed.value.is_object()) {
    return false;
  }
  const json::Value& doc = parsed.value;
  if (doc.string_at("schema") != kHistorySchema) {
    return false;
  }
  out = HistoryRow{};
  out.kind = doc.string_at("kind");
  out.timestamp = doc.string_at("timestamp");
  out.git_sha = doc.string_at("git_sha");
  out.source = doc.string_at("source");
  if (const json::Value* env = doc.find("env");
      env != nullptr && env->is_object()) {
    for (const auto& [key, value] : env->members()) {
      if (value.is_string()) {
        out.env.emplace_back(key, value.as_string());
      }
    }
  }
  const json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return false;
  }
  for (const auto& [key, value] : metrics->members()) {
    if (!value.is_number()) {
      return false;
    }
    out.metrics.emplace_back(key, value.as_number());
  }
  return !out.kind.empty();
}

std::vector<HistoryRow> load_history(const std::string& path,
                                     std::size_t* skipped) {
  std::vector<HistoryRow> rows;
  std::size_t bad = 0;
  std::ifstream in(path);
  std::string line;
  while (in.good() && std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    HistoryRow row;
    if (parse_history_row(line, row)) {
      rows.push_back(std::move(row));
    } else {
      ++bad;
    }
  }
  if (skipped != nullptr) {
    *skipped = bad;
  }
  return rows;
}

bool append_history(const std::string& path, const HistoryRow& row) {
  std::ofstream out(path, std::ios::app);
  if (!out.good()) {
    return false;
  }
  out << history_row_to_json(row) << '\n';
  out.flush();
  return out.good();
}

bool metric_direction(const std::string& name, Direction& out) {
  static constexpr const char* kHigher[] = {
      "points_per_s",     "speedup",       "single_run_speedup",
      "lifetime_speedup", "speedup_jobs1", "speedup_jobsN",
      "devices_per_s"};
  static constexpr const char* kLower[] = {"wall_s", "hot_us", "hot_ms"};
  for (const char* metric : kHigher) {
    if (name == metric) {
      out = Direction::HigherIsBetter;
      return true;
    }
  }
  for (const char* metric : kLower) {
    if (name == metric) {
      out = Direction::LowerIsBetter;
      return true;
    }
  }
  return false;
}

namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

CheckResult check_regression(const std::vector<HistoryRow>& history,
                             const HistoryRow& row,
                             const CheckOptions& options) {
  CheckResult result;

  // Trailing window of same-kind rows, most recent last.
  std::vector<const HistoryRow*> window;
  for (const HistoryRow& past : history) {
    if (past.kind == row.kind) {
      window.push_back(&past);
    }
  }
  if (window.size() > options.window) {
    window.erase(window.begin(),
                 window.end() - static_cast<std::ptrdiff_t>(options.window));
  }

  for (const auto& [name, value] : row.metrics) {
    if (!options.metrics.empty() &&
        std::find(options.metrics.begin(), options.metrics.end(), name) ==
            options.metrics.end()) {
      continue;
    }
    Direction direction{};
    if (!metric_direction(name, direction)) {
      continue;  // recorded, never gated
    }
    std::vector<double> samples;
    for (const HistoryRow* past : window) {
      if (const double* v = past->metric(name)) {
        samples.push_back(*v);
      }
    }
    if (samples.empty()) {
      continue;  // first run of this metric: nothing to compare against
    }
    MetricCheck check;
    check.name = name;
    check.value = value;
    check.samples = samples.size();
    check.baseline = median(std::move(samples));
    check.direction = direction;
    if (direction == Direction::HigherIsBetter) {
      check.regressed = value < check.baseline * (1.0 - options.tolerance);
    } else {
      check.regressed = value > check.baseline * (1.0 + options.tolerance);
    }
    result.ok = result.ok && !check.regressed;
    result.checks.push_back(std::move(check));
  }
  return result;
}

}  // namespace fcdpm::telemetry
