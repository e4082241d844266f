#include "report/obs_export.hpp"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/text.hpp"
#include "obs/trace_sink.hpp"

namespace fcdpm::report {

namespace {

std::string format_count(std::uint64_t value) {
  return std::to_string(value);
}

}  // namespace

CsvDocument metrics_to_csv(const obs::MetricsRegistry& metrics) {
  CsvDocument doc;
  doc.header = {"name", "type", "count", "value",
                "min",  "max",  "p50",   "p95",   "p99"};
  for (const obs::MetricRow& row : metrics.rows()) {
    doc.rows.push_back({row.name, row.type, format_count(row.count),
                        format_g12(row.value), format_g12(row.min),
                        format_g12(row.max), format_g12(row.p50),
                        format_g12(row.p95), format_g12(row.p99)});
  }
  return doc;
}

std::string metrics_to_json(const obs::MetricsRegistry& metrics) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const obs::MetricRow& row : metrics.rows()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"" + obs::json_escape(row.name.c_str()) +
           "\",\"type\":\"" + row.type +
           "\",\"count\":" + format_count(row.count) +
           ",\"value\":" + format_g12(row.value) +
           ",\"min\":" + format_g12(row.min) +
           ",\"max\":" + format_g12(row.max) +
           ",\"p50\":" + format_g12(row.p50) +
           ",\"p95\":" + format_g12(row.p95) +
           ",\"p99\":" + format_g12(row.p99) + "}";
  }
  out += "]}\n";
  return out;
}

void write_metrics_file(const std::string& path,
                        const obs::MetricsRegistry& metrics) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json) {
    write_file_atomic(path, metrics_to_json(metrics));
    return;
  }
  write_csv_file(path, metrics_to_csv(metrics));
}

CsvDocument profile_to_csv(const obs::Profiler& profiler) {
  using Entry = std::pair<std::string, obs::Profiler::ScopeStats>;
  std::vector<Entry> entries(profiler.scopes().begin(),
                             profiler.scopes().end());
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.second.total > b.second.total;
            });

  CsvDocument doc;
  doc.header = {"scope", "calls", "total_ms", "mean_us", "min_us", "max_us"};
  for (const Entry& entry : entries) {
    const obs::Profiler::ScopeStats& stats = entry.second;
    const double total_us =
        static_cast<double>(stats.total.count()) / 1e3;
    const double calls = static_cast<double>(stats.calls);
    doc.rows.push_back(
        {entry.first, format_count(stats.calls),
         format_g12(total_us / 1e3),
         format_g12(stats.calls == 0 ? 0.0 : total_us / calls),
         format_g12(static_cast<double>(stats.min.count()) / 1e3),
         format_g12(static_cast<double>(stats.max.count()) / 1e3)});
  }
  return doc;
}

}  // namespace fcdpm::report
