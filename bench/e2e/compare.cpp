#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "e2e.hpp"
#include "telemetry/json.hpp"

namespace fcdpm::e2e {
namespace {

namespace json = telemetry::json;

json::Value parse_file(const std::string& path) {
  const json::ParseResult parsed = json::parse(read_file(path));
  if (!parsed.ok) {
    throw std::runtime_error(path + ": " + parsed.error + " at byte " +
                             std::to_string(parsed.error_byte));
  }
  return parsed.value;
}

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;  ///< share of A's value; fail_frac: absolute 0
};

struct Side {
  double value = 0.0;  ///< what the metric reports ("value" in the file)
  double q1 = 0.0;
  double q3 = 0.0;
};

const json::Value* workload_entry(const json::Value& results,
                                  const std::string& name) {
  const json::Value* list = results.find("workloads");
  if (list == nullptr) {
    return nullptr;
  }
  for (const json::Value& entry : list->items()) {
    if (entry.string_at("name") == name) {
      return &entry;
    }
  }
  return nullptr;
}

bool read_side(const json::Value& entry, const std::string& metric,
               Side& side) {
  const json::Value* metrics = entry.find("metrics");
  const json::Value* m = metrics == nullptr ? nullptr : metrics->find(metric);
  if (m == nullptr) {
    return false;
  }
  const std::optional<double> value = m->number_at("value");
  if (!value) {
    return false;
  }
  side.value = *value;
  side.q1 = m->number_at("q1").value_or(side.value);
  side.q3 = m->number_at("q3").value_or(side.value);
  return true;
}

void print_machine(const char* label, const json::Value& results) {
  std::printf("%s: %s | nproc %.0f | calibration %.0f ns | commit %s%s\n",
              label, results.string_at("machine.cpu_model").c_str(),
              results.number_at("machine.nproc").value_or(0.0),
              results.number_at("machine.calibration_ns").value_or(0.0),
              results.string_at("machine.git_commit").c_str(),
              results.string_at("machine.git_dirty") == "1" ? " (dirty)" : "");
}

}  // namespace

int compare_results(const std::string& benchmark_json,
                    const std::string& a_path, const std::string& b_path) {
  json::Value benchmark;
  json::Value a;
  json::Value b;
  try {
    benchmark = parse_file(benchmark_json);
    a = parse_file(a_path);
    b = parse_file(b_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "compare: %s\n", error.what());
    return 2;
  }

  std::vector<Bound> bounds;
  if (const json::Value* list = benchmark.find("end_to_end")) {
    for (const json::Value& metric : list->items()) {
      bounds.push_back({metric.string_at("name"),
                        metric.string_at("better") != "higher",
                        metric.number_at("bound").value_or(0.0)});
    }
  }
  // Not in BENCHMARK.json (it reads 0 on a healthy run); any rise fails.
  bounds.push_back({"fail_frac", true, 0.0});

  print_machine("A", a);
  print_machine("B", b);
  const double a_cal = a.number_at("machine.calibration_ns").value_or(0.0);
  const double b_cal = b.number_at("machine.calibration_ns").value_or(0.0);
  if (a_cal > 0.0 && std::fabs(b_cal / a_cal - 1.0) > 0.10) {
    std::printf("warning: calibration loops differ by %.0f %%; the machines "
                "are not alike\n",
                100.0 * std::fabs(b_cal / a_cal - 1.0));
  }
  std::printf("%-15s %-12s %-10s %12s %25s %12s %25s %8s %6s\n", "workload",
              "metric", "verdict", "A value", "A [q1, q3]", "B value",
              "B [q1, q3]", "change", "bound");

  int worse = 0;
  int checked = 0;
  for (const Workload& w : workloads()) {
    const json::Value* a_entry = workload_entry(a, w.name);
    const json::Value* b_entry = workload_entry(b, w.name);
    if (a_entry == nullptr || b_entry == nullptr) {
      std::printf("%-15s %-12s %-10s\n", w.name, "-", "unresolved");
      continue;
    }
    for (const Bound& bound : bounds) {
      Side sa;
      Side sb;
      if (!read_side(*a_entry, bound.name, sa) ||
          !read_side(*b_entry, bound.name, sb)) {
        std::printf("%-15s %-12s %-10s\n", w.name, bound.name.c_str(),
                    "unresolved");
        continue;
      }
      ++checked;
      // Positive change = B is worse than A.
      const double change =
          sa.value != 0.0
              ? (bound.lower_is_better ? sb.value - sa.value
                                       : sa.value - sb.value) /
                    std::fabs(sa.value)
              : 0.0;
      const char* verdict = "unchanged";
      if (bound.name == "fail_frac") {
        verdict = sb.value > sa.value ? "worse" : "unchanged";
      } else if (change > bound.bound) {
        verdict = "worse";
      } else if (-change > bound.bound) {
        verdict = "better";
      }
      worse += std::string_view(verdict) == "worse" ? 1 : 0;
      char a_range[64];
      char b_range[64];
      std::snprintf(a_range, sizeof(a_range), "[%.6g, %.6g]", sa.q1, sa.q3);
      std::snprintf(b_range, sizeof(b_range), "[%.6g, %.6g]", sb.q1, sb.q3);
      std::printf("%-15s %-12s %-10s %12.6g %25s %12.6g %25s %+7.1f%% "
                  "%5.0f%%\n",
                  w.name, bound.name.c_str(), verdict, sa.value, a_range,
                  sb.value, b_range, 100.0 * change, 100.0 * bound.bound);
    }
  }
  std::printf("%d comparisons, %d worse\n", checked, worse);
  return worse > 0 ? 1 : 0;
}

}  // namespace fcdpm::e2e
