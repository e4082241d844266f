#include "obs/profiler.hpp"

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "common/text.hpp"

namespace fcdpm::obs {

void Profiler::record(const char* name, std::chrono::nanoseconds elapsed) {
  ScopeStats& stats = scopes_[name];
  if (stats.calls == 0) {
    stats.min = elapsed;
    stats.max = elapsed;
  } else {
    stats.min = std::min(stats.min, elapsed);
    stats.max = std::max(stats.max, elapsed);
  }
  ++stats.calls;
  stats.total += elapsed;
}

std::string Profiler::summary() const {
  std::vector<const std::map<std::string, ScopeStats>::value_type*> order;
  order.reserve(scopes_.size());
  for (const auto& entry : scopes_) {
    order.push_back(&entry);
  }
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->second.total > b->second.total;
  });

  // "%-32s %10s %12s %10s %10s %10s" lines.
  std::string out;
  const auto row = [&out](std::string_view scope,
                          std::initializer_list<std::string> cells) {
    out += pad_right(scope, 32);
    const std::size_t widths[] = {10, 12, 10, 10, 10};
    const std::size_t* width = widths;
    for (const std::string& cell : cells) {
      out += ' ';
      out += pad_left(cell, *width++);
    }
    out += '\n';
  };
  row("scope", {"calls", "total_ms", "mean_us", "min_us", "max_us"});
  for (const auto* entry : order) {
    const ScopeStats& s = entry->second;
    const double total_ms = static_cast<double>(s.total.count()) / 1e6;
    const double mean_us =
        s.calls == 0
            ? 0.0
            : static_cast<double>(s.total.count()) /
                  (1e3 * static_cast<double>(s.calls));
    row(entry->first,
        {std::to_string(s.calls), format_fixed(total_ms, 3, false),
         format_fixed(mean_us, 2, false),
         format_fixed(static_cast<double>(s.min.count()) / 1e3, 2, false),
         format_fixed(static_cast<double>(s.max.count()) / 1e3, 2, false)});
  }
  return out;
}

}  // namespace fcdpm::obs
