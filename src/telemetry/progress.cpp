#include "telemetry/progress.hpp"

#include <string_view>

#include "common/text.hpp"

namespace fcdpm::telemetry {

void append_counters(std::string& out, const SweepCounters<std::uint64_t>& c,
                     std::optional<double> hit_rate) {
  for_each_counter(
      [&](std::string_view key, Gate gate, std::uint64_t value) {
        if (!shown(gate, value, {.audited = c.audited_slots != 0})) {
          return;
        }
        out += ",\"";
        out += key;
        out += "\":";
        append_integer(out, value);
        if (hit_rate.has_value() && key == "cache_misses") {
          out += ",\"cache_hit_rate\":" + format_g12(*hit_rate);
        }
      },
      c);
}

void append_workers(std::string& out,
                    const std::vector<WorkerSnapshot>& workers) {
  out += ",\"workers\":[";
  for (std::size_t k = 0; k < workers.size(); ++k) {
    const WorkerSnapshot& w = workers[k];
    out += k == 0 ? "{\"worker\":" : ",{\"worker\":";
    append_integer(out, w.worker);
    append_counters(out, w);
    out += ",\"busy_s\":" + format_g12(w.busy_seconds) + "}";
  }
  out += ']';
}

std::string snapshot_to_json(const SweepSnapshot& snap) {
  std::string out = "{\"schema\":\"fcdpm.sweep_progress.v1\"";
  out += ",\"seq\":" + std::to_string(snap.seq);
  out += ",\"elapsed_s\":" + format_g12(snap.elapsed_seconds);
  out += ",\"total_points\":" + std::to_string(snap.total_points);
  append_counters(out, snap, snap.cache_hit_rate());
  out += ",\"points_per_s\":" + format_g12(snap.throughput_points_per_s);
  out += ",\"eta_s\":" + format_g12(snap.eta_seconds);
  out += ",\"wall_p50_us\":" + format_g12(snap.wall_p50_us);
  out += ",\"wall_p95_us\":" + format_g12(snap.wall_p95_us);
  out += ",\"wall_p99_us\":" + format_g12(snap.wall_p99_us);
  out += ",\"wall_max_us\":" + format_g12(snap.wall_max_us);
  out += ",\"sim_p50_s\":" + format_g12(snap.sim_p50_s);
  out += ",\"sim_p95_s\":" + format_g12(snap.sim_p95_s);
  out += ",\"sim_p99_s\":" + format_g12(snap.sim_p99_s);
  out += ",\"sim_max_s\":" + format_g12(snap.sim_max_s);
  out += ",\"worker_skew\":" + format_g12(snap.worker_skew);
  append_workers(out, snap.workers);
  out += '}';
  return out;
}

std::string progress_line(const SweepSnapshot& snap) {
  const double pct =
      snap.total_points > 0
          ? 100.0 * static_cast<double>(snap.settled()) /
                static_cast<double>(snap.total_points)
          : 0.0;
  // "%.1f" throughout.
  const auto one = [](double value) { return format_fixed(value, 1, false); };
  std::string out = "sweep " + std::to_string(snap.settled()) + "/" +
                    std::to_string(snap.total_points) + " (" + one(pct) +
                    "%)  " + one(snap.throughput_points_per_s) + " pt/s";
  if (snap.eta_seconds > 0.0) {
    out += "  eta " + one(snap.eta_seconds) + "s";
  }
  out += "  p95 " + one(snap.wall_p95_us) + "us";
  if (snap.cache_hits + snap.cache_misses > 0) {
    out += "  cache " + one(100.0 * snap.cache_hit_rate()) + "%";
  }
  if (snap.capped_slots > 0) {
    out += "  capped " + std::to_string(snap.capped_slots);
  }
  if (snap.audit_violations > 0) {
    out += "  audit-violations " + std::to_string(snap.audit_violations);
  }
  if (snap.engine_fallbacks > 0) {
    out += "  fallbacks " + std::to_string(snap.engine_fallbacks);
  }
  if (snap.retried > 0) {
    out += "  retried " + std::to_string(snap.retried);
  }
  if (snap.quarantined > 0) {
    out += "  quarantined " + std::to_string(snap.quarantined);
  }
  return out;
}

}  // namespace fcdpm::telemetry
