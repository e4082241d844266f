#include "report/sweep_export.hpp"

#include <concepts>
#include <string_view>

#include "common/text.hpp"
#include "obs/trace_sink.hpp"
#include "telemetry/progress.hpp"

namespace fcdpm::report {

namespace {

// Each put_* appends `,"key":value`; an object's first key is written
// with its opening brace. Results use %.17g (exact round trip), timings
// and rates %.12g.

void put_key(std::string& out, std::string_view key) {
  out += ",\"";
  out += key;
  out += "\":";
}

template <std::integral T>
void put(std::string& out, std::string_view key, T value) {
  put_key(out, key);
  append_integer(out, value);
}

void put(std::string& out, std::string_view key, bool value) {
  put_key(out, key);
  out += value ? "true" : "false";
}

void put_exact(std::string& out, std::string_view key, double value) {
  put_key(out, key);
  append_g17(out, value);
}

void put_short(std::string& out, std::string_view key, double value) {
  put_key(out, key);
  append_g12(out, value);
}

void put_text(std::string& out, std::string_view key,
              const std::string& value) {
  put_key(out, key);
  out += '"';
  obs::append_json_escaped(out, value.c_str());
  out += '"';
}

void append_point_row(std::string& out, const SweepPointRow& row) {
  out += "{\"policy\":\"";
  obs::append_json_escaped(out, row.policy.c_str());
  out += '"';
  put_exact(out, "rho", row.rho);
  put_exact(out, "capacity", row.capacity);
  put(out, "storm_seed", row.storm_seed);
  put(out, "ok", row.ok);
  if (!row.error.empty()) {
    put_text(out, "error", row.error);
  }
  put(out, "attempts", row.attempts);
  put(out, "replayed", row.replayed);
  if (row.ok) {
    put_exact(out, "fuel", row.fuel);
    put_exact(out, "bled", row.bled);
    put_exact(out, "unserved", row.unserved);
    put_exact(out, "duration", row.duration);
    put_exact(out, "storage_end", row.storage_end);
    put_exact(out, "latency", row.latency);
    put(out, "slots", row.slots);
    put(out, "sleeps", row.sleeps);
    if (row.cap_enabled) {
      put(out, "capped_slots", row.capped_slots);
      put(out, "cap_violations", row.cap_violations);
      put_exact(out, "cap_deferred_j", row.cap_deferred_j);
      put_exact(out, "cap_deferred_s", row.cap_deferred_s);
    }
    if (row.stacks_enabled) {
      put(out, "stacks", row.stacks);
      put_text(out, "distribution", row.distribution);
      put(out, "stack_startups", row.stack_startups);
      put_exact(out, "stack_max_wear", row.stack_max_wear);
      put_key(out, "stack_fuel");
      out += '[';
      for (std::size_t k = 0; k < row.stack_fuel.size(); ++k) {
        if (k != 0) {
          out += ',';
        }
        append_g17(out, row.stack_fuel[k]);
      }
      out += ']';
    }
    if (row.audit_enabled) {
      put(out, "audit_slots", row.audit_slots);
      put(out, "audit_checks", row.audit_checks);
      put(out, "audit_violations", row.audit_violations);
      put(out, "engine_fallbacks", row.engine_fallbacks);
      if (!row.audit_first.empty()) {
        put_text(out, "audit_first", row.audit_first);
      }
    }
  }
  out += '}';
}

/// `,"key":value` for a statistic of a telemetry/sweep_stats.hpp list
/// that has a key and that its gate shows; doubles are timings (%.12g).
template <typename T>
void put_stat(std::string& out, const telemetry::Stat& stat, const T& value,
              telemetry::GateFlags flags = {}) {
  if (stat.key.empty() || !telemetry::shown(stat.gate, value, flags)) {
    return;
  }
  if constexpr (std::floating_point<T>) {
    put_short(out, stat.key, value);
  } else {
    put(out, stat.key, value);
  }
}

void append_resilience(std::string& out, const SweepResilienceReport& r) {
  out += ",\"resilience\":";
  const std::size_t open = out.size();
  telemetry::for_each_resilience_stat(
      [&](const telemetry::Stat& stat, const auto& value) {
        put_stat(out, stat, value, {.capped = r.cap_enabled});
        if (stat.key == "watchdog_stalls") {
          put(out, "max_retries", r.max_retries);
          put(out, "point_deadline_slots", r.point_deadline_slots);
        }
      },
      r);
  out[open] = '{';  // the first key's comma opens the block
  out += '}';
}

void append_telemetry(std::string& out, const telemetry::SweepSnapshot& t,
                      std::uint64_t snapshots) {
  out += ",\"telemetry\":{\"snapshots\":";
  append_integer(out, snapshots);
  telemetry::append_counters(out, t);
  put_short(out, "points_per_s", t.throughput_points_per_s);
  put_short(out, "wall_p50_us", t.wall_p50_us);
  put_short(out, "wall_p95_us", t.wall_p95_us);
  put_short(out, "wall_p99_us", t.wall_p99_us);
  put_short(out, "wall_max_us", t.wall_max_us);
  put_short(out, "worker_skew", t.worker_skew);
  telemetry::append_workers(out, t.workers);
  out += '}';
}

/// Bytes reserved per result row. A plain ok row takes ~270, one with
/// the cap, audit and three-stack blocks ~600; reserved pages that are
/// never written cost no resident memory.
constexpr std::size_t kRowReserve = 640;

}  // namespace

std::string sweep_bench_to_json(const SweepBenchReport& bench) {
  std::string out;
  out.reserve(1024 + bench.results.size() * kRowReserve);
  out += "{\"trace\":\"";
  obs::append_json_escaped(out, bench.trace_name.c_str());
  out += '"';
  telemetry::for_each_run_stat(
      [&](const telemetry::Stat& stat, const auto& value) {
        put_stat(out, stat, value);
        if (stat.key == "wall_s") {
          put_short(out, "points_per_s", bench.points_per_second);
        }
      },
      bench);
  out += ",\"cache\":{\"hits\":";
  append_integer(out, bench.cache_hits);
  put(out, "misses", bench.cache_misses);
  put_short(out, "hit_rate", bench.cache_hit_rate);
  out += '}';
  put_short(out, "serial_wall_s", bench.serial_wall_seconds);
  put_short(out, "speedup", bench.speedup);
  put(out, "bit_identical_to_serial", bench.bit_identical_to_serial);
  if (bench.cap_enabled) {
    out += ",\"cap\":{\"capped_slots\":";
    append_integer(out, bench.capped_slots);
    put(out, "capped_points", bench.capped_points);
    put(out, "violations", bench.cap_violations);
    put_short(out, "deferred_j", bench.cap_deferred_j);
    out += '}';
  }
  if (bench.stacks_enabled) {
    out += ",\"stacks\":{\"points\":";
    append_integer(out, bench.stack_points);
    put(out, "startups", bench.stack_startups);
    put_exact(out, "max_wear", bench.stack_max_wear);
    out += '}';
  }
  if (bench.batched_points > 0) {
    out += ",\"batch\":{\"points\":";
    append_integer(out, bench.batched_points);
    telemetry::for_each_batch_stat(
        [&](const telemetry::Stat& stat, const auto& value) {
          put_stat(out, stat, value);
        },
        bench);
    out += '}';
  }
  if (bench.audit_enabled) {
    out += ",\"audit\":{\"mode\":\"";
    obs::append_json_escaped(out, bench.audit_mode.c_str());
    out += '"';
    put(out, "audited_slots", bench.audited_slots);
    put(out, "checks", bench.audit_checks);
    put(out, "violations", bench.audit_violations);
    put(out, "engine_fallbacks", bench.engine_fallbacks);
    put(out, "fallback_points", bench.fallback_points);
    out += '}';
  }
  if (bench.resilience.enabled) {
    append_resilience(out, bench.resilience);
  }
  if (bench.telemetry.has_value()) {
    append_telemetry(out, *bench.telemetry, bench.telemetry_snapshots);
  }
  out += ",\"results\":[";
  for (std::size_t k = 0; k < bench.results.size(); ++k) {
    if (k != 0) {
      out += ',';
    }
    append_point_row(out, bench.results[k]);
  }
  out += "]}\n";
  return out;
}

}  // namespace fcdpm::report
