#include "telemetry/progress.hpp"

#include "common/text.hpp"

namespace fcdpm::telemetry {

std::string snapshot_to_json(const SweepSnapshot& snap) {
  std::string out = "{\"schema\":\"fcdpm.sweep_progress.v1\"";
  out += ",\"seq\":" + std::to_string(snap.seq);
  out += ",\"elapsed_s\":" + format_g12(snap.elapsed_seconds);
  out += ",\"total_points\":" + std::to_string(snap.total_points);
  out += ",\"done\":" + std::to_string(snap.done);
  out += ",\"retried\":" + std::to_string(snap.retried);
  out += ",\"quarantined\":" + std::to_string(snap.quarantined);
  out += ",\"cache_hits\":" + std::to_string(snap.cache_hits);
  out += ",\"cache_misses\":" + std::to_string(snap.cache_misses);
  out += ",\"cache_hit_rate\":" + format_g12(snap.cache_hit_rate());
  out += ",\"hot_dispatches\":" + std::to_string(snap.hot_dispatches);
  out += ",\"reference_dispatches\":" +
         std::to_string(snap.reference_dispatches);
  // Gated like capping/auditing: batched-off streams keep their bytes.
  if (snap.batched_dispatches > 0) {
    out += ",\"batched_dispatches\":" +
           std::to_string(snap.batched_dispatches);
  }
  out += ",\"heartbeats\":" + std::to_string(snap.heartbeats);
  out += ",\"slots\":" + std::to_string(snap.slots);
  // Emitted only once capping is live so cap-off streams stay
  // byte-identical to pre-cap builds.
  if (snap.capped_slots > 0) {
    out += ",\"capped_slots\":" + std::to_string(snap.capped_slots);
  }
  // Same gating for auditing: audit-off streams keep their bytes.
  if (snap.audited_slots > 0) {
    out += ",\"audited_slots\":" + std::to_string(snap.audited_slots);
    out += ",\"audit_violations\":" + std::to_string(snap.audit_violations);
    out += ",\"engine_fallbacks\":" + std::to_string(snap.engine_fallbacks);
  }
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
  out += ",\"workers\":[";
  for (std::size_t i = 0; i < snap.workers.size(); ++i) {
    const WorkerSnapshot& w = snap.workers[i];
    if (i != 0) {
      out += ',';
    }
    out += "{\"worker\":" + std::to_string(w.worker);
    out += ",\"done\":" + std::to_string(w.done);
    out += ",\"retried\":" + std::to_string(w.retried);
    out += ",\"quarantined\":" + std::to_string(w.quarantined);
    out += ",\"cache_hits\":" + std::to_string(w.cache_hits);
    out += ",\"cache_misses\":" + std::to_string(w.cache_misses);
    out += ",\"hot_dispatches\":" + std::to_string(w.hot_dispatches);
    out += ",\"reference_dispatches\":" +
           std::to_string(w.reference_dispatches);
    if (w.batched_dispatches > 0) {
      out += ",\"batched_dispatches\":" +
             std::to_string(w.batched_dispatches);
    }
    out += ",\"heartbeats\":" + std::to_string(w.heartbeats);
    out += ",\"slots\":" + std::to_string(w.slots);
    if (w.capped_slots > 0) {
      out += ",\"capped_slots\":" + std::to_string(w.capped_slots);
    }
    if (w.audited_slots > 0) {
      out += ",\"audited_slots\":" + std::to_string(w.audited_slots);
      out += ",\"audit_violations\":" + std::to_string(w.audit_violations);
      out += ",\"engine_fallbacks\":" + std::to_string(w.engine_fallbacks);
    }
    out += ",\"busy_s\":" + format_g12(w.busy_seconds) + "}";
  }
  out += "]}";
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
