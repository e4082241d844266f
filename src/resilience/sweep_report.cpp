#include "resilience/sweep_report.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "report/table.hpp"

namespace fcdpm::resilience {

namespace {

using ull = unsigned long long;

/// The point's BENCH_sweep.json row (result fields only when ok); adds
/// its share to the sweep-level cap, stacks and audit rollups.
report::SweepPointRow point_row(const ResilientPoint& p,
                                report::SweepBenchReport& bench) {
  const par::SweepPoint& point = p.result.point;
  report::SweepPointRow row;
  row.policy = sim::to_string(point.policy);
  row.rho = point.rho;
  row.capacity = point.capacity.value();
  row.storm_seed = point.storm_seed;
  row.ok = p.ok;
  row.attempts = p.attempts;
  row.replayed = p.replayed;
  if (!p.ok) {
    row.error = to_string(p.error.kind);
    return row;
  }
  const sim::SimulationResult& r = p.result.result;
  row.fuel = r.totals.fuel.value();
  row.bled = r.totals.bled.value();
  row.unserved = r.totals.unserved.value();
  row.duration = r.totals.duration.value();
  row.storage_end = r.storage_end.value();
  row.latency = r.latency_added.value();
  row.slots = r.slots;
  row.sleeps = r.sleeps;
  if (r.cap.has_value()) {
    row.cap_enabled = bench.cap_enabled = true;
    row.capped_slots = r.cap->slots_capped;
    row.cap_violations = r.cap->budget_violations;
    row.cap_deferred_j = r.cap->energy_deferred.value();
    row.cap_deferred_s = r.cap->time_deferred.value();
    bench.capped_slots += row.capped_slots;
    bench.capped_points += row.capped_slots > 0 ? 1 : 0;
    bench.cap_violations += row.cap_violations;
    bench.cap_deferred_j += row.cap_deferred_j;
  }
  if (r.stacks.has_value()) {
    row.stacks_enabled = bench.stacks_enabled = true;
    row.stacks = r.stacks->stacks.size();
    row.distribution = stacks::to_string(r.stacks->distribution);
    row.stack_startups = r.stacks->total_startups();
    row.stack_max_wear = r.stacks->max_wear();
    for (const stacks::StackTotals& t : r.stacks->stacks) {
      row.stack_fuel.push_back(t.fuel_as);
    }
    ++bench.stack_points;
    bench.stack_startups += row.stack_startups;
    if (row.stack_max_wear > bench.stack_max_wear) {
      bench.stack_max_wear = row.stack_max_wear;
    }
  }
  if (r.audit.has_value()) {
    row.audit_enabled = bench.audit_enabled = true;
    row.audit_slots = r.audit->slots_audited;
    row.audit_checks = r.audit->checks_run;
    row.audit_violations = r.audit->violations;
    row.engine_fallbacks = r.audit->engine_fallbacks;
    row.audit_first = r.audit->first_violation;
    bench.audit_mode =
        audit::to_string(static_cast<audit::Mode>(r.audit->mode));
    bench.audited_slots += row.audit_slots;
    bench.audit_checks += row.audit_checks;
    bench.audit_violations += row.audit_violations;
    bench.engine_fallbacks += row.engine_fallbacks;
    bench.fallback_points += row.engine_fallbacks > 0 ? 1 : 0;
  }
  return row;
}

/// True when the point ran, or was to run, a multi-stack source: the
/// table shows the stacks columns when any point did.
bool stack_point(const ResilientPoint& p) {
  return p.result.point.stacks > 0 ||
         (p.ok && p.result.result.stacks.has_value());
}

/// One table row per point; a quarantined point shows "-" for every
/// result cell, and a resilient sweep adds a status column.
void print_table(std::FILE* out, const sim::ExperimentConfig& config,
                 const std::vector<ResilientPoint>& points, bool status) {
  std::vector<std::string> columns = {
      "policy", "rho", "capacity", "storm seed", "fuel (A-s)",
      "bled (A-s)", "unserved (A-s)", "sleeps"};
  if (config.cap.enabled) {
    columns.push_back("capped");
  }
  const bool stacks = std::any_of(points.begin(), points.end(), stack_point);
  if (stacks) {
    columns.push_back("stacks");
    columns.push_back("dist");
  }
  if (status) {
    columns.push_back("status");
  }
  report::Table table("sweep: " + config.trace.name(), std::move(columns));
  for (const ResilientPoint& p : points) {
    const par::SweepPoint& point = p.result.point;
    const sim::SimulationResult& r = p.result.result;
    std::vector<std::string> cells = {
        sim::to_string(point.policy), report::cell(point.rho, 2),
        report::cell(point.capacity.value(), 1),
        std::to_string(point.storm_seed), "-", "-", "-", "-"};
    if (p.ok) {
      cells[4] = report::cell(r.totals.fuel.value(), 2);
      cells[5] = report::cell(r.totals.bled.value(), 2);
      cells[6] = report::cell(r.totals.unserved.value(), 2);
      cells[7] = std::to_string(r.sleeps);
    }
    if (config.cap.enabled) {
      const bool shown = p.ok && r.cap.has_value();
      cells.push_back(shown ? std::to_string(r.cap->slots_capped) : "-");
    }
    if (stacks) {
      const bool shown = p.ok && r.stacks.has_value();
      cells.push_back(shown ? std::to_string(r.stacks->stacks.size()) : "-");
      cells.push_back(shown ? stacks::to_string(r.stacks->distribution)
                            : "-");
    }
    if (status) {
      cells.push_back(p.ok ? (p.replayed ? "replayed" : "ok")
                           : std::string("quarantined: ") +
                                 to_string(p.error.kind));
    }
    table.add_row(std::move(cells));
  }
  std::fprintf(out, "%s\n", table.to_ascii().c_str());
}

}  // namespace

report::SweepBenchReport print_sweep_report(
    std::FILE* out, const sim::ExperimentConfig& config,
    const ResilientSweepResult& sweep, const ResilienceOptions* resilience,
    bool memo_attached, obs::Context* observer) {
  const std::vector<ResilientPoint>& points = sweep.points;
  const par::SweepRunStats& stats = sweep.stats;
  {
    obs::StageTimer timer(observer, "report.table_s");
    print_table(out, config, points, resilience != nullptr);
  }

  report::SweepBenchReport bench;
  bench.trace_name = config.trace.name();
  static_cast<telemetry::RunCounters&>(bench) = stats;
  static_cast<telemetry::BatchCounters&>(bench) = stats;
  bench.points_per_second = stats.points_per_second();
  bench.cache_hit_rate = stats.cache_hit_rate();
  // What this run batched: a resumed sweep counts only the points it
  // re-ran.
  bench.batched_points = stats.points_batched;
  bench.results.reserve(points.size());
  for (const ResilientPoint& p : points) {
    bench.results.push_back(point_row(p, bench));
  }

  std::fprintf(out, "%zu points at %zu jobs: %.3f s wall (%.1f points/s)",
               bench.points, bench.jobs, bench.wall_seconds,
               bench.points_per_second);
  if (memo_attached) {
    std::fprintf(out, ", solve-cache hit rate %.1f %%",
                 100.0 * bench.cache_hit_rate);
  }
  std::fprintf(out, "\n");
  if (resilience != nullptr) {
    const ResilienceStats& rs = sweep.resilience;
    bench.resilience = {rs, true, resilience->contract.max_retries,
                        resilience->contract.point_deadline_slots,
                        config.cap.enabled};
    std::string line = "resilience:";
    telemetry::for_each_resilience_stat(
        telemetry::LabelLine{
            line, " ", {.journaled = !resilience->journal_path.empty()}},
        rs);
    std::fprintf(out, "%s\n", line.c_str());
    if (config.cap.enabled) {
      std::fprintf(out,
                   "power cap: %zu points throttled to completion | "
                   "%llu capped slots | %llu budget violations\n",
                   rs.capped_ok, ull{bench.capped_slots},
                   ull{bench.cap_violations});
    }
  } else if (bench.cap_enabled) {
    std::fprintf(out,
                 "power cap: %zu/%zu points throttled | %llu capped slots | "
                 "%llu budget violations | %.1f J deferred\n",
                 bench.capped_points, bench.points, ull{bench.capped_slots},
                 ull{bench.cap_violations}, bench.cap_deferred_j);
  }
  if (bench.stacks_enabled) {
    std::fprintf(out,
                 "stacks: %zu multi-stack points | %llu stack startups | "
                 "max wear %.6g\n",
                 bench.stack_points, ull{bench.stack_startups},
                 bench.stack_max_wear);
  }
  if (stats.points_batched > 0) {
    std::string line = "batched: " + std::to_string(stats.points_batched) +
                       "/" + std::to_string(stats.points) + " points";
    telemetry::for_each_batch_stat(telemetry::LabelLine{line, " | ", {}},
                                   stats);
    std::fprintf(out, "%s\n", line.c_str());
  }
  if (bench.audit_enabled) {
    std::fprintf(out,
                 "audit (%s): %llu slots audited | %llu checks | "
                 "%llu violations | %llu engine fallbacks (%zu points)\n",
                 bench.audit_mode.c_str(), ull{bench.audited_slots},
                 ull{bench.audit_checks}, ull{bench.audit_violations},
                 ull{bench.engine_fallbacks}, bench.fallback_points);
  }
  if (resilience == nullptr) {
    return bench;
  }
  if (sweep.resilience.torn_tail_recovered) {
    std::fprintf(out, "journal torn tail recovered (%zu bytes dropped)\n",
                 sweep.resilience.torn_bytes_dropped);
  }
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (!points[k].ok) {
      std::fprintf(out, "quarantined point %zu after %zu attempts: %s: %s\n",
                   k, points[k].attempts, to_string(points[k].error.kind),
                   points[k].error.detail.c_str());
    }
  }
  return bench;
}

}  // namespace fcdpm::resilience
