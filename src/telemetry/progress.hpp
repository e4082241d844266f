// Snapshot serialization: the counter encoder shared by the JSONL
// progress stream (`fcdpm_cli sweep --progress-out`) and the telemetry
// block of BENCH_sweep.json, and the one-line human progress string
// for stderr.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "telemetry/sweep_telemetry.hpp"

namespace fcdpm::telemetry {

/// Appends `,"key":value` for every counter of `c` its gate lets
/// through, in `for_each_counter` order. A given `hit_rate` is written
/// as "cache_hit_rate" right after "cache_misses".
void append_counters(std::string& out, const SweepCounters<std::uint64_t>& c,
                     std::optional<double> hit_rate = std::nullopt);

/// Appends `,"workers":[...]`, one object per worker: its index, its
/// counters and "busy_s".
void append_workers(std::string& out,
                    const std::vector<WorkerSnapshot>& workers);

/// One self-contained JSON object (no trailing newline) per snapshot.
/// Schema "fcdpm.sweep_progress.v1": numbers via %.12g (these are
/// derived rates/latencies, not simulation results), per-worker rows
/// under "workers".
[[nodiscard]] std::string snapshot_to_json(const SweepSnapshot& snap);

/// Compact single-line progress string for a terminal, e.g.
///   `sweep 42/360 (11.7%)  123.4 pt/s  eta 2.6s  p95 812us  cache 87.5%`.
/// No trailing newline; the caller decides between '\r' and '\n'.
[[nodiscard]] std::string progress_line(const SweepSnapshot& snap);

}  // namespace fcdpm::telemetry
