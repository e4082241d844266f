// Machine-readable sweep benchmark report (BENCH_sweep.json): the perf
// trajectory's first artifact. Plain data in, one JSON object out — the
// report layer stays independent of fcdpm::par and fcdpm::resilience;
// resilience::print_sweep_report fills this from the sweep runner's
// result, with a resilience block only when a resilience flag was given.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fcdpm::report {

/// One grid point's deterministic outcome. Doubles are serialized with
/// 17 significant digits, which round-trips IEEE binary64 exactly, so
/// two runs producing bitwise-equal results emit byte-equal rows.
struct SweepPointRow {
  std::string policy;
  double rho = 0.0;
  double capacity = 0.0;
  std::uint64_t storm_seed = 0;
  bool ok = true;
  /// Typed PointError kind for quarantined points; empty when ok.
  std::string error;
  std::size_t attempts = 1;
  /// Restored from a journal instead of re-simulated this run.
  bool replayed = false;
  double fuel = 0.0;
  double bled = 0.0;
  double unserved = 0.0;
  double duration = 0.0;
  double storage_end = 0.0;
  double latency = 0.0;
  std::size_t slots = 0;
  std::size_t sleeps = 0;
  /// Cap-governor fields; serialized only when `cap_enabled` so cap-off
  /// reports stay byte-identical to pre-cap builds.
  bool cap_enabled = false;
  std::size_t capped_slots = 0;
  std::size_t cap_violations = 0;
  double cap_deferred_j = 0.0;
  double cap_deferred_s = 0.0;
  /// Multi-stack fields; serialized only when `stacks_enabled` so
  /// single-stack reports stay byte-identical to pre-stacks builds.
  bool stacks_enabled = false;
  std::size_t stacks = 0;
  std::string distribution;
  std::size_t stack_startups = 0;
  double stack_max_wear = 0.0;
  std::vector<double> stack_fuel;  ///< per-stack fuel A-s
  /// Runtime-audit fields; serialized only when `audit_enabled` so
  /// audit-off reports stay byte-identical to pre-audit builds.
  bool audit_enabled = false;
  std::uint64_t audit_slots = 0;       ///< slots the auditor sampled
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t engine_fallbacks = 0;  ///< hot runs self-healed
  std::string audit_first;             ///< first violated check; empty = clean
};

/// Fault-tolerant execution accounting (`SweepReport::resilience`);
/// emitted only when a resilience option (journal, resume, retries,
/// deadline, watchdog, ...) was given.
struct SweepResilienceReport {
  bool enabled = false;
  std::size_t scheduled = 0;   ///< points simulated this run
  std::size_t replayed = 0;    ///< points restored from the journal
  std::size_t retries = 0;     ///< extra attempts beyond the first
  std::size_t quarantined = 0;
  std::size_t rounds = 0;      ///< scheduling rounds (retry backoff)
  std::size_t spot_checks = 0; ///< journal points re-verified bitwise
  bool torn_tail_recovered = false;
  std::size_t torn_bytes_dropped = 0;
  std::uint64_t watchdog_stalls = 0;
  std::size_t max_retries = 0;
  std::size_t point_deadline_slots = 0;
  /// Emit `capped_ok` (below) — true only when the cap governor ran.
  bool cap_enabled = false;
  std::size_t capped_ok = 0;  ///< ok points the governor throttled
};

/// One worker's telemetry totals (`TelemetryReport::workers`).
struct TelemetryWorkerRow {
  std::size_t worker = 0;
  std::uint64_t done = 0;
  std::uint64_t retried = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t hot_dispatches = 0;
  std::uint64_t reference_dispatches = 0;
  /// Batch-lane dispatches; serialized only when nonzero.
  std::uint64_t batched_dispatches = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t slots = 0;
  /// Governor-throttled slots; serialized only when nonzero (cap-off
  /// telemetry stays byte-identical).
  std::uint64_t capped_slots = 0;
  /// Audit counters; serialized only when audited_slots is nonzero.
  std::uint64_t audited_slots = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t engine_fallbacks = 0;
  double busy_seconds = 0.0;
};

/// Final telemetry snapshot of the sweep (`SweepBenchReport::telemetry`);
/// emitted only when the CLI ran with telemetry attached. Plain data —
/// the report layer stays independent of fcdpm::telemetry; the CLI
/// copies the final SweepSnapshot in.
struct TelemetryReport {
  bool enabled = false;
  std::uint64_t snapshots = 0;  ///< progress snapshots emitted (sampler+final)
  std::uint64_t done = 0;
  std::uint64_t retried = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t hot_dispatches = 0;
  std::uint64_t reference_dispatches = 0;
  std::uint64_t batched_dispatches = 0;  ///< serialized only when nonzero
  std::uint64_t heartbeats = 0;
  std::uint64_t slots = 0;
  std::uint64_t capped_slots = 0;  ///< serialized only when nonzero
  /// Audit counters; serialized only when audited_slots is nonzero.
  std::uint64_t audited_slots = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t engine_fallbacks = 0;
  double throughput_points_per_s = 0.0;
  double wall_p50_us = 0.0;
  double wall_p95_us = 0.0;
  double wall_p99_us = 0.0;
  double wall_max_us = 0.0;
  double worker_skew = 0.0;
  std::vector<TelemetryWorkerRow> workers;
};

struct SweepBenchReport {
  std::string trace_name;
  std::size_t points = 0;
  std::size_t jobs = 0;
  double wall_seconds = 0.0;
  double points_per_second = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  /// Wall-clock of the single-job reference run; 0 when none was taken.
  double serial_wall_seconds = 0.0;
  /// serial_wall_seconds / wall_seconds; 0 when no reference run.
  double speedup = 0.0;
  /// -1 = not checked, 0 = results diverged, 1 = bit-identical.
  int bit_identical_to_serial = -1;
  /// Sweep-level cap-governor rollup (`"cap":{...}`); emitted only when
  /// `cap_enabled` so cap-off reports keep their pre-cap bytes.
  bool cap_enabled = false;
  std::uint64_t capped_slots = 0;   ///< throttled slots across all points
  std::size_t capped_points = 0;    ///< ok points with >=1 capped slot
  std::uint64_t cap_violations = 0; ///< budget violations (zero by invariant)
  double cap_deferred_j = 0.0;      ///< total energy pushed past its slot
  /// Sweep-level multi-stack rollup (`"stacks":{...}`); emitted only
  /// when `stacks_enabled` so single-stack reports keep their bytes.
  bool stacks_enabled = false;
  std::size_t stack_points = 0;       ///< ok points run multi-stack
  std::uint64_t stack_startups = 0;   ///< per-stack startups, all points
  double stack_max_wear = 0.0;        ///< worst final wear seen
  /// Sweep-level batched-engine rollup (`"batch":{...}`) of what this
  /// run batched (a resume counts only the points it re-ran); emitted
  /// only when `batched_points > 0` so non-batched reports keep their
  /// bytes.
  std::size_t batched_points = 0;   ///< points run inside batch tasks
  std::size_t batch_merge_sets = 0; ///< merge sets formed across tasks
  std::size_t batch_merged_lane_slots = 0;  ///< follower slots off leaders
  std::size_t batch_splits = 0;     ///< followers replayed onto own lanes
  std::uint64_t batch_journal_hits = 0;  ///< journal-served follower solves
  /// Sweep-level runtime-audit rollup (`"audit":{...}`); emitted only
  /// when `audit_enabled` so audit-off reports keep their bytes.
  bool audit_enabled = false;
  std::string audit_mode;              ///< "sample" | "strict"
  std::uint64_t audited_slots = 0;     ///< slots sampled across all points
  std::uint64_t audit_checks = 0;      ///< invariant checks evaluated
  std::uint64_t audit_violations = 0;  ///< checks that failed
  std::uint64_t engine_fallbacks = 0;  ///< hot runs replayed on reference
  std::size_t fallback_points = 0;     ///< ok points that self-healed
  /// Per-point deterministic results, grid order.
  std::vector<SweepPointRow> results;
  SweepResilienceReport resilience;
  TelemetryReport telemetry;
};

/// One JSON object, newline-terminated.
[[nodiscard]] std::string sweep_bench_to_json(const SweepBenchReport& bench);

}  // namespace fcdpm::report
