// Machine-readable sweep benchmark report (BENCH_sweep.json): the perf
// trajectory's first artifact. Plain data in, one JSON object out — the
// report layer stays independent of fcdpm::par and fcdpm::resilience;
// resilience::print_sweep_report fills this from the sweep runner's
// result, with a resilience block only when a resilience flag was given.
// The telemetry block is the final telemetry::SweepSnapshot as it is,
// encoded by the progress stream's counter encoder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/sweep_stats.hpp"
#include "telemetry/sweep_telemetry.hpp"

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

/// Fault-tolerant execution accounting (`SweepReport::resilience`): the
/// runner's counters and the contract they ran under; emitted only when
/// a resilience option (journal, resume, retries, deadline, watchdog,
/// ...) was given.
struct SweepResilienceReport : telemetry::ResilienceCounters {
  bool enabled = false;
  std::size_t max_retries = 0;
  std::size_t point_deadline_slots = 0;
  /// Emit `capped_ok` — true only when the cap governor ran.
  bool cap_enabled = false;
};

/// The run and batch counters are the bases (telemetry/sweep_stats.hpp);
/// a nonzero `twins` is written after `points_per_s`.
struct SweepBenchReport : telemetry::RunCounters, telemetry::BatchCounters {
  std::string trace_name;
  double points_per_second = 0.0;
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
  /// Points whose result the batch loop made, the rho twins served from
  /// them included (SweepRunStats::points_batched): the head of the
  /// batched-engine rollup (`"batch":{...}`), emitted only when nonzero
  /// so non-batched reports keep their bytes. A resume counts only the
  /// points it ran or served.
  std::size_t batched_points = 0;
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
  /// Final telemetry snapshot of the sweep (`"telemetry":{...}`);
  /// emitted only when the sweep ran with telemetry attached.
  std::optional<telemetry::SweepSnapshot> telemetry;
  std::uint64_t telemetry_snapshots = 0;  ///< progress snapshots emitted
};

/// One JSON object, newline-terminated.
[[nodiscard]] std::string sweep_bench_to_json(const SweepBenchReport& bench);

}  // namespace fcdpm::report
