// Runtime invariant auditing for simulation runs.
//
// The auditor is an opt-in side-car (like fault::FaultInjector and
// cap::Governor): both engines feed it read-only observations — one per
// hybrid segment on the reference loop, one per slot on either loop,
// one at run end — and it checks the conservation invariants the
// paper's accounting rests on:
//
//   * fuel-burn integral reconciliation: per-slot fuel deltas equal the
//     sum of SegmentResult fuel (startup-purge taxes included), and the
//     delivered-energy delta equals bus_v x integral(IF dt);
//   * storage charge stays within [0, derated capacity] (up to the
//     1-ulp overshoot the accumulation legitimately produces);
//   * the cap governor's budget is never exceeded;
//   * multi-stack distribution reconciles with the hybrid totals and
//     wear stays within [0, 1];
//   * solve-cache hits match a fresh solve (sampled, via
//     par::VerifyingSolveCache).
//
// The auditor never mutates simulation state: results are bit-identical
// with auditing on or off. Modes: `sample` checks every Nth slot,
// `strict` checks every slot and segment. A violation either
// accumulates into AuditStats (reference engine, sample mode) or throws
// AuditError (fail-fast) — the dispatchers (par::run_point, the CLI)
// catch a hot-engine AuditError and *self-heal* by replaying the point
// on the reference engine, recording an `engine_fallback` in the
// result's AuditStats; a reference-engine AuditError propagates into
// the resilience layer's PointError taxonomy (contract_violation ->
// quarantine).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cap/stats.hpp"
#include "power/hybrid.hpp"
#include "stacks/multi_stack.hpp"

namespace fcdpm::audit {

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// How much of the run the auditor checks.
enum class Mode {
  Off,     ///< no auditor attached; zero cost
  Sample,  ///< every `sample_period`-th slot (plus run-end checks)
  Strict,  ///< every slot and segment
};

[[nodiscard]] const char* to_string(Mode mode) noexcept;

/// Strict parse of "off" / "sample" / "strict". Returns false (and
/// leaves `out` untouched) for anything else.
[[nodiscard]] bool parse_mode(std::string_view text, Mode& out) noexcept;

/// Auditor configuration, carried by sim::ExperimentConfig.
struct AuditSpec {
  Mode mode = Mode::Off;
  /// Sample mode audits slots k with k % sample_period == 0.
  std::size_t sample_period = 16;
  /// Cache spot-checks re-solve every `cache_check_period`-th solve
  /// call fresh and bit-compare. Sparser than slot sampling because a
  /// fresh solve costs orders of magnitude more than the slot checks:
  /// at 128 the re-solves stay inside the sample-audit 2 % overhead
  /// budget that perf_tracing_overhead enforces.
  std::size_t cache_check_period = 128;
  /// Test hook: at this slot the auditor corrupts its *observed* copy
  /// of the delivered-charge integral before checking it, emulating a
  /// broken engine on an otherwise healthy run. Dispatchers apply it
  /// only to the hot-lane auditor (it models a hot-engine defect), so
  /// the self-heal replay on the reference engine runs clean. npos
  /// disables the hook.
  std::size_t tamper_slot = npos;

  [[nodiscard]] bool enabled() const noexcept { return mode != Mode::Off; }
};

/// Thrown on a fail-fast violation. Derives from std::runtime_error so
/// the resilience layer's generic handler classifies an escaped one as
/// contract_violation.
class AuditError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Accounting block of one audited run; attached to
/// SimulationResult::audit iff an auditor was attached. Deterministic:
/// bit-identical across engines and worker counts for a fixed config.
struct AuditStats {
  /// Mode the auditor ran in (0 off, 1 sample, 2 strict).
  int mode = 0;
  std::uint64_t slots_audited = 0;
  std::uint64_t segments_audited = 0;
  std::uint64_t checks_run = 0;
  /// Total violations observed (== sum of the per-check counters).
  std::uint64_t violations = 0;
  std::uint64_t fuel_violations = 0;
  std::uint64_t storage_violations = 0;
  std::uint64_t cap_violations = 0;
  std::uint64_t stacks_violations = 0;
  std::uint64_t cache_violations = 0;
  /// Hot-engine runs replayed on the reference engine after a
  /// violation (recorded by the dispatcher, not the auditor).
  std::uint64_t engine_fallbacks = 0;
  /// Slot of the first violation (npos when clean; the run-end checks
  /// report the final slot index + 1).
  std::size_t first_violation_slot = npos;
  /// Short token naming the first failed check ("" when clean).
  std::string first_violation;

  [[nodiscard]] bool clean() const noexcept { return violations == 0; }
};

/// One hybrid segment, as the reference loop integrates it.
struct SegmentAudit {
  std::size_t slot = 0;
  double duration_s = 0.0;
  const power::SegmentResult* segment = nullptr;
};

/// One completed slot, from either engine.
struct SlotAudit {
  std::size_t slot = 0;
  double bus_v = 0.0;
  double fuel_before = 0.0;       ///< cumulative totals.fuel at slot start
  double fuel_after = 0.0;        ///< cumulative totals.fuel at slot end
  double delivered_before = 0.0;  ///< cumulative delivered_energy (J)
  double delivered_after = 0.0;
  double if_dt = 0.0;             ///< integral(IF dt) over the slot (A-s)
  double storage_charge = 0.0;    ///< buffer charge at slot end (A-s)
  double storage_capacity = 0.0;  ///< usable (derated) capacity (A-s)
};

/// Run-end view. Pointers are optional blocks (nullptr = absent).
struct EndAudit {
  const power::HybridTotals* totals = nullptr;
  double storage_end = 0.0;
  double storage_capacity = 0.0;
  /// Slots the run executed; run-end violations index at `slots`
  /// (one past the last slot), disambiguating them from slot checks.
  std::size_t slots = 0;
  const cap::CapStats* cap = nullptr;
  const stacks::StacksStats* stacks = nullptr;
};

/// The invariant checker. One instance per run (per sweep point);
/// stateful only in its accounting, never in anything the simulation
/// reads back — attaching one cannot change results.
class Auditor {
 public:
  /// `fail_fast` makes the first violation throw AuditError after it
  /// is recorded. Dispatchers set it for hot-lane runs (so they can
  /// self-heal) and for strict reference runs (so the resilience layer
  /// quarantines); a sample-mode reference run records and continues.
  explicit Auditor(const AuditSpec& spec, bool fail_fast = false);

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// True when slot `k` is subject to the per-slot checks.
  [[nodiscard]] bool samples(std::size_t slot) const noexcept;

  /// Inline twin of samples() for the engines' hot loops: callers skip
  /// building the audit views (and the calls themselves) for slots the
  /// auditor would ignore, which is what keeps sample mode inside its
  /// overhead budget. The auditor still re-checks internally, so a
  /// caller that doesn't pre-filter stays correct. Power-of-two
  /// periods (the default) test with a mask — an integer division per
  /// slot is itself measurable against the engines' slot cost.
  [[nodiscard]] bool wants_slot(std::size_t slot) const noexcept {
    if (spec_.mode == Mode::Strict) {
      return true;
    }
    if (spec_.mode != Mode::Sample) {
      return false;
    }
    return sample_is_pow2_ ? (slot & sample_mask_) == 0
                           : slot % spec_.sample_period == 0;
  }

  /// Reference loop only: one hybrid segment. Accumulates the slot's
  /// fuel integral; field checks run when the slot is sampled.
  void on_segment(const SegmentAudit& view);

  /// Both loops: one completed slot.
  void on_slot(const SlotAudit& view);

  /// Both loops: run end. Also the hook for the solve-cache verifier's
  /// mismatch count (reported through record_cache_mismatch).
  void on_run_end(const EndAudit& view);

  /// Called by par::VerifyingSolveCache when a sampled cache hit does
  /// not bit-match a fresh solve.
  void record_cache_mismatch();

  [[nodiscard]] const AuditStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AuditSpec& spec() const noexcept { return spec_; }

 private:
  void violation(std::uint64_t AuditStats::*counter, std::size_t slot,
                 const char* check, const std::string& detail);

  AuditSpec spec_;
  bool fail_fast_ = false;
  /// Fast-path twin of sample_period for wants_slot (set in the ctor).
  bool sample_is_pow2_ = false;
  std::size_t sample_mask_ = 0;
  AuditStats stats_;
  /// Sum of SegmentResult::fuel since the last slot boundary (the
  /// integral the per-slot fuel delta is reconciled against).
  double slot_segment_fuel_ = 0.0;
  std::uint64_t slot_segment_count_ = 0;
  bool saw_segments_ = false;
  /// One past the last slot seen — the run-end checks' slot label.
  std::size_t next_slot_ = 0;
};

/// Fold a failed hot-lane audit into the replayed run's stats: carries
/// the hot auditor's violation counters over (so the event stays
/// visible) and counts one engine fallback.
void record_engine_fallback(AuditStats& into, const AuditStats& hot_run);

}  // namespace fcdpm::audit
