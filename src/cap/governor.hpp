// Closed-loop dynamic power capping (sysedp-style budget manager).
//
// Once per slot, just before the planners see the slot's demand, the
// attached engine hands the governor the requested active draw plus a
// snapshot of what the hybrid source can currently deliver (derated FC
// ceiling, buffered charge). The governor:
//
//  1. computes the deliverable power envelope
//         budget = fc_max + charge * draw_fraction / active_s
//     (the storage term spreads a configurable slice of the buffered
//     charge over the slot's active window);
//  2. consults the corecap-style CapTable for the highest DVS level
//     that budget affords, holding a level with hysteresis — step-downs
//     apply immediately, step-ups only after `hysteresis_slots`
//     consecutive slots whose budget would afford a higher level, one
//     level at a time, so a single transient cannot thrash;
//  3. re-plans a capped slot at the held level via the DvsPlanner's
//     processor model: active current scales by the level's power
//     ratio, the active window stretches by 1/speed (the work is
//     deferred, not dropped), and — if even the held level exceeds the
//     envelope (deep brownout) — hard-clamps the current to the budget.
//
// The invariant the fuzz suite holds: an applied plan never draws
// above the computed budget; `CapStats::budget_violations` stays 0.
//
// Determinism: plan_slot is pure double arithmetic over its inputs and
// the held state, evaluated in one fixed order — the reference and hot
// engines call it with bit-identical inputs and get bit-identical
// plans. With no governor attached, neither engine touches this file.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "cap/stats.hpp"
#include "cap/table.hpp"
#include "common/units.hpp"
#include "dvs/planner.hpp"

namespace fcdpm::cap {

/// Tuning knobs shared by Governor construction and the CLI.
struct CapConfig {
  /// Consecutive uncapped-affordable slots before one step back up.
  std::size_t hysteresis_slots = 4;
  /// Slice of the buffered charge the envelope may spend per slot.
  double storage_draw_fraction = 0.5;
};

/// What the engine asks for: one slot's demand plus the live source
/// snapshot. Plain doubles so both engines hand over identical bits.
struct SlotDemand {
  double run_current_a = 0.0;    ///< requested active draw
  double active_s = 0.0;         ///< requested active window (effective)
  double fc_max_a = 0.0;         ///< derated FC ceiling (0 on dropout)
  double storage_charge_as = 0.0;
  double bus_v = 12.0;
};

/// What the governor answers: the plan the engine must apply.
struct SlotPlan {
  double run_current_a = 0.0;  ///< possibly reduced
  double active_s = 0.0;       ///< possibly stretched
  double budget_a = 0.0;       ///< the computed envelope
  std::size_t level = 0;       ///< applied DVS level
  bool capped = false;
};

/// Per-run capping governor; one instance per simulated device, not
/// shared across threads. Engines reset() it at run start (unless the
/// run preserves source state) and read stats() at run end.
class Governor {
 public:
  Governor(dvs::DvsPlanner planner, CapTable table, CapConfig config);

  /// Plan one slot against the current envelope. Mutates held-level
  /// state and stats. The healthy case — held at the top level, the
  /// demand inside the envelope — stays inline so an attached governor
  /// costs a handful of flops on runs it never throttles; everything
  /// else takes the out-of-line slow path. Both paths compute the
  /// budget with the same expression, so the split cannot change bits.
  [[nodiscard]] SlotPlan plan_slot(const SlotDemand& demand) {
    if (held_level_ == top_level_ && demand.active_s > 0.0 &&
        demand.bus_v > 0.0) {
      // The storage term is non-negative, and IEEE addition is
      // monotone, so run <= fc_max alone proves run <= budget — the
      // envelope division then only feeds the returned budget_a and
      // folds away entirely at call sites that ignore it (the engines).
      if (demand.run_current_a <= demand.fc_max_a) {
        return healthy_plan(demand);
      }
      const double budget_a =
          demand.fc_max_a + demand.storage_charge_as *
                                config_.storage_draw_fraction /
                                demand.active_s;
      if (demand.run_current_a <= budget_a) {
        return healthy_plan(demand);
      }
    }
    return plan_slot_slow(demand);
  }

  /// Clear held state and stats for a fresh run.
  void reset();

  [[nodiscard]] const CapStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CapTable& table() const noexcept { return table_; }
  [[nodiscard]] const CapConfig& config() const noexcept { return config_; }

 private:
  /// Shared tail of the inline fast path: account the slot and return
  /// the untouched demand with the exact envelope.
  [[nodiscard]] SlotPlan healthy_plan(const SlotDemand& demand) {
    ++stats_.slots_seen;
    stats_.time_at_level_s[top_level_] += demand.active_s;
    SlotPlan plan;
    plan.run_current_a = demand.run_current_a;
    plan.active_s = demand.active_s;
    plan.budget_a =
        demand.fc_max_a + demand.storage_charge_as *
                              config_.storage_draw_fraction /
                              demand.active_s;
    plan.level = top_level_;
    return plan;
  }

  [[nodiscard]] SlotPlan plan_slot_slow(const SlotDemand& demand);

  dvs::DvsPlanner planner_;
  CapTable table_;
  CapConfig config_;
  std::size_t top_level_;
  std::size_t held_level_;
  std::size_t clear_streak_ = 0;
  CapStats stats_;
};

/// CLI/sweep-facing spec: everything needed to build one Governor per
/// simulated point. `table_csv` empty = CapTable::from_processor on
/// the typical embedded processor.
struct CapSpec {
  bool enabled = false;
  std::size_t hysteresis_slots = 4;
  double storage_draw_fraction = 0.5;
  std::string table_csv;  ///< path; loaded once per make_governor call
};

/// Build a governor from a spec (typical_embedded processor, the
/// spec's table or the processor default, the given efficiency model).
[[nodiscard]] Governor make_governor(const CapSpec& spec,
                                     const power::LinearEfficiencyModel& model);

}  // namespace fcdpm::cap
