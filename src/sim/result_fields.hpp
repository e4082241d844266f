// One field list per journaled block of a SimulationResult: the core
// totals, cap::CapStats, stacks::StacksStats and audit::AuditStats.
//
// Each list is a function that calls `visit(key, field...)` once per
// field, in journal key order. `field` is the member itself (integers,
// doubles and unit quantities, strings, double lists) or one of the
// small views below for the fields that need more than their type says.
// Passing several blocks visits the same field of each side by side,
// which is how same_result compares two results.
//
// The journal codec and same_result are generated from these lists, so
// a field added here is journaled, restored and compared; a field left
// out is none of these. This is the one place a result field is added.
#pragma once

#include <concepts>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "sim/metrics.hpp"

namespace fcdpm::sim {

/// `T` is `Block` or `const Block`.
template <typename T, typename Block>
concept BlockOf = std::same_as<std::remove_const_t<T>, Block>;

// The field views. Consumers tell them apart by their members.

/// An int or enum stored as an integer in [0, max].
template <typename T>
struct Ranged {
  T& value;
  std::uint64_t max;
};

/// The number of stacks, never 0; restoring it sizes the per-stack
/// vector that the columns fill.
template <typename Stacks>
struct StackCount {
  Stacks& stacks;
};

/// One stacks::StackTotals member of every stack, as a list.
template <typename Stacks, typename Member>
struct StackColumn {
  Stacks& stacks;
  Member member;
};

/// An optional token with its slot, journaled as `<key>_slot` and
/// `<key>` only when the token is non-empty.
template <typename Slot, typename Token>
struct FirstViolation {
  Slot& slot;
  Token& token;
};

/// The fields every ok result carries.
template <typename Visit, BlockOf<SimulationResult>... R>
void for_each_core_field(Visit&& visit, R&... r) {
  visit("trace", r.trace_name...);
  visit("dpm", r.dpm_policy...);
  visit("fc", r.fc_policy...);
  visit("fuel", r.totals.fuel...);
  visit("delivered_j", r.totals.delivered_energy...);
  visit("load_j", r.totals.load_energy...);
  visit("bled", r.totals.bled...);
  visit("unserved", r.totals.unserved...);
  visit("duration", r.totals.duration...);
  visit("slots", r.slots...);
  visit("sleeps", r.sleeps...);
  visit("latency", r.latency_added...);
  visit("storage_initial", r.storage_initial...);
  visit("storage_end", r.storage_end...);
  visit("storage_min", r.storage_min...);
  visit("storage_max", r.storage_max...);
}

template <typename Visit, BlockOf<cap::CapStats>... C>
void for_each_field(Visit&& visit, C&... c) {
  visit("cap_slots", c.slots_seen...);
  visit("cap_capped", c.slots_capped...);
  visit("cap_reductions", c.level_reductions...);
  visit("cap_restorations", c.level_restorations...);
  visit("cap_violations", c.budget_violations...);
  visit("cap_deferred_j", c.energy_deferred...);
  visit("cap_deferred_s", c.time_deferred...);
  visit("cap_levels", c.time_at_level_s...);
}

template <typename Visit, BlockOf<stacks::StacksStats>... S>
void for_each_field(Visit&& visit, S&... s) {
  visit("stk_n", StackCount{s.stacks}...);
  visit("stk_dist", Ranged{s.distribution, 2}...);
  using stacks::StackTotals;
  visit("stk_fuel", StackColumn{s.stacks, &StackTotals::fuel_as}...);
  visit("stk_delivered", StackColumn{s.stacks, &StackTotals::delivered_as}...);
  visit("stk_startups", StackColumn{s.stacks, &StackTotals::startups}...);
  visit("stk_wear", StackColumn{s.stacks, &StackTotals::wear}...);
}

template <typename Visit, BlockOf<audit::AuditStats>... A>
void for_each_field(Visit&& visit, A&... a) {
  visit("aud_mode", Ranged{a.mode, 2}...);
  visit("aud_slots", a.slots_audited...);
  visit("aud_segments", a.segments_audited...);
  visit("aud_checks", a.checks_run...);
  visit("aud_violations", a.violations...);
  visit("aud_fuel", a.fuel_violations...);
  visit("aud_storage", a.storage_violations...);
  visit("aud_cap", a.cap_violations...);
  visit("aud_stacks", a.stacks_violations...);
  visit("aud_cache", a.cache_violations...);
  visit("aud_fallbacks", a.engine_fallbacks...);
  visit("aud_first", FirstViolation{a.first_violation_slot,
                                    a.first_violation}...);
}

/// The optional blocks, each with the key that marks it present in a
/// journal record (its first field).
template <typename Visit, BlockOf<SimulationResult>... R>
void for_each_block(Visit&& visit, R&... r) {
  visit("cap_slots", r.cap...);
  visit("stk_n", r.stacks...);
  visit("aud_mode", r.audit...);
}

/// Bitwise equality over every field of every list above (doubles by
/// bit pattern); a block must be present on both sides or on neither.
[[nodiscard]] bool same_result(const SimulationResult& a,
                               const SimulationResult& b);

}  // namespace fcdpm::sim
