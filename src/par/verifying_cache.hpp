// Audited view of the solve-cache seam: forwards every solve to the
// inner cache (answers are unchanged — it adds no caching of its own)
// and, for every `sample_period`-th call, re-solves the identical
// snapped problem fresh through the shared memo's bypass and
// bit-compares the answers. A mismatch means the memo served a stale or
// corrupted entry; it is reported to the auditor as a cache violation
// (fail-fast auditors throw, so a poisoned cache can never silently
// shape a strict run's results).
//
// The inner cache is whatever the caller already uses — the shared memo
// itself, or a per-worker SolveCacheTap (attribution is preserved:
// verification adds fresh solves, not cache traffic).
#pragma once

#include <bit>
#include <cstdint>

#include "audit/audit.hpp"
#include "par/solve_cache.hpp"

namespace fcdpm::par {

class VerifyingSolveCache final : public core::SlotSolveCache {
 public:
  VerifyingSolveCache(core::SlotSolveCache& inner,
                      const SharedSolveCache& fresh, audit::Auditor& auditor)
      : inner_(&inner),
        fresh_(&fresh),
        auditor_(&auditor),
        until_check_(auditor.spec().cache_check_period) {}

  [[nodiscard]] core::CheckedSetting solve(
      const core::SlotOptimizer& optimizer, const core::SlotLoad& load,
      const core::StorageBounds& storage) override {
    const core::CheckedSetting answer =
        inner_->solve(optimizer, load, storage);
    if (sample()) {
      check(answer, fresh_->solve_fresh(optimizer, load, storage));
    }
    return answer;
  }

  [[nodiscard]] core::CheckedSetting solve_active_only(
      const core::SlotOptimizer& optimizer, Seconds duration, Coulomb charge,
      const core::StorageBounds& storage) override {
    const core::CheckedSetting answer =
        inner_->solve_active_only(optimizer, duration, charge, storage);
    if (sample()) {
      check(answer, fresh_->solve_active_only_fresh(optimizer, duration,
                                                    charge, storage));
    }
    return answer;
  }

 private:
  /// Verification is sampled even in strict mode (the point of the
  /// memo is not solving everything twice); the auditor's
  /// cache_check_period sets the cadence over this caller's solve
  /// sequence.
  /// The first check lands at call `cache_check_period`, not call 0: a
  /// short run skips the re-solve entirely, which keeps the sampled
  /// audit inside its overhead budget on small sweeps (a fresh solve
  /// costs orders of magnitude more than every other sampled check).
  /// Countdown instead of modulo: this sits on the per-solve fast path.
  [[nodiscard]] bool sample() noexcept {
    if (--until_check_ != 0) {
      return false;
    }
    until_check_ = auditor_->spec().cache_check_period;
    return true;
  }

  static bool same_bits(double a, double b) noexcept {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  void check(const core::CheckedSetting& cached,
             const core::CheckedSetting& fresh) {
    const core::SlotSetting& c = cached.setting;
    const core::SlotSetting& f = fresh.setting;
    const bool same =
        cached.status == fresh.status &&
        same_bits(c.if_idle.value(), f.if_idle.value()) &&
        same_bits(c.if_active.value(), f.if_active.value()) &&
        same_bits(c.expected_end.value(), f.expected_end.value()) &&
        same_bits(c.fuel.value(), f.fuel.value()) &&
        same_bits(c.unconstrained.value(), f.unconstrained.value()) &&
        c.range_clamped == f.range_clamped &&
        c.capacity_clamped == f.capacity_clamped &&
        c.floor_clamped == f.floor_clamped &&
        c.bleed_expected == f.bleed_expected;
    if (!same) {
      auditor_->record_cache_mismatch();
    }
  }

  core::SlotSolveCache* inner_;
  const SharedSolveCache* fresh_;
  audit::Auditor* auditor_;
  std::size_t until_check_;
};

}  // namespace fcdpm::par
