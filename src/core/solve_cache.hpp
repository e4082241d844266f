// Memoization seam for slot solves.
//
// The closed-form solver is cheap, but a sweep evaluates the same
// policies over the same trace under dozens of configurations, and the
// same (load, storage) sub-problems recur — across passes of a lifetime
// run, across fault-storm seeds that share a fault-free prefix, and
// across grid points that only differ in dimensions the solve does not
// see. A cache implementation (fcdpm::par provides the thread-safe one)
// memoizes CheckedSetting answers keyed on the solve inputs plus the
// optimizer's efficiency model.
//
// Determinism contract: for a given optimizer model and inputs the
// returned setting must be bit-identical whether it was just computed
// or served from the cache, on any thread, in any interleaving. (The
// par implementation achieves this by snapping inputs to its
// quantization grid *before* solving, so hit and miss paths answer the
// identical snapped problem.)
#pragma once

#include "core/slot_optimizer.hpp"

namespace fcdpm::core {

/// Abstract memo for SlotOptimizer answers; attached to FC policies via
/// FcOutputPolicy::set_solve_cache. Not owned by the policy.
class SlotSolveCache {
 public:
  virtual ~SlotSolveCache() = default;

  /// Full-slot solve (the idle-start plan).
  [[nodiscard]] virtual CheckedSetting solve(
      const SlotOptimizer& optimizer, const SlotLoad& load,
      const StorageBounds& storage) = 0;

  /// Active-phase-only re-solve (the active-start replan).
  [[nodiscard]] virtual CheckedSetting solve_active_only(
      const SlotOptimizer& optimizer, Seconds duration, Coulomb charge,
      const StorageBounds& storage) = 0;
};

/// A solve hook that notes when the capacity may have shaped an answer:
/// each solve goes to the underlying cache, or is solved fresh, and the
/// latch notes an answer that failed or was capacity-clamped. By the
/// slot optimizer's slack property (solve reads the capacity only in its
/// preconditions and the two store-clamp branches, which set
/// capacity_clamped), only such an answer can differ at a larger
/// capacity. The batch loop's merge sets clear it before each planning
/// callback and hand leadership on if it is set after; the hot lane's
/// slack witness (hot::SlackWitness) keeps it for a whole run.
class ClampLatch final : public SlotSolveCache {
 public:
  explicit ClampLatch(SlotSolveCache* underlying)
      : underlying_(underlying) {}

  void clear() noexcept { clamped_ = false; }
  [[nodiscard]] bool clamped() const noexcept { return clamped_; }

  [[nodiscard]] CheckedSetting solve(const SlotOptimizer& optimizer,
                                     const SlotLoad& load,
                                     const StorageBounds& storage) override {
    return latch(underlying_ != nullptr
                     ? underlying_->solve(optimizer, load, storage)
                     : optimizer.solve_checked(load, storage));
  }

  [[nodiscard]] CheckedSetting solve_active_only(
      const SlotOptimizer& optimizer, Seconds duration, Coulomb charge,
      const StorageBounds& storage) override {
    return latch(underlying_ != nullptr
                     ? underlying_->solve_active_only(optimizer, duration,
                                                      charge, storage)
                     : optimizer.solve_active_only_checked(duration, charge,
                                                           storage));
  }

 private:
  CheckedSetting latch(const CheckedSetting& answer) noexcept {
    clamped_ = clamped_ || !answer.ok() || answer.setting.capacity_clamped;
    return answer;
  }

  SlotSolveCache* underlying_ = nullptr;
  bool clamped_ = false;
};

}  // namespace fcdpm::core
