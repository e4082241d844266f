// fcdpm::batch — the multi-point batched engine.
//
// run_batch advances B sweep points *simultaneously* through a single
// slot loop over point-major SoA state (BatchState). Points that share
// a DPM policy configuration share the plan computation outright (one
// plan_idle_into per slot for the whole batch), and points whose FC
// policies are pure per-phase (segment_setpoint_is_pure) and start from
// identical physical state are *merged*: one leader lane integrates,
// and followers — identical in everything but buffer capacity — reuse
// the leader's per-slot work. Merging is self-correcting: each phase
// the follower's probed setpoint is bit-compared against the leader's,
// and on the first slot whose solve actually diverges (or whose
// integration touched the leader's capacity), the follower restores the
// checkpointed shared-prefix state and replays only the divergent
// suffix on its own columns. Every lane's result is bit-identical to
// running that point alone on the reference engine.
//
// batch::simulate is the single-run entry (Engine::Batched): it asks
// sim::choose_engine once and runs a B = 1 batch, the hot lane (an
// observer or a governor, which the batch loop does not mirror) or the
// reference loop (anything hot itself cannot take) — calling it is
// always safe. A dispatcher that has already decided calls simulate_on.
#pragma once

#include <cstddef>
#include <vector>

#include "audit/audit.hpp"
#include "core/fc_policy.hpp"
#include "core/solve_cache.hpp"
#include "dpm/dpm_policy.hpp"
#include "hot/compiled_trace.hpp"
#include "power/hybrid.hpp"
#include "sim/slot_simulator.hpp"

namespace fcdpm::batch {

/// One point's wiring within a batch. The policies and hybrid are the
/// caller's (par builds them per point exactly as run_point would); the
/// engine wires solve caches for the duration of the run and restores
/// the previous attachment on return.
struct BatchLaneSpec {
  core::FcOutputPolicy* fc = nullptr;
  power::HybridPowerSource* hybrid = nullptr;
  /// Per-lane auditor (fail-fast for batched lanes, like hot lanes):
  /// a violation ejects the lane with End::AuditFailed; the caller
  /// self-heals by replaying on the reference engine.
  audit::Auditor* auditor = nullptr;
  /// 0 = run the whole trace; otherwise the lane is ejected with
  /// End::BudgetExhausted before simulating slot `slot_budget` (ragged
  /// batches: lanes finish at different lifetimes).
  std::size_t slot_budget = 0;
};

/// How one lane's run ended.
struct LaneOutcome {
  enum class End {
    Completed,        ///< whole trace simulated
    BudgetExhausted,  ///< spec.slot_budget hit; result holds the prefix
    AuditFailed,      ///< fail-fast audit violation; result.audit has it
  };
  End end = End::Completed;
  sim::SimulationResult result;
};

/// Batch-level accounting (optional out-param of run_batch).
struct BatchStats {
  std::size_t lanes = 0;
  /// Merge sets formed at batch start (>= 2 physically identical lanes).
  std::size_t merge_sets = 0;
  /// Follower-slots served entirely by a leader's work.
  std::size_t merged_lane_slots = 0;
  /// Followers that diverged and replayed onto their own columns.
  std::size_t splits = 0;
};

/// Run every lane over `trace` in one slot loop. All lanes share
/// `dpm_policy` (legal because DPM state is a function of the trace's
/// actual idle times only — each per-point copy would see the identical
/// sequence) and the shared options' initial_storage / cancellation /
/// preserve flags; auditor and slot budget are per lane via the spec.
///
/// Requires: sim::choose_engine(Batched, *lane.hybrid, shared) lands
/// every lane on Batched (checked); keep_slot_records only with a
/// single lane. Callers that cannot guarantee that go through
/// batch::simulate or par::run_sweep, which fall back per point.
///
/// `solve_cache` (optional) is attached to unmerged lanes, and merged
/// ones solve through it — pass the sweep's shared memo tap to get
/// run_point's exact cache wiring.
[[nodiscard]] std::vector<LaneOutcome> run_batch(
    const hot::CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    const std::vector<BatchLaneSpec>& lanes,
    const sim::SimulationOptions& shared,
    core::SlotSolveCache* solve_cache = nullptr, BatchStats* stats = nullptr);

/// Run on `engine` without deciding: the caller's sim::choose_engine
/// landed this run there. Batched is a B = 1 batch, Hot the hot lane,
/// Reference sim::simulate(trace.trace(), ...). Budget exhaustion and
/// fail-fast audit violations throw exactly like the hot engine's
/// single-run path (DeadlineExceededError / AuditError).
[[nodiscard]] sim::SimulationResult simulate_on(
    sim::Engine engine, const hot::CompiledTrace& trace,
    dpm::DpmPolicy& dpm_policy, core::FcOutputPolicy& fc_policy,
    power::HybridPowerSource& hybrid,
    const sim::SimulationOptions& options = {});

/// Single-run entry for Engine::Batched: simulate_on wherever
/// sim::choose_engine(Batched, ...) lands the run. Bit-identical to the
/// reference in every case.
[[nodiscard]] sim::SimulationResult simulate(
    const hot::CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    core::FcOutputPolicy& fc_policy, power::HybridPowerSource& hybrid,
    const sim::SimulationOptions& options = {});

}  // namespace fcdpm::batch
