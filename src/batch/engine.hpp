// fcdpm::batch — the multi-point batched engine.
//
// run_batch advances B sweep points *simultaneously* through a single
// slot loop, one hot::LaneState per point: the hot lane's state and its
// slot body (hot/lane.hpp), so the batch loop holds no model of its
// own. The points share a DPM policy, so one plan_idle_into per slot
// serves the whole batch. Points whose FC policies are pure per-phase
// (segment_setpoint_is_pure), merge_equivalent, and start from
// identical lane states except for capacity form a *merge set*: the
// smallest-capacity lane leads, and only its policy runs and
// integrates; the followers are frozen and ride its state. When the
// capacity shapes the leader's slot — a capacity-clamped solve while
// planning, or a buffer that fills while integrating — the leader
// steps out and finishes that slot solo from where it stopped, and the
// next-smallest capacity takes over the set: re-planning after a plan
// clamp, re-integrating from the phase checkpoint after an integration
// clamp. Every lane's result is bit-identical to running that point
// alone on the reference engine (docs/ARCHITECTURE.md, "Batched
// execution & incremental sweeps").
//
// The batch loop serves multi-point sweep tasks only (par::run_batch_chunk).
// A single run takes the hot lane instead, even when Engine::Batched is
// asked for: at B = 1 the hot lane is faster and bit-identical
// (BENCH_batch.json, `single_run`).
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
#include "telemetry/sweep_stats.hpp"

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
};

/// How one lane's run ended.
struct LaneOutcome {
  enum class End {
    Completed,    ///< whole trace simulated
    AuditFailed,  ///< fail-fast audit violation; result.audit has it
  };
  End end = End::Completed;
  sim::SimulationResult result;
};

/// Batch-level accounting (optional out-param of run_batch): the lanes
/// and the merge counters a sweep sums over its tasks.
struct BatchStats : telemetry::BatchCounters {
  std::size_t lanes = 0;
};

/// Run every lane over `trace` in one slot loop. All lanes share
/// `dpm_policy` (legal because DPM state is a function of the trace's
/// actual idle times only — each per-point copy would see the identical
/// sequence) and the shared options' initial_storage; the auditor is
/// per lane via the spec.
///
/// Requires: sim::choose_engine(Batched, *lane.hybrid, shared) lands
/// every lane on Batched, and `shared` sets no slot budget, cancellation
/// token, slot records or preserved source state (all checked). Callers
/// that cannot guarantee that go through par::run_sweep, which falls
/// back per point.
///
/// `solve_cache` (optional) is attached to unmerged lanes, and merged
/// ones solve through it — pass the sweep's shared memo tap to get
/// run_point's exact cache wiring.
[[nodiscard]] std::vector<LaneOutcome> run_batch(
    const hot::CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    const std::vector<BatchLaneSpec>& lanes,
    const sim::SimulationOptions& shared,
    core::SlotSolveCache* solve_cache = nullptr, BatchStats* stats = nullptr);

}  // namespace fcdpm::batch
