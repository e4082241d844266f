// fcdpm::hot — the single-run hot-path engine.
//
// hot::simulate runs a CompiledTrace through an allocation-free slot
// loop: the hybrid source's segment integration is mirrored on a local
// LaneState (hot/lane.hpp, which the batch loop runs per point too),
// the DPM layout goes through plan_idle_into() into inline storage, and
// the FC policy is dispatched once per run (devirtualized for the four
// shipped policies) instead of per segment. The arithmetic is the
// reference loop's own, expression for expression, so results are
// bit-identical — sim::simulate stays the differential oracle
// (tests/hot holds every path to that).
//
// hot::simulate asks sim::choose_engine once per run: configurations
// the lane cannot mirror (fault injection, profile recording, a
// tracing/metering observer, non-paper source or storage types) run on
// the reference loop, so calling it is always safe. A dispatcher that
// has already decided calls simulate_lane directly: par::run_one does,
// for every single run on a compiled loop, including runs whose config
// asks for the batch loop (which serves multi-point sweep tasks only).
#pragma once

#include <optional>

#include "core/fc_policy.hpp"
#include "core/solve_cache.hpp"
#include "dpm/dpm_policy.hpp"
#include "hot/compiled_trace.hpp"
#include "power/hybrid.hpp"
#include "sim/slot_simulator.hpp"

namespace fcdpm::hot {

/// A hot-lane run's record of whether its buffer's capacity shaped it.
/// A fault-free paper run reads the capacity in three places: a
/// planning solve that clamps to it or fails its preconditions (the
/// latch, which the FC policy solves through), the store clamp or
/// full-buffer cutoff while integrating (hot::integrate's signal), and
/// reproject_bounds, which moves the charge a planning callback sees
/// when the accumulation overshot the capacity by an ulp (a storage_max
/// above the capacity marks it). A clean witness means every capacity
/// read gave the answer a larger capacity gives, so the same point at
/// any larger capacity and the same starting charge runs bit for bit
/// the same: the slack property the batch loop's merge sets rest on.
struct SlackWitness {
  /// Engaged by the dispatcher around the run's solve cache (nullptr
  /// for a run that solves fresh); a witness never engaged is not clean.
  std::optional<core::ClampLatch> latch;
  bool capacity_sensitive = false;

  [[nodiscard]] bool clean() const noexcept {
    return latch.has_value() && !latch->clamped() && !capacity_sensitive;
  }
};

/// Simulate `trace` on the lane without deciding: the caller's
/// sim::choose_engine landed this run on Hot. The trace must
/// have been compiled against the DPM policy's device model (checked).
/// `witness`, when given, has its latch attached to `fc_policy` by the
/// caller; the lane sets its capacity_sensitive flag.
[[nodiscard]] sim::SimulationResult simulate_lane(
    const CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    core::FcOutputPolicy& fc_policy, power::HybridPowerSource& hybrid,
    const sim::SimulationOptions& options = {},
    SlackWitness* witness = nullptr);

/// Simulate `trace` through the hot lane when sim::choose_engine lands
/// the run on Hot, else through sim::simulate(trace.trace(), ...).
/// Bit-identical to the reference in either case.
[[nodiscard]] sim::SimulationResult simulate(
    const CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    core::FcOutputPolicy& fc_policy, power::HybridPowerSource& hybrid,
    const sim::SimulationOptions& options = {});

}  // namespace fcdpm::hot
