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

#include "core/fc_policy.hpp"
#include "dpm/dpm_policy.hpp"
#include "hot/compiled_trace.hpp"
#include "power/hybrid.hpp"
#include "sim/slot_simulator.hpp"

namespace fcdpm::hot {

/// Simulate `trace` on the lane without deciding: the caller's
/// sim::choose_engine landed this run on Hot. The trace must
/// have been compiled against the DPM policy's device model (checked).
[[nodiscard]] sim::SimulationResult simulate_lane(
    const CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    core::FcOutputPolicy& fc_policy, power::HybridPowerSource& hybrid,
    const sim::SimulationOptions& options = {});

/// Simulate `trace` through the hot lane when sim::choose_engine lands
/// the run on Hot, else through sim::simulate(trace.trace(), ...).
/// Bit-identical to the reference in either case.
[[nodiscard]] sim::SimulationResult simulate(
    const CompiledTrace& trace, dpm::DpmPolicy& dpm_policy,
    core::FcOutputPolicy& fc_policy, power::HybridPowerSource& hybrid,
    const sim::SimulationOptions& options = {});

}  // namespace fcdpm::hot
