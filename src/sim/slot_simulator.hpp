// Slot-level simulator: exact piecewise-constant integration of a trace
// under a (DPM policy, FC output policy) pair over the hybrid source.
//
// Per slot: the DPM policy lays the idle period out (standby, or
// power-down / sleep / wake-up); the FC policy is consulted at idle
// start, per segment, and again at active start (with the actual Ta and
// Ild,a, per Section 4.2). STANDBY<->RUN transitions extend the active
// phase at run power (Section 3.3.2's absorption rule).
#pragma once

#include <memory>

#include "core/fc_policy.hpp"
#include "dpm/dpm_policy.hpp"
#include "obs/context.hpp"
#include "power/hybrid.hpp"
#include "sim/cancellation.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "workload/trace.hpp"

namespace fcdpm::fault {
class FaultInjector;
}

namespace fcdpm::cap {
class Governor;
}

namespace fcdpm::audit {
class Auditor;
}

namespace fcdpm::sim {

struct SimulationOptions {
  /// Buffer charge at t = 0; negative means "start full". Default is
  /// empty: FC-DPM pins its end-of-slot target to the initial charge
  /// (Cini(1), Section 3.3.1), and an empty buffer gives it the headroom
  /// its idle-phase charging needs — matching the paper's motivational
  /// example where Cini = 0.
  Coulomb initial_storage{0.0};
  bool record_profiles = false;
  /// Record only this much simulated time (0 = all); Figure 7 uses 300 s.
  Seconds profile_limit{0.0};
  bool keep_slot_records = false;
  /// Continue from the hybrid source's current state instead of
  /// resetting it (multi-pass runs, e.g. lifetime measurement). Totals
  /// then accumulate across calls.
  bool preserve_source_state = false;
  /// Opt-in observability (tracing, metrics, profiling). The simulator
  /// attaches it to the policies and the hybrid source for the duration
  /// of the run and restores their previous observers on return; the
  /// context's simulated clock advances with the run. Not owned.
  /// nullptr (the default) keeps the hot path allocation-free and the
  /// results bit-identical.
  obs::Context* observer = nullptr;
  /// Opt-in fault injection. The simulator resets the injector at run
  /// start (unless preserve_source_state continues a previous pass, so
  /// the fault timeline spans passes), attaches it to the hybrid source
  /// and the FC policy for the duration of the run, and copies its
  /// RobustnessStats into SimulationResult::robustness. Not owned.
  /// nullptr (the default) keeps results bit-identical to a build
  /// without the fault subsystem.
  fault::FaultInjector* faults = nullptr;
  /// Opt-in dynamic power capping. The simulator resets the governor at
  /// run start (unless preserve_source_state continues a previous pass),
  /// consults it once per slot before the planners see the slot, and
  /// copies its CapStats into SimulationResult::cap. Not owned. nullptr
  /// (the default) keeps results bit-identical to a build without the
  /// cap subsystem.
  cap::Governor* governor = nullptr;
  /// Opt-in runtime invariant auditing. The simulator feeds the auditor
  /// read-only per-segment/per-slot/run-end views; the auditor never
  /// mutates simulation state, so results are bit-identical with it
  /// attached. Its stats are copied into SimulationResult::audit. A
  /// fail-fast auditor may throw audit::AuditError from a slot
  /// boundary; par::run_one (behind run_point and the CLI) self-heals a
  /// compiled-engine throw by replaying on the reference engine. Not
  /// owned.
  audit::Auditor* auditor = nullptr;
  /// Opt-in cooperative cancellation. Checked (and `beat()`) once per
  /// slot boundary; a cancelled token makes simulate() throw
  /// CancelledError. Not owned. nullptr (the default) costs one pointer
  /// compare per slot and changes nothing else.
  CancellationToken* cancel = nullptr;
  /// Deterministic per-run deadline: the maximum number of slots this
  /// call may simulate before throwing DeadlineExceededError (0 = no
  /// limit). Simulated-slot based, so the same point exceeds (or meets)
  /// its deadline identically on any machine.
  std::size_t slot_budget = 0;
  /// Which engine the run asks for. sim::simulate itself always runs the
  /// reference loop; the dispatchers (hot::simulate, par::run_one,
  /// par::run_batch_chunk) pass this to sim::choose_engine, and
  /// par::run_one asks for Hot where this says Batched.
  Engine engine = Engine::Reference;
};

/// Simulate `trace` with the given policies over `hybrid`. The policies
/// and the hybrid source are mutated (they are stateful); pass fresh
/// instances per run.
[[nodiscard]] SimulationResult simulate(const wl::Trace& trace,
                                        dpm::DpmPolicy& dpm_policy,
                                        core::FcOutputPolicy& fc_policy,
                                        power::HybridPowerSource& hybrid,
                                        const SimulationOptions& options = {});

}  // namespace fcdpm::sim
