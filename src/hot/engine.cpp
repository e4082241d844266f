#include "hot/engine.hpp"

#include <string>

#include "audit/audit.hpp"
#include "cap/governor.hpp"
#include "common/contracts.hpp"
#include "hot/arena.hpp"
#include "hot/lane.hpp"
#include "obs/profiler.hpp"
#include "sim/cancellation.hpp"
#include "sim/observer_guard.hpp"

namespace fcdpm::hot {

namespace {

/// The hot lane's state, guarded: its destructor writes the lane back
/// into the hybrid on every exit path — including a thrown contract
/// violation, audit failure or cancellation — so the hybrid is left
/// exactly as the reference loop would have left it and a run can
/// resume on the reference path mid-stream. A derived class rather than
/// a guard object holding a reference: nothing outside the loop keeps
/// the lane's address, so its fields can live in registers.
class GuardedLane : public LaneState {
 public:
  using LaneState::LaneState;
  GuardedLane(const GuardedLane&) = delete;
  GuardedLane& operator=(const GuardedLane&) = delete;
  ~GuardedLane() { write_back(); }
};

/// The reference slot loop over the compiled trace and the lane.
/// Templated on the concrete FC policy so segment_setpoint and the
/// slot-boundary callbacks devirtualize; the DPM policy goes through
/// the virtual plan_idle_into (one call per slot).
template <typename Fc>
sim::SimulationResult run_lane(const CompiledTrace& ct,
                               dpm::DpmPolicy& dpm_policy, Fc& fc_policy,
                               power::HybridPowerSource& hybrid,
                               const sim::SimulationOptions& options,
                               obs::Profiler* profiler, SlackWitness* witness) {
  const dpm::DevicePowerModel& device = dpm_policy.device();
  const Coulomb capacity = hybrid.storage().capacity();
  Coulomb initial = hybrid.storage().charge();
  if (!options.preserve_source_state) {
    initial = (options.initial_storage.value() < 0.0)
                  ? capacity
                  : min(options.initial_storage, capacity);
    hybrid.reset(initial);
  }

  sim::SimulationResult result;
  result.trace_name = ct.trace().name();
  result.dpm_policy = dpm_policy.name();
  result.fc_policy = fc_policy.name();
  result.storage_initial = initial;
  result.slots = ct.size();

  FixedCapacityBuffer<sim::SlotRecord> records(
      options.keep_slot_records ? ct.size() : 0);

  const Ampere sleep_current = device.sleep_current();
  const Ampere standby_current = device.standby_current();

  GuardedLane lane(hybrid);
  const obs::ProfileScope profile(profiler, "hot.simulate");

  // Cap side-car, mirroring sim::simulate: reset unless this run
  // continues previous source state. The lane is fault-free (faults
  // force the reference fallback), so the envelope's FC term is the
  // un-derated ceiling — the same value the reference reads there.
  cap::Governor* governor = options.governor;
  if (governor != nullptr && !options.preserve_source_state) {
    governor->reset();
  }

  // Audit side-car: pure reader of the lane's mirrored state. A
  // fail-fast auditor throws from the slot boundary; the lane's
  // write-back still runs, so the dispatcher's reference replay starts
  // from a consistent hybrid.
  audit::Auditor* auditor = options.auditor;
  const double bus_v = device.bus_voltage.value();

  SlotInputs in;
  bool capacity_sensitive = false;
  const std::size_t slot_count = ct.size();
  for (std::size_t k = 0; k < slot_count; ++k) {
    if (options.cancel != nullptr) {
      options.cancel->beat();
      if (options.cancel->cancelled()) {
        throw sim::CancelledError("simulation cancelled at slot " +
                                  std::to_string(k) + " of " +
                                  std::to_string(slot_count));
      }
    }
    if (options.slot_budget != 0 && k >= options.slot_budget) {
      throw sim::DeadlineExceededError(
          "slot budget exhausted: " + std::to_string(options.slot_budget) +
          " slots simulated, " + std::to_string(slot_count) + " required");
    }
    in.k = k;
    in.idle = ct.idle(k);
    in.run_current = ct.run_current(k);
    in.active = ct.active_eff(k);
    const power::HybridTotals before = lane.totals();

    // Same decision point as the reference loop: the capped current and
    // stretched window are what every planner below sees, and the
    // latency accumulation happens in the same order (cap stretch, then
    // this slot's plan spill) so the sums stay bit-identical.
    if (governor != nullptr) {
      cap::SlotDemand demand;
      demand.run_current_a = in.run_current.value();
      demand.active_s = in.active.value();
      demand.bus_v = device.bus_voltage.value();
      demand.fc_max_a = lane.if_max();
      demand.storage_charge_as = lane.charge().value();
      const cap::SlotPlan cap_plan = governor->plan_slot(demand);
      if (cap_plan.capped) {
        result.latency_added += Seconds(cap_plan.active_s) - in.active;
        in.run_current = Ampere(cap_plan.run_current_a);
        in.active = Seconds(cap_plan.active_s);
      }
    }

    {
      const obs::ProfileScope plan_scope(profiler, "hot.plan");
      dpm_policy.plan_idle_into(in.idle, in.plan);
    }
    if (in.plan.slept) {
      ++result.sleeps;
    }
    result.latency_added += in.plan.latency_spill;
    in.idle_current = in.plan.slept ? sleep_current : standby_current;

    const Coulomb if_dt_idle =
        idle_phase(lane, fc_policy, in, /*planning=*/true, capacity_sensitive,
                   profiler);
    const Coulomb if_dt_active =
        active_phase(lane, fc_policy, in, /*planning=*/true,
                     capacity_sensitive, profiler);
    dpm_policy.observe_idle(in.idle);
    slot_end(lane, fc_policy, in, if_dt_idle + if_dt_active, before);
    audit_slot(auditor, k, bus_v, lane, lane.capacity(), before,
               if_dt_idle + if_dt_active);

    if (options.keep_slot_records) {
      sim::SlotRecord record;
      record.index = k;
      record.idle = in.idle;
      record.active = in.active;
      record.slept = in.plan.slept;
      const Seconds idle_span = in.plan.total_duration();
      record.if_idle = (idle_span.value() > 0.0) ? if_dt_idle / idle_span
                                                 : Ampere(0.0);
      record.if_active = if_dt_active / in.active;
      record.fuel = lane.totals().fuel - before.fuel;
      record.fuel_end = lane.totals().fuel;
      record.storage_end = lane.charge();
      record.latency = in.plan.latency_spill;
      records.push_back(record);
    }
  }

  lane.write_result(result);
  if (witness != nullptr) {
    // A charge above the capacity is what reproject_bounds clamps.
    witness->capacity_sensitive =
        capacity_sensitive || result.storage_max > capacity;
  }

  if (governor != nullptr) {
    result.cap = governor->stats();
  }

  if (auditor != nullptr) {
    audit::EndAudit end;
    end.totals = &result.totals;
    end.storage_end = result.storage_end.value();
    end.storage_capacity = capacity.value();
    end.slots = result.slots;
    end.cap = result.cap.has_value() ? &*result.cap : nullptr;
    auditor->on_run_end(end);
    result.audit = auditor->stats();
  }

  if (const auto* predictive =
          dynamic_cast<const dpm::PredictiveDpmPolicy*>(&dpm_policy)) {
    result.idle_accuracy = predictive->accuracy();
  }
  if (options.keep_slot_records) {
    result.slot_records = records.take();
  }
  return result;
}

}  // namespace

sim::SimulationResult simulate_lane(const CompiledTrace& trace,
                                    dpm::DpmPolicy& dpm_policy,
                                    core::FcOutputPolicy& fc_policy,
                                    power::HybridPowerSource& hybrid,
                                    const sim::SimulationOptions& options,
                                    SlackWitness* witness) {
  const dpm::DevicePowerModel& device = dpm_policy.device();
  device.validate();
  FCDPM_EXPECTS(trace.compatible_with(device),
                "compiled trace was built against a different device model");

  obs::Context* obs =
      (options.observer != nullptr && options.observer->active())
          ? options.observer
          : nullptr;
  obs::Profiler* profiler = obs != nullptr ? obs->profiler() : nullptr;
  const sim::ObserverGuard observer_guard(obs, dpm_policy, fc_policy, hybrid);

  // One dynamic_cast per run picks the devirtualized instantiation for
  // the shipped FC policies; anything else runs the generic lane with
  // virtual segment_setpoint calls (still allocation-free).
  if (auto* fc = dynamic_cast<core::FcDpmPolicy*>(&fc_policy)) {
    return run_lane(trace, dpm_policy, *fc, hybrid, options, profiler,
                    witness);
  }
  if (auto* fc = dynamic_cast<core::AsapFcPolicy*>(&fc_policy)) {
    return run_lane(trace, dpm_policy, *fc, hybrid, options, profiler,
                    witness);
  }
  if (auto* fc = dynamic_cast<core::ConvFcPolicy*>(&fc_policy)) {
    return run_lane(trace, dpm_policy, *fc, hybrid, options, profiler,
                    witness);
  }
  if (auto* fc = dynamic_cast<core::OracleFcPolicy*>(&fc_policy)) {
    return run_lane(trace, dpm_policy, *fc, hybrid, options, profiler,
                    witness);
  }
  return run_lane(trace, dpm_policy, fc_policy, hybrid, options, profiler,
                  witness);
}

sim::SimulationResult simulate(const CompiledTrace& trace,
                               dpm::DpmPolicy& dpm_policy,
                               core::FcOutputPolicy& fc_policy,
                               power::HybridPowerSource& hybrid,
                               const sim::SimulationOptions& options) {
  if (sim::choose_engine(sim::Engine::Hot, hybrid, options).engine ==
      sim::Engine::Reference) {
    return sim::simulate(trace.trace(), dpm_policy, fc_policy, hybrid,
                         options);
  }
  return simulate_lane(trace, dpm_policy, fc_policy, hybrid, options);
}

}  // namespace fcdpm::hot
