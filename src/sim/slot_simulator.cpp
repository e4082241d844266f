#include "sim/slot_simulator.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "audit/audit.hpp"
#include "cap/governor.hpp"
#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "obs/profiler.hpp"
#include "sim/fault_guard.hpp"
#include "sim/observer_guard.hpp"
#include "stacks/multi_stack.hpp"

namespace fcdpm::sim {

namespace {

/// Execute one constant-device-current stretch, honoring the policy's
/// stop-charging-when-full request by splitting the segment at the
/// instant the buffer fills (ASAP's recharge rule). `trace_obs` is the
/// run's context when a consuming sink is attached and nullptr
/// otherwise (counter samples and the clock only matter to sinks, so
/// the null-sink path skips them entirely). Returns fuel burned.
Coulomb run_segment(power::HybridPowerSource& hybrid,
                    core::FcOutputPolicy& fc_policy,
                    const core::SegmentContext& context, Seconds duration,
                    ProfileRecorder* recorder, Coulomb& if_dt_accumulator,
                    obs::Context* trace_obs, obs::Profiler* profiler,
                    audit::Auditor* auditor, std::size_t slot_index) {
  const obs::ProfileScope profile(profiler, "sim.run_segment");
  const core::SegmentSetpoint sp = fc_policy.segment_setpoint(context);

  Seconds first_span = duration;
  if (sp.stop_charging_when_full &&
      sp.setpoint > context.device_current) {
    const Ampere net = sp.setpoint - context.device_current;
    const Seconds to_full = hybrid.storage().bus_charge_to_full() / net;
    first_span = min(duration, to_full);
  }

  Coulomb fuel{0.0};
  const power::SegmentResult first =
      hybrid.run_segment(first_span, context.device_current, sp.setpoint);
  fuel += first.fuel;
  if_dt_accumulator += first.actual_if * first_span;
  if (auditor != nullptr) {
    auditor->on_segment({slot_index, first_span.value(), &first});
  }
  if (recorder != nullptr) {
    recorder->record(first_span, context.device_current, first.actual_if,
                     hybrid.storage().charge());
  }
  if (trace_obs != nullptr) {
    trace_obs->counter("fc_output_A", first.actual_if.value());
    trace_obs->counter("load_A", context.device_current.value());
    trace_obs->advance(first_span);
    trace_obs->counter("storage_As", hybrid.storage().charge().value());
  }

  const Seconds remainder = duration - first_span;
  if (remainder.value() > 0.0) {
    // Buffer filled mid-segment: fall back to load following.
    const Ampere follow = clamp(context.device_current,
                                hybrid.source().min_output(),
                                hybrid.source().max_output());
    const power::SegmentResult rest =
        hybrid.run_segment(remainder, context.device_current, follow);
    fuel += rest.fuel;
    if_dt_accumulator += rest.actual_if * remainder;
    if (auditor != nullptr) {
      auditor->on_segment({slot_index, remainder.value(), &rest});
    }
    if (recorder != nullptr) {
      recorder->record(remainder, context.device_current, rest.actual_if,
                       hybrid.storage().charge());
    }
    if (trace_obs != nullptr) {
      trace_obs->counter("fc_output_A", rest.actual_if.value());
      trace_obs->advance(remainder);
      trace_obs->counter("storage_As", hybrid.storage().charge().value());
    }
  }
  return fuel;
}

}  // namespace

SimulationResult simulate(const wl::Trace& trace, dpm::DpmPolicy& dpm_policy,
                          core::FcOutputPolicy& fc_policy,
                          power::HybridPowerSource& hybrid,
                          const SimulationOptions& options) {
  trace.validate();
  const dpm::DevicePowerModel& device = dpm_policy.device();
  device.validate();

  const Coulomb capacity = hybrid.storage().capacity();
  Coulomb initial = hybrid.storage().charge();
  if (!options.preserve_source_state) {
    initial = (options.initial_storage.value() < 0.0)
                  ? capacity
                  : min(options.initial_storage, capacity);
    hybrid.reset(initial);
  }

  SimulationResult result;
  result.trace_name = trace.name();
  result.dpm_policy = dpm_policy.name();
  result.fc_policy = fc_policy.name();
  result.storage_initial = initial;
  result.slots = trace.size();

  ProfileRecorder recorder;
  recorder.set_limit(options.profile_limit);
  ProfileRecorder* rec = options.record_profiles ? &recorder : nullptr;
  if (rec != nullptr) {
    recorder.reserve_for_slots(trace.size());
  }
  if (options.keep_slot_records) {
    result.slot_records.reserve(trace.size());
  }

  // An inactive context (e.g. only a NullTraceSink attached) is
  // treated exactly like no observer at all.
  obs::Context* obs = (options.observer != nullptr &&
                       options.observer->active())
                          ? options.observer
                          : nullptr;
  // Resolved once: non-null only when events actually reach a sink.
  obs::Context* trace_obs =
      (obs != nullptr && obs->tracing()) ? obs : nullptr;
  obs::Profiler* profiler = obs != nullptr ? obs->profiler() : nullptr;
  const ObserverGuard observer_guard(obs, dpm_policy, fc_policy, hybrid);

  // Fault side-car: reset the injector's clock at run start unless this
  // run continues a previous pass (lifetime measurement), in which case
  // the fault timeline spans the passes.
  fault::FaultInjector* faults = options.faults;
  if (faults != nullptr && !options.preserve_source_state) {
    faults->reset();
  }
  const FaultGuard fault_guard(faults, fc_policy, hybrid);

  // Cap side-car: like faults, the governor's held-level state spans
  // passes when the run continues previous source state.
  cap::Governor* governor = options.governor;
  if (governor != nullptr && !options.preserve_source_state) {
    governor->reset();
  }
  // The load-following floor is a per-run characterization (every fuel
  // source returns a stored constant); the ceiling is re-read per slot
  // below, because a degrading multi-stack source lowers its deliverable
  // envelope as wear accrues and the governor must budget against the
  // live value. Constant sources return the same bits every slot.
  const double fc_floor_a =
      governor != nullptr ? hybrid.source().min_output().value() : 0.0;

  // Audit side-car: read-only observer of the integration, so attaching
  // one cannot change results. Fed per segment (above), per slot, and
  // once at run end.
  audit::Auditor* auditor = options.auditor;
  const double bus_v = device.bus_voltage.value();

  const obs::ProfileScope profile(profiler, "sim.simulate");
  if (trace_obs != nullptr) {
    trace_obs->span_begin("sim", "simulate",
                          {{"slots", static_cast<double>(trace.size())}});
  }

  for (std::size_t k = 0; k < trace.size(); ++k) {
    // Cancellation / deadline checkpoint: slot boundaries are the only
    // places a run may stop early, so a cancelled or over-budget run
    // leaves no half-integrated slot behind.
    if (options.cancel != nullptr) {
      options.cancel->beat();
      if (options.cancel->cancelled()) {
        throw CancelledError("simulation cancelled at slot " +
                             std::to_string(k) + " of " +
                             std::to_string(trace.size()));
      }
    }
    if (options.slot_budget != 0 && k >= options.slot_budget) {
      throw DeadlineExceededError(
          "slot budget exhausted: " + std::to_string(options.slot_budget) +
          " slots simulated, " + std::to_string(trace.size()) + " required");
    }
    const wl::TaskSlot& slot = trace[k];
    Ampere run_current = slot.active_power / device.bus_voltage;
    Seconds active_eff = device.standby_to_run_delay + slot.active +
                         device.run_to_standby_delay;
    const Coulomb fuel_before = hybrid.totals().fuel;
    const Joule delivered_before = hybrid.totals().delivered_energy;
    // Slots the auditor would ignore skip the audit plumbing entirely
    // (view construction included) — sample mode stays near-free.
    audit::Auditor* slot_auditor =
        (auditor != nullptr && auditor->wants_slot(k)) ? auditor : nullptr;

    // Faults visible at slot start: a load spike makes the device draw
    // more than the trace says (the policies are NOT told — they plan
    // against the nominal current, which is the point of the exercise).
    Coulomb usable_capacity = capacity;
    if (faults != nullptr) {
      const fault::ActiveFaults& af =
          faults->advance_to(hybrid.elapsed_time());
      if (af.load_scale != 1.0) {
        run_current = run_current * af.load_scale;
      }
      if (af.storage_derate < 1.0) {
        usable_capacity = capacity * af.storage_derate;
      }
    }

    // Closed capping loop: hand the governor this slot's demand plus
    // the live source envelope, and apply its (possibly throttled) plan
    // *before* any planner sees the slot — the policies then plan
    // against the capped current and the stretched active window.
    if (governor != nullptr) {
      cap::SlotDemand demand;
      demand.run_current_a = run_current.value();
      demand.active_s = active_eff.value();
      demand.bus_v = device.bus_voltage.value();
      double fc_max = hybrid.source().max_output().value();
      if (faults != nullptr) {
        const fault::ActiveFaults& af = faults->active();
        if (af.fc_dropout) {
          fc_max = 0.0;
        } else if (af.fc_output_derate < 1.0) {
          // Mirrors the hybrid's own fault clamp: the stack never
          // derates below its minimum sustained output.
          fc_max = std::max(fc_floor_a, fc_max * af.fc_output_derate);
        }
      }
      demand.fc_max_a = fc_max;
      demand.storage_charge_as = hybrid.storage().charge().value();
      const cap::SlotPlan cap_plan = governor->plan_slot(demand);
      if (cap_plan.capped) {
        result.latency_added += Seconds(cap_plan.active_s) - active_eff;
        run_current = Ampere(cap_plan.run_current_a);
        active_eff = Seconds(cap_plan.active_s);
        if (faults != nullptr) {
          ++faults->stats().capped_slots;
        }
        if (obs != nullptr) {
          obs->count("cap.capped_slots");
        }
      }
    }

    if (obs != nullptr) {
      if (trace_obs != nullptr) {
        trace_obs->span_begin("sim", "slot",
                              {{"index", static_cast<double>(k)}});
      }
      obs->count("sim.slots");
    }

    // --- idle phase --------------------------------------------------------
    dpm::IdlePlan plan = dpm_policy.plan_idle(slot.idle);
    if (plan.slept) {
      ++result.sleeps;
    }
    result.latency_added += plan.latency_spill;

    if (trace_obs != nullptr) {
      trace_obs->span_begin("sim", "idle",
                            {{"actual_s", slot.idle.value()},
                             {"predicted_s", plan.predicted_idle.value()},
                             {"slept", plan.slept ? 1.0 : 0.0}});
    }

    core::IdleContext idle_context;
    idle_context.slot_index = k;
    idle_context.will_sleep = plan.slept;
    idle_context.predicted_idle = plan.predicted_idle;
    idle_context.idle_current = plan.slept ? device.sleep_current()
                                           : device.standby_current();
    idle_context.storage_charge = hybrid.storage().charge();
    idle_context.storage_capacity = usable_capacity;
    idle_context.actual_idle = slot.idle;
    idle_context.actual_active = active_eff;
    idle_context.actual_active_current = run_current;
    if (faults != nullptr) {
      const fault::ActiveFaults& af = faults->active();
      if (af.sensor_noise_sigma > 0.0) {
        // Perturb the predictor's output (the sensor chain, not the
        // predictor state) with a deterministic relative noise draw.
        idle_context.predicted_idle =
            max(Seconds(0.01),
                idle_context.predicted_idle *
                    (1.0 + faults->noise(af.sensor_noise_sigma)));
      }
      idle_context.fc_output_derate = af.fc_output_derate;
      idle_context.fc_available = !af.fc_dropout;
    }
    fc_policy.on_idle_start(idle_context);

    Coulomb if_dt_idle{0.0};
    for (const dpm::IdleSegment& segment : plan.segments) {
      core::SegmentContext context;
      context.phase = core::Phase::Idle;
      context.state = segment.state;
      context.device_current = segment.current;
      context.storage_charge = hybrid.storage().charge();
      context.storage_capacity = usable_capacity;
      const char* segment_name =
          (segment.state == dpm::PowerState::Standby) ? "standby" : "sleep";
      if (trace_obs != nullptr) {
        trace_obs->span_begin("sim", segment_name,
                              {{"current_A", segment.current.value()},
                               {"duration_s", segment.duration.value()}});
      }
      run_segment(hybrid, fc_policy, context, segment.duration, rec,
                  if_dt_idle, trace_obs, profiler, slot_auditor, k);
      if (trace_obs != nullptr) {
        trace_obs->span_end("sim", segment_name);
      }
    }
    if (trace_obs != nullptr) {
      trace_obs->span_end("sim", "idle");
    }

    // --- active phase ------------------------------------------------------
    core::ActiveContext active_context;
    active_context.slot_index = k;
    active_context.active_duration = active_eff;
    active_context.active_current = run_current;
    active_context.storage_charge = hybrid.storage().charge();
    active_context.storage_capacity = usable_capacity;
    if (faults != nullptr) {
      // The active set may have shifted during the idle phase.
      const fault::ActiveFaults& af =
          faults->advance_to(hybrid.elapsed_time());
      active_context.fc_output_derate = af.fc_output_derate;
      active_context.fc_available = !af.fc_dropout;
      if (af.storage_derate < 1.0) {
        active_context.storage_capacity = capacity * af.storage_derate;
      }
    }
    fc_policy.on_active_start(active_context);

    core::SegmentContext context;
    context.phase = core::Phase::Active;
    context.state = dpm::PowerState::Run;
    context.device_current = run_current;
    context.storage_charge = hybrid.storage().charge();
    context.storage_capacity = usable_capacity;
    Coulomb if_dt_active{0.0};
    if (trace_obs != nullptr) {
      trace_obs->span_begin("sim", "active",
                            {{"duration_s", active_eff.value()},
                             {"current_A", run_current.value()}});
    }
    run_segment(hybrid, fc_policy, context, active_eff, rec, if_dt_active,
                trace_obs, profiler, slot_auditor, k);
    if (trace_obs != nullptr) {
      trace_obs->span_end("sim", "active");
    }

    // --- bookkeeping -------------------------------------------------------
    dpm_policy.observe_idle(slot.idle);

    core::SlotObservation observation;
    observation.slot_index = k;
    observation.actual_idle = slot.idle;
    observation.actual_active = active_eff;
    observation.actual_active_current = run_current;
    observation.storage_charge = hybrid.storage().charge();
    observation.delivered_charge = if_dt_idle + if_dt_active;
    observation.fuel_used = hybrid.totals().fuel - fuel_before;
    fc_policy.on_slot_end(observation);

    if (slot_auditor != nullptr) {
      audit::SlotAudit view;
      view.slot = k;
      view.bus_v = bus_v;
      view.fuel_before = fuel_before.value();
      view.fuel_after = hybrid.totals().fuel.value();
      view.delivered_before = delivered_before.value();
      view.delivered_after = hybrid.totals().delivered_energy.value();
      view.if_dt = (if_dt_idle + if_dt_active).value();
      view.storage_charge = hybrid.storage().charge().value();
      view.storage_capacity = usable_capacity.value();
      slot_auditor->on_slot(view);
    }

    if (options.keep_slot_records) {
      SlotRecord record;
      record.index = k;
      record.idle = slot.idle;
      record.active = active_eff;
      record.slept = plan.slept;
      const Seconds idle_span = plan.total_duration();
      record.if_idle = (idle_span.value() > 0.0) ? if_dt_idle / idle_span
                                                 : Ampere(0.0);
      record.if_active = if_dt_active / active_eff;
      record.fuel = hybrid.totals().fuel - fuel_before;
      record.fuel_end = hybrid.totals().fuel;
      record.storage_end = hybrid.storage().charge();
      record.latency = plan.latency_spill;
      result.slot_records.push_back(record);
    }
    if (trace_obs != nullptr) {
      trace_obs->span_end("sim", "slot");
    }
  }

  if (trace_obs != nullptr) {
    trace_obs->span_end("sim", "simulate");
  }

  result.totals = hybrid.totals();
  result.storage_end = hybrid.storage().charge();
  result.storage_min = hybrid.min_storage_seen();
  result.storage_max = hybrid.max_storage_seen();

  if (faults != nullptr) {
    (void)faults->advance_to(hybrid.elapsed_time());
    result.robustness = faults->stats();
    if (obs != nullptr && obs->metering()) {
      obs->gauge("fault.degraded_s",
                 result.robustness->degraded_time.value());
      obs->gauge("fault.recovery_s",
                 result.robustness->recovery_time.value());
    }
  }

  if (governor != nullptr) {
    result.cap = governor->stats();
    if (obs != nullptr && obs->metering()) {
      obs->gauge("cap.slots_capped",
                 static_cast<double>(result.cap->slots_capped));
      obs->gauge("cap.energy_deferred_j",
                 result.cap->energy_deferred.value());
      obs->gauge("cap.time_deferred_s", result.cap->time_deferred.value());
      obs->gauge("cap.budget_violations",
                 static_cast<double>(result.cap->budget_violations));
    }
  }

  if (const auto* multi = dynamic_cast<const stacks::MultiStackFuelSource*>(
          &hybrid.source())) {
    result.stacks = multi->stats();
    if (obs != nullptr && obs->metering()) {
      obs->gauge("stacks.count",
                 static_cast<double>(result.stacks->stacks.size()));
      obs->gauge("stacks.startups",
                 static_cast<double>(result.stacks->total_startups()));
      obs->gauge("stacks.delivered_as", result.stacks->total_delivered_as());
      obs->gauge("stacks.max_wear", result.stacks->max_wear());
    }
  }

  if (auditor != nullptr) {
    Coulomb usable_end = capacity;
    if (faults != nullptr && faults->active().storage_derate < 1.0) {
      usable_end = capacity * faults->active().storage_derate;
    }
    audit::EndAudit end;
    end.totals = &result.totals;
    end.storage_end = result.storage_end.value();
    end.storage_capacity = usable_end.value();
    end.slots = result.slots;
    end.cap = result.cap.has_value() ? &*result.cap : nullptr;
    end.stacks = result.stacks.has_value() ? &*result.stacks : nullptr;
    auditor->on_run_end(end);
    result.audit = auditor->stats();
    if (obs != nullptr && obs->metering()) {
      obs->gauge("audit.slots_audited",
                 static_cast<double>(result.audit->slots_audited));
      obs->gauge("audit.checks_run",
                 static_cast<double>(result.audit->checks_run));
      obs->gauge("audit.violations",
                 static_cast<double>(result.audit->violations));
      obs->gauge("audit.engine_fallbacks",
                 static_cast<double>(result.audit->engine_fallbacks));
    }
  }

  if (const auto* predictive =
          dynamic_cast<const dpm::PredictiveDpmPolicy*>(&dpm_policy)) {
    result.idle_accuracy = predictive->accuracy();
  }
  if (options.record_profiles) {
    result.profiles = std::move(recorder);
  }
  return result;
}

}  // namespace fcdpm::sim
