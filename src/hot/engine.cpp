#include "hot/engine.hpp"

#include <string>

#include "audit/audit.hpp"
#include "cap/governor.hpp"
#include "common/contracts.hpp"
#include "hot/arena.hpp"
#include "obs/profiler.hpp"
#include "sim/cancellation.hpp"
#include "sim/observer_guard.hpp"

namespace fcdpm::hot {

/// Local mirror of HybridPowerSource + SuperCapacitor state for the hot
/// lane: every field the segment integration touches, held in plain
/// doubles so the whole slot loop runs on registers with no virtual
/// dispatch. run_segment() is HybridPowerSource::run_segment() with the
/// LinearFuelSource and SuperCapacitor arithmetic inlined — the same
/// expressions in the same order, so the results are bit-identical.
///
/// The destructor writes the mirrored state back through the friendship
/// both classes grant, on every exit path — including a thrown contract
/// violation or cancellation — so the hybrid is left exactly as the
/// reference loop would have left it and a run can resume on the
/// reference path mid-stream.
class HybridLane {
 public:
  HybridLane(power::HybridPowerSource& hybrid,
             const power::LinearFuelSource& source,
             power::SuperCapacitor& cap)
      : hybrid_(hybrid), cap_(cap) {
    const power::LinearEfficiencyModel& model = source.model();
    capacity_ = cap.capacity().value();
    q_ = cap.charge().value();
    eff_ = cap.one_way_efficiency();
    k_ = model.k();
    alpha_ = model.alpha();
    beta_ = model.beta();
    if_min_ = model.min_output().value();
    if_max_ = model.max_output().value();
    bus_ = model.bus_voltage().value();
    totals_ = hybrid.totals_;
    q_min_ = hybrid.min_storage_seen_.value();
    q_max_ = hybrid.max_storage_seen_.value();
    startup_fuel_ = hybrid.startup_fuel_.value();
    startups_ = hybrid.startups_;
    fc_running_ = hybrid.fc_running_;
  }

  HybridLane(const HybridLane&) = delete;
  HybridLane& operator=(const HybridLane&) = delete;

  ~HybridLane() { write_back(); }

  /// HybridPowerSource::run_segment() inlined over LinearFuelSource +
  /// SuperCapacitor, fault-free path. Returns the actual IF.
  double run_segment(double duration, double load, double setpoint) {
    FCDPM_EXPECTS(duration >= 0.0, "duration must be non-negative");
    FCDPM_EXPECTS(load >= 0.0, "load current must be non-negative");
    FCDPM_EXPECTS(setpoint >= 0.0, "FC setpoint must be non-negative");

    const double i_f =
        (setpoint == 0.0)
            ? 0.0
            : (setpoint < if_min_
                   ? if_min_
                   : (setpoint > if_max_ ? if_max_ : setpoint));
    if (duration == 0.0) {
      return i_f;
    }

    // LinearFuelSource::fuel_current: Ifc = k * IF / (alpha - beta*IF).
    double fuel =
        (i_f == 0.0 ? 0.0 : k_ * i_f / (alpha_ - beta_ * i_f)) * duration;
    const bool fc_on = i_f > 0.0;
    if (fc_on && !fc_running_) {
      fuel += startup_fuel_;
      ++startups_;
    }
    fc_running_ = fc_on;

    double bled = 0.0;
    double unserved = 0.0;
    if (i_f >= load) {
      const double surplus = (i_f - load) * duration;
      // SuperCapacitor::store, inlined.
      const double headroom = capacity_ - q_;
      const double landable = surplus * eff_;
      const double landed = landable < headroom ? landable : headroom;
      q_ += landed;
      bled = surplus - landed / eff_;
    } else {
      const double deficit = (load - i_f) * duration;
      // SuperCapacitor::draw, inlined.
      const double needed = deficit / eff_;
      const double taken = needed < q_ ? needed : q_;
      q_ -= taken;
      unserved = deficit - taken * eff_;
    }

    totals_.fuel += Coulomb(fuel);
    totals_.delivered_energy += Joule(bus_ * i_f * duration);
    totals_.load_energy += Joule(bus_ * load * duration);
    totals_.bled += Coulomb(bled);
    totals_.unserved += Coulomb(unserved);
    totals_.duration += Seconds(duration);

    if (q_ < q_min_) {
      q_min_ = q_;
    }
    if (q_ > q_max_) {
      q_max_ = q_;
    }
    return i_f;
  }

  [[nodiscard]] double bus_charge_to_full() const noexcept {
    return (capacity_ - q_) / eff_;
  }
  [[nodiscard]] double if_min() const noexcept { return if_min_; }
  [[nodiscard]] double if_max() const noexcept { return if_max_; }
  [[nodiscard]] const power::HybridTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] Coulomb charge() const noexcept { return Coulomb(q_); }
  [[nodiscard]] Coulomb min_charge() const noexcept { return Coulomb(q_min_); }
  [[nodiscard]] Coulomb max_charge() const noexcept { return Coulomb(q_max_); }

 private:
  void write_back() noexcept {
    // Direct charge_ assignment, not set_charge(): the accumulation can
    // overshoot capacity by 1 ulp exactly like the reference's own
    // `charge_ += landed`, and set_charge's range contract would reject
    // (or a clamp would alter) that legitimate value.
    cap_.charge_ = Coulomb(q_);
    hybrid_.totals_ = totals_;
    hybrid_.min_storage_seen_ = Coulomb(q_min_);
    hybrid_.max_storage_seen_ = Coulomb(q_max_);
    hybrid_.startups_ = startups_;
    hybrid_.fc_running_ = fc_running_;
  }

  power::HybridPowerSource& hybrid_;
  power::SuperCapacitor& cap_;

  double capacity_ = 0.0;
  double q_ = 0.0;
  double eff_ = 1.0;
  double k_ = 0.0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  double if_min_ = 0.0;
  double if_max_ = 0.0;
  double bus_ = 0.0;

  power::HybridTotals totals_;
  double q_min_ = 0.0;
  double q_max_ = 0.0;
  double startup_fuel_ = 0.0;
  std::size_t startups_ = 0;
  bool fc_running_ = true;
};

namespace {

/// sim::run_segment with the lane substituted for the hybrid: split the
/// segment where the buffer fills (stop_charging_when_full), then load
/// following for the remainder. Same expressions as the reference.
template <typename Fc>
void hot_segment(HybridLane& lane, Fc& fc_policy,
                 const core::SegmentContext& context, Seconds duration,
                 Coulomb& if_dt_accumulator, obs::Profiler* profiler) {
  const obs::ProfileScope profile(profiler, "hot.segment");
  const core::SegmentSetpoint sp = fc_policy.segment_setpoint(context);

  double first_span = duration.value();
  if (sp.stop_charging_when_full && sp.setpoint > context.device_current) {
    const double net = (sp.setpoint - context.device_current).value();
    const double to_full = lane.bus_charge_to_full() / net;
    if (to_full < first_span) {
      first_span = to_full;
    }
  }

  const double first_if = lane.run_segment(
      first_span, context.device_current.value(), sp.setpoint.value());
  if_dt_accumulator += Ampere(first_if) * Seconds(first_span);

  const double remainder = duration.value() - first_span;
  if (remainder > 0.0) {
    // Buffer filled mid-segment: fall back to load following.
    const double load = context.device_current.value();
    const double follow =
        load < lane.if_min() ? lane.if_min()
                             : (load > lane.if_max() ? lane.if_max() : load);
    const double rest_if = lane.run_segment(remainder, load, follow);
    if_dt_accumulator += Ampere(rest_if) * Seconds(remainder);
  }
}

/// The reference slot loop over the compiled trace and the lane.
/// Templated on the concrete FC policy so segment_setpoint and the
/// slot-boundary callbacks devirtualize; the DPM policy goes through
/// the virtual plan_idle_into (one call per slot).
template <typename Fc>
sim::SimulationResult run_lane(const CompiledTrace& ct,
                               dpm::DpmPolicy& dpm_policy, Fc& fc_policy,
                               power::HybridPowerSource& hybrid,
                               const power::LinearFuelSource& source,
                               power::SuperCapacitor& cap,
                               const sim::SimulationOptions& options,
                               obs::Profiler* profiler) {
  const dpm::DevicePowerModel& device = dpm_policy.device();
  const Coulomb capacity = cap.capacity();
  Coulomb initial = cap.charge();
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

  HybridLane lane(hybrid, source, cap);
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
  // destructor write-back still runs, so the dispatcher's reference
  // replay starts from a consistent hybrid.
  audit::Auditor* auditor = options.auditor;
  const double bus_v = device.bus_voltage.value();

  dpm::InlineIdlePlan plan;
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
    const Seconds slot_idle = ct.idle(k);
    Ampere run_current = ct.run_current(k);
    Seconds active_eff = ct.active_eff(k);
    const Coulomb fuel_before = lane.totals().fuel;
    const Joule delivered_before = lane.totals().delivered_energy;

    // Same decision point as the reference loop: the capped current and
    // stretched window are what every planner below sees, and the
    // latency accumulation happens in the same order (cap stretch, then
    // this slot's plan spill) so the sums stay bit-identical.
    if (governor != nullptr) {
      cap::SlotDemand demand;
      demand.run_current_a = run_current.value();
      demand.active_s = active_eff.value();
      demand.bus_v = device.bus_voltage.value();
      demand.fc_max_a = lane.if_max();
      demand.storage_charge_as = lane.charge().value();
      const cap::SlotPlan cap_plan = governor->plan_slot(demand);
      if (cap_plan.capped) {
        result.latency_added += Seconds(cap_plan.active_s) - active_eff;
        run_current = Ampere(cap_plan.run_current_a);
        active_eff = Seconds(cap_plan.active_s);
      }
    }

    // --- idle phase ------------------------------------------------------
    {
      const obs::ProfileScope plan_scope(profiler, "hot.plan");
      dpm_policy.plan_idle_into(slot_idle, plan);
    }
    if (plan.slept) {
      ++result.sleeps;
    }
    result.latency_added += plan.latency_spill;

    core::IdleContext idle_context;
    idle_context.slot_index = k;
    idle_context.will_sleep = plan.slept;
    idle_context.predicted_idle = plan.predicted_idle;
    idle_context.idle_current = plan.slept ? sleep_current : standby_current;
    idle_context.storage_charge = lane.charge();
    idle_context.storage_capacity = capacity;
    idle_context.actual_idle = slot_idle;
    idle_context.actual_active = active_eff;
    idle_context.actual_active_current = run_current;
    fc_policy.on_idle_start(idle_context);

    Coulomb if_dt_idle{0.0};
    for (std::size_t s = 0; s < plan.count; ++s) {
      core::SegmentContext context;
      context.phase = core::Phase::Idle;
      context.state = plan.segments[s].state;
      context.device_current = plan.segments[s].current;
      context.storage_charge = lane.charge();
      context.storage_capacity = capacity;
      hot_segment(lane, fc_policy, context, plan.segments[s].duration,
                  if_dt_idle, profiler);
    }

    // --- active phase ----------------------------------------------------
    core::ActiveContext active_context;
    active_context.slot_index = k;
    active_context.active_duration = active_eff;
    active_context.active_current = run_current;
    active_context.storage_charge = lane.charge();
    active_context.storage_capacity = capacity;
    fc_policy.on_active_start(active_context);

    core::SegmentContext context;
    context.phase = core::Phase::Active;
    context.state = dpm::PowerState::Run;
    context.device_current = run_current;
    context.storage_charge = lane.charge();
    context.storage_capacity = capacity;
    Coulomb if_dt_active{0.0};
    hot_segment(lane, fc_policy, context, active_eff, if_dt_active, profiler);

    // --- bookkeeping -----------------------------------------------------
    dpm_policy.observe_idle(slot_idle);

    core::SlotObservation observation;
    observation.slot_index = k;
    observation.actual_idle = slot_idle;
    observation.actual_active = active_eff;
    observation.actual_active_current = run_current;
    observation.storage_charge = lane.charge();
    observation.delivered_charge = if_dt_idle + if_dt_active;
    observation.fuel_used = lane.totals().fuel - fuel_before;
    fc_policy.on_slot_end(observation);

    // Unsampled slots skip the audit plumbing (view included) — the
    // lane's per-slot cost with sample mode attached stays near zero.
    if (auditor != nullptr && auditor->wants_slot(k)) {
      audit::SlotAudit view;
      view.slot = k;
      view.bus_v = bus_v;
      view.fuel_before = fuel_before.value();
      view.fuel_after = lane.totals().fuel.value();
      view.delivered_before = delivered_before.value();
      view.delivered_after = lane.totals().delivered_energy.value();
      view.if_dt = (if_dt_idle + if_dt_active).value();
      view.storage_charge = lane.charge().value();
      view.storage_capacity = capacity.value();
      auditor->on_slot(view);
    }

    if (options.keep_slot_records) {
      sim::SlotRecord record;
      record.index = k;
      record.idle = slot_idle;
      record.active = active_eff;
      record.slept = plan.slept;
      const Seconds idle_span = plan.total_duration();
      record.if_idle = (idle_span.value() > 0.0) ? if_dt_idle / idle_span
                                                 : Ampere(0.0);
      record.if_active = if_dt_active / active_eff;
      record.fuel = lane.totals().fuel - fuel_before;
      record.fuel_end = lane.totals().fuel;
      record.storage_end = lane.charge();
      record.latency = plan.latency_spill;
      records.push_back(record);
    }
  }

  result.totals = lane.totals();
  result.storage_end = lane.charge();
  result.storage_min = lane.min_charge();
  result.storage_max = lane.max_charge();

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
                                    const sim::SimulationOptions& options) {
  const dpm::DevicePowerModel& device = dpm_policy.device();
  device.validate();
  FCDPM_EXPECTS(trace.compatible_with(device),
                "compiled trace was built against a different device model");

  const auto& source =
      dynamic_cast<const power::LinearFuelSource&>(hybrid.source());
  auto& cap = dynamic_cast<power::SuperCapacitor&>(hybrid.storage());

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
    return run_lane(trace, dpm_policy, *fc, hybrid, source, cap, options,
                    profiler);
  }
  if (auto* fc = dynamic_cast<core::AsapFcPolicy*>(&fc_policy)) {
    return run_lane(trace, dpm_policy, *fc, hybrid, source, cap, options,
                    profiler);
  }
  if (auto* fc = dynamic_cast<core::ConvFcPolicy*>(&fc_policy)) {
    return run_lane(trace, dpm_policy, *fc, hybrid, source, cap, options,
                    profiler);
  }
  if (auto* fc = dynamic_cast<core::OracleFcPolicy*>(&fc_policy)) {
    return run_lane(trace, dpm_policy, *fc, hybrid, source, cap, options,
                    profiler);
  }
  return run_lane(trace, dpm_policy, fc_policy, hybrid, source, cap, options,
                  profiler);
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
