// fcdpm::hot — the compiled loops' one mirror of the hybrid source, and
// the slot body they share.
//
// LaneState holds every field HybridPowerSource::run_segment() reads or
// writes over a LinearFuelSource + SuperCapacitor, in plain doubles, so
// a slot loop integrates with no virtual dispatch. The hot lane runs one
// LaneState; the batch loop (batch/engine.cpp) runs one per sweep point.
// run_segment() is the reference arithmetic with the fuel source and the
// capacitor inlined — the same expressions in the same order — so both
// loops stay bit-identical to sim::simulate.
//
// The helpers below the class are the slot body both loops run: the
// idle phase (planning callback, then every DPM segment), the active
// phase and the slot end. The batch loop also enters them partway
// through a slot, when a merge set's leader steps out at a capacity
// clamp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "audit/audit.hpp"
#include "common/contracts.hpp"
#include "core/fc_policy.hpp"
#include "dpm/dpm_policy.hpp"
#include "obs/profiler.hpp"
#include "power/hybrid.hpp"
#include "power/storage.hpp"
#include "sim/slot_simulator.hpp"

namespace fcdpm::hot {

class LaneState {
 public:
  /// Everything run_segment() writes. A merge set restores it onto a
  /// successor leader as the phase checkpoint, and a follower leaving
  /// its set adopts its leader's, bitwise its own.
  struct Snapshot {
    double q = 0.0;
    power::HybridTotals totals;
    double q_min = 0.0;
    double q_max = 0.0;
    std::size_t startups = 0;
    bool fc_running = true;
  };

  /// Mirror `hybrid`, a LinearFuelSource over a SuperCapacitor. The
  /// hybrid must outlive the lane: write_back() targets it.
  explicit LaneState(power::HybridPowerSource& hybrid)
      : hybrid_(&hybrid),
        cap_(&dynamic_cast<power::SuperCapacitor&>(hybrid.storage())) {
    const power::LinearEfficiencyModel& model =
        dynamic_cast<const power::LinearFuelSource&>(hybrid.source()).model();
    capacity_ = cap_->capacity().value();
    eff_ = cap_->one_way_efficiency();
    k_ = model.k();
    alpha_ = model.alpha();
    beta_ = model.beta();
    if_min_ = model.min_output().value();
    if_max_ = model.max_output().value();
    bus_ = model.bus_voltage().value();
    startup_fuel_ = hybrid.startup_fuel_.value();
    run_.q = cap_->charge().value();
    run_.totals = hybrid.totals_;
    run_.q_min = hybrid.min_storage_seen_.value();
    run_.q_max = hybrid.max_storage_seen_.value();
    run_.startups = hybrid.startups_;
    run_.fc_running = hybrid.fc_running_;
  }

  /// HybridPowerSource::run_segment() inlined over LinearFuelSource +
  /// SuperCapacitor, fault-free path. Returns the actual IF and sets
  /// `capacity_sensitive` iff the outcome depended on this lane's
  /// capacity (strict store clamp). `landable == headroom` is NOT
  /// sensitive: the landed charge is bit-equal either way.
  double run_segment(double duration, double load, double setpoint,
                     bool& capacity_sensitive) {
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
    if (fc_on && !run_.fc_running) {
      fuel += startup_fuel_;
      ++run_.startups;
    }
    run_.fc_running = fc_on;

    double bled = 0.0;
    double unserved = 0.0;
    if (i_f >= load) {
      const double surplus = (i_f - load) * duration;
      // SuperCapacitor::store, inlined.
      const double headroom = capacity_ - run_.q;
      const double landable = surplus * eff_;
      const double landed = landable < headroom ? landable : headroom;
      if (landable > headroom) {
        capacity_sensitive = true;
      }
      run_.q += landed;
      bled = surplus - landed / eff_;
    } else {
      const double deficit = (load - i_f) * duration;
      // SuperCapacitor::draw, inlined — never reads capacity.
      const double needed = deficit / eff_;
      const double taken = needed < run_.q ? needed : run_.q;
      run_.q -= taken;
      unserved = deficit - taken * eff_;
    }

    power::HybridTotals& totals = run_.totals;
    totals.fuel += Coulomb(fuel);
    totals.delivered_energy += Joule(bus_ * i_f * duration);
    totals.load_energy += Joule(bus_ * load * duration);
    totals.bled += Coulomb(bled);
    totals.unserved += Coulomb(unserved);
    totals.duration += Seconds(duration);

    if (run_.q < run_.q_min) {
      run_.q_min = run_.q;
    }
    if (run_.q > run_.q_max) {
      run_.q_max = run_.q;
    }
    return i_f;
  }

  [[nodiscard]] double bus_charge_to_full() const noexcept {
    return (capacity_ - run_.q) / eff_;
  }
  [[nodiscard]] double capacity() const noexcept { return capacity_; }
  [[nodiscard]] double if_min() const noexcept { return if_min_; }
  [[nodiscard]] double if_max() const noexcept { return if_max_; }
  [[nodiscard]] Coulomb charge() const noexcept { return Coulomb(run_.q); }
  [[nodiscard]] const power::HybridTotals& totals() const noexcept {
    return run_.totals;
  }
  [[nodiscard]] const Snapshot& snapshot() const noexcept { return run_; }
  void restore(const Snapshot& snapshot) noexcept { run_ = snapshot; }

  /// True when this lane and `other` are bitwise identical in every
  /// field the segment integration reads or writes *except capacity* —
  /// the merge precondition. The batch loop handles capacity
  /// differences through the slack property and the sensitivity signal.
  [[nodiscard]] bool physically_identical(
      const LaneState& other) const noexcept {
    const power::HybridTotals& ta = run_.totals;
    const power::HybridTotals& tb = other.run_.totals;
    return same(eff_, other.eff_) && same(k_, other.k_) &&
           same(alpha_, other.alpha_) && same(beta_, other.beta_) &&
           same(if_min_, other.if_min_) && same(if_max_, other.if_max_) &&
           same(bus_, other.bus_) &&
           same(startup_fuel_, other.startup_fuel_) &&
           same(run_.q, other.run_.q) && same(run_.q_min, other.run_.q_min) &&
           same(run_.q_max, other.run_.q_max) &&
           run_.startups == other.run_.startups &&
           run_.fc_running == other.run_.fc_running &&
           same(ta.fuel.value(), tb.fuel.value()) &&
           same(ta.delivered_energy.value(), tb.delivered_energy.value()) &&
           same(ta.load_energy.value(), tb.load_energy.value()) &&
           same(ta.bled.value(), tb.bled.value()) &&
           same(ta.unserved.value(), tb.unserved.value()) &&
           same(ta.duration.value(), tb.duration.value());
  }

  /// The run's physics as a result reports it.
  void write_result(sim::SimulationResult& result) const noexcept {
    result.totals = run_.totals;
    result.storage_end = Coulomb(run_.q);
    result.storage_min = Coulomb(run_.q_min);
    result.storage_max = Coulomb(run_.q_max);
  }

  /// Restore the mirrored state into the hybrid + cap. Direct charge_
  /// assignment, not set_charge(): the accumulation can overshoot
  /// capacity by 1 ulp exactly like the reference's own
  /// `charge_ += landed`, and set_charge's range contract would reject
  /// (or a clamp would alter) that legitimate value.
  void write_back() const noexcept {
    cap_->charge_ = Coulomb(run_.q);
    hybrid_->totals_ = run_.totals;
    hybrid_->min_storage_seen_ = Coulomb(run_.q_min);
    hybrid_->max_storage_seen_ = Coulomb(run_.q_max);
    hybrid_->startups_ = run_.startups;
    hybrid_->fc_running_ = run_.fc_running;
  }

 private:
  [[nodiscard]] static bool same(double a, double b) noexcept {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  power::HybridPowerSource* hybrid_;
  power::SuperCapacitor* cap_;

  // Model constants.
  double capacity_ = 0.0;
  double eff_ = 1.0;
  double k_ = 0.0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  double if_min_ = 0.0;
  double if_max_ = 0.0;
  double bus_ = 0.0;
  double startup_fuel_ = 0.0;

  Snapshot run_;
};

/// One slot's lane-independent inputs: every lane that runs slot `k`
/// sees the same times, DPM plan and (capped) active demand.
struct SlotInputs {
  std::size_t k = 0;
  Seconds idle{0.0};
  Seconds active{0.0};      ///< effective, after any cap stretch
  Ampere run_current{0.0};  ///< after any cap throttle
  dpm::InlineIdlePlan plan;
  Ampere idle_current{0.0};  ///< sleep or standby current, per plan.slept
};

[[nodiscard]] inline core::IdleContext idle_context(const SlotInputs& in,
                                                    const LaneState& lane) {
  core::IdleContext context;
  context.slot_index = in.k;
  context.will_sleep = in.plan.slept;
  context.predicted_idle = in.plan.predicted_idle;
  context.idle_current = in.idle_current;
  context.storage_charge = lane.charge();
  context.storage_capacity = Coulomb(lane.capacity());
  context.actual_idle = in.idle;
  context.actual_active = in.active;
  context.actual_active_current = in.run_current;
  return context;
}

[[nodiscard]] inline core::ActiveContext active_context(
    const SlotInputs& in, const LaneState& lane) {
  core::ActiveContext context;
  context.slot_index = in.k;
  context.active_duration = in.active;
  context.active_current = in.run_current;
  context.storage_charge = lane.charge();
  context.storage_capacity = Coulomb(lane.capacity());
  return context;
}

/// The setpoint query for idle segment `s` of the slot's plan.
[[nodiscard]] inline core::SegmentContext idle_segment(const SlotInputs& in,
                                                       std::size_t s,
                                                       const LaneState& lane) {
  core::SegmentContext context;
  context.phase = core::Phase::Idle;
  context.state = in.plan.segments[s].state;
  context.device_current = in.plan.segments[s].current;
  context.storage_charge = lane.charge();
  context.storage_capacity = Coulomb(lane.capacity());
  return context;
}

/// The setpoint query for the slot's active segment.
[[nodiscard]] inline core::SegmentContext active_segment(
    const SlotInputs& in, const LaneState& lane) {
  core::SegmentContext context;
  context.phase = core::Phase::Active;
  context.state = dpm::PowerState::Run;
  context.device_current = in.run_current;
  context.storage_charge = lane.charge();
  context.storage_capacity = Coulomb(lane.capacity());
  return context;
}

/// sim::run_segment with the lane substituted for the hybrid: split the
/// segment where the buffer fills (stop_charging_when_full), then load
/// following for the remainder. Same expressions as the reference.
/// Adds ∫IF dt to `if_dt`. Sets `capacity_sensitive` when the store
/// clamps strictly or the full-buffer cutoff binds: a merge leader has
/// the set's smallest capacity at the same charge, so a cutoff that
/// does not bind for it binds for no follower either.
inline void integrate(LaneState& lane, const core::SegmentSetpoint& sp,
                      Ampere load, Seconds duration, Coulomb& if_dt,
                      bool& capacity_sensitive) {
  double first_span = duration.value();
  if (sp.stop_charging_when_full && sp.setpoint > load) {
    const double net = (sp.setpoint - load).value();
    const double to_full = lane.bus_charge_to_full() / net;
    if (to_full < first_span) {
      first_span = to_full;
      capacity_sensitive = true;
    }
  }
  const double first_if = lane.run_segment(first_span, load.value(),
                                           sp.setpoint.value(),
                                           capacity_sensitive);
  if_dt += Ampere(first_if) * Seconds(first_span);

  const double remainder = duration.value() - first_span;
  if (remainder > 0.0) {
    // Buffer filled mid-segment: fall back to load following.
    const double follow = load.value() < lane.if_min()
                              ? lane.if_min()
                              : (load.value() > lane.if_max() ? lane.if_max()
                                                              : load.value());
    const double rest_if =
        lane.run_segment(remainder, load.value(), follow, capacity_sensitive);
    if_dt += Ampere(rest_if) * Seconds(remainder);
  }
}

/// Ask `fc` for the segment's setpoint and integrate it on a lane that
/// runs on its own. The clamps are its own physics; `capacity_sensitive`
/// collects integrate's signal for a caller that asks whether the
/// capacity shaped the run (hot::SlackWitness).
template <typename Fc>
void probe_and_integrate(LaneState& lane, Fc& fc,
                         const core::SegmentContext& context, Seconds duration,
                         Coulomb& if_dt, bool& capacity_sensitive,
                         obs::Profiler* profiler) {
  const obs::ProfileScope profile(profiler, "hot.segment");
  integrate(lane, fc.segment_setpoint(context), context.device_current,
            duration, if_dt, capacity_sensitive);
}

/// The idle phase: on_idle_start (when `planning`; false resumes after a
/// planning callback already ran), then every segment of the DPM plan.
/// Returns the phase's ∫IF dt.
template <typename Fc>
[[nodiscard]] Coulomb idle_phase(LaneState& lane, Fc& fc, const SlotInputs& in,
                                 bool planning, bool& capacity_sensitive,
                                 obs::Profiler* profiler) {
  if (planning) {
    fc.on_idle_start(idle_context(in, lane));
  }
  Coulomb if_dt{0.0};
  for (std::size_t s = 0; s < in.plan.count; ++s) {
    probe_and_integrate(lane, fc, idle_segment(in, s, lane),
                        in.plan.segments[s].duration, if_dt,
                        capacity_sensitive, profiler);
  }
  return if_dt;
}

/// The active phase: on_active_start (when `planning`), then the active
/// segment. Returns the phase's ∫IF dt.
template <typename Fc>
[[nodiscard]] Coulomb active_phase(LaneState& lane, Fc& fc,
                                   const SlotInputs& in, bool planning,
                                   bool& capacity_sensitive,
                                   obs::Profiler* profiler) {
  if (planning) {
    fc.on_active_start(active_context(in, lane));
  }
  Coulomb if_dt{0.0};
  probe_and_integrate(lane, fc, active_segment(in, lane), in.active, if_dt,
                      capacity_sensitive, profiler);
  return if_dt;
}

/// The slot end: the policy observes what the slot delivered and burned
/// since `before`, the lane's totals at slot start.
template <typename Fc>
void slot_end(const LaneState& lane, Fc& fc, const SlotInputs& in,
              Coulomb delivered, const power::HybridTotals& before) {
  core::SlotObservation observation;
  observation.slot_index = in.k;
  observation.actual_idle = in.idle;
  observation.actual_active = in.active;
  observation.actual_active_current = in.run_current;
  observation.storage_charge = lane.charge();
  observation.delivered_charge = delivered;
  observation.fuel_used = lane.totals().fuel - before.fuel;
  fc.on_slot_end(observation);
}

/// Slot audit, built only for slots the auditor samples (so sample mode
/// stays near free). `values` supplies the physics and `capacity` is the
/// audited lane's own: a merged follower audits its leader's values,
/// bitwise its own, against its own capacity.
inline void audit_slot(audit::Auditor* auditor, std::size_t k, double bus_v,
                       const LaneState& values, double capacity,
                       const power::HybridTotals& before, Coulomb if_dt) {
  if (auditor == nullptr || !auditor->wants_slot(k)) {
    return;
  }
  audit::SlotAudit view;
  view.slot = k;
  view.bus_v = bus_v;
  view.fuel_before = before.fuel.value();
  view.fuel_after = values.totals().fuel.value();
  view.delivered_before = before.delivered_energy.value();
  view.delivered_after = values.totals().delivered_energy.value();
  view.if_dt = if_dt.value();
  view.storage_charge = values.charge().value();
  view.storage_capacity = capacity;
  auditor->on_slot(view);
}

}  // namespace fcdpm::hot
