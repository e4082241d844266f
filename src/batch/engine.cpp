#include "batch/engine.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "batch/state.hpp"
#include "common/contracts.hpp"

namespace fcdpm::batch {

namespace {

/// Concrete-policy dispatch tag: the slot loop is instantiated per
/// shipped policy so segment_setpoint and the slot callbacks
/// devirtualize, exactly like the hot engine's run_lane.
enum class Kind { FcDpm, Asap, Conv, Oracle, Generic };

[[nodiscard]] Kind kind_of(core::FcOutputPolicy& fc) {
  if (dynamic_cast<core::FcDpmPolicy*>(&fc) != nullptr) {
    return Kind::FcDpm;
  }
  if (dynamic_cast<core::AsapFcPolicy*>(&fc) != nullptr) {
    return Kind::Asap;
  }
  if (dynamic_cast<core::ConvFcPolicy*>(&fc) != nullptr) {
    return Kind::Conv;
  }
  if (dynamic_cast<core::OracleFcPolicy*>(&fc) != nullptr) {
    return Kind::Oracle;
  }
  return Kind::Generic;
}

/// One lane's control block.
struct Lane {
  core::FcOutputPolicy* fc = nullptr;
  /// Set when the lane's live policy is an engine-owned clone: a merged
  /// follower's caller policy freezes at merge time, and any later need
  /// for a live one (leader hand-off, dissolve, leader ejection) is met
  /// by cloning the current leader — bitwise the state the follower's
  /// own policy would have reached, by the merge_equivalent contract.
  std::unique_ptr<core::FcOutputPolicy> owned_fc;
  audit::Auditor* auditor = nullptr;
  std::size_t col = 0;  ///< BatchState column
  Kind kind = Kind::Generic;
  bool pure = false;
  core::SlotSolveCache* original_cache = nullptr;
  int set = -1;        ///< merge set id; -1 = solo
  bool merged = false; ///< follower currently riding its leader
  bool done = false;
  LaneOutcome out;
};

/// A merge-set leader's solve hook: each solve goes to the attached
/// cache, or is solved fresh, and the latch notes an answer that failed
/// or was capacity-clamped. By the slot optimizer's slack property
/// (solve reads the capacity only in its preconditions and the two
/// store-clamp branches, which set capacity_clamped), only such an
/// answer can differ at a follower's larger capacity; the engine clears
/// the latch before each planning callback and hands leadership on if
/// it is set after.
class ClampLatch final : public core::SlotSolveCache {
 public:
  explicit ClampLatch(core::SlotSolveCache* underlying)
      : underlying_(underlying) {}

  void clear() noexcept { clamped_ = false; }
  [[nodiscard]] bool clamped() const noexcept { return clamped_; }

  [[nodiscard]] core::CheckedSetting solve(
      const core::SlotOptimizer& optimizer, const core::SlotLoad& load,
      const core::StorageBounds& storage) override {
    return latch(underlying_ != nullptr
                     ? underlying_->solve(optimizer, load, storage)
                     : optimizer.solve_checked(load, storage));
  }

  [[nodiscard]] core::CheckedSetting solve_active_only(
      const core::SlotOptimizer& optimizer, Seconds duration, Coulomb charge,
      const core::StorageBounds& storage) override {
    return latch(underlying_ != nullptr
                     ? underlying_->solve_active_only(optimizer, duration,
                                                      charge, storage)
                     : optimizer.solve_active_only_checked(duration, charge,
                                                           storage));
  }

 private:
  core::CheckedSetting latch(const core::CheckedSetting& answer) noexcept {
    clamped_ = clamped_ || !answer.ok() || answer.setting.capacity_clamped;
    return answer;
  }

  core::SlotSolveCache* underlying_ = nullptr;
  bool clamped_ = false;
};

/// A leader plus the followers still riding it.
struct MergeSet {
  std::size_t leader = 0;
  std::vector<std::size_t> followers;
  ClampLatch latch;
  core::SlotSolveCache* underlying = nullptr;

  explicit MergeSet(core::SlotSolveCache* cache)
      : latch(cache), underlying(cache) {}
};

class BatchRunner {
 public:
  BatchRunner(const hot::CompiledTrace& ct, dpm::DpmPolicy& dpm_policy,
              const std::vector<BatchLaneSpec>& specs,
              const sim::SimulationOptions& shared,
              core::SlotSolveCache* cache, BatchStats* stats)
      : ct_(ct), dpm_(dpm_policy), shared_(shared), cache_(cache),
        stats_(stats) {
    const dpm::DevicePowerModel& device = dpm_policy.device();
    device.validate();
    FCDPM_EXPECTS(ct.compatible_with(device),
                  "compiled trace was built against a different device model");
    sleep_current_ = device.sleep_current();
    standby_current_ = device.standby_current();
    bus_v_ = device.bus_voltage.value();
    predictive_ = dynamic_cast<const dpm::PredictiveDpmPolicy*>(&dpm_policy);
    init_lanes(specs);
    form_sets();
    wire_caches();
  }

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  ~BatchRunner() {
    // Every exit path leaves each hybrid exactly as its own reference
    // run would have, and each policy with its original cache
    // attachment.
    state_.write_back_all();
    for (auto& [fc, cache] : saved_caches_) {
      fc->set_solve_cache(cache);
    }
  }

  std::vector<LaneOutcome> run() {
    for (std::size_t k = 0; k < ct_.size() && live_ > 0; ++k) {
      slot(k);
      dpm_.observe_idle(slot_idle_);
    }
    finalize();
    collect_stats();
    std::vector<LaneOutcome> outcomes;
    outcomes.reserve(lanes_.size());
    for (Lane& lane : lanes_) {
      outcomes.push_back(std::move(lane.out));
    }
    return outcomes;
  }

 private:
  // --- setup -----------------------------------------------------------

  void init_lanes(const std::vector<BatchLaneSpec>& specs) {
    lanes_.reserve(specs.size());
    for (const BatchLaneSpec& spec : specs) {
      power::HybridPowerSource& hybrid = *spec.hybrid;
      const auto& source =
          dynamic_cast<const power::LinearFuelSource&>(hybrid.source());
      auto& cap = dynamic_cast<power::SuperCapacitor&>(hybrid.storage());

      const Coulomb capacity = cap.capacity();
      const Coulomb initial = (shared_.initial_storage.value() < 0.0)
                                  ? capacity
                                  : min(shared_.initial_storage, capacity);
      hybrid.reset(initial);

      Lane lane;
      lane.fc = spec.fc;
      lane.auditor = spec.auditor;
      lane.col = state_.add_lane(hybrid, source, cap);
      lane.kind = kind_of(*spec.fc);
      lane.pure = spec.fc->segment_setpoint_is_pure();
      lane.original_cache = spec.fc->solve_cache();
      lane.out.result.trace_name = ct_.trace().name();
      lane.out.result.dpm_policy = dpm_.name();
      lane.out.result.fc_policy = spec.fc->name();
      lane.out.result.storage_initial = initial;
      lanes_.push_back(std::move(lane));
    }
    live_ = lanes_.size();
  }

  /// Group pure solo lanes that are bitwise identical in everything but
  /// capacity (and share the same pre-attached cache, which the set's
  /// latch solves through). `merge_equivalent` certifies the policies
  /// make bit-identical decisions forever given identical observations
  /// and read the capacity only through clamp-reporting solves; the
  /// physical columns must match too. The smallest capacity leads: the
  /// slack property then makes every unclamped leader answer valid for
  /// all followers, and a capacity clamp hands leadership to the
  /// next-smallest capacity while the set persists.
  ///
  /// Called once at construction and again after any slot with splits,
  /// so ex-leaders that happen to re-converge can regroup. New sets are
  /// appended (`sets_` is a deque, so live `&set.latch` wirings stay
  /// valid) and take effect from the next slot.
  void form_sets() {
    const std::size_t first_new = sets_.size();
    std::vector<bool> assigned(lanes_.size(), false);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (assigned[i] || !lanes_[i].pure || lanes_[i].done ||
          lanes_[i].merged || lanes_[i].set >= 0) {
        continue;
      }
      std::vector<std::size_t> group{i};
      for (std::size_t j = i + 1; j < lanes_.size(); ++j) {
        if (assigned[j] || !lanes_[j].pure || lanes_[j].done ||
            lanes_[j].merged || lanes_[j].set >= 0) {
          continue;
        }
        if (lanes_[i].fc->merge_equivalent(*lanes_[j].fc) &&
            lanes_[i].original_cache == lanes_[j].original_cache &&
            state_.physically_identical(lanes_[i].col, lanes_[j].col)) {
          group.push_back(j);
        }
      }
      if (group.size() < 2) {
        continue;
      }
      std::size_t leader = group[0];
      for (const std::size_t m : group) {
        if (state_.capacity(lanes_[m].col) <
            state_.capacity(lanes_[leader].col)) {
          leader = m;
        }
      }
      core::SlotSolveCache* underlying =
          cache_ != nullptr ? cache_ : lanes_[leader].original_cache;
      sets_.emplace_back(underlying);
      MergeSet& set = sets_.back();
      set.leader = leader;
      const int id = static_cast<int>(sets_.size()) - 1;
      lanes_[leader].set = id;
      for (const std::size_t m : group) {
        assigned[m] = true;
        if (m == leader) {
          continue;
        }
        set.followers.push_back(m);
        lanes_[m].set = id;
        lanes_[m].merged = true;
      }
    }
    // Point every new leader's policy at the set's latch. Followers
    // freeze — their policies never run while merged — so only the
    // leader is wired. At construction wire_caches repeats this
    // (harmlessly) while also recording the restore list; on re-forms
    // this is the only wiring.
    for (std::size_t s = first_new; s < sets_.size(); ++s) {
      lanes_[sets_[s].leader].fc->set_solve_cache(&sets_[s].latch);
    }
  }

  void wire_caches() {
    saved_caches_.reserve(lanes_.size());
    for (Lane& lane : lanes_) {
      saved_caches_.emplace_back(lane.fc, lane.original_cache);
      if (lane.set >= 0) {
        if (!lane.merged) {
          lane.fc->set_solve_cache(
              &sets_[static_cast<std::size_t>(lane.set)].latch);
        }
      } else if (cache_ != nullptr) {
        lane.fc->set_solve_cache(cache_);
      }
    }
  }

  // --- slot loop -------------------------------------------------------

  void slot(std::size_t k) {
    slot_idle_ = ct_.idle(k);
    run_current_ = ct_.run_current(k);
    active_eff_ = ct_.active_eff(k);
    dpm_.plan_idle_into(slot_idle_, plan_);
    if (plan_.slept) {
      ++sleeps_;
    }
    latency_ += plan_.latency_spill;

    // Snapshot the solo set before any set processing: a follower that
    // splits out mid-slot has already replayed this slot and must not
    // be run again as a solo until the next one.
    solo_buf_.clear();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& lane = lanes_[i];
      if (!lane.done && !lane.merged && lane.set < 0) {
        solo_buf_.push_back(i);
      }
    }
    split_this_slot_ = false;
    for (MergeSet& set : sets_) {
      if (!set.followers.empty() && !lanes_[set.leader].done) {
        set_slot_dispatch(set, k);
      }
    }
    for (const std::size_t i : solo_buf_) {
      if (!lanes_[i].done) {
        solo_slot_dispatch(lanes_[i], k);
      }
    }
    if (split_this_slot_) {
      form_sets();
    }
  }

  void set_slot_dispatch(MergeSet& set, std::size_t k) {
    switch (lanes_[set.leader].kind) {
      case Kind::FcDpm:
        set_slot<core::FcDpmPolicy>(set, k);
        break;
      case Kind::Conv:
        set_slot<core::ConvFcPolicy>(set, k);
        break;
      case Kind::Oracle:
        set_slot<core::OracleFcPolicy>(set, k);
        break;
      case Kind::Asap:  // impure, never in a set; generic fallback
      case Kind::Generic:
        set_slot<core::FcOutputPolicy>(set, k);
        break;
    }
  }

  void solo_slot_dispatch(Lane& lane, std::size_t k) {
    try {
      solo_slot_kind(lane, k);
    } catch (const audit::AuditError&) {
      eject_audit(lane, k);
    }
  }

  void solo_slot_kind(Lane& lane, std::size_t k) {
    switch (lane.kind) {
      case Kind::FcDpm:
        solo_slot(lane, *static_cast<core::FcDpmPolicy*>(lane.fc), k);
        break;
      case Kind::Asap:
        solo_slot(lane, *static_cast<core::AsapFcPolicy*>(lane.fc), k);
        break;
      case Kind::Conv:
        solo_slot(lane, *static_cast<core::ConvFcPolicy*>(lane.fc), k);
        break;
      case Kind::Oracle:
        solo_slot(lane, *static_cast<core::OracleFcPolicy*>(lane.fc), k);
        break;
      case Kind::Generic:
        solo_slot(lane, *lane.fc, k);
        break;
    }
  }

  /// sim::run_segment with the SoA column substituted for the hybrid:
  /// split where the buffer fills (stop_charging_when_full), then load
  /// following for the remainder. Same expressions as the reference and
  /// the hot lane.
  void run_with_setpoint(std::size_t col, const core::SegmentSetpoint& sp,
                         Ampere device_current, Seconds duration,
                         Coulomb& if_dt, bool& capacity_sensitive) {
    double first_span = duration.value();
    if (sp.stop_charging_when_full && sp.setpoint > device_current) {
      const double net = (sp.setpoint - device_current).value();
      const double to_full = state_.bus_charge_to_full(col) / net;
      if (to_full < first_span) {
        first_span = to_full;
        // The full-buffer cutoff actually bound. This column is the
        // merge leader (minimum capacity, identical charge), so any
        // larger-capacity follower fills strictly later — the
        // trajectories genuinely diverge here. When the cutoff does
        // NOT bind for the leader, it cannot bind for any follower
        // either, and the whole segment is capacity-oblivious.
        capacity_sensitive = true;
      }
    }
    const double first_if =
        state_.run_segment(col, first_span, device_current.value(),
                           sp.setpoint.value(), capacity_sensitive);
    if_dt += Ampere(first_if) * Seconds(first_span);

    const double remainder = duration.value() - first_span;
    if (remainder > 0.0) {
      // Buffer filled mid-segment: fall back to load following.
      const double load = device_current.value();
      const double if_min = state_.if_min(col);
      const double if_max = state_.if_max(col);
      const double follow =
          load < if_min ? if_min : (load > if_max ? if_max : load);
      const double rest_if = state_.run_segment(col, remainder, load, follow,
                                                capacity_sensitive);
      if_dt += Ampere(rest_if) * Seconds(remainder);
    }
  }

  template <typename Fc>
  void probe_and_run(std::size_t col, Fc& fc,
                     const core::SegmentContext& context, Seconds duration,
                     Coulomb& if_dt, bool& capacity_sensitive) {
    const core::SegmentSetpoint sp = fc.segment_setpoint(context);
    run_with_setpoint(col, sp, context.device_current, duration, if_dt,
                      capacity_sensitive);
  }

  [[nodiscard]] core::IdleContext idle_context(std::size_t k, std::size_t col,
                                               Coulomb charge) const {
    core::IdleContext context;
    context.slot_index = k;
    context.will_sleep = plan_.slept;
    context.predicted_idle = plan_.predicted_idle;
    context.idle_current = plan_.slept ? sleep_current_ : standby_current_;
    context.storage_charge = charge;
    context.storage_capacity = Coulomb(state_.capacity(col));
    context.actual_idle = slot_idle_;
    context.actual_active = active_eff_;
    context.actual_active_current = run_current_;
    return context;
  }

  [[nodiscard]] core::ActiveContext active_context(std::size_t k,
                                                   std::size_t col,
                                                   Coulomb charge) const {
    core::ActiveContext context;
    context.slot_index = k;
    context.active_duration = active_eff_;
    context.active_current = run_current_;
    context.storage_charge = charge;
    context.storage_capacity = Coulomb(state_.capacity(col));
    return context;
  }

  [[nodiscard]] core::SlotObservation observation(std::size_t k,
                                                  std::size_t col,
                                                  Coulomb delivered,
                                                  Coulomb fuel_before) const {
    core::SlotObservation obs;
    obs.slot_index = k;
    obs.actual_idle = slot_idle_;
    obs.actual_active = active_eff_;
    obs.actual_active_current = run_current_;
    obs.storage_charge = state_.charge(col);
    obs.delivered_charge = delivered;
    obs.fuel_used = state_.totals(col).fuel - fuel_before;
    return obs;
  }

  /// Slot audit for lane `lane` with the physical values of column
  /// `col` (a merged follower audits its leader's values — bitwise its
  /// own — against its own capacity).
  void audit_slot(Lane& lane, std::size_t k, std::size_t col,
                  Coulomb fuel_before, Joule delivered_before,
                  Coulomb if_dt) {
    if (lane.auditor == nullptr || !lane.auditor->wants_slot(k)) {
      return;
    }
    audit::SlotAudit view;
    view.slot = k;
    view.bus_v = bus_v_;
    view.fuel_before = fuel_before.value();
    view.fuel_after = state_.totals(col).fuel.value();
    view.delivered_before = delivered_before.value();
    view.delivered_after = state_.totals(col).delivered_energy.value();
    view.if_dt = if_dt.value();
    view.storage_charge = state_.q(col);
    view.storage_capacity = state_.capacity(lane.col);
    lane.auditor->on_slot(view);
  }

  /// The hot engine's per-slot body for one unmerged lane.
  template <typename Fc>
  void solo_slot(Lane& lane, Fc& fc, std::size_t k) {
    const std::size_t col = lane.col;
    const Coulomb fuel_before = state_.totals(col).fuel;
    const Joule delivered_before = state_.totals(col).delivered_energy;

    fc.on_idle_start(idle_context(k, col, state_.charge(col)));

    Coulomb if_dt_idle{0.0};
    bool sink = false;
    for (std::size_t s = 0; s < plan_.count; ++s) {
      core::SegmentContext context;
      context.phase = core::Phase::Idle;
      context.state = plan_.segments[s].state;
      context.device_current = plan_.segments[s].current;
      context.storage_charge = state_.charge(col);
      context.storage_capacity = Coulomb(state_.capacity(col));
      probe_and_run(col, fc, context, plan_.segments[s].duration, if_dt_idle,
                    sink);
    }

    fc.on_active_start(active_context(k, col, state_.charge(col)));

    core::SegmentContext context;
    context.phase = core::Phase::Active;
    context.state = dpm::PowerState::Run;
    context.device_current = run_current_;
    context.storage_charge = state_.charge(col);
    context.storage_capacity = Coulomb(state_.capacity(col));
    Coulomb if_dt_active{0.0};
    probe_and_run(col, fc, context, active_eff_, if_dt_active, sink);

    fc.on_slot_end(observation(k, col, if_dt_idle + if_dt_active, fuel_before));

    audit_slot(lane, k, col, fuel_before, delivered_before,
               if_dt_idle + if_dt_active);
  }

  /// One slot of a merge set: only the leader's policy runs — it plans
  /// and integrates once for the whole set while the followers are
  /// frozen (by the merge_equivalent contract their virtual state is
  /// bitwise the leader's, so a follower-slot costs one stat increment).
  /// The capacity enters the shared trajectory in exactly two reported
  /// ways, and both are handled by handing leadership to the
  /// next-smallest capacity:
  ///
  ///  * plan clamp — a latched solve inside on_idle_start /
  ///    on_active_start was capacity-shaped. The plan is the leader's
  ///    alone: it finishes the slot solo with it, and the successor —
  ///    seated from a clone of the leader taken *before* it advances —
  ///    re-plans at its own larger capacity (the planning callbacks
  ///    fully overwrite the plan state they compute, so re-running one
  ///    on the clone equals having planned fresh).
  ///
  ///  * integration clamp — the plan was clean but the leader's buffer
  ///    filled while integrating it. The plan is bitwise every member's
  ///    own (slack property), so the successor is seated from the
  ///    post-plan clone, the phase checkpoint is restored onto its
  ///    column, and only the integration re-runs at the larger
  ///    capacity; no re-plan, same setpoint.
  ///
  /// Either way the set persists under the new leader — one clone and
  /// one extra integration per fill event, instead of a solo replay per
  /// follower. A clamp with no followers left is the (new) leader's own
  /// physics and is simply kept.
  template <typename Fc>
  void set_slot(MergeSet& set, std::size_t k) {
    std::size_t li = set.leader;
    const BatchState::Snapshot snap0 = state_.snapshot(lanes_[li].col);
    const Coulomb fuel_before = snap0.totals.fuel;
    const Joule delivered_before = snap0.totals.delivered_energy;

    // --- idle phase ----------------------------------------------------
    const bool have_idle = plan_.count > 0;
    core::SegmentSetpoint sp_idle{};
    Coulomb if_dt_idle{0.0};
    bool replan = true;
    for (;;) {
      if (replan) {
        set.latch.clear();
        static_cast<Fc*>(lanes_[li].fc)
            ->on_idle_start(idle_context(k, lanes_[li].col, Coulomb(snap0.q)));
        if (set.latch.clamped() && !set.followers.empty()) {
          const std::size_t next = seat(set, snap0);
          leader_exit_whole<Fc>(set, li, snap0, k);
          li = next;
          continue;
        }
        if (have_idle) {
          core::SegmentContext idle_probe;
          idle_probe.phase = core::Phase::Idle;
          idle_probe.state = plan_.segments[0].state;
          idle_probe.device_current = plan_.segments[0].current;
          idle_probe.storage_charge = Coulomb(snap0.q);
          idle_probe.storage_capacity =
              Coulomb(state_.capacity(lanes_[li].col));
          sp_idle =
              static_cast<Fc*>(lanes_[li].fc)->segment_setpoint(idle_probe);
          // stop_charging_when_full alone is NOT capacity-sensitive:
          // the integration below marks sensitivity only when the
          // leader's full-buffer cutoff actually binds (leader = min
          // capacity, so a non-binding cutoff cannot bind for any
          // follower).
        }
      }
      Coulomb accumulated{0.0};
      bool integration_sensitive = false;
      for (std::size_t s = 0; s < plan_.count; ++s) {
        run_with_setpoint(lanes_[li].col, sp_idle, plan_.segments[s].current,
                          plan_.segments[s].duration, accumulated,
                          integration_sensitive);
      }
      if (!integration_sensitive || set.followers.empty()) {
        if_dt_idle = accumulated;
        break;
      }
      const std::size_t next = seat(set, snap0);
      leader_exit_from_idle<Fc>(set, li, accumulated, snap0, k);
      li = next;
      replan = false;  // plan unclamped, hence bitwise the successor's own
    }

    // --- active phase --------------------------------------------------
    const BatchState::Snapshot snap_mid = state_.snapshot(lanes_[li].col);
    core::SegmentSetpoint sp_active{};
    Coulomb if_dt_active{0.0};
    replan = true;
    for (;;) {
      if (replan) {
        set.latch.clear();
        static_cast<Fc*>(lanes_[li].fc)
            ->on_active_start(
                active_context(k, lanes_[li].col, Coulomb(snap_mid.q)));
        if (set.latch.clamped() && !set.followers.empty()) {
          const std::size_t next = seat(set, snap_mid);
          leader_exit_active_whole<Fc>(set, li, if_dt_idle, snap0, k);
          li = next;
          continue;
        }
        core::SegmentContext active_probe;
        active_probe.phase = core::Phase::Active;
        active_probe.state = dpm::PowerState::Run;
        active_probe.device_current = run_current_;
        active_probe.storage_charge = Coulomb(snap_mid.q);
        active_probe.storage_capacity =
            Coulomb(state_.capacity(lanes_[li].col));
        sp_active =
            static_cast<Fc*>(lanes_[li].fc)->segment_setpoint(active_probe);
      }
      Coulomb accumulated{0.0};
      bool integration_sensitive = false;
      run_with_setpoint(lanes_[li].col, sp_active, run_current_, active_eff_,
                        accumulated, integration_sensitive);
      if (!integration_sensitive || set.followers.empty()) {
        if_dt_active = accumulated;
        break;
      }
      const std::size_t next = seat(set, snap_mid);
      leader_exit_from_active<Fc>(set, li, if_dt_idle + accumulated, snap0, k);
      li = next;
      replan = false;
    }

    // --- epilogue: leader observation, per-lane audits -----------------
    Lane& leader = lanes_[li];
    const std::size_t lc = leader.col;
    const core::SlotObservation obs =
        observation(k, lc, if_dt_idle + if_dt_active, fuel_before);
    static_cast<Fc*>(leader.fc)->on_slot_end(obs);
    merged_lane_slots_ += set.followers.size();

    bool any_audit_failed = false;
    try {
      audit_slot(leader, k, lc, fuel_before, delivered_before,
                 if_dt_idle + if_dt_active);
    } catch (const audit::AuditError&) {
      eject_audit(leader, k);
      any_audit_failed = true;
    }
    for (const std::size_t fi : set.followers) {
      try {
        audit_slot(lanes_[fi], k, lc, fuel_before, delivered_before,
                   if_dt_idle + if_dt_active);
      } catch (const audit::AuditError&) {
        // Materialize the follower's state (bitwise the leader's)
        // before stamping its partial result.
        state_.adopt(lanes_[fi].col, lc);
        eject_audit(lanes_[fi], k);
        any_audit_failed = true;
      }
    }
    if (any_audit_failed) {
      dissolve(set);
    } else if (set.followers.empty()) {
      demote(set);
    }
  }

  // --- leader hand-off -------------------------------------------------

  /// Next leader after a capacity clamp: the smallest capacity among the
  /// followers, preserving the set invariant that the leader's capacity
  /// is the minimum. Callers guarantee the set is non-empty.
  [[nodiscard]] std::size_t handoff_successor(const MergeSet& set) const {
    std::size_t next = set.followers.front();
    for (const std::size_t fi : set.followers) {
      if (state_.capacity(lanes_[fi].col) <
          state_.capacity(lanes_[next].col)) {
        next = fi;
      }
    }
    return next;
  }

  /// Hand `lane` a live policy: an owned clone of `src`, bitwise the
  /// state the lane's frozen caller policy would have reached (the
  /// caller's object stays at its merge-time state; results and hybrid
  /// state are the observable surface of a run). clone() carries no
  /// cache or observer wiring — the caller wires the cache next.
  void materialize(Lane& lane, const core::FcOutputPolicy& src) {
    lane.owned_fc = src.clone();
    lane.fc = lane.owned_fc.get();
  }

  /// Seat the hand-off successor as leader: clone the outgoing leader's
  /// policy (before it advances any further), wire it to the latch,
  /// and refresh the successor's column — stale since it merged — from
  /// the phase checkpoint, which is bitwise its own state. The caller
  /// decides whether the phase needs a re-plan or only a re-integration.
  std::size_t seat(MergeSet& set, const BatchState::Snapshot& at) {
    const std::size_t next = handoff_successor(set);
    Lane& lane = lanes_[next];
    materialize(lane, *lanes_[set.leader].fc);
    lane.fc->set_solve_cache(&set.latch);
    state_.restore(lane.col, at);
    lane.merged = false;
    set.followers.erase(
        std::find(set.followers.begin(), set.followers.end(), next));
    set.leader = next;
    return next;
  }

  /// The leader's idle integration clamped against its own capacity:
  /// that result is valid for it alone, so it keeps it and finishes the
  /// slot solo on its own column — active phase, epilogue, audit — with
  /// no restore and no replay.
  template <typename Fc>
  void leader_exit_from_idle(MergeSet& set, std::size_t li, Coulomb if_dt_idle,
                             const BatchState::Snapshot& snap0,
                             std::size_t k) {
    Lane& lane = lanes_[li];
    Fc& fc = *static_cast<Fc*>(lane.fc);
    split_out(set, lane);
    const std::size_t col = lane.col;

    fc.on_active_start(active_context(k, col, state_.charge(col)));

    core::SegmentContext context;
    context.phase = core::Phase::Active;
    context.state = dpm::PowerState::Run;
    context.device_current = run_current_;
    context.storage_charge = state_.charge(col);
    context.storage_capacity = Coulomb(state_.capacity(col));
    Coulomb if_dt_active{0.0};
    bool sink = false;
    probe_and_run(col, fc, context, active_eff_, if_dt_active, sink);

    fc.on_slot_end(observation(k, col, if_dt_idle + if_dt_active,
                               snap0.totals.fuel));
    finish_replay_audit(lane, k, snap0, if_dt_idle + if_dt_active);
  }

  /// Same hand-off at the active integration: the slot is already fully
  /// integrated on the leader's own column, so only the epilogue runs.
  template <typename Fc>
  void leader_exit_from_active(MergeSet& set, std::size_t li, Coulomb if_dt,
                               const BatchState::Snapshot& snap0,
                               std::size_t k) {
    Lane& lane = lanes_[li];
    Fc& fc = *static_cast<Fc*>(lane.fc);
    split_out(set, lane);
    fc.on_slot_end(observation(k, lane.col, if_dt, snap0.totals.fuel));
    finish_replay_audit(lane, k, snap0, if_dt);
  }

  /// Leave the set: own columns from here on, the set's cache wiring.
  void split_out(MergeSet& set, Lane& lane) {
    lane.merged = false;
    lane.set = -1;
    lane.fc->set_solve_cache(set.underlying);
    ++splits_;
    split_this_slot_ = true;
  }

  /// The leader's on_idle_start produced a capacity-shaped plan: it is
  /// valid for the leader alone, which runs the whole slot solo on its
  /// own column (still at the slot-start state — nothing was integrated
  /// yet).
  template <typename Fc>
  void leader_exit_whole(MergeSet& set, std::size_t li,
                         const BatchState::Snapshot& snap0, std::size_t k) {
    Lane& lane = lanes_[li];
    Fc& fc = *static_cast<Fc*>(lane.fc);
    split_out(set, lane);
    const std::size_t col = lane.col;

    Coulomb if_dt_idle{0.0};
    bool sink = false;
    for (std::size_t s = 0; s < plan_.count; ++s) {
      core::SegmentContext context;
      context.phase = core::Phase::Idle;
      context.state = plan_.segments[s].state;
      context.device_current = plan_.segments[s].current;
      context.storage_charge = state_.charge(col);
      context.storage_capacity = Coulomb(state_.capacity(col));
      probe_and_run(col, fc, context, plan_.segments[s].duration, if_dt_idle,
                    sink);
    }

    fc.on_active_start(active_context(k, col, state_.charge(col)));

    core::SegmentContext context;
    context.phase = core::Phase::Active;
    context.state = dpm::PowerState::Run;
    context.device_current = run_current_;
    context.storage_charge = state_.charge(col);
    context.storage_capacity = Coulomb(state_.capacity(col));
    Coulomb if_dt_active{0.0};
    probe_and_run(col, fc, context, active_eff_, if_dt_active, sink);

    fc.on_slot_end(observation(k, col, if_dt_idle + if_dt_active,
                               snap0.totals.fuel));
    finish_replay_audit(lane, k, snap0, if_dt_idle + if_dt_active);
  }

  /// The leader's on_active_start produced a capacity-shaped replan:
  /// the shared idle phase stays (bitwise everyone's own); the leader
  /// finishes only the active suffix solo on its own column (already at
  /// the post-idle state).
  template <typename Fc>
  void leader_exit_active_whole(MergeSet& set, std::size_t li,
                                Coulomb if_dt_idle,
                                const BatchState::Snapshot& snap0,
                                std::size_t k) {
    Lane& lane = lanes_[li];
    Fc& fc = *static_cast<Fc*>(lane.fc);
    split_out(set, lane);
    const std::size_t col = lane.col;

    core::SegmentContext context;
    context.phase = core::Phase::Active;
    context.state = dpm::PowerState::Run;
    context.device_current = run_current_;
    context.storage_charge = state_.charge(col);
    context.storage_capacity = Coulomb(state_.capacity(col));
    Coulomb if_dt_active{0.0};
    bool sink = false;
    probe_and_run(col, fc, context, active_eff_, if_dt_active, sink);

    fc.on_slot_end(observation(k, col, if_dt_idle + if_dt_active,
                               snap0.totals.fuel));
    finish_replay_audit(lane, k, snap0, if_dt_idle + if_dt_active);
  }

  void finish_replay_audit(Lane& lane, std::size_t k,
                           const BatchState::Snapshot& snap0, Coulomb if_dt) {
    try {
      audit_slot(lane, k, lane.col, snap0.totals.fuel,
                 snap0.totals.delivered_energy, if_dt);
    } catch (const audit::AuditError&) {
      eject_audit(lane, k);
    }
  }

  /// Audit ejection dissolves the whole set: at a slot boundary every
  /// merged follower is bitwise at the leader's state, so adopting the
  /// leader's columns and continuing solo is lossless. Rare path — an
  /// engine defect or tamper hook — so simplicity over merge retention.
  void dissolve(MergeSet& set) {
    Lane& leader = lanes_[set.leader];
    for (const std::size_t fi : set.followers) {
      Lane& follower = lanes_[fi];
      state_.adopt(follower.col, leader.col);
      materialize(follower, *leader.fc);
      follower.merged = false;
      follower.set = -1;
      follower.fc->set_solve_cache(set.underlying);
      split_this_slot_ = true;
    }
    set.followers.clear();
    demote(set);
  }

  /// The last follower left: the leader runs solo from the next slot.
  void demote(MergeSet& set) {
    Lane& leader = lanes_[set.leader];
    leader.set = -1;
    leader.fc->set_solve_cache(set.underlying);
  }

  // --- lane endings ----------------------------------------------------

  void eject_audit(Lane& lane, std::size_t k) {
    lane.out.end = LaneOutcome::End::AuditFailed;
    stamp(lane, k + 1);
    if (lane.auditor != nullptr) {
      lane.out.result.audit = lane.auditor->stats();
    }
    lane.done = true;
    --live_;
  }

  void stamp(Lane& lane, std::size_t slots) {
    sim::SimulationResult& result = lane.out.result;
    result.slots = slots;
    result.sleeps = sleeps_;
    result.latency_added = latency_;
    result.totals = state_.totals(lane.col);
    result.storage_end = state_.charge(lane.col);
    result.storage_min = state_.min_charge(lane.col);
    result.storage_max = state_.max_charge(lane.col);
    if (predictive_ != nullptr) {
      result.idle_accuracy = predictive_->accuracy();
    }
  }

  void end_audit(Lane& lane, std::size_t slots) {
    if (lane.auditor == nullptr) {
      return;
    }
    audit::EndAudit end;
    end.totals = &lane.out.result.totals;
    end.storage_end = lane.out.result.storage_end.value();
    end.storage_capacity = state_.capacity(lane.col);
    end.slots = slots;
    try {
      lane.auditor->on_run_end(end);
      lane.out.result.audit = lane.auditor->stats();
    } catch (const audit::AuditError&) {
      lane.out.end = LaneOutcome::End::AuditFailed;
      lane.out.result.audit = lane.auditor->stats();
    }
  }

  void finalize() {
    for (Lane& lane : lanes_) {
      if (lane.done) {
        continue;
      }
      if (lane.merged) {
        state_.adopt(lane.col, lanes_[sets_[static_cast<std::size_t>(lane.set)]
                                          .leader].col);
      }
      stamp(lane, ct_.size());
      end_audit(lane, ct_.size());
      lane.done = true;
    }
  }

  void collect_stats() {
    if (stats_ == nullptr) {
      return;
    }
    stats_->lanes += lanes_.size();
    stats_->merge_sets += sets_.size();
    stats_->merged_lane_slots += merged_lane_slots_;
    stats_->splits += splits_;
  }

  const hot::CompiledTrace& ct_;
  dpm::DpmPolicy& dpm_;
  const sim::SimulationOptions& shared_;
  core::SlotSolveCache* cache_ = nullptr;
  BatchStats* stats_ = nullptr;

  Ampere sleep_current_{0.0};
  Ampere standby_current_{0.0};
  double bus_v_ = 0.0;
  const dpm::PredictiveDpmPolicy* predictive_ = nullptr;

  BatchState state_;
  std::vector<Lane> lanes_;
  /// Deque, not vector: re-forms append while policies hold `&set.latch`
  /// pointers into existing elements, which must survive the growth.
  std::deque<MergeSet> sets_;
  std::vector<std::pair<core::FcOutputPolicy*, core::SlotSolveCache*>>
      saved_caches_;
  std::vector<std::size_t> solo_buf_;

  std::size_t live_ = 0;
  std::size_t sleeps_ = 0;
  Seconds latency_{0.0};
  std::size_t merged_lane_slots_ = 0;
  std::size_t splits_ = 0;
  /// Any lane left a set this slot — triggers a re-form pass so the
  /// still-identical survivors regroup instead of finishing solo.
  bool split_this_slot_ = false;

  // Per-slot shared values (one trace, one DPM plan for the batch).
  Seconds slot_idle_{0.0};
  Ampere run_current_{0.0};
  Seconds active_eff_{0.0};
  dpm::InlineIdlePlan plan_;
};

}  // namespace

std::vector<LaneOutcome> run_batch(const hot::CompiledTrace& trace,
                                   dpm::DpmPolicy& dpm_policy,
                                   const std::vector<BatchLaneSpec>& lanes,
                                   const sim::SimulationOptions& shared,
                                   core::SlotSolveCache* solve_cache,
                                   BatchStats* stats) {
  FCDPM_EXPECTS(shared.slot_budget == 0 && shared.cancel == nullptr &&
                    !shared.keep_slot_records && !shared.preserve_source_state,
                "run_batch: budgets, cancellation, slot records and preserved "
                "source state are single-run options");
  for (const BatchLaneSpec& lane : lanes) {
    FCDPM_EXPECTS(lane.fc != nullptr && lane.hybrid != nullptr,
                  "run_batch: lane needs an FC policy and a hybrid");
    FCDPM_EXPECTS(sim::choose_engine(sim::Engine::Batched, *lane.hybrid,
                                     shared)
                          .engine == sim::Engine::Batched,
                  "run_batch: lane is not batch-eligible");
  }
  BatchRunner runner(trace, dpm_policy, lanes, shared, solve_cache, stats);
  return runner.run();
}

}  // namespace fcdpm::batch
