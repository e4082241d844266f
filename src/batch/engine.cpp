#include "batch/engine.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "hot/lane.hpp"

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

/// Where a lane's solo slot body starts: the top of the slot, or the
/// point at which a merge set's leader stepped out at a capacity clamp.
enum class Resume {
  IdlePlan,    ///< on_idle_start, then the whole slot
  IdleRun,     ///< the idle segments (the idle plan clamped)
  ActivePlan,  ///< on_active_start (the idle integration clamped)
  ActiveRun,   ///< the active segment (the active plan clamped)
  SlotEnd,     ///< observation and audit (the active integration clamped)
};

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
  std::size_t col = 0;  ///< index into the runner's lane states
  Kind kind = Kind::Generic;
  bool pure = false;
  core::SlotSolveCache* original_cache = nullptr;
  int set = -1;        ///< merge set id; -1 = solo
  bool merged = false; ///< follower currently riding its leader
  bool done = false;
  LaneOutcome out;
};

/// A leader plus the followers still riding it.
struct MergeSet {
  std::size_t leader = 0;
  std::vector<std::size_t> followers;
  core::ClampLatch latch;
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
    for (const hot::LaneState& state : states_) {
      state.write_back();
    }
    for (auto& [fc, cache] : saved_caches_) {
      fc->set_solve_cache(cache);
    }
  }

  std::vector<LaneOutcome> run() {
    for (std::size_t k = 0; k < ct_.size() && live_ > 0; ++k) {
      slot(k);
      dpm_.observe_idle(in_.idle);
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
  [[nodiscard]] hot::LaneState& state(const Lane& lane) {
    return states_[lane.col];
  }

  /// Copy `from`'s run state into `to` (capacity, model and hybrid stay
  /// `to`'s own). A merged follower's state is served by its leader: when
  /// it leaves the set, the leader's state IS its state, bit for bit.
  void adopt(const Lane& to, const Lane& from) {
    state(to).restore(state(from).snapshot());
  }

  // --- setup -----------------------------------------------------------

  void init_lanes(const std::vector<BatchLaneSpec>& specs) {
    lanes_.reserve(specs.size());
    states_.reserve(specs.size());
    for (const BatchLaneSpec& spec : specs) {
      power::HybridPowerSource& hybrid = *spec.hybrid;
      const Coulomb capacity = hybrid.storage().capacity();
      const Coulomb initial = (shared_.initial_storage.value() < 0.0)
                                  ? capacity
                                  : min(shared_.initial_storage, capacity);
      hybrid.reset(initial);

      Lane lane;
      lane.fc = spec.fc;
      lane.auditor = spec.auditor;
      lane.col = states_.size();
      states_.emplace_back(hybrid);
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
  /// lane states must match too. The smallest capacity leads: the
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
            state(lanes_[i]).physically_identical(state(lanes_[j]))) {
          group.push_back(j);
        }
      }
      if (group.size() < 2) {
        continue;
      }
      std::size_t leader = group[0];
      for (const std::size_t m : group) {
        if (state(lanes_[m]).capacity() < state(lanes_[leader]).capacity()) {
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
    in_.k = k;
    in_.idle = ct_.idle(k);
    in_.run_current = ct_.run_current(k);
    in_.active = ct_.active_eff(k);
    dpm_.plan_idle_into(in_.idle, in_.plan);
    if (in_.plan.slept) {
      ++sleeps_;
    }
    latency_ += in_.plan.latency_spill;
    in_.idle_current = in_.plan.slept ? sleep_current_ : standby_current_;

    // Snapshot the solo set before any set processing: a lane that
    // leaves its set mid-slot has already finished this slot and must
    // not be run again as a solo until the next one.
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
        set_slot_dispatch(set);
      }
    }
    for (const std::size_t i : solo_buf_) {
      if (!lanes_[i].done) {
        solo_slot_dispatch(lanes_[i]);
      }
    }
    if (split_this_slot_) {
      form_sets();
    }
  }

  void set_slot_dispatch(MergeSet& set) {
    switch (lanes_[set.leader].kind) {
      case Kind::FcDpm:
        set_slot<core::FcDpmPolicy>(set);
        break;
      case Kind::Conv:
        set_slot<core::ConvFcPolicy>(set);
        break;
      case Kind::Oracle:
        set_slot<core::OracleFcPolicy>(set);
        break;
      case Kind::Asap:  // impure, never in a set; generic fallback
      case Kind::Generic:
        set_slot<core::FcOutputPolicy>(set);
        break;
    }
  }

  void solo_slot_dispatch(Lane& lane) {
    const power::HybridTotals before = state(lane).totals();
    switch (lane.kind) {
      case Kind::FcDpm:
        solo(lane, *static_cast<core::FcDpmPolicy*>(lane.fc),
             Resume::IdlePlan, before);
        break;
      case Kind::Asap:
        solo(lane, *static_cast<core::AsapFcPolicy*>(lane.fc),
             Resume::IdlePlan, before);
        break;
      case Kind::Conv:
        solo(lane, *static_cast<core::ConvFcPolicy*>(lane.fc),
             Resume::IdlePlan, before);
        break;
      case Kind::Oracle:
        solo(lane, *static_cast<core::OracleFcPolicy*>(lane.fc),
             Resume::IdlePlan, before);
        break;
      case Kind::Generic:
        solo(lane, *lane.fc, Resume::IdlePlan, before);
        break;
    }
  }

  /// The hot lane's slot body for a lane running on its own state,
  /// entered at `from`: the top of the slot for a solo lane, or where a
  /// merge set's leader stopped when a capacity clamp made the rest of
  /// its slot its own. `before` is the lane's totals at slot start;
  /// `if_dt_idle` / `if_dt_active` carry phases already integrated.
  template <typename Fc>
  void solo(Lane& lane, Fc& fc, Resume from, const power::HybridTotals& before,
            Coulomb if_dt_idle = Coulomb(0.0),
            Coulomb if_dt_active = Coulomb(0.0)) {
    hot::LaneState& lane_state = state(lane);
    // A lane on its own state: the clamps are its own physics.
    bool capacity_sensitive = false;
    try {
      if (from <= Resume::IdleRun) {
        if_dt_idle =
            hot::idle_phase(lane_state, fc, in_, from == Resume::IdlePlan,
                            capacity_sensitive, nullptr);
      }
      if (from <= Resume::ActiveRun) {
        if_dt_active =
            hot::active_phase(lane_state, fc, in_, from <= Resume::ActivePlan,
                              capacity_sensitive, nullptr);
      }
      hot::slot_end(lane_state, fc, in_, if_dt_idle + if_dt_active, before);
      hot::audit_slot(lane.auditor, in_.k, bus_v_, lane_state,
                      lane_state.capacity(), before,
                      if_dt_idle + if_dt_active);
    } catch (const audit::AuditError&) {
      eject_audit(lane);
    }
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
  ///    state, and only the integration re-runs at the larger
  ///    capacity; no re-plan, same setpoint.
  ///
  /// Either way the set persists under the new leader — one clone and
  /// one extra integration per fill event, instead of a solo replay per
  /// follower. A clamp with no followers left is the (new) leader's own
  /// physics and is simply kept.
  template <typename Fc>
  void set_slot(MergeSet& set) {
    std::size_t li = set.leader;
    const hot::LaneState::Snapshot snap0 = state(lanes_[li]).snapshot();
    const power::HybridTotals& before = snap0.totals;

    // --- idle phase ----------------------------------------------------
    core::SegmentSetpoint sp_idle{};
    Coulomb if_dt_idle{0.0};
    bool replan = true;
    for (;;) {
      hot::LaneState& lead = state(lanes_[li]);
      if (replan) {
        set.latch.clear();
        Fc& fc = *static_cast<Fc*>(lanes_[li].fc);
        fc.on_idle_start(hot::idle_context(in_, lead));
        if (set.latch.clamped() && !set.followers.empty()) {
          const std::size_t next = seat(set, snap0);
          leader_exit<Fc>(set, li, Resume::IdleRun, before);
          li = next;
          continue;
        }
        if (in_.plan.count > 0) {
          // A pure policy answers every idle segment alike, so one probe
          // serves the phase. stop_charging_when_full alone is NOT
          // capacity-sensitive: the integration below marks sensitivity
          // only when the leader's full-buffer cutoff actually binds.
          sp_idle = fc.segment_setpoint(hot::idle_segment(in_, 0, lead));
        }
      }
      Coulomb accumulated{0.0};
      bool integration_sensitive = false;
      for (std::size_t s = 0; s < in_.plan.count; ++s) {
        hot::integrate(lead, sp_idle, in_.plan.segments[s].current,
                       in_.plan.segments[s].duration, accumulated,
                       integration_sensitive);
      }
      if (!integration_sensitive || set.followers.empty()) {
        if_dt_idle = accumulated;
        break;
      }
      const std::size_t next = seat(set, snap0);
      leader_exit<Fc>(set, li, Resume::ActivePlan, before, accumulated);
      li = next;
      replan = false;  // plan unclamped, hence bitwise the successor's own
    }

    // --- active phase --------------------------------------------------
    const hot::LaneState::Snapshot snap_mid = state(lanes_[li]).snapshot();
    core::SegmentSetpoint sp_active{};
    Coulomb if_dt_active{0.0};
    replan = true;
    for (;;) {
      hot::LaneState& lead = state(lanes_[li]);
      if (replan) {
        set.latch.clear();
        Fc& fc = *static_cast<Fc*>(lanes_[li].fc);
        fc.on_active_start(hot::active_context(in_, lead));
        if (set.latch.clamped() && !set.followers.empty()) {
          const std::size_t next = seat(set, snap_mid);
          leader_exit<Fc>(set, li, Resume::ActiveRun, before, if_dt_idle);
          li = next;
          continue;
        }
        sp_active = fc.segment_setpoint(hot::active_segment(in_, lead));
      }
      Coulomb accumulated{0.0};
      bool integration_sensitive = false;
      hot::integrate(lead, sp_active, in_.run_current, in_.active, accumulated,
                     integration_sensitive);
      if (!integration_sensitive || set.followers.empty()) {
        if_dt_active = accumulated;
        break;
      }
      const std::size_t next = seat(set, snap_mid);
      leader_exit<Fc>(set, li, Resume::SlotEnd, before, if_dt_idle,
                      accumulated);
      li = next;
      replan = false;
    }

    // --- epilogue: leader observation, per-lane audits -----------------
    Lane& leader = lanes_[li];
    const hot::LaneState& lead = state(leader);
    const Coulomb if_dt = if_dt_idle + if_dt_active;
    hot::slot_end(lead, *static_cast<Fc*>(leader.fc), in_, if_dt, before);
    merged_lane_slots_ += set.followers.size();

    bool any_audit_failed = false;
    try {
      hot::audit_slot(leader.auditor, in_.k, bus_v_, lead, lead.capacity(),
                      before, if_dt);
    } catch (const audit::AuditError&) {
      eject_audit(leader);
      any_audit_failed = true;
    }
    for (const std::size_t fi : set.followers) {
      Lane& follower = lanes_[fi];
      try {
        hot::audit_slot(follower.auditor, in_.k, bus_v_, lead,
                        state(follower).capacity(), before, if_dt);
      } catch (const audit::AuditError&) {
        // Materialize the follower's state (bitwise the leader's)
        // before stamping its partial result.
        adopt(follower, leader);
        eject_audit(follower);
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
  [[nodiscard]] std::size_t handoff_successor(const MergeSet& set) {
    std::size_t next = set.followers.front();
    for (const std::size_t fi : set.followers) {
      if (state(lanes_[fi]).capacity() < state(lanes_[next]).capacity()) {
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
  /// and refresh the successor's state — stale since it merged — from
  /// the phase checkpoint, which is bitwise its own state. The caller
  /// decides whether the phase needs a re-plan or only a re-integration.
  std::size_t seat(MergeSet& set, const hot::LaneState::Snapshot& at) {
    const std::size_t next = handoff_successor(set);
    Lane& lane = lanes_[next];
    materialize(lane, *lanes_[set.leader].fc);
    lane.fc->set_solve_cache(&set.latch);
    state(lane).restore(at);
    lane.merged = false;
    set.followers.erase(
        std::find(set.followers.begin(), set.followers.end(), next));
    set.leader = next;
    return next;
  }

  /// A capacity clamp made the rest of the slot the outgoing leader's
  /// alone: it leaves the set and finishes the slot solo on its own
  /// state, from where it stopped — no restore, no replay.
  template <typename Fc>
  void leader_exit(MergeSet& set, std::size_t li, Resume from,
                   const power::HybridTotals& before,
                   Coulomb if_dt_idle = Coulomb(0.0),
                   Coulomb if_dt_active = Coulomb(0.0)) {
    Lane& lane = lanes_[li];
    split_out(set, lane);
    solo(lane, *static_cast<Fc*>(lane.fc), from, before, if_dt_idle,
         if_dt_active);
  }

  /// Leave the set: own state from here on, the set's cache wiring.
  void split_out(MergeSet& set, Lane& lane) {
    lane.merged = false;
    lane.set = -1;
    lane.fc->set_solve_cache(set.underlying);
    ++splits_;
    split_this_slot_ = true;
  }

  /// Audit ejection dissolves the whole set: at a slot boundary every
  /// merged follower is bitwise at the leader's state, so adopting the
  /// leader's state and continuing solo is lossless. Rare path — an
  /// engine defect or tamper hook — so simplicity over merge retention.
  void dissolve(MergeSet& set) {
    Lane& leader = lanes_[set.leader];
    for (const std::size_t fi : set.followers) {
      Lane& follower = lanes_[fi];
      adopt(follower, leader);
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

  void eject_audit(Lane& lane) {
    lane.out.end = LaneOutcome::End::AuditFailed;
    stamp(lane, in_.k + 1);
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
    state(lane).write_result(result);
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
    end.storage_capacity = state(lane).capacity();
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
        adopt(lane,
              lanes_[sets_[static_cast<std::size_t>(lane.set)].leader]);
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
    stats_->batch_merge_sets += sets_.size();
    stats_->batch_merged_lane_slots += merged_lane_slots_;
    stats_->batch_splits += splits_;
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

  std::vector<hot::LaneState> states_;
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

  /// The slot being run: one trace, one DPM plan for the whole batch.
  hot::SlotInputs in_;
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
