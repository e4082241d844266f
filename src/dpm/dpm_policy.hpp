// Device-side DPM policies: decide how an idle period is spent.
//
// The decision (STANDBY vs SLEEP) is made from *predicted* idle time
// against the break-even time Tbe; the physical layout of the idle period
// (power-down, sleep, wake-up segments) is then realized against the
// *actual* idle length. Mispredicted sleeps whose transitions do not fit
// in the idle period spill past it — the spill is reported as added
// latency, a metric the ablations track.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "dpm/power_states.hpp"
#include "dpm/predictors.hpp"
#include "obs/context.hpp"

namespace fcdpm::dpm {

/// One constant-current stretch within an idle period.
struct IdleSegment {
  Seconds duration;
  Ampere current;
  PowerState state;  ///< Standby or Sleep (transitions labelled Sleep)
};

/// Fully laid-out idle period.
struct IdlePlan {
  bool slept = false;
  Seconds predicted_idle{0.0};
  /// Wake-up time exceeding the idle window (response latency added).
  Seconds latency_spill{0.0};
  std::vector<IdleSegment> segments;

  /// Sum of segment durations (== actual idle + latency_spill).
  [[nodiscard]] Seconds total_duration() const;
  /// Total charge of the plan at the device terminals.
  [[nodiscard]] Coulomb total_charge() const;
};

/// Idle plan laid out into fixed inline storage — the allocation-free
/// counterpart of IdlePlan for the hot engine (`fcdpm::hot`). Four
/// segments cover every layout the policies produce (the deepest is
/// timeout shutdown: standby + power-down + sleep + wake-up).
struct InlineIdlePlan {
  bool slept = false;
  Seconds predicted_idle{0.0};
  /// Wake-up time exceeding the idle window (response latency added).
  Seconds latency_spill{0.0};
  std::array<IdleSegment, 4> segments{};
  std::size_t count = 0;

  /// Sum of segment durations (== actual idle + latency_spill).
  [[nodiscard]] Seconds total_duration() const noexcept {
    Seconds total{0.0};
    for (std::size_t k = 0; k < count; ++k) {
      total += segments[k].duration;
    }
    return total;
  }
};

/// Allocation-free layout primitives. These are the single source of
/// truth for the segment arithmetic: plan_standby()/plan_sleep() wrap
/// them, so the vector-based and inline plans cannot drift apart.
void plan_standby_into(const DevicePowerModel& device, Seconds actual_idle,
                       InlineIdlePlan& plan);
void plan_sleep_into(const DevicePowerModel& device, Seconds actual_idle,
                     InlineIdlePlan& plan);

/// Lay out an idle period of `actual_idle` as STANDBY only.
[[nodiscard]] IdlePlan plan_standby(const DevicePowerModel& device,
                                    Seconds actual_idle);

/// Lay out an idle period of `actual_idle` as a SLEEP episode:
/// power-down, sleep, wake-up. When the transitions do not fit, the wake
/// completes after the idle window and the overshoot is reported as
/// latency_spill (the sleep stretch is then empty).
[[nodiscard]] IdlePlan plan_sleep(const DevicePowerModel& device,
                                  Seconds actual_idle);

/// DPM policy interface: prediction-driven sleep decisions.
class DpmPolicy {
 public:
  virtual ~DpmPolicy() = default;

  /// Decide (from internal prediction state only) and lay the idle period
  /// out against its actual length. Must not let `actual_idle` influence
  /// the decision — only the layout.
  [[nodiscard]] virtual IdlePlan plan_idle(Seconds actual_idle) = 0;

  /// Allocation-free counterpart of plan_idle() for the hot engine: lay
  /// the idle period out into caller-owned inline storage. Must make
  /// the same decision, mutate the same internal state, and produce the
  /// same segments as plan_idle() — the differential tests hold every
  /// policy to that. The default wraps plan_idle() (and allocates);
  /// policies on the hot path override it.
  virtual void plan_idle_into(Seconds actual_idle, InlineIdlePlan& out);

  /// Feed the observed idle length back to the predictor.
  virtual void observe_idle(Seconds actual_idle) = 0;

  /// The prediction the next plan_idle() will be based on.
  [[nodiscard]] virtual Seconds predicted_idle() const = 0;

  [[nodiscard]] virtual const DevicePowerModel& device() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual std::unique_ptr<DpmPolicy> clone() const = 0;

  virtual void reset() = 0;

  /// Attach (or detach with nullptr) an observability context; the
  /// simulator does this for the duration of a run and restores the
  /// previous value when it returns. Policies emit decision instants
  /// and predictor-error metrics through it. Not owned.
  void set_observer(obs::Context* observer) noexcept { obs_ = observer; }
  [[nodiscard]] obs::Context* observer() const noexcept { return obs_; }

 protected:
  obs::Context* obs_ = nullptr;
};

/// Predictive shutdown (Hwang-Wu style): sleep iff predicted idle >= Tbe.
class PredictiveDpmPolicy final : public DpmPolicy {
 public:
  PredictiveDpmPolicy(DevicePowerModel device,
                      std::unique_ptr<DurationPredictor> predictor);

  /// The paper's configuration: exponential average with the given rho,
  /// seeded with `initial` (first slot has no history).
  [[nodiscard]] static PredictiveDpmPolicy paper_policy(
      DevicePowerModel device, double rho, Seconds initial);

  [[nodiscard]] IdlePlan plan_idle(Seconds actual_idle) override;
  void plan_idle_into(Seconds actual_idle, InlineIdlePlan& out) override;
  void observe_idle(Seconds actual_idle) override;
  [[nodiscard]] Seconds predicted_idle() const override;
  [[nodiscard]] const DevicePowerModel& device() const override {
    return device_;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<DpmPolicy> clone() const override;
  void reset() override;

  [[nodiscard]] Seconds break_even() const noexcept { return break_even_; }
  [[nodiscard]] const PredictionAccuracy& accuracy() const noexcept {
    return accuracy_;
  }

 private:
  DevicePowerModel device_;
  std::unique_ptr<DurationPredictor> predictor_;
  Seconds break_even_;
  PredictionAccuracy accuracy_;

  void emit_decision(bool slept, Seconds latency_spill, Seconds predicted,
                     Seconds actual_idle);
};

/// Timeout shutdown: wait `timeout` in STANDBY, then sleep for whatever
/// remains. The classic non-predictive baseline.
class TimeoutDpmPolicy final : public DpmPolicy {
 public:
  TimeoutDpmPolicy(DevicePowerModel device, Seconds timeout);

  [[nodiscard]] IdlePlan plan_idle(Seconds actual_idle) override;
  void plan_idle_into(Seconds actual_idle, InlineIdlePlan& out) override;
  void observe_idle(Seconds actual_idle) override {
    last_idle_ = actual_idle;
  }
  [[nodiscard]] Seconds predicted_idle() const override {
    return last_idle_;
  }
  [[nodiscard]] const DevicePowerModel& device() const override {
    return device_;
  }
  [[nodiscard]] std::string name() const override { return "timeout"; }
  [[nodiscard]] std::unique_ptr<DpmPolicy> clone() const override;
  void reset() override { last_idle_ = Seconds(0.0); }

 private:
  DevicePowerModel device_;
  Seconds timeout_;
  Seconds last_idle_{0.0};
};

/// Never sleeps; the do-nothing floor for ablations.
class AlwaysStandbyDpmPolicy final : public DpmPolicy {
 public:
  explicit AlwaysStandbyDpmPolicy(DevicePowerModel device);

  [[nodiscard]] IdlePlan plan_idle(Seconds actual_idle) override;
  void plan_idle_into(Seconds actual_idle, InlineIdlePlan& out) override;
  void observe_idle(Seconds actual_idle) override {
    last_idle_ = actual_idle;
  }
  [[nodiscard]] Seconds predicted_idle() const override {
    return last_idle_;
  }
  [[nodiscard]] const DevicePowerModel& device() const override {
    return device_;
  }
  [[nodiscard]] std::string name() const override {
    return "always-standby";
  }
  [[nodiscard]] std::unique_ptr<DpmPolicy> clone() const override;
  void reset() override { last_idle_ = Seconds(0.0); }

 private:
  DevicePowerModel device_;
  Seconds last_idle_{0.0};
};

}  // namespace fcdpm::dpm
