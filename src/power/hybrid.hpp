// The hybrid power source of Figure 1: FC system + charge-storage buffer
// + bleeder bypass, integrated over piecewise-constant segments.
//
// Within a segment both the load current Ild and the FC setpoint IF are
// constant, so all charge flows integrate exactly — no time-stepping
// error. The slot simulator drives one segment per device phase.
#pragma once

#include <memory>

#include "common/units.hpp"
#include "obs/context.hpp"
#include "power/efficiency_model.hpp"
#include "power/fc_system.hpp"
#include "power/storage.hpp"

namespace fcdpm::fault {
class FaultInjector;
}

namespace fcdpm::hot {
class LaneState;
}

namespace fcdpm::power {

/// Fuel-side abstraction the hybrid source integrates against: maps a
/// system output current to the fuel (stack) current it burns, and
/// exposes the load-following range.
class FuelSource {
 public:
  virtual ~FuelSource() = default;

  [[nodiscard]] virtual Ampere min_output() const = 0;
  [[nodiscard]] virtual Ampere max_output() const = 0;
  /// Fuel (stack-equivalent) current when delivering IF; IF == 0 means
  /// the FC is idled and burns nothing.
  [[nodiscard]] virtual Ampere fuel_current(Ampere i_f) const = 0;
  [[nodiscard]] virtual Volt bus_voltage() const = 0;
  [[nodiscard]] virtual std::unique_ptr<FuelSource> clone() const = 0;

  /// Post-segment accrual hook: the hybrid reports every integrated
  /// segment's actual output (0 when the FC was idled) and duration.
  /// Stateful sources (multi-stack degradation) accrue delivered charge
  /// and on/off cycles here; stateless sources ignore it.
  virtual void note_delivery(Ampere i_f, Seconds duration);
  /// Restore internal state to the fresh-build condition; called by
  /// HybridPowerSource::reset. Stateless sources ignore it.
  virtual void reset();
};

/// Fuel source defined by the paper's linear efficiency model (Eq. (4)).
/// This is what the paper's own simulations integrate.
class LinearFuelSource final : public FuelSource {
 public:
  explicit LinearFuelSource(LinearEfficiencyModel model);

  [[nodiscard]] Ampere min_output() const override;
  [[nodiscard]] Ampere max_output() const override;
  [[nodiscard]] Ampere fuel_current(Ampere i_f) const override;
  [[nodiscard]] Volt bus_voltage() const override;
  [[nodiscard]] std::unique_ptr<FuelSource> clone() const override;

  [[nodiscard]] const LinearEfficiencyModel& model() const noexcept {
    return model_;
  }

 private:
  LinearEfficiencyModel model_;
};

/// Fuel source backed by the full physical FcSystem composition; used to
/// cross-validate the linear characterization.
class PhysicalFuelSource final : public FuelSource {
 public:
  /// `min_output` is the bottom of the load-following range; the top is
  /// derived from the stack's maximum power point.
  PhysicalFuelSource(FcSystem system, Ampere min_output);

  [[nodiscard]] Ampere min_output() const override { return min_output_; }
  [[nodiscard]] Ampere max_output() const override { return max_output_; }
  [[nodiscard]] Ampere fuel_current(Ampere i_f) const override;
  [[nodiscard]] Volt bus_voltage() const override;
  [[nodiscard]] std::unique_ptr<FuelSource> clone() const override;

 private:
  FcSystem system_;
  Ampere min_output_;
  Ampere max_output_;
};

/// Cumulative accounting of one hybrid-source run.
struct HybridTotals {
  Coulomb fuel{0.0};            ///< fuel A-s (the paper's metric)
  Joule delivered_energy{0.0};  ///< VF * IF integrated
  Joule load_energy{0.0};       ///< VF * Ild integrated
  Coulomb bled{0.0};            ///< overflow dumped into the bleeder
  Coulomb unserved{0.0};        ///< load charge the buffer couldn't cover
  Seconds duration{0.0};
};

/// Result of one constant-current segment.
struct SegmentResult {
  Ampere setpoint;   ///< requested IF
  Ampere actual_if;  ///< after clamping into the load-following range
  Coulomb fuel;
  Coulomb stored;    ///< charge that landed in the buffer
  Coulomb drawn;     ///< charge delivered from the buffer
  Coulomb bled;
  Coulomb unserved;
  /// Charge a storage-fade fault bled before this segment's flows (the
  /// over-cap pre-drain). Kept separate from `bled` so flow accounting
  /// stays comparable across faulted and fault-free runs, but included
  /// in HybridTotals::bled — per-segment sums of `bled + pre_bled`
  /// reconcile exactly with the totals.
  Coulomb pre_bled;
};

/// FC + storage + bleeder. Move-only; `clone()` deep-copies.
class HybridPowerSource {
 public:
  HybridPowerSource(std::unique_ptr<FuelSource> source,
                    std::unique_ptr<ChargeStorage> storage);

  /// Paper configuration: linear paper_default efficiency + 1 F supercap.
  [[nodiscard]] static HybridPowerSource paper_hybrid();

  [[nodiscard]] HybridPowerSource clone() const;

  /// Integrate one segment: constant load `load`, FC setpoint
  /// `if_setpoint` (clamped into [min_output, max_output] unless exactly
  /// zero = FC idled), for `duration` >= 0.
  SegmentResult run_segment(Seconds duration, Ampere load,
                            Ampere if_setpoint);

  [[nodiscard]] const HybridTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] const FuelSource& source() const noexcept {
    return *source_;
  }
  [[nodiscard]] ChargeStorage& storage() noexcept { return *storage_; }
  [[nodiscard]] const ChargeStorage& storage() const noexcept {
    return *storage_;
  }

  /// Lowest / highest buffer charge seen at any segment boundary.
  [[nodiscard]] Coulomb min_storage_seen() const noexcept {
    return min_storage_seen_;
  }
  [[nodiscard]] Coulomb max_storage_seen() const noexcept {
    return max_storage_seen_;
  }

  /// Zero the accounting and restore the buffer to `initial_charge`.
  void reset(Coulomb initial_charge);

  /// Fold the accumulated totals into the epoch clock and zero them,
  /// leaving storage charge, FC on/off state and the min/max trackers
  /// untouched. Multi-pass drivers (lifetime measurement) call this
  /// between passes so each pass accounts from zero with bit-identical
  /// arithmetic, while `elapsed_time()` — and with it the fault
  /// timeline — keeps advancing monotonically.
  void reset_totals() noexcept;

  /// Monotonic simulated time: epochs folded by `reset_totals()` plus
  /// the current totals' duration. This is the fault injector's clock.
  [[nodiscard]] Seconds elapsed_time() const noexcept {
    return epoch_ + totals_.duration;
  }

  /// Fuel charged every time the FC restarts after being idled (IF
  /// transitions 0 -> positive): purging and re-pressurizing the stack
  /// costs hydrogen. Default 0. Enables studying the FC-off deep-idle
  /// extension (bench abl_fc_shutdown).
  void set_startup_fuel(Coulomb fuel);
  [[nodiscard]] Coulomb startup_fuel() const noexcept {
    return startup_fuel_;
  }
  /// Number of 0 -> on transitions seen since the last reset.
  [[nodiscard]] std::size_t startups() const noexcept { return startups_; }

  /// Attach (or detach with nullptr) an observability context: every
  /// segment then feeds storage/bleed/unserved metrics. Not owned; the
  /// caller keeps it alive for the duration of the runs.
  void set_observer(obs::Context* observer) noexcept {
    observer_ = observer;
  }
  [[nodiscard]] obs::Context* observer() const noexcept {
    return observer_;
  }

  /// Attach (or detach with nullptr) a fault injector: every segment
  /// then advances the fault clock on the accumulated duration, applies
  /// active derates/dropouts/brownouts, and reports the storage level
  /// for recovery accounting. Not owned; nullptr keeps the run
  /// bit-identical to a build without the fault subsystem.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept {
    return fault_injector_;
  }

 private:
  // The compiled loops' lane state (hot lane and batch loop alike)
  // mirrors run_segment() bit-for-bit on local state and writes the
  // result back through this friendship, so a run can resume on the
  // reference path mid-stream.
  friend class fcdpm::hot::LaneState;

  std::unique_ptr<FuelSource> source_;
  std::unique_ptr<ChargeStorage> storage_;
  HybridTotals totals_;
  Seconds epoch_{0.0};
  Coulomb min_storage_seen_{0.0};
  Coulomb max_storage_seen_{0.0};
  Coulomb startup_fuel_{0.0};
  std::size_t startups_ = 0;
  bool fc_running_ = true;
  obs::Context* observer_ = nullptr;
  fault::FaultInjector* fault_injector_ = nullptr;

  void note_storage_level();
};

}  // namespace fcdpm::power
