// Fuel-cell balance-of-plant controller model.
//
// The FC system's controller (Figure 1) comprises a cathode air-blow fan,
// a cooling fan, a purge-valve solenoid and a microcontroller, all fed
// from the 12 V bus; its draw Ictrl subtracts from the DC-DC output
// (IF = Idc - Ictrl). Two fan strategies are modeled:
//  * on/off (constant speed) fans — the Figure 3(c) configuration: a
//    fixed draw plus a cooling fan that kicks in above a load threshold;
//  * proportional (variable speed) fans — the Figure 3(b) configuration
//    used by this paper: draw scales with the load current, so light-load
//    efficiency improves markedly.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"

namespace fcdpm::power {

/// Controller draw as a function of the FC system output current.
class ControllerModel {
 public:
  virtual ~ControllerModel() = default;

  /// Controller current Ictrl at system output current IF (both on the
  /// 12 V bus).
  [[nodiscard]] virtual Ampere control_current(Ampere i_f) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual std::unique_ptr<ControllerModel> clone() const = 0;
};

/// Constant-speed cathode fan always on; cooling fan switches on above a
/// load threshold (no hysteresis needed at the slot granularity we use).
class OnOffFanController final : public ControllerModel {
 public:
  OnOffFanController(Ampere base_draw, Ampere cooling_fan_draw,
                     Ampere cooling_on_threshold);

  /// The authors' earlier-work configuration (Figure 3(c)).
  [[nodiscard]] static OnOffFanController typical();

  [[nodiscard]] Ampere control_current(Ampere i_f) const override;
  [[nodiscard]] std::string name() const override { return "on/off fan"; }
  [[nodiscard]] std::unique_ptr<ControllerModel> clone() const override;

 private:
  Ampere base_draw_;
  Ampere cooling_fan_draw_;
  Ampere threshold_;
};

/// Variable-speed fans: draw = idle_draw + slope * IF. Fan power scales
/// with the air the stack needs, i.e. with the delivered current.
class ProportionalFanController final : public ControllerModel {
 public:
  ProportionalFanController(Ampere idle_draw, double slope);

  /// This paper's configuration (Figure 3(b)).
  [[nodiscard]] static ProportionalFanController typical();

  [[nodiscard]] Ampere control_current(Ampere i_f) const override;
  [[nodiscard]] std::string name() const override {
    return "proportional fan";
  }
  [[nodiscard]] std::unique_ptr<ControllerModel> clone() const override;

 private:
  Ampere idle_draw_;
  double slope_;
};

}  // namespace fcdpm::power
