// The paper's linear FC-system efficiency characterization (Eq. (2)-(4)):
//
//   eta_s(IF)  ~=  alpha - beta * IF        on IF in [IF_min, IF_max]
//   Ifc(IF)    =   (VF / zeta) * IF / eta_s(IF)
//
// With the measured VF = 12 V, zeta ~= 37.5, alpha = 0.45, beta = 0.13 the
// stack ("fuel") current is Ifc = 0.32*IF/(0.45 - 0.13*IF). This model is
// what the slot optimizer consumes; it can come straight from the paper's
// constants (`paper_default`) or be fitted from the composed physical
// FC-system model (see FcSystem::fit_linear_efficiency).
#pragma once

#include "common/units.hpp"

namespace fcdpm::power {

/// Linear efficiency model with its validity (load-following) range.
/// Immutable value type.
class LinearEfficiencyModel {
 public:
  /// Requires: alpha > 0, beta >= 0, 0 <= if_min < if_max, and the model
  /// must stay positive over the range (alpha - beta*if_max > 0).
  LinearEfficiencyModel(Volt bus_voltage, double zeta, double alpha,
                        double beta, Ampere if_min, Ampere if_max);

  /// The paper's measured configuration: 12 V bus, zeta = 37.5,
  /// alpha = 0.45, beta = 0.13, load-following range [0.1 A, 1.2 A].
  [[nodiscard]] static LinearEfficiencyModel paper_default();

  [[nodiscard]] Volt bus_voltage() const noexcept { return bus_voltage_; }
  [[nodiscard]] double zeta() const noexcept { return zeta_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] Ampere min_output() const noexcept { return if_min_; }
  [[nodiscard]] Ampere max_output() const noexcept { return if_max_; }

  /// VF/zeta, the paper's 0.32 prefactor.
  [[nodiscard]] double k() const noexcept {
    return bus_voltage_.value() / zeta_;
  }

  /// eta_s(IF); requires 0 <= IF and eta_s(IF) > 0.
  [[nodiscard]] double efficiency(Ampere i_f) const;

  /// Stack (fuel) current Ifc at system output IF; Eq. (4). Convex and
  /// strictly increasing in IF on [0, alpha/beta).
  [[nodiscard]] Ampere stack_current(Ampere i_f) const;

  /// True when IF lies within the load-following range (inclusive).
  [[nodiscard]] bool in_range(Ampere i_f) const;

  /// Clamp IF into the load-following range.
  [[nodiscard]] Ampere clamp_to_range(Ampere i_f) const;

  /// Copy of this model with a different validity range (for sweeps).
  [[nodiscard]] LinearEfficiencyModel with_range(Ampere if_min,
                                                Ampere if_max) const;

  /// Copy with different alpha/beta (for the beta-sensitivity ablation).
  [[nodiscard]] LinearEfficiencyModel with_coefficients(double alpha,
                                                        double beta) const;

 private:
  Volt bus_voltage_;
  double zeta_;
  double alpha_;
  double beta_;
  Ampere if_min_;
  Ampere if_max_;
};

}  // namespace fcdpm::power
