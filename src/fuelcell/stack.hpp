// Fuel-cell stack model: N series cells sharing one current.
//
// Reproduces the paper's Figure 2 (stack V-I and P-I curves of the BCS
// 20 W, 20-cell stack): voltage falls monotonically from the 18.2 V open
// circuit, power rises to the ~20 W maximum-power point and then falls.
// The maximum-power point bounds the stack's usable ("load following")
// current range.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "fuelcell/polarization.hpp"

namespace fcdpm::fc {

/// One sampled operating point on the stack curve.
struct StackPoint {
  Ampere current;
  Volt voltage;
  Watt power;
};

/// Series stack of identical cells.
class FuelCellStack {
 public:
  /// `cells` >= 1.
  FuelCellStack(CellParams cell, int cells);

  /// The paper's BCS 20 W / 20-cell stack at 2 psig H2.
  [[nodiscard]] static FuelCellStack bcs_20w();

  [[nodiscard]] const CellParams& cell() const noexcept { return cell_; }

  /// Stack terminal voltage Vfc at stack current Ifc.
  [[nodiscard]] Volt voltage(Ampere ifc) const;

  /// Stack output power Vfc * Ifc.
  [[nodiscard]] Watt power(Ampere ifc) const;

  /// Open-circuit voltage (at Ifc = 0, i.e. only crossover losses).
  [[nodiscard]] Volt open_circuit_voltage() const;

  /// Maximum-power point, located numerically on [0, search_limit].
  [[nodiscard]] StackPoint maximum_power_point(
      Ampere search_limit = Ampere(3.0)) const;

  /// Smallest stack current whose output power covers `demand`; throws
  /// PreconditionError when demand exceeds the maximum power capacity.
  /// This inverts the rising branch of the P-I curve (the branch a
  /// regulated system operates on).
  [[nodiscard]] Ampere current_for_power(Watt demand) const;

  /// Sample the V-I-P curve on [lo, hi] with `count` points (Figure 2).
  [[nodiscard]] std::vector<StackPoint> sample_curve(Ampere lo, Ampere hi,
                                                     std::size_t count) const;

 private:
  CellParams cell_;
  int cells_;
};

}  // namespace fcdpm::fc
