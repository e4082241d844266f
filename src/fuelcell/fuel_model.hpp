// Fuel-side model of the stack.
//
// The paper expresses fuel consumption in "A-s of stack current": the fuel
// flow rate is proportional to Ifc, so Gibbs free energy per second is
// dEGibbs = zeta * Ifc with a measured zeta ~= 37.5 W/A for the BCS stack.
// Stack efficiency is then Vfc/zeta. This module also converts stack
// charge to physical hydrogen amounts via Faraday's law so lifetimes can
// be quoted against a real tank size.
#pragma once

#include "common/units.hpp"
#include "fuelcell/stack.hpp"

namespace fcdpm::fc {

/// Physical constants for the hydrogen conversion.
struct HydrogenConstants {
  static constexpr double faraday_c_per_mol = 96485.33212;
  static constexpr int electrons_per_h2 = 2;
  /// Molar volume at STP, litres/mol.
  static constexpr double molar_volume_l = 22.414;
  /// Molar mass of H2, grams/mol.
  static constexpr double molar_mass_g = 2.016;
};

/// Gibbs/fuel model of one stack: dEGibbs = zeta * Ifc.
class FuelModel {
 public:
  /// `zeta` in watts per ampere of stack current; > 0.
  FuelModel(double zeta_w_per_a, int cell_count);

  /// The paper's measured value (zeta ~= 37.5) for the 20-cell BCS stack.
  [[nodiscard]] static FuelModel bcs_20w();

  [[nodiscard]] double zeta() const noexcept { return zeta_w_per_a_; }

  /// Gibbs free-energy rate drawn from the fuel at stack current `ifc`.
  [[nodiscard]] Watt gibbs_power(Ampere ifc) const;

  /// Stack efficiency = stack output power / Gibbs rate = Vfc / zeta.
  [[nodiscard]] double stack_efficiency(Volt vfc) const;

  /// Moles of H2 consumed when `charge` A-s of stack current flows
  /// (Faraday: cells * Q / (2F); every cell in the series stack consumes
  /// fuel for the same charge).
  [[nodiscard]] double hydrogen_mol(Coulomb stack_charge) const;

  /// Same amount in litres at STP and in grams.
  [[nodiscard]] double hydrogen_litres_stp(Coulomb stack_charge) const;
  [[nodiscard]] double hydrogen_grams(Coulomb stack_charge) const;

 private:
  double zeta_w_per_a_;
  int cell_count_;
};

}  // namespace fcdpm::fc
