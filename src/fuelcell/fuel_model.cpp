#include "fuelcell/fuel_model.hpp"

#include "common/contracts.hpp"

namespace fcdpm::fc {

FuelModel::FuelModel(double zeta_w_per_a, int cell_count)
    : zeta_w_per_a_(zeta_w_per_a), cell_count_(cell_count) {
  FCDPM_EXPECTS(zeta_w_per_a > 0.0, "zeta must be positive");
  FCDPM_EXPECTS(cell_count >= 1, "cell count must be positive");
}

FuelModel FuelModel::bcs_20w() { return FuelModel(37.5, 20); }

Watt FuelModel::gibbs_power(Ampere ifc) const {
  FCDPM_EXPECTS(ifc.value() >= 0.0, "stack current must be non-negative");
  return Watt(zeta_w_per_a_ * ifc.value());
}

double FuelModel::stack_efficiency(Volt vfc) const {
  FCDPM_EXPECTS(vfc.value() >= 0.0, "stack voltage must be non-negative");
  return vfc.value() / zeta_w_per_a_;
}

double FuelModel::hydrogen_mol(Coulomb stack_charge) const {
  FCDPM_EXPECTS(stack_charge.value() >= 0.0, "charge must be non-negative");
  return static_cast<double>(cell_count_) * stack_charge.value() /
         (HydrogenConstants::electrons_per_h2 *
          HydrogenConstants::faraday_c_per_mol);
}

double FuelModel::hydrogen_litres_stp(Coulomb stack_charge) const {
  return hydrogen_mol(stack_charge) * HydrogenConstants::molar_volume_l;
}

double FuelModel::hydrogen_grams(Coulomb stack_charge) const {
  return hydrogen_mol(stack_charge) * HydrogenConstants::molar_mass_g;
}

}  // namespace fcdpm::fc
