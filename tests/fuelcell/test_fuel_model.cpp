#include "fuelcell/fuel_model.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace fcdpm::fc {
namespace {

TEST(FuelModel, GibbsPowerIsZetaTimesCurrent) {
  const FuelModel model = FuelModel::bcs_20w();
  EXPECT_DOUBLE_EQ(model.zeta(), 37.5);
  EXPECT_DOUBLE_EQ(model.gibbs_power(Ampere(1.0)).value(), 37.5);
  EXPECT_DOUBLE_EQ(model.gibbs_power(Ampere(0.448)).value(), 16.8);
}

TEST(FuelModel, StackEfficiencyIsVoltageOverZeta) {
  const FuelModel model = FuelModel::bcs_20w();
  // Paper: VF/zeta = 12/37.5 = 0.32 — the Eq. (4) prefactor.
  EXPECT_NEAR(model.stack_efficiency(Volt(12.0)), 0.32, 1e-12);
  EXPECT_NEAR(model.stack_efficiency(Volt(18.2)), 0.4853, 1e-3);
}

TEST(FuelModel, RejectsBadParameters) {
  EXPECT_THROW(FuelModel(0.0, 20), PreconditionError);
  EXPECT_THROW(FuelModel(37.5, 0), PreconditionError);
  const FuelModel model = FuelModel::bcs_20w();
  EXPECT_THROW((void)model.gibbs_power(Ampere(-1.0)), PreconditionError);
  EXPECT_THROW((void)model.stack_efficiency(Volt(-1.0)),
               PreconditionError);
}

TEST(FuelModel, HydrogenFaradayConversion) {
  const FuelModel model = FuelModel::bcs_20w();
  // 1 A for 1 hour through 20 cells: 20 * 3600 / (2 * 96485) mol.
  const double mol = model.hydrogen_mol(Coulomb(3600.0));
  EXPECT_NEAR(mol, 20.0 * 3600.0 / (2.0 * 96485.33212), 1e-9);
  EXPECT_NEAR(model.hydrogen_litres_stp(Coulomb(3600.0)), mol * 22.414,
              1e-9);
  EXPECT_NEAR(model.hydrogen_grams(Coulomb(3600.0)), mol * 2.016, 1e-9);
}

TEST(FuelModel, HydrogenOfZeroChargeIsZero) {
  const FuelModel model = FuelModel::bcs_20w();
  EXPECT_DOUBLE_EQ(model.hydrogen_mol(Coulomb(0.0)), 0.0);
  EXPECT_THROW((void)model.hydrogen_mol(Coulomb(-1.0)), PreconditionError);
}

}  // namespace
}  // namespace fcdpm::fc
