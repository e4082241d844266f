#include "power/storage.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace fcdpm::power {

void ChargeStorage::advance(Seconds dt) {
  FCDPM_EXPECTS(dt.value() >= 0.0, "time must be non-negative");
}

double ChargeStorage::fraction() const {
  const Coulomb cap = capacity();
  if (cap.value() <= 0.0) {
    return 0.0;
  }
  return charge() / cap;
}

SuperCapacitor::SuperCapacitor(Coulomb usable_capacity,
                               double round_trip_efficiency)
    : capacity_(usable_capacity),
      one_way_efficiency_(std::sqrt(round_trip_efficiency)) {
  FCDPM_EXPECTS(usable_capacity.value() > 0.0,
                "capacity must be positive");
  FCDPM_EXPECTS(round_trip_efficiency > 0.0 && round_trip_efficiency <= 1.0,
                "round-trip efficiency must be in (0, 1]");
}

SuperCapacitor SuperCapacitor::paper_1f() {
  return SuperCapacitor(Coulomb(6.0), 1.0);
}

SuperCapacitor SuperCapacitor::from_capacitance(
    Farad capacitance, Volt v_lo, Volt v_hi, double round_trip_efficiency) {
  FCDPM_EXPECTS(v_lo.value() >= 0.0 && v_lo < v_hi,
                "voltage window is empty");
  const Coulomb window = capacitance * (v_hi - v_lo);
  return SuperCapacitor(window, round_trip_efficiency);
}

Coulomb SuperCapacitor::store(Coulomb amount) {
  FCDPM_EXPECTS(amount.value() >= 0.0, "stored charge must be non-negative");
  const Coulomb headroom_stored = capacity_ - charge_;
  // `amount` arrives on the bus; only eta * amount lands in the cell.
  const Coulomb landable = amount * one_way_efficiency_;
  const Coulomb landed = min(landable, headroom_stored);
  charge_ += landed;
  // Overflow reported in bus charge.
  const Coulomb accepted_bus = landed / one_way_efficiency_;
  return amount - accepted_bus;
}

Coulomb SuperCapacitor::draw(Coulomb amount) {
  FCDPM_EXPECTS(amount.value() >= 0.0, "drawn charge must be non-negative");
  // Delivering `amount` to the bus costs amount/eta from the cell.
  const Coulomb needed = amount / one_way_efficiency_;
  const Coulomb taken = min(needed, charge_);
  charge_ -= taken;
  return taken * one_way_efficiency_;
}

void SuperCapacitor::set_charge(Coulomb charge) {
  FCDPM_EXPECTS(charge.value() >= 0.0 && charge <= capacity_,
                "charge outside [0, capacity]");
  charge_ = charge;
}

Coulomb SuperCapacitor::bus_charge_to_full() const {
  return (capacity_ - charge_) / one_way_efficiency_;
}

std::unique_ptr<ChargeStorage> SuperCapacitor::clone() const {
  return std::make_unique<SuperCapacitor>(*this);
}

LiIonBattery::LiIonBattery(Params params) : params_(params) {
  FCDPM_EXPECTS(params.nominal_capacity.value() > 0.0,
                "capacity must be positive");
  FCDPM_EXPECTS(
      params.coulombic_efficiency > 0.0 && params.coulombic_efficiency <= 1.0,
      "coulombic efficiency must be in (0, 1]");
  FCDPM_EXPECTS(params.rated_current.value() > 0.0,
                "rated current must be positive");
  FCDPM_EXPECTS(params.peukert_exponent >= 1.0,
                "Peukert exponent must be >= 1");
}

Coulomb LiIonBattery::store(Coulomb amount) {
  FCDPM_EXPECTS(amount.value() >= 0.0, "stored charge must be non-negative");
  const Coulomb headroom = params_.nominal_capacity - charge_;
  const Coulomb landable = amount * params_.coulombic_efficiency;
  const Coulomb landed = min(landable, headroom);
  charge_ += landed;
  return amount - landed / params_.coulombic_efficiency;
}

Coulomb LiIonBattery::draw(Coulomb amount) {
  // Without rate information assume the rated (1C) current: no derating.
  return draw_at_rate(amount, params_.rated_current);
}

double LiIonBattery::discharge_efficiency(Ampere rate) const {
  FCDPM_EXPECTS(rate.value() >= 0.0, "rate must be non-negative");
  if (rate <= params_.rated_current) {
    return 1.0;
  }
  // Peukert: at I > I_rated the deliverable charge scales by
  // (I_rated / I)^(k-1).
  return std::pow(params_.rated_current / rate,
                  params_.peukert_exponent - 1.0);
}

Coulomb LiIonBattery::draw_at_rate(Coulomb amount, Ampere rate) {
  FCDPM_EXPECTS(amount.value() >= 0.0, "drawn charge must be non-negative");
  const double eff = discharge_efficiency(rate);
  // Delivering `amount` to the bus consumes amount/eff of stored charge.
  const Coulomb needed = amount / eff;
  const Coulomb taken = min(needed, charge_);
  charge_ -= taken;
  return taken * eff;
}

void LiIonBattery::set_charge(Coulomb charge) {
  FCDPM_EXPECTS(charge.value() >= 0.0 && charge <= params_.nominal_capacity,
                "charge outside [0, capacity]");
  charge_ = charge;
}

Coulomb LiIonBattery::bus_charge_to_full() const {
  return (params_.nominal_capacity - charge_) / params_.coulombic_efficiency;
}

std::unique_ptr<ChargeStorage> LiIonBattery::clone() const {
  return std::make_unique<LiIonBattery>(*this);
}

// --- KineticBattery ----------------------------------------------------------

KineticBattery::KineticBattery(Params params) : params_(params) {
  FCDPM_EXPECTS(params.total_capacity.value() > 0.0,
                "capacity must be positive");
  FCDPM_EXPECTS(
      params.available_fraction > 0.0 && params.available_fraction < 1.0,
      "available fraction must lie in (0, 1)");
  FCDPM_EXPECTS(params.recovery_rate_per_s >= 0.0,
                "recovery rate must be non-negative");
  FCDPM_EXPECTS(
      params.charge_efficiency > 0.0 && params.charge_efficiency <= 1.0,
      "charge efficiency must be in (0, 1]");
}

Coulomb KineticBattery::available_well_size() const {
  return params_.total_capacity * params_.available_fraction;
}

Coulomb KineticBattery::bound_well_size() const {
  return params_.total_capacity * (1.0 - params_.available_fraction);
}

Coulomb KineticBattery::charge() const { return available_ + bound_; }

Coulomb KineticBattery::store(Coulomb amount) {
  FCDPM_EXPECTS(amount.value() >= 0.0, "stored charge must be >= 0");
  // Charge lands in the available well; diffusion (advance) moves it on.
  const Coulomb headroom = available_well_size() - available_;
  const Coulomb landable = amount * params_.charge_efficiency;
  const Coulomb landed = min(landable, headroom);
  available_ += landed;
  return amount - landed / params_.charge_efficiency;
}

Coulomb KineticBattery::draw(Coulomb amount) {
  FCDPM_EXPECTS(amount.value() >= 0.0, "drawn charge must be >= 0");
  // Only the available well can be tapped: the recovery effect's flip
  // side — bound charge is unreachable until the wells equalize.
  const Coulomb taken = min(amount, available_);
  available_ -= taken;
  return taken;
}

void KineticBattery::set_charge(Coulomb charge) {
  FCDPM_EXPECTS(
      charge.value() >= 0.0 && charge <= params_.total_capacity,
      "charge outside [0, capacity]");
  // Distribute at equilibrium (equal well heights).
  available_ = charge * params_.available_fraction;
  bound_ = charge * (1.0 - params_.available_fraction);
}

Coulomb KineticBattery::bus_charge_to_full() const {
  return (params_.total_capacity - charge()) / params_.charge_efficiency;
}

void KineticBattery::advance(Seconds dt) {
  FCDPM_EXPECTS(dt.value() >= 0.0, "time must be non-negative");
  if (params_.recovery_rate_per_s == 0.0 || dt.value() == 0.0) {
    return;
  }
  // Normalized well heights relax exponentially toward equality while
  // total charge is conserved:
  //   h1 = H + (1-c) * delta,  h2 = H - c * delta,
  //   delta(t) = delta(0) * exp(-rate * t).
  const double c = params_.available_fraction;
  const double h1 = available_ / available_well_size();
  const double h2 = bound_ / bound_well_size();
  const double h_total = c * h1 + (1.0 - c) * h2;
  const double delta =
      (h1 - h2) * std::exp(-params_.recovery_rate_per_s * dt.value());

  const double new_h1 = h_total + (1.0 - c) * delta;
  const double new_h2 = h_total - c * delta;
  available_ = available_well_size() * new_h1;
  bound_ = bound_well_size() * new_h2;
}

std::unique_ptr<ChargeStorage> KineticBattery::clone() const {
  return std::make_unique<KineticBattery>(*this);
}

}  // namespace fcdpm::power
