#include "power/efficiency_model.hpp"

#include "common/contracts.hpp"

namespace fcdpm::power {

LinearEfficiencyModel::LinearEfficiencyModel(Volt bus_voltage, double zeta,
                                             double alpha, double beta,
                                             Ampere if_min, Ampere if_max)
    : bus_voltage_(bus_voltage),
      zeta_(zeta),
      alpha_(alpha),
      beta_(beta),
      if_min_(if_min),
      if_max_(if_max) {
  FCDPM_EXPECTS(bus_voltage.value() > 0.0, "bus voltage must be positive");
  FCDPM_EXPECTS(zeta > 0.0, "zeta must be positive");
  FCDPM_EXPECTS(alpha > 0.0, "alpha must be positive");
  FCDPM_EXPECTS(beta >= 0.0, "beta must be non-negative");
  FCDPM_EXPECTS(if_min.value() >= 0.0, "range must be non-negative");
  FCDPM_EXPECTS(if_min < if_max, "load-following range is empty");
  FCDPM_EXPECTS(alpha - beta * if_max.value() > 0.0,
                "efficiency must stay positive over the range");
}

LinearEfficiencyModel LinearEfficiencyModel::paper_default() {
  return LinearEfficiencyModel(Volt(12.0), 37.5, 0.45, 0.13, Ampere(0.1),
                               Ampere(1.2));
}

double LinearEfficiencyModel::efficiency(Ampere i_f) const {
  FCDPM_EXPECTS(i_f.value() >= 0.0, "output current must be non-negative");
  const double eta = alpha_ - beta_ * i_f.value();
  FCDPM_EXPECTS(eta > 0.0, "efficiency model evaluated past its pole");
  return eta;
}

Ampere LinearEfficiencyModel::stack_current(Ampere i_f) const {
  return Ampere(k() * i_f.value() / efficiency(i_f));
}

bool LinearEfficiencyModel::in_range(Ampere i_f) const {
  return if_min_ <= i_f && i_f <= if_max_;
}

Ampere LinearEfficiencyModel::clamp_to_range(Ampere i_f) const {
  return clamp(i_f, if_min_, if_max_);
}

LinearEfficiencyModel LinearEfficiencyModel::with_range(
    Ampere if_min, Ampere if_max) const {
  return LinearEfficiencyModel(bus_voltage_, zeta_, alpha_, beta_, if_min,
                               if_max);
}

LinearEfficiencyModel LinearEfficiencyModel::with_coefficients(
    double alpha, double beta) const {
  return LinearEfficiencyModel(bus_voltage_, zeta_, alpha, beta, if_min_,
                               if_max_);
}

}  // namespace fcdpm::power
