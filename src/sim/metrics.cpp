#include "sim/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/contracts.hpp"
#include "sim/result_fields.hpp"

namespace fcdpm::sim {

namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One field of each side, by kind (see result_fields.hpp).
template <typename T>
bool same_value(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, double>) {
    return same_bits(a, b);
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_bits);
  } else if constexpr (requires { a.value(); }) {  // unit quantity
    return same_bits(a.value(), b.value());
  } else if constexpr (requires { a.token; }) {  // FirstViolation
    return a.slot == b.slot && a.token == b.token;
  } else if constexpr (requires { a.member; }) {  // StackColumn
    return std::equal(a.stacks.begin(), a.stacks.end(), b.stacks.begin(),
                      b.stacks.end(), [&](const auto& x, const auto& y) {
                        return same_value(x.*a.member, y.*a.member);
                      });
  } else if constexpr (requires { a.stacks; }) {  // StackCount
    return a.stacks.size() == b.stacks.size();
  } else if constexpr (requires { a.max; }) {  // Ranged
    return a.value == b.value;
  } else {  // integers and strings
    return a == b;
  }
}

}  // namespace

bool same_result(const SimulationResult& a, const SimulationResult& b) {
  bool same = true;
  const auto compare = [&same](std::string_view, const auto& x,
                               const auto& y) {
    same = same && same_value(x, y);
  };
  for_each_core_field(compare, a, b);
  for_each_block(
      [&](std::string_view, const auto& x, const auto& y) {
        if (x.has_value() != y.has_value()) {
          same = false;
        } else if (same && x.has_value()) {
          for_each_field(compare, *x, *y);
        }
      },
      a, b);
  return same;
}

Ampere SimulationResult::average_fuel_current() const {
  if (totals.duration.value() <= 0.0) {
    return Ampere(0.0);
  }
  return totals.fuel / totals.duration;
}

Seconds SimulationResult::lifetime_on(Coulomb tank) const {
  FCDPM_EXPECTS(tank.value() > 0.0, "tank must be positive");
  const Ampere burn = average_fuel_current();
  FCDPM_EXPECTS(burn.value() > 0.0, "no fuel burned; lifetime unbounded");
  return tank / burn;
}

double normalized_fuel(const SimulationResult& result,
                       const SimulationResult& baseline) {
  FCDPM_EXPECTS(baseline.fuel().value() > 0.0,
                "baseline fuel must be positive");
  return result.fuel() / baseline.fuel();
}

double lifetime_extension(const SimulationResult& result,
                          const SimulationResult& other) {
  FCDPM_EXPECTS(result.fuel().value() > 0.0, "fuel must be positive");
  return other.fuel() / result.fuel();
}

double fuel_saving(const SimulationResult& result,
                   const SimulationResult& other) {
  FCDPM_EXPECTS(other.fuel().value() > 0.0, "fuel must be positive");
  return 1.0 - result.fuel() / other.fuel();
}

}  // namespace fcdpm::sim
