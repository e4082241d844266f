// Test helper: change exactly one entry of a result's field lists
// (sim/result_fields.hpp) to a different value that still journals and
// decodes. Tests walk k = 0, 1, ... until forge_entry returns "" to
// cover every entry without naming any; a new field kind fails to
// compile here until it gets a forge overload.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/result_fields.hpp"

namespace fcdpm::forging {

template <std::integral T>
void forge(T& value) {
  ++value;
}

inline void forge(double& value) {
  value = std::nextafter(value, std::numeric_limits<double>::infinity());
}

template <typename Tag>
void forge(detail::Quantity<Tag>& value) {
  double raw = value.value();
  forge(raw);
  value = detail::Quantity<Tag>(raw);
}

inline void forge(std::string& value) { value += "~"; }

inline void forge(std::vector<double>& values) { values.push_back(0.5); }

template <typename T>
void forge(sim::Ranged<T> field) {
  field.value = static_cast<T>(
      (static_cast<std::uint64_t>(field.value) + 1) % (field.max + 1));
}

template <typename Stacks>
void forge(sim::StackCount<Stacks> field) {
  field.stacks.emplace_back();
}

template <typename Stacks, typename Member>
void forge(sim::StackColumn<Stacks, Member> field) {
  forge(field.stacks.front().*field.member);
}

template <typename Slot, typename Token>
void forge(sim::FirstViolation<Slot, Token> field) {
  ++field.slot;
  field.token += "~";  // a clean run's empty token becomes present
}

/// Forge entry `k` of `result` (core fields, then each present block in
/// list order) and return its key; "" when `k` is past the last entry.
inline std::string forge_entry(sim::SimulationResult& result, std::size_t k) {
  std::string key;
  std::size_t n = 0;
  const auto visit = [&](std::string_view name, auto&& field) {
    if (n++ == k) {
      forge(field);
      key = name;
    }
  };
  sim::for_each_core_field(visit, result);
  sim::for_each_block(
      [&](std::string_view, auto& block) {
        if (block.has_value()) {
          sim::for_each_field(visit, *block);
        }
      },
      result);
  return key;
}

}  // namespace fcdpm::forging
