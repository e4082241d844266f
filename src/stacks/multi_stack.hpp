// MultiStackFuelSource: N FC stacks behind the single FuelSource
// interface the hybrid integrates against. fuel_current splits the
// shared setpoint IF into per-stack shares with the configured
// distribution policy and sums the per-stack (degradation-adjusted)
// fuel currents; note_delivery recomputes the same shares and accrues
// per-stack delivered charge, on/off cycles and fuel, so degradation
// evolves segment by segment and the next segment's split sees it.
//
// The deliverable envelope (`max_output`) is the sum of per-stack
// derated ceilings — this is what cap::Governor sees as fc_max, so a
// wearing fleet shrinks the power-cap budget automatically.
//
// Bit-identity: an N=1 source with the paper curve takes the same
// clamp + stack_current path as LinearFuelSource (distribute()
// short-circuits, fade guards return nominal bits, the 0.0-seeded sums
// are exact), so every existing single-stack gate keeps passing. The
// hot engine's lane only compiles plain LinearFuelSource runs; a
// multi-stack run fails lane eligibility and both engines execute the
// identical reference path.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "power/hybrid.hpp"
#include "stacks/distribution.hpp"
#include "stacks/stack.hpp"

namespace fcdpm::stacks {

/// Per-stack accounting surfaced in SimulationResult.
struct StackTotals {
  double fuel_as = 0.0;       ///< fuel charge burned by this stack
  double delivered_as = 0.0;  ///< output charge delivered by this stack
  std::size_t startups = 0;   ///< off -> on transitions
  double wear = 0.0;          ///< final accumulated wear
};

/// Whole-fleet accounting (present in results iff the run's source was
/// a MultiStackFuelSource).
struct StacksStats {
  Distribution distribution = Distribution::Proportional;
  std::vector<StackTotals> stacks;

  [[nodiscard]] std::size_t total_startups() const noexcept;
  [[nodiscard]] double total_delivered_as() const noexcept;
  [[nodiscard]] double max_wear() const noexcept;
};

class MultiStackFuelSource final : public power::FuelSource {
 public:
  MultiStackFuelSource(std::vector<StackUnit> stacks,
                       Distribution distribution);

  [[nodiscard]] Ampere min_output() const override;
  /// Sum of per-stack derated ceilings: the live deliverable envelope.
  [[nodiscard]] Ampere max_output() const override;
  [[nodiscard]] Ampere fuel_current(Ampere i_f) const override;
  [[nodiscard]] Volt bus_voltage() const override;
  [[nodiscard]] std::unique_ptr<power::FuelSource> clone() const override;
  void note_delivery(Ampere i_f, Seconds duration) override;
  void reset() override;

  [[nodiscard]] Distribution distribution() const noexcept {
    return distribution_;
  }
  [[nodiscard]] const std::vector<StackUnit>& stacks() const noexcept {
    return stacks_;
  }
  /// Per-stack totals snapshot.
  [[nodiscard]] StacksStats stats() const;

 private:
  std::vector<StackUnit> stacks_;
  Distribution distribution_;
  std::vector<double> fuel_as_;          // per-stack accumulated fuel
  mutable std::vector<double> scratch_;  // shares scratch buffer
};

/// CLI/sweep-facing spec: everything needed to build one multi-stack
/// source per simulated point.
struct StacksSpec {
  bool enabled = false;
  /// Number of identical copies of the base curve (ignored when
  /// `config_csv` names a per-stack fleet file).
  std::size_t count = 1;
  Distribution distribution = Distribution::Proportional;
  /// Homogeneous wear rates applied to every base-curve copy.
  double charge_fade_per_as = 0.0;
  double cycle_fade = 0.0;
  /// Optional CSV (alpha,beta,if_min_a,if_max_a,charge_fade_per_as,
  /// cycle_fade — one row per stack) describing a heterogeneous fleet;
  /// bus voltage and zeta come from the base model.
  std::string config_csv;
};

/// Build the fleet a spec describes on top of the base (paper) curve.
[[nodiscard]] std::unique_ptr<MultiStackFuelSource> make_multi_stack(
    const StacksSpec& spec, const power::LinearEfficiencyModel& base);

/// Parse a heterogeneous-fleet CSV; throws CsvError on malformed input.
[[nodiscard]] std::vector<StackUnit> load_stack_units(
    const std::string& path, const power::LinearEfficiencyModel& base);

}  // namespace fcdpm::stacks
