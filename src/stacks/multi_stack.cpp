#include "stacks/multi_stack.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/text.hpp"

namespace fcdpm::stacks {

std::size_t StacksStats::total_startups() const noexcept {
  std::size_t total = 0;
  for (const StackTotals& s : stacks) {
    total += s.startups;
  }
  return total;
}

double StacksStats::total_delivered_as() const noexcept {
  double total = 0.0;
  for (const StackTotals& s : stacks) {
    total += s.delivered_as;
  }
  return total;
}

double StacksStats::max_wear() const noexcept {
  double worst = 0.0;
  for (const StackTotals& s : stacks) {
    worst = std::max(worst, s.wear);
  }
  return worst;
}

MultiStackFuelSource::MultiStackFuelSource(std::vector<StackUnit> stacks,
                                           Distribution distribution)
    : stacks_(std::move(stacks)),
      distribution_(distribution),
      fuel_as_(stacks_.size(), 0.0) {
  FCDPM_EXPECTS(!stacks_.empty(), "multi-stack source needs >= 1 stack");
  for (const StackUnit& s : stacks_) {
    FCDPM_EXPECTS(
        s.curve().bus_voltage().value() ==
            stacks_.front().curve().bus_voltage().value(),
        "all stacks must share one bus voltage");
  }
}

Ampere MultiStackFuelSource::min_output() const {
  Ampere lowest = stacks_.front().curve().min_output();
  for (std::size_t i = 1; i < stacks_.size(); ++i) {
    lowest = min(lowest, stacks_[i].curve().min_output());
  }
  return lowest;
}

Ampere MultiStackFuelSource::max_output() const {
  double total = 0.0;
  for (const StackUnit& s : stacks_) {
    total += s.derated_ceiling().value();
  }
  return Ampere(total);
}

Ampere MultiStackFuelSource::fuel_current(Ampere i_f) const {
  FCDPM_EXPECTS(i_f.value() >= 0.0, "output current must be non-negative");
  if (i_f.value() == 0.0) {
    return Ampere(0.0);
  }
  distribute(distribution_, i_f.value(), stacks_, scratch_);
  double fuel = 0.0;
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    fuel += stacks_[i].fuel_current(Ampere(scratch_[i])).value();
  }
  return Ampere(fuel);
}

Volt MultiStackFuelSource::bus_voltage() const {
  return stacks_.front().curve().bus_voltage();
}

std::unique_ptr<power::FuelSource> MultiStackFuelSource::clone() const {
  return std::make_unique<MultiStackFuelSource>(*this);
}

void MultiStackFuelSource::note_delivery(Ampere i_f, Seconds duration) {
  if (duration.value() <= 0.0) {
    return;
  }
  // Recompute the split with the pre-accrual wear state — the same
  // shares this segment's fuel_current call saw — then update state, so
  // the *next* segment's split sees the new wear.
  distribute(distribution_, i_f.value(), stacks_, scratch_);
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    if (scratch_[i] > 0.0) {
      fuel_as_[i] += stacks_[i].fuel_current(Ampere(scratch_[i])).value() *
                     duration.value();
    }
    stacks_[i].note_delivery(Ampere(scratch_[i]), duration);
  }
}

void MultiStackFuelSource::reset() {
  for (StackUnit& s : stacks_) {
    s.reset();
  }
  std::fill(fuel_as_.begin(), fuel_as_.end(), 0.0);
}

StacksStats MultiStackFuelSource::stats() const {
  StacksStats out;
  out.distribution = distribution_;
  out.stacks.reserve(stacks_.size());
  for (std::size_t i = 0; i < stacks_.size(); ++i) {
    StackTotals t;
    t.fuel_as = fuel_as_[i];
    t.delivered_as = stacks_[i].state().delivered_as;
    t.startups = stacks_[i].state().startups;
    t.wear = stacks_[i].wear();
    out.stacks.push_back(t);
  }
  return out;
}

std::unique_ptr<MultiStackFuelSource> make_multi_stack(
    const StacksSpec& spec, const power::LinearEfficiencyModel& base) {
  std::vector<StackUnit> units;
  if (!spec.config_csv.empty()) {
    units = load_stack_units(spec.config_csv, base);
  } else {
    FCDPM_EXPECTS(spec.count >= 1, "stack count must be >= 1");
    StackWearConfig wear;
    wear.charge_fade_per_as = spec.charge_fade_per_as;
    wear.cycle_fade = spec.cycle_fade;
    units.assign(spec.count, StackUnit(base, wear));
  }
  return std::make_unique<MultiStackFuelSource>(std::move(units),
                                                spec.distribution);
}

std::vector<StackUnit> load_stack_units(
    const std::string& path, const power::LinearEfficiencyModel& base) {
  const CsvDocument doc = read_csv_file(path, /*has_header=*/true);
  const std::size_t alpha_col = doc.column("alpha");
  const std::size_t beta_col = doc.column("beta");
  const std::size_t min_col = doc.column("if_min_a");
  const std::size_t max_col = doc.column("if_max_a");
  const std::size_t charge_col = doc.column("charge_fade_per_as");
  const std::size_t cycle_col = doc.column("cycle_fade");

  const auto where = [&](std::size_t row) {
    const std::size_t line = doc.line_of(row);
    return path + (line > 0 ? " line " + std::to_string(line)
                            : " row " + std::to_string(row));
  };

  std::vector<StackUnit> units;
  units.reserve(doc.rows.size());
  for (std::size_t k = 0; k < doc.rows.size(); ++k) {
    const CsvRow& row = doc.rows[k];
    const std::size_t needed =
        std::max({alpha_col, beta_col, min_col, max_col, charge_col,
                  cycle_col}) +
        1;
    if (row.size() < needed) {
      throw CsvError(where(k) + ": stack row has too few fields");
    }
    double alpha = 0.0;
    double beta = 0.0;
    double if_min = 0.0;
    double if_max = 0.0;
    StackWearConfig wear;
    if (!parse_double(row[alpha_col], alpha) ||
        !parse_double(row[beta_col], beta) ||
        !parse_double(row[min_col], if_min) ||
        !parse_double(row[max_col], if_max) ||
        !parse_double(row[charge_col], wear.charge_fade_per_as) ||
        !parse_double(row[cycle_col], wear.cycle_fade)) {
      throw CsvError(where(k) + ": non-numeric stack field");
    }
    if (wear.charge_fade_per_as < 0.0 || wear.cycle_fade < 0.0) {
      throw CsvError(where(k) + ": fade rates must be non-negative");
    }
    try {
      const power::LinearEfficiencyModel curve(base.bus_voltage(), base.zeta(),
                                               alpha, beta, Ampere(if_min),
                                               Ampere(if_max));
      units.emplace_back(curve, wear);
    } catch (const PreconditionError& error) {
      throw CsvError(where(k) + ": " + error.what());
    }
  }
  if (units.empty()) {
    throw CsvError(path + ": stack fleet file has no rows");
  }
  return units;
}

}  // namespace fcdpm::stacks
