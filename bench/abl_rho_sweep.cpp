// Ablation A2: sensitivity to the prediction factor rho (Eq. (14)) on
// both experiments. The paper fixes rho = 0.5; this sweep shows how much
// that choice matters. Evaluated through the parallel sweep engine
// (par::run_sweep) — results are bit-identical to the serial run_policy
// loop (tests/par/test_sweep.cpp holds it to that).
#include <cstdio>
#include <iostream>
#include <vector>

#include "par/sweep.hpp"
#include "report/table.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"

namespace {

using namespace fcdpm;

const std::vector<double> kRhos = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0};

/// Grid order is policy -> rho; returns the result for (policy, rho).
const sim::SimulationResult& at(const par::SweepResult& sweep,
                                std::size_t policy_index,
                                std::size_t rho_index) {
  return sweep.points[policy_index * kRhos.size() + rho_index].result;
}

par::SweepResult sweep_experiment(const sim::ExperimentConfig& config) {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Asap};
  grid.rhos = kRhos;
  par::SweepOptions options;
  options.jobs = 0;  // hardware concurrency
  return par::run_sweep(config, grid, options);
}

}  // namespace

int main() {
  report::Table table(
      "Ablation A2 — prediction factor rho (FC-DPM fuel, A-s; "
      "saving vs same-rho ASAP-DPM)",
      {"rho", "Exp 1 fuel", "Exp 1 saving", "Exp 2 fuel",
       "Exp 2 saving"});

  const par::SweepResult e1 = sweep_experiment(sim::experiment1_config());
  const par::SweepResult e2 = sweep_experiment(sim::experiment2_config());

  for (std::size_t k = 0; k < kRhos.size(); ++k) {
    const sim::SimulationResult& f1 = at(e1, 0, k);
    const sim::SimulationResult& a1 = at(e1, 1, k);
    const sim::SimulationResult& f2 = at(e2, 0, k);
    const sim::SimulationResult& a2 = at(e2, 1, k);
    table.add_row({report::cell(kRhos[k], 2),
                   report::cell(f1.fuel().value(), 1),
                   report::percent_cell(sim::fuel_saving(f1, a1)),
                   report::cell(f2.fuel().value(), 1),
                   report::percent_cell(sim::fuel_saving(f2, a2))});
  }

  std::cout << table << '\n';
  std::printf(
      "Sweep: %zu points at %zu jobs, %.2f s wall (%.1f points/s)\n",
      e1.stats.points + e2.stats.points, e1.stats.jobs,
      e1.stats.wall_seconds + e2.stats.wall_seconds,
      (static_cast<double>(e1.stats.points + e2.stats.points)) /
          (e1.stats.wall_seconds + e2.stats.wall_seconds));
  std::printf(
      "Reading: any rho < 1 adapts; rho = 1 never updates the initial\n"
      "estimate and is the only clearly bad setting. The paper's 0.5 is\n"
      "a safe middle.\n");
  return 0;
}
