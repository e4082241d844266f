// Ablation A3: charge-storage capacity. The paper's 1 F supercap gives
// 6 A-s of buffer; this sweep shows how FC-DPM's advantage depends on
// that headroom (the capacity constraint of Eq. (12) binds below the
// flat optimum's swing). Points are fanned across the parallel worker
// pool; each point keeps the original per-capacity reserve
// (Cini = capacity / 6), so the numbers are bit-identical to the old
// serial loop.
#include <cstdio>
#include <iostream>
#include <vector>

#include "par/sweep.hpp"
#include "par/worker_pool.hpp"
#include "report/table.hpp"
#include "sim/experiments.hpp"

namespace {

using namespace fcdpm;

const std::vector<double> kCapacities = {1.5, 3.0, 6.0, 9.0, 12.0, 24.0,
                                         48.0};

void sweep(const char* title, const sim::ExperimentConfig& config,
           par::WorkerPool& pool) {
  // One point per (policy, capacity); FC-DPM first, grid order.
  const std::vector<sim::PolicyKind> policies = {sim::PolicyKind::FcDpm,
                                                 sim::PolicyKind::Asap};
  std::vector<par::SweepPoint> points;
  points.reserve(policies.size() * kCapacities.size());
  for (const sim::PolicyKind policy : policies) {
    for (const double capacity : kCapacities) {
      par::SweepPoint point;
      point.policy = policy;
      point.rho = config.rho;
      point.capacity = Coulomb(capacity);
      points.push_back(point);
    }
  }

  std::vector<sim::SimulationResult> results(points.size());
  pool.run_indexed(points.size(), [&](std::size_t k) {
    sim::ExperimentConfig base = config;
    // Keep the same relative reserve the paper experiments use.
    base.initial_storage = points[k].capacity / 6.0;
    base.simulation.initial_storage = base.initial_storage;
    results[k] = par::run_point(base, points[k], 0, nullptr).result;
  });

  report::Table table(
      title, {"capacity (A-s)", "FC-DPM fuel", "vs ASAP", "bled (A-s)",
              "peak storage (A-s)"});
  for (std::size_t k = 0; k < kCapacities.size(); ++k) {
    const sim::SimulationResult& fcdpm = results[k];
    const sim::SimulationResult& asap = results[kCapacities.size() + k];
    table.add_row({report::cell(kCapacities[k], 1),
                   report::cell(fcdpm.fuel().value(), 1),
                   report::percent_cell(sim::fuel_saving(fcdpm, asap)),
                   report::cell(fcdpm.totals.bled.value(), 1),
                   report::cell(fcdpm.storage_max.value(), 1)});
  }
  std::cout << table << '\n';
}

}  // namespace

int main() {
  par::WorkerPool pool(0);  // hardware concurrency
  sweep("Ablation A3 — storage capacity, Experiment 1 (camcorder)",
        sim::experiment1_config(), pool);
  sweep("Ablation A3 — storage capacity, Experiment 2 (synthetic)",
        sim::experiment2_config(), pool);
  std::printf("Sweep ran on %zu worker threads.\n", pool.thread_count());
  std::printf(
      "Reading: once the buffer holds the flat optimum's per-slot swing\n"
      "(~4 A-s for the camcorder, ~8 A-s for the synthetic load), extra\n"
      "capacity stops paying; below it the optimizer degrades gracefully\n"
      "toward load following.\n");
  return 0;
}
