// The sweep engine under Engine::Hot: a grid run through hot::simulate
// (one shared compiled trace) must reproduce the reference-engine sweep
// bit for bit, storm points included (those fall back inside
// hot::simulate), at any job count.
#include <gtest/gtest.h>

#include <cstring>

#include "hot/compiled_trace.hpp"
#include "par/sweep.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"

namespace {

using namespace fcdpm;

par::SweepGrid small_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(6.0), Coulomb(3.0)};
  grid.storm_seeds = {0, 7};
  grid.storm_faults = 6;
  return grid;
}

void expect_identical_sweeps(const par::SweepResult& ref,
                             const par::SweepResult& hot) {
  ASSERT_EQ(ref.points.size(), hot.points.size());
  for (std::size_t k = 0; k < ref.points.size(); ++k) {
    SCOPED_TRACE(k);
    const sim::SimulationResult& a = ref.points[k].result;
    const sim::SimulationResult& b = hot.points[k].result;
    EXPECT_EQ(std::memcmp(&a.totals, &b.totals, sizeof a.totals), 0);
    EXPECT_EQ(a.sleeps, b.sleeps);
    EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
    EXPECT_EQ(a.storage_min.value(), b.storage_min.value());
    EXPECT_EQ(a.storage_max.value(), b.storage_max.value());
    EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
  }
}

TEST(SweepHotEngine, ReproducesTheReferenceSweepBitForBit) {
  sim::ExperimentConfig base = sim::experiment1_config();
  const par::SweepGrid grid = small_grid();

  const par::SweepResult ref = par::run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Hot;
  const par::SweepResult hot = par::run_sweep(base, grid);
  expect_identical_sweeps(ref, hot);
}

TEST(SweepHotEngine, JobCountDoesNotChangeHotResults) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  const par::SweepGrid grid = small_grid();

  par::SweepOptions serial;
  serial.jobs = 1;
  const par::SweepResult one = par::run_sweep(base, grid, serial);
  par::SweepOptions parallel;
  parallel.jobs = 4;
  const par::SweepResult four = par::run_sweep(base, grid, parallel);
  expect_identical_sweeps(one, four);
}

TEST(SweepHotEngine, RunPointCompilesLocallyWithoutASharedTrace) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  par::SweepPoint point;
  point.policy = sim::PolicyKind::FcDpm;
  point.rho = 0.5;
  point.capacity = Coulomb(6.0);

  // Shared compiled trace (what run_sweep passes)...
  const hot::CompiledTrace compiled(base.trace, base.device);
  const par::SweepPointResult shared =
      par::run_point(base, point, 6, nullptr, nullptr, 0, &compiled);
  // ...and the resilience retry path, which passes none.
  const par::SweepPointResult local =
      par::run_point(base, point, 6, nullptr);
  EXPECT_EQ(std::memcmp(&shared.result.totals, &local.result.totals,
                        sizeof shared.result.totals),
            0);
  EXPECT_EQ(shared.result.sleeps, local.result.sleeps);
}

}  // namespace
