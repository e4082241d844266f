// The sweep engine under Engine::Batched: the chunked multi-point
// scheduler (merge sets, cascade re-forms, per-point fallbacks for
// storm points and lone points) must reproduce the reference-engine sweep bit for bit
// at any job count, and the batch rollup must account every point.
#include <gtest/gtest.h>

#include <cstring>

#include "par/sweep.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"
#include "sim/result_fields.hpp"

namespace {

using namespace fcdpm;

par::SweepGrid merge_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Asap,
                   sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  grid.rhos = {0.3, 0.7};
  grid.capacities = {Coulomb(1.5), Coulomb(3.0), Coulomb(6.0),
                     Coulomb(24.0)};
  return grid;
}

void expect_identical_sweeps(const par::SweepResult& ref,
                             const par::SweepResult& got) {
  ASSERT_EQ(ref.points.size(), got.points.size());
  for (std::size_t k = 0; k < ref.points.size(); ++k) {
    SCOPED_TRACE(k);
    const sim::SimulationResult& a = ref.points[k].result;
    const sim::SimulationResult& b = got.points[k].result;
    EXPECT_EQ(std::memcmp(&a.totals, &b.totals, sizeof a.totals), 0);
    EXPECT_EQ(a.sleeps, b.sleeps);
    EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
    EXPECT_EQ(a.storage_min.value(), b.storage_min.value());
    EXPECT_EQ(a.storage_max.value(), b.storage_max.value());
    EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
  }
}

TEST(SweepBatchedEngine, ReproducesTheReferenceSweepBitForBit) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.initial_storage = Coulomb(1.0);  // sub-capacity: lanes merge
  const par::SweepGrid grid = merge_grid();

  const par::SweepResult ref = par::run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepResult got = par::run_sweep(base, grid);
  expect_identical_sweeps(ref, got);

  // Every point ran inside a batch task, and the pure capacity lanes
  // actually merged (the perf claim, not just the identity claim).
  EXPECT_EQ(got.stats.points_batched, got.points.size());
  EXPECT_GT(got.stats.batch_merge_sets, 0u);
  EXPECT_GT(got.stats.batch_merged_lane_slots, 0u);
  for (const par::SweepPointResult& point : got.points) {
    EXPECT_EQ(point.engine, sim::Engine::Batched);
  }
}

TEST(SweepBatchedEngine, JobCountDoesNotChangeBatchedResults) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.initial_storage = Coulomb(1.0);
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepGrid grid = merge_grid();

  par::SweepOptions serial;
  serial.jobs = 1;
  const par::SweepResult one = par::run_sweep(base, grid, serial);
  par::SweepOptions parallel;
  parallel.jobs = 4;
  const par::SweepResult four = par::run_sweep(base, grid, parallel);
  expect_identical_sweeps(one, four);
  EXPECT_EQ(one.stats.batch_merge_sets, four.stats.batch_merge_sets);
  EXPECT_EQ(one.stats.batch_merged_lane_slots,
            four.stats.batch_merged_lane_slots);
  EXPECT_EQ(one.stats.batch_splits, four.stats.batch_splits);
}

TEST(SweepBatchedEngine, StormPointsFallBackPerPointAndStayIdentical) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.initial_storage = Coulomb(1.0);
  par::SweepGrid grid = merge_grid();
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.storm_seeds = {0, 7};
  grid.storm_faults = 6;

  const par::SweepResult ref = par::run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepResult got = par::run_sweep(base, grid);
  expect_identical_sweeps(ref, got);

  // Storm points are batch-ineligible (fault injection) and run alone on
  // the reference loop. The plan puts them after the fault-free points,
  // which still batch by policy and rho.
  EXPECT_EQ(got.stats.points_batched, got.points.size() / 2);
  EXPECT_GT(got.stats.batch_merge_sets, 0u);
  for (const par::SweepPointResult& point : got.points) {
    EXPECT_EQ(point.engine, point.point.storm_seed == 0
                                ? sim::Engine::Batched
                                : sim::Engine::Reference);
  }
}

// Options that keep every lane of a task off the batch loop send the
// whole task to run_point, one lane at a time: profile recording lands
// each point on the reference loop, which reproduces the reference
// sweep exactly.
TEST(SweepBatchedEngine, OffLoopOptionsRunEveryLaneAlone) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.initial_storage = Coulomb(1.0);
  base.simulation.record_profiles = true;
  const par::SweepGrid grid = merge_grid();

  const par::SweepResult ref = par::run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Batched;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    par::SweepOptions options;
    options.jobs = jobs;
    const par::SweepResult got = par::run_sweep(base, grid, options);
    expect_identical_sweeps(ref, got);
    EXPECT_EQ(got.stats.points_batched, 0u);
    EXPECT_EQ(got.stats.batch_merge_sets, 0u);
    for (std::size_t k = 0; k < got.points.size(); ++k) {
      EXPECT_EQ(got.points[k].engine, sim::Engine::Reference);
      EXPECT_TRUE(sim::same_result(got.points[k].result, ref.points[k].result));
    }
  }
}

}  // namespace
