// Differential gates for the multi-stack source: an N=1 fleet must be
// bit-identical to the plain single-stack path on every policy, engine
// and job count, and the distribution policies must order as designed
// on heterogeneous and degraded fleets.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "hot/engine.hpp"
#include "par/sweep.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "stacks/multi_stack.hpp"

namespace {

using namespace fcdpm;

void expect_same_result(const sim::SimulationResult& a,
                        const sim::SimulationResult& b) {
  EXPECT_EQ(std::memcmp(&a.totals, &b.totals, sizeof a.totals), 0);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.sleeps, b.sleeps);
  EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
  EXPECT_EQ(a.storage_min.value(), b.storage_min.value());
  EXPECT_EQ(a.storage_max.value(), b.storage_max.value());
  EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
}

void expect_identical_sweeps(const par::SweepResult& a,
                             const par::SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    SCOPED_TRACE(k);
    expect_same_result(a.points[k].result, b.points[k].result);
  }
}

// The paper-curve single stack, reached through the multi-stack layer,
// must reproduce the plain LinearFuelSource run bit for bit — across
// every policy, both engines, and every distribution policy (all of
// which short-circuit at N=1).
TEST(StacksSimulation, SingleStackBitIdenticalAcrossPoliciesAndEngines) {
  const sim::ExperimentConfig plain = sim::experiment1_config();
  const sim::PolicyKind kinds[] = {
      sim::PolicyKind::Conv, sim::PolicyKind::Asap, sim::PolicyKind::FcDpm,
      sim::PolicyKind::Oracle};
  const sim::Engine engines[] = {sim::Engine::Reference, sim::Engine::Hot};
  const stacks::Distribution dists[] = {stacks::Distribution::Proportional,
                                        stacks::Distribution::Waterfill,
                                        stacks::Distribution::Health};
  for (const sim::Engine engine : engines) {
    for (const sim::PolicyKind kind : kinds) {
      for (const stacks::Distribution dist : dists) {
        SCOPED_TRACE(static_cast<int>(engine));
        SCOPED_TRACE(sim::to_string(kind));
        SCOPED_TRACE(stacks::to_string(dist));
        sim::ExperimentConfig off = plain;
        off.simulation.engine = engine;
        sim::ExperimentConfig on = off;
        on.stacks.enabled = true;
        on.stacks.count = 1;
        on.stacks.distribution = dist;

        par::SweepPoint point;
        point.policy = kind;
        point.rho = 0.5;
        point.capacity = Coulomb(6.0);
        const par::SweepPointResult ref = par::run_point(off, point, 0, nullptr);
        const par::SweepPointResult multi = par::run_point(on, point, 0, nullptr);
        expect_same_result(ref.result, multi.result);
        ASSERT_TRUE(multi.result.stacks.has_value());
        EXPECT_EQ(multi.result.stacks->stacks.size(), 1u);
        EXPECT_FALSE(ref.result.stacks.has_value());
      }
    }
  }
}

// A multi-stack source fails hot-lane eligibility, so both engines run
// the identical reference path — storms and degradation included.
TEST(StacksSimulation, EnginesAndJobCountsAgreeWithStacksOn) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.stacks.enabled = true;
  base.stacks.count = 3;
  base.stacks.distribution = stacks::Distribution::Waterfill;
  base.stacks.charge_fade_per_as = 1e-5;
  base.stacks.cycle_fade = 1e-3;

  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5};
  grid.storm_seeds = {0, 7};
  grid.storm_faults = 6;

  const par::SweepResult ref = par::run_sweep(base, grid);
  sim::ExperimentConfig hot_base = base;
  hot_base.simulation.engine = sim::Engine::Hot;
  const par::SweepResult hot = par::run_sweep(hot_base, grid);
  expect_identical_sweeps(ref, hot);

  par::SweepOptions four;
  four.jobs = 4;
  const par::SweepResult parallel = par::run_sweep(base, grid, four);
  expect_identical_sweeps(ref, parallel);
}

TEST(StacksSimulation, MultiStackRunsFailHotLaneEligibility) {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.stacks.enabled = true;
  config.stacks.count = 2;
  power::HybridPowerSource multi = sim::make_hybrid(config);
  const sim::EngineChoice multi_choice =
      sim::choose_engine(sim::Engine::Hot, multi, config.simulation);
  EXPECT_EQ(multi_choice.engine, sim::Engine::Reference);
  EXPECT_EQ(multi_choice.reason, sim::EngineReason::NonPaperHybrid);
  config.stacks.enabled = false;
  power::HybridPowerSource plain = sim::make_hybrid(config);
  EXPECT_EQ(sim::choose_engine(sim::Engine::Hot, plain, config.simulation)
                .engine,
            sim::Engine::Hot);
}

sim::SimulationResult run_fcdpm_with_fleet(
    const sim::ExperimentConfig& config, std::vector<stacks::StackUnit> fleet,
    stacks::Distribution distribution) {
  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc_policy =
      sim::make_fc_policy(sim::PolicyKind::FcDpm, config);
  power::HybridPowerSource hybrid(
      std::make_unique<stacks::MultiStackFuelSource>(std::move(fleet),
                                                     distribution),
      std::make_unique<power::SuperCapacitor>(config.storage_capacity, 1.0));
  sim::SimulationOptions options = config.simulation;
  options.initial_storage = config.initial_storage;
  return sim::simulate(config.trace, dpm_policy, *fc_policy, hybrid,
                       options);
}

// The acceptance fixture: two stacks, one on the paper curve and one
// less efficient everywhere. Efficiency-optimal water-filling must burn
// strictly less fuel than the proportional baseline.
TEST(StacksSimulation, WaterfillBeatsProportionalOnAHeterogeneousFleet) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const power::LinearEfficiencyModel good(Volt(12.0), 37.5, 0.45, 0.13,
                                          Ampere(0.1), Ampere(1.2));
  const power::LinearEfficiencyModel poor(Volt(12.0), 37.5, 0.36, 0.13,
                                          Ampere(0.1), Ampere(1.2));
  const std::vector<stacks::StackUnit> fleet = {
      stacks::StackUnit(good, {}), stacks::StackUnit(poor, {})};

  const sim::SimulationResult prop = run_fcdpm_with_fleet(
      config, fleet, stacks::Distribution::Proportional);
  const sim::SimulationResult water = run_fcdpm_with_fleet(
      config, fleet, stacks::Distribution::Waterfill);
  ASSERT_TRUE(prop.stacks.has_value());
  ASSERT_TRUE(water.stacks.has_value());
  EXPECT_LT(water.totals.fuel.value(), prop.totals.fuel.value());
  // Water-filling loads the efficient stack harder than the poor one.
  EXPECT_GT(water.stacks->stacks[0].delivered_as,
            water.stacks->stacks[1].delivered_as);
}

// Health-aware distribution must shift delivered charge off the most
// degraded stack relative to the proportional split.
TEST(StacksSimulation, HealthAwareRestsTheMostDegradedStack) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const power::LinearEfficiencyModel curve(Volt(12.0), 37.5, 0.45, 0.13,
                                           Ampere(0.1), Ampere(1.2));
  stacks::StackUnit worn(curve, {1e-3, 0.0});
  worn.note_delivery(Ampere(1.0), Seconds(500.0));  // wear 0.5
  const std::vector<stacks::StackUnit> fleet = {
      worn, stacks::StackUnit(curve, {1e-3, 0.0})};

  const sim::SimulationResult prop = run_fcdpm_with_fleet(
      config, fleet, stacks::Distribution::Proportional);
  const sim::SimulationResult health = run_fcdpm_with_fleet(
      config, fleet, stacks::Distribution::Health);
  ASSERT_TRUE(prop.stacks.has_value());
  ASSERT_TRUE(health.stacks.has_value());
  const double prop_worn_share =
      prop.stacks->stacks[0].delivered_as /
      prop.stacks->total_delivered_as();
  const double health_worn_share =
      health.stacks->stacks[0].delivered_as /
      health.stacks->total_delivered_as();
  EXPECT_LT(health_worn_share, prop_worn_share);
  EXPECT_LT(health.stacks->stacks[0].delivered_as,
            health.stacks->stacks[1].delivered_as);
}

}  // namespace
