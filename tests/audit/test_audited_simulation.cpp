// End-to-end auditing: attaching an auditor never changes results
// (both engines, any job count), strict mode runs clean on healthy
// configurations, and a tampered hot lane self-heals onto the
// reference engine exactly once with a bit-identical replay.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "audit/audit.hpp"
#include "par/solve_cache.hpp"
#include "par/sweep.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"

namespace fcdpm::audit {
namespace {

sim::ExperimentConfig small_config(Mode mode) {
  sim::ExperimentConfig config = sim::experiment2_config();
  config.trace = config.trace.truncated(Seconds(400.0));
  config.audit.mode = mode;
  return config;
}

par::SweepGrid small_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.rhos = {0.4, 0.6};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  return grid;
}

void expect_same_observables(const sim::SimulationResult& a,
                             const sim::SimulationResult& b) {
  EXPECT_EQ(a.totals.fuel.value(), b.totals.fuel.value());
  EXPECT_EQ(a.totals.delivered_energy.value(),
            b.totals.delivered_energy.value());
  EXPECT_EQ(a.totals.bled.value(), b.totals.bled.value());
  EXPECT_EQ(a.totals.unserved.value(), b.totals.unserved.value());
  EXPECT_EQ(a.totals.duration.value(), b.totals.duration.value());
  EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
  EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.sleeps, b.sleeps);
}

void expect_same_audit(const AuditStats& a, const AuditStats& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.slots_audited, b.slots_audited);
  EXPECT_EQ(a.segments_audited, b.segments_audited);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.engine_fallbacks, b.engine_fallbacks);
  EXPECT_EQ(a.first_violation, b.first_violation);
}

TEST(AuditedSimulation, StrictAuditIsBitIdenticalToOffOnReference) {
  const sim::SimulationResult off =
      sim::run_policy(sim::PolicyKind::FcDpm, small_config(Mode::Off));
  const sim::SimulationResult strict =
      sim::run_policy(sim::PolicyKind::FcDpm, small_config(Mode::Strict));

  expect_same_observables(off, strict);
  EXPECT_FALSE(off.audit.has_value());
  ASSERT_TRUE(strict.audit.has_value());
  EXPECT_TRUE(strict.audit->clean());
  EXPECT_EQ(strict.audit->slots_audited, strict.slots);
  EXPECT_GT(strict.audit->segments_audited, 0u);
  EXPECT_GT(strict.audit->checks_run, strict.slots);
}

TEST(AuditedSimulation, SampleModeAuditsASubsetAndStaysClean) {
  sim::ExperimentConfig config = small_config(Mode::Sample);
  config.audit.sample_period = 8;
  const sim::SimulationResult result =
      sim::run_policy(sim::PolicyKind::FcDpm, config);
  ASSERT_TRUE(result.audit.has_value());
  EXPECT_TRUE(result.audit->clean());
  EXPECT_GT(result.audit->slots_audited, 0u);
  EXPECT_LT(result.audit->slots_audited, result.slots);
}

TEST(AuditedSimulation, StrictSweepBitIdenticalAcrossEnginesAndJobs) {
  // The acceptance gate: strict auditing is bit-identical to audit-off
  // on both engines at jobs 1, 2 and 8 — and the AuditStats themselves
  // are deterministic (independent of worker count and engine... the
  // hot lane skips segment checks, so stats are compared per-engine).
  const par::SweepGrid grid = small_grid();
  for (const sim::Engine engine : {sim::Engine::Reference, sim::Engine::Hot}) {
    sim::ExperimentConfig off = small_config(Mode::Off);
    off.simulation.engine = engine;
    sim::ExperimentConfig strict = small_config(Mode::Strict);
    strict.simulation.engine = engine;

    par::SweepOptions serial;
    serial.jobs = 1;
    const par::SweepResult baseline = par::run_sweep(off, grid, serial);

    std::optional<par::SweepResult> first_strict;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
      par::SweepOptions options;
      options.jobs = jobs;
      const par::SweepResult audited =
          par::run_sweep(strict, grid, options);
      ASSERT_EQ(audited.points.size(), baseline.points.size());
      for (std::size_t k = 0; k < audited.points.size(); ++k) {
        expect_same_observables(baseline.points[k].result,
                                audited.points[k].result);
        ASSERT_TRUE(audited.points[k].result.audit.has_value());
        EXPECT_TRUE(audited.points[k].result.audit->clean())
            << "engine=" << static_cast<int>(engine) << " jobs=" << jobs
            << " point=" << k << " first="
            << audited.points[k].result.audit->first_violation;
      }
      if (!first_strict.has_value()) {
        first_strict = audited;
        continue;
      }
      for (std::size_t k = 0; k < audited.points.size(); ++k) {
        expect_same_audit(*first_strict->points[k].result.audit,
                          *audited.points[k].result.audit);
      }
    }
  }
}

TEST(AuditedSimulation, SharedCacheSpotChecksMatchFreshSolves) {
  // With a shared memo attached, the verifying wrapper re-solves every
  // sampled call; on a healthy build every one must bit-match. The
  // cadence is cranked up so short runs like this one actually check
  // (the default period skips runs with few solve calls by design).
  sim::ExperimentConfig config = small_config(Mode::Strict);
  config.audit.cache_check_period = 2;
  par::SharedSolveCache cache;
  par::SweepOptions options;
  options.jobs = 2;
  options.cache = &cache;
  const par::SweepResult sweep =
      par::run_sweep(config, small_grid(), options);
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
  for (const par::SweepPointResult& p : sweep.points) {
    ASSERT_TRUE(p.result.audit.has_value());
    EXPECT_EQ(p.result.audit->cache_violations, 0u);
    EXPECT_TRUE(p.result.audit->clean());
  }
}

TEST(AuditedSimulation, TamperedHotLaneSelfHealsExactlyOnce) {
  sim::ExperimentConfig hot = small_config(Mode::Strict);
  hot.simulation.engine = sim::Engine::Hot;
  hot.audit.tamper_slot = 12;  // the 400 s truncation runs 25 slots

  par::SweepPoint point;
  point.policy = sim::PolicyKind::FcDpm;
  point.rho = 0.5;
  point.capacity = Coulomb(6.0);

  const par::SweepPointResult healed =
      par::run_point(hot, point, 0, nullptr);

  // The fallback is recorded: one engine fallback, the hot auditor's
  // violation carried over, and the run no longer counts as hot.
  ASSERT_TRUE(healed.result.audit.has_value());
  EXPECT_EQ(healed.result.audit->engine_fallbacks, 1u);
  EXPECT_EQ(healed.result.audit->violations, 1u);
  EXPECT_EQ(healed.result.audit->first_violation, "delivered_integral");
  EXPECT_EQ(healed.result.audit->first_violation_slot, 12u);
  EXPECT_EQ(healed.engine, sim::Engine::Reference);

  // The healed observables are the reference engine's, bit for bit.
  sim::ExperimentConfig reference = small_config(Mode::Off);
  const par::SweepPointResult expected =
      par::run_point(reference, point, 0, nullptr);
  expect_same_observables(expected.result, healed.result);
}

TEST(AuditedSimulation, TamperNeverFiresOnReferenceOnlyRuns) {
  // The tamper hook models a hot-engine defect; a reference run (the
  // self-heal target) must ignore it even when the spec carries it.
  sim::ExperimentConfig config = small_config(Mode::Strict);
  config.audit.tamper_slot = 12;
  const sim::SimulationResult result =
      sim::run_policy(sim::PolicyKind::FcDpm, config);
  ASSERT_TRUE(result.audit.has_value());
  EXPECT_TRUE(result.audit->clean());
  EXPECT_EQ(result.audit->engine_fallbacks, 0u);
}

}  // namespace
}  // namespace fcdpm::audit
