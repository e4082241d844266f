// Differential suite for fcdpm::batch: every lane of a batch — merged,
// split or audited — must be bit-identical to running that
// point alone on the reference simulator, and the merge machinery
// (sets, cascade re-forms, journals) is pure bookkeeping that never
// leaks into results. One CompiledTrace is shared read-only by many
// concurrent batches (the sweep scheduler's usage), which makes this
// binary the TSan probe for the batched path.
#include "batch/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "common/contracts.hpp"
#include "hot/compiled_trace.hpp"
#include "hot/engine.hpp"
#include "obs/context.hpp"
#include "obs/profiler.hpp"
#include "sim/cancellation.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/slot_simulator.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace fcdpm;

/// Per-lane wiring for one batched point: the capacity-adjusted config,
/// its FC policy, and its hybrid (the engine mutates both).
struct LaneRig {
  sim::ExperimentConfig config;
  std::unique_ptr<core::FcOutputPolicy> fc;
  power::HybridPowerSource hybrid;

  LaneRig(sim::ExperimentConfig base, sim::PolicyKind kind, Coulomb capacity)
      : config(std::move(base)),
        fc(nullptr),
        hybrid((config.storage_capacity = capacity,
                config.initial_storage =
                    min(config.initial_storage, capacity),
                sim::make_hybrid(config))) {
    fc = sim::make_fc_policy(kind, config);
  }
};

void expect_identical_results(const sim::SimulationResult& ref,
                              const sim::SimulationResult& got) {
  EXPECT_EQ(std::memcmp(&ref.totals, &got.totals, sizeof ref.totals), 0);
  EXPECT_EQ(ref.slots, got.slots);
  EXPECT_EQ(ref.sleeps, got.sleeps);
  EXPECT_EQ(ref.latency_added.value(), got.latency_added.value());
  EXPECT_EQ(ref.storage_end.value(), got.storage_end.value());
  EXPECT_EQ(ref.storage_min.value(), got.storage_min.value());
  EXPECT_EQ(ref.storage_max.value(), got.storage_max.value());
}

void expect_identical_hybrids(const power::HybridPowerSource& ref,
                              const power::HybridPowerSource& got) {
  EXPECT_EQ(std::memcmp(&ref.totals(), &got.totals(), sizeof ref.totals()),
            0);
  EXPECT_EQ(ref.storage().charge().value(), got.storage().charge().value());
  EXPECT_EQ(ref.min_storage_seen().value(), got.min_storage_seen().value());
  EXPECT_EQ(ref.max_storage_seen().value(), got.max_storage_seen().value());
  EXPECT_EQ(ref.startups(), got.startups());
}

/// Reference run of one capacity point with run_point's exact wiring.
struct RefRun {
  sim::SimulationResult result;
  power::HybridPowerSource hybrid;
};

RefRun reference_run(const sim::ExperimentConfig& base, sim::PolicyKind kind,
                     Coulomb capacity) {
  LaneRig rig(base, kind, capacity);
  dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(rig.config);
  sim::SimulationOptions options = rig.config.simulation;
  options.initial_storage = rig.config.initial_storage;
  sim::SimulationResult result =
      sim::simulate(rig.config.trace, dpm, *rig.fc, rig.hybrid, options);
  return {std::move(result), std::move(rig.hybrid)};
}

/// Batch run of `capacities` under one shared DPM policy, compared
/// lane-by-lane against solo reference runs. Returns the stats.
batch::BatchStats run_and_check_batch(const sim::ExperimentConfig& base,
                                      sim::PolicyKind kind,
                                      const std::vector<Coulomb>& capacities,
                                      const hot::CompiledTrace& compiled) {
  dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(base);
  std::vector<LaneRig> rigs;
  rigs.reserve(capacities.size());
  std::vector<batch::BatchLaneSpec> lanes;
  lanes.reserve(capacities.size());
  for (const Coulomb capacity : capacities) {
    rigs.emplace_back(base, kind, capacity);
    batch::BatchLaneSpec lane;
    lane.fc = rigs.back().fc.get();
    lane.hybrid = &rigs.back().hybrid;
    lanes.push_back(lane);
  }
  sim::SimulationOptions shared = base.simulation;
  shared.initial_storage = base.initial_storage;

  batch::BatchStats stats;
  const std::vector<batch::LaneOutcome> outcomes =
      batch::run_batch(compiled, dpm, lanes, shared, nullptr, &stats);

  EXPECT_EQ(outcomes.size(), capacities.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    SCOPED_TRACE(capacities[k].value());
    EXPECT_EQ(outcomes[k].end, batch::LaneOutcome::End::Completed);
    const RefRun ref = reference_run(base, kind, capacities[k]);
    expect_identical_results(ref.result, outcomes[k].result);
    expect_identical_hybrids(ref.hybrid, rigs[k].hybrid);
  }
  return stats;
}

sim::ExperimentConfig base_config() {
  sim::ExperimentConfig config = sim::experiment1_config();
  // A shared sub-capacity initial charge is the sweep shape that makes
  // capacity-only lanes physically identical and thus mergeable.
  config.initial_storage = Coulomb(1.0);
  return config;
}

TEST(BatchEngine, CapacityBatchIsBitIdenticalToSoloReferenceRuns) {
  const sim::ExperimentConfig base = base_config();
  const hot::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(3.0),
                                        Coulomb(6.0), Coulomb(12.0),
                                        Coulomb(24.0)};
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::Conv, sim::PolicyKind::Asap, sim::PolicyKind::FcDpm,
        sim::PolicyKind::Oracle}) {
    SCOPED_TRACE(sim::to_string(kind));
    (void)run_and_check_batch(base, kind, capacities, compiled);
  }
}

TEST(BatchEngine, PureLanesMergeAndCascadeAfterLeaderDivergence) {
  const sim::ExperimentConfig base = base_config();
  const hot::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(3.0),
                                        Coulomb(6.0), Coulomb(12.0),
                                        Coulomb(24.0)};
  const batch::BatchStats stats =
      run_and_check_batch(base, sim::PolicyKind::FcDpm, capacities, compiled);
  EXPECT_EQ(stats.lanes, capacities.size());
  // Five identical-but-for-capacity pure lanes form one merge set that
  // persists through the cascade: when the 1.5 A-s leader's buffer
  // fills, leadership hands off to the next-smallest capacity in place
  // (the clamped ex-leader splits out solo) instead of dissolving and
  // re-forming the set.
  EXPECT_GE(stats.batch_merge_sets, 1u);
  EXPECT_GT(stats.batch_merged_lane_slots, 0u);
  // Each hand-off splits exactly one ex-leader out, and a lane can exit
  // leadership at most once — strictly fewer splits than lanes.
  EXPECT_GT(stats.batch_splits, 0u);
  EXPECT_LT(stats.batch_splits, capacities.size());
}

TEST(BatchEngine, StatefulPolicyNeverMergesButStaysIdentical) {
  const sim::ExperimentConfig base = base_config();
  const hot::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(3.0), Coulomb(6.0),
                                        Coulomb(12.0)};
  const batch::BatchStats stats =
      run_and_check_batch(base, sim::PolicyKind::Asap, capacities, compiled);
  EXPECT_EQ(stats.batch_merge_sets, 0u);
  EXPECT_EQ(stats.batch_merged_lane_slots, 0u);
  EXPECT_EQ(stats.batch_splits, 0u);
}

TEST(BatchEngine, FuzzedTracesStayBitIdenticalAcrossRhoAndCapacity) {
  for (const std::uint64_t seed : {7u, 42u, 99991u}) {
    for (const double rho : {0.3, 0.7}) {
      SCOPED_TRACE(seed);
      SCOPED_TRACE(rho);
      sim::ExperimentConfig base = base_config();
      base.rho = rho;
      wl::SyntheticConfig synth;
      synth.seed = seed;
      base.trace = wl::generate_synthetic_trace(synth);
      const hot::CompiledTrace compiled(base.trace, base.device);
      const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(4.0),
                                            Coulomb(24.0)};
      for (const sim::PolicyKind kind :
           {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm,
            sim::PolicyKind::Oracle}) {
        SCOPED_TRACE(sim::to_string(kind));
        (void)run_and_check_batch(base, kind, capacities, compiled);
      }
    }
  }
}

TEST(BatchEngine, EightConcurrentBatchesShareOneCompiledTrace) {
  const sim::ExperimentConfig base = base_config();
  const hot::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(1.5), Coulomb(3.0),
                                        Coulomb(6.0), Coulomb(12.0)};

  // Golden: one serial batch.
  dpm::PredictiveDpmPolicy golden_dpm = sim::make_dpm_policy(base);
  std::vector<LaneRig> golden_rigs;
  std::vector<batch::BatchLaneSpec> golden_lanes;
  golden_rigs.reserve(capacities.size());
  for (const Coulomb capacity : capacities) {
    golden_rigs.emplace_back(base, sim::PolicyKind::FcDpm, capacity);
    batch::BatchLaneSpec lane;
    lane.fc = golden_rigs.back().fc.get();
    lane.hybrid = &golden_rigs.back().hybrid;
    golden_lanes.push_back(lane);
  }
  sim::SimulationOptions shared = base.simulation;
  shared.initial_storage = base.initial_storage;
  const std::vector<batch::LaneOutcome> golden =
      batch::run_batch(compiled, golden_dpm, golden_lanes, shared);

  // Eight threads, each running the same batch against the one shared
  // CompiledTrace (read-only). Under TSan this is the race probe for
  // the sweep scheduler's chunk fan-out.
  constexpr int kThreads = 8;
  std::vector<std::vector<batch::LaneOutcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(base);
      std::vector<LaneRig> rigs;
      std::vector<batch::BatchLaneSpec> lanes;
      rigs.reserve(capacities.size());
      for (const Coulomb capacity : capacities) {
        rigs.emplace_back(base, sim::PolicyKind::FcDpm, capacity);
        batch::BatchLaneSpec lane;
        lane.fc = rigs.back().fc.get();
        lane.hybrid = &rigs.back().hybrid;
        lanes.push_back(lane);
      }
      outcomes[t] = batch::run_batch(compiled, dpm, lanes, shared);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ASSERT_EQ(outcomes[t].size(), golden.size());
    for (std::size_t k = 0; k < golden.size(); ++k) {
      expect_identical_results(golden[k].result, outcomes[t][k].result);
    }
  }
}

/// Capacity lanes from the shared 1 A-s start, each with its own
/// fail-fast sample auditor at period 1; lane `tampered`'s auditor
/// corrupts its view of slot `tamper_slot`.
struct AuditedBatch {
  std::vector<LaneRig> rigs;
  std::vector<std::unique_ptr<audit::Auditor>> auditors;
  std::vector<batch::LaneOutcome> outcomes;
  batch::BatchStats stats;

  AuditedBatch(const sim::ExperimentConfig& base,
               const hot::CompiledTrace& compiled,
               const std::vector<Coulomb>& capacities, std::size_t tampered,
               std::size_t tamper_slot) {
    dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(base);
    rigs.reserve(capacities.size());
    std::vector<batch::BatchLaneSpec> lanes;
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      rigs.emplace_back(base, sim::PolicyKind::FcDpm, capacities[i]);
      audit::AuditSpec spec;
      spec.mode = audit::Mode::Sample;
      spec.sample_period = 1;
      if (i == tampered) {
        spec.tamper_slot = tamper_slot;
      }
      auditors.push_back(
          std::make_unique<audit::Auditor>(spec, /*fail_fast=*/true));
      batch::BatchLaneSpec lane;
      lane.fc = rigs.back().fc.get();
      lane.hybrid = &rigs.back().hybrid;
      lane.auditor = auditors.back().get();
      lanes.push_back(lane);
    }
    sim::SimulationOptions shared = base.simulation;
    shared.initial_storage = base.initial_storage;
    outcomes = batch::run_batch(compiled, dpm, lanes, shared, nullptr, &stats);
  }
};

// A fail-fast audit violation inside a merge set ejects the lane it
// hits and dissolves the set. The ejected lane keeps exactly the state
// its own run had reached; every other lane finishes as its own
// reference run. Lane 0 (the smallest capacity) leads the set at the
// tampered slot and lane 2 rides it.
TEST(BatchEngine, AuditEjectionFromAMergeSetIsLossless) {
  const sim::ExperimentConfig base = base_config();
  const hot::CompiledTrace compiled(base.trace, base.device);
  const std::vector<Coulomb> capacities{Coulomb(6.0), Coulomb(12.0),
                                        Coulomb(24.0)};
  constexpr std::size_t kTamperSlot = 2;
  const AuditedBatch clean(base, compiled, capacities, audit::npos, 0);
  ASSERT_EQ(clean.stats.batch_merge_sets, 1u);

  for (const std::size_t tampered : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(tampered);
    const AuditedBatch run(base, compiled, capacities, tampered, kTamperSlot);
    // The ejection cut the set short: fewer follower-slots rode a
    // leader than in the clean batch.
    EXPECT_LT(run.stats.batch_merged_lane_slots,
              clean.stats.batch_merged_lane_slots);
    for (std::size_t k = 0; k < capacities.size(); ++k) {
      SCOPED_TRACE(k);
      const batch::LaneOutcome& outcome = run.outcomes[k];
      if (k != tampered) {
        EXPECT_EQ(outcome.end, batch::LaneOutcome::End::Completed);
        const RefRun ref =
            reference_run(base, sim::PolicyKind::FcDpm, capacities[k]);
        expect_identical_results(ref.result, outcome.result);
        expect_identical_hybrids(ref.hybrid, run.rigs[k].hybrid);
        continue;
      }
      EXPECT_EQ(outcome.end, batch::LaneOutcome::End::AuditFailed);
      EXPECT_EQ(outcome.result.slots, kTamperSlot + 1);
      // The reference run cut after the same slots leaves the same
      // partial hybrid, and the partial result reports it.
      LaneRig ref(base, sim::PolicyKind::FcDpm, capacities[k]);
      dpm::PredictiveDpmPolicy ref_dpm = sim::make_dpm_policy(ref.config);
      sim::SimulationOptions options = ref.config.simulation;
      options.initial_storage = ref.config.initial_storage;
      options.slot_budget = kTamperSlot + 1;
      EXPECT_THROW((void)sim::simulate(ref.config.trace, ref_dpm, *ref.fc,
                                       ref.hybrid, options),
                   sim::DeadlineExceededError);
      expect_identical_hybrids(ref.hybrid, run.rigs[k].hybrid);
      EXPECT_EQ(std::memcmp(&ref.hybrid.totals(), &outcome.result.totals,
                            sizeof outcome.result.totals),
                0);
      EXPECT_EQ(ref.hybrid.storage().charge().value(),
                outcome.result.storage_end.value());
    }
  }
}

// A one-lane batch is still the batch loop, and it agrees with the hot
// lane that single runs take instead, and with the reference loop.
TEST(BatchEngine, OneLaneBatchMatchesHotAndReference) {
  const sim::ExperimentConfig base = base_config();
  const hot::CompiledTrace compiled(base.trace, base.device);
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::Conv, sim::PolicyKind::Asap, sim::PolicyKind::FcDpm,
        sim::PolicyKind::Oracle}) {
    SCOPED_TRACE(sim::to_string(kind));
    sim::SimulationOptions options = base.simulation;
    options.initial_storage = base.initial_storage;

    LaneRig ref(base, kind, base.storage_capacity);
    dpm::PredictiveDpmPolicy ref_dpm = sim::make_dpm_policy(base);
    const sim::SimulationResult want =
        sim::simulate(base.trace, ref_dpm, *ref.fc, ref.hybrid, options);

    LaneRig hot_rig(base, kind, base.storage_capacity);
    dpm::PredictiveDpmPolicy hot_dpm = sim::make_dpm_policy(base);
    const sim::SimulationResult hot = hot::simulate_lane(
        compiled, hot_dpm, *hot_rig.fc, hot_rig.hybrid, options);
    expect_identical_results(want, hot);
    expect_identical_hybrids(ref.hybrid, hot_rig.hybrid);

    LaneRig lane_rig(base, kind, base.storage_capacity);
    dpm::PredictiveDpmPolicy batch_dpm = sim::make_dpm_policy(base);
    std::vector<batch::BatchLaneSpec> lanes(1);
    lanes[0].fc = lane_rig.fc.get();
    lanes[0].hybrid = &lane_rig.hybrid;
    const std::vector<batch::LaneOutcome> outcomes =
        batch::run_batch(compiled, batch_dpm, lanes, options);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].end, batch::LaneOutcome::End::Completed);
    expect_identical_results(want, outcomes[0].result);
    expect_identical_hybrids(ref.hybrid, lane_rig.hybrid);
  }
}

// Budgets, cancellation, slot records and preserved source state belong
// to single runs, which never take the batch loop; run_batch refuses
// them instead of ignoring them.
TEST(BatchEngine, RunBatchRejectsSingleRunOptions) {
  const sim::ExperimentConfig base = base_config();
  const hot::CompiledTrace compiled(base.trace, base.device);
  sim::CancellationToken token;
  const sim::SimulationOptions plain = base.simulation;
  std::vector<sim::SimulationOptions> refused(4, plain);
  refused[0].slot_budget = 10;
  refused[1].cancel = &token;
  refused[2].keep_slot_records = true;
  refused[3].preserve_source_state = true;
  for (std::size_t k = 0; k < refused.size(); ++k) {
    SCOPED_TRACE(k);
    LaneRig rig(base, sim::PolicyKind::FcDpm, Coulomb(6.0));
    dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(base);
    std::vector<batch::BatchLaneSpec> lanes(1);
    lanes[0].fc = rig.fc.get();
    lanes[0].hybrid = &rig.hybrid;
    EXPECT_THROW((void)batch::run_batch(compiled, dpm, lanes, refused[k]),
                 PreconditionError);
  }
}

// The batch loop takes fewer runs than the hot lane: sim::choose_engine
// sends a Batched request it cannot keep to Hot, or to Reference when
// the hot lane cannot take it either.
TEST(BatchEngine, LaneEligibilityIsStricterThanHot) {
  const sim::ExperimentConfig base = base_config();
  power::HybridPowerSource hybrid = sim::make_hybrid(base);
  const auto lands = [&](sim::Engine requested,
                         const sim::SimulationOptions& options) {
    return sim::choose_engine(requested, hybrid, options);
  };
  const sim::SimulationOptions plain = base.simulation;
  EXPECT_EQ(lands(sim::Engine::Batched, plain).engine, sim::Engine::Batched);

  // A profiler-only observer keeps the hot lane but evicts from the
  // batch loop (it has no per-phase profile scopes).
  obs::Profiler profiler;
  obs::Context profiled;
  profiled.set_profiler(&profiler);
  sim::SimulationOptions with_profiler = plain;
  with_profiler.observer = &profiled;
  EXPECT_EQ(lands(sim::Engine::Hot, with_profiler).engine, sim::Engine::Hot);
  const sim::EngineChoice batched = lands(sim::Engine::Batched, with_profiler);
  EXPECT_EQ(batched.engine, sim::Engine::Hot);
  EXPECT_EQ(batched.reason, sim::EngineReason::Observer);

  sim::SimulationOptions with_profiles = plain;
  with_profiles.record_profiles = true;
  EXPECT_NE(lands(sim::Engine::Batched, with_profiles).engine,
            sim::Engine::Batched);
}

}  // namespace
