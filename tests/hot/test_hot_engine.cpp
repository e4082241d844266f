// Differential suite: fcdpm::hot must reproduce the reference simulator
// bit for bit — totals, storage excursions, slot records, post-run
// hybrid state, lifetime measurements — across workloads, policies,
// fuzzed traces, and every option that changes the execution path
// (faults, observability, cancellation, budgets, multi-pass runs).
#include "hot/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "common/contracts.hpp"
#include "core/fc_policy.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "hot/compiled_trace.hpp"
#include "hot/lifetime.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "sim/engine.hpp"
#include "sim/experiments.hpp"
#include "sim/lifetime.hpp"
#include "sim/slot_simulator.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace fcdpm;

/// Fresh policy/hybrid set for one run (both engines mutate them).
struct Rig {
  dpm::PredictiveDpmPolicy dpm;
  std::unique_ptr<core::FcOutputPolicy> fc;
  power::HybridPowerSource hybrid;

  Rig(const sim::ExperimentConfig& config, sim::PolicyKind kind)
      : dpm(sim::make_dpm_policy(config)),
        fc(sim::make_fc_policy(kind, config)),
        hybrid(sim::make_hybrid(config)) {}
};

void expect_identical_results(const sim::SimulationResult& ref,
                              const sim::SimulationResult& hot) {
  EXPECT_EQ(std::memcmp(&ref.totals, &hot.totals, sizeof ref.totals), 0);
  EXPECT_EQ(ref.slots, hot.slots);
  EXPECT_EQ(ref.sleeps, hot.sleeps);
  EXPECT_EQ(ref.latency_added.value(), hot.latency_added.value());
  EXPECT_EQ(ref.storage_initial.value(), hot.storage_initial.value());
  EXPECT_EQ(ref.storage_end.value(), hot.storage_end.value());
  EXPECT_EQ(ref.storage_min.value(), hot.storage_min.value());
  EXPECT_EQ(ref.storage_max.value(), hot.storage_max.value());
  EXPECT_EQ(ref.trace_name, hot.trace_name);
  EXPECT_EQ(ref.dpm_policy, hot.dpm_policy);
  EXPECT_EQ(ref.fc_policy, hot.fc_policy);
  ASSERT_EQ(ref.idle_accuracy.has_value(), hot.idle_accuracy.has_value());
  ASSERT_EQ(ref.slot_records.size(), hot.slot_records.size());
  for (std::size_t k = 0; k < ref.slot_records.size(); ++k) {
    const sim::SlotRecord& a = ref.slot_records[k];
    const sim::SlotRecord& b = hot.slot_records[k];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.idle.value(), b.idle.value());
    EXPECT_EQ(a.active.value(), b.active.value());
    EXPECT_EQ(a.slept, b.slept);
    EXPECT_EQ(a.if_idle.value(), b.if_idle.value());
    EXPECT_EQ(a.if_active.value(), b.if_active.value());
    EXPECT_EQ(a.fuel.value(), b.fuel.value());
    EXPECT_EQ(a.fuel_end.value(), b.fuel_end.value());
    EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
    EXPECT_EQ(a.latency.value(), b.latency.value());
  }
}

void expect_identical_hybrids(const power::HybridPowerSource& ref,
                              const power::HybridPowerSource& hot) {
  EXPECT_EQ(std::memcmp(&ref.totals(), &hot.totals(), sizeof ref.totals()),
            0);
  EXPECT_EQ(ref.storage().charge().value(), hot.storage().charge().value());
  EXPECT_EQ(ref.min_storage_seen().value(), hot.min_storage_seen().value());
  EXPECT_EQ(ref.max_storage_seen().value(), hot.max_storage_seen().value());
  EXPECT_EQ(ref.startups(), hot.startups());
}

/// Reference and hot runs of the same point; both results and the
/// post-run hybrid states must match bit for bit.
void expect_differential_identity(const sim::ExperimentConfig& config,
                                  sim::PolicyKind kind,
                                  sim::SimulationOptions options) {
  const hot::CompiledTrace compiled(config.trace, config.device);
  Rig ref(config, kind);
  const sim::SimulationResult ref_result =
      sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, options);
  Rig hot_rig(config, kind);
  const sim::SimulationResult hot_result = hot::simulate(
      compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid, options);
  expect_identical_results(ref_result, hot_result);
  expect_identical_hybrids(ref.hybrid, hot_rig.hybrid);
}

TEST(HotEngine, BitIdenticalAcrossPoliciesOnTheCamcorderTrace) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::Conv, sim::PolicyKind::Asap,
        sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle}) {
    SCOPED_TRACE(sim::to_string(kind));
    sim::SimulationOptions options = config.simulation;
    options.keep_slot_records = true;
    expect_differential_identity(config, kind, options);
  }
}

TEST(HotEngine, BitIdenticalOnTheSyntheticExperiment) {
  const sim::ExperimentConfig config = sim::experiment2_config();
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::Conv, sim::PolicyKind::Asap,
        sim::PolicyKind::FcDpm}) {
    SCOPED_TRACE(sim::to_string(kind));
    sim::SimulationOptions options = config.simulation;
    options.keep_slot_records = true;
    expect_differential_identity(config, kind, options);
  }
}

TEST(HotEngine, BitIdenticalOnFuzzedSyntheticTraces) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    SCOPED_TRACE(seed);
    sim::ExperimentConfig config = sim::experiment2_config();
    wl::SyntheticConfig synth;
    synth.seed = seed;
    config.trace = wl::generate_synthetic_trace(synth);
    sim::SimulationOptions options = config.simulation;
    options.keep_slot_records = true;
    expect_differential_identity(config, sim::PolicyKind::FcDpm, options);
  }
}

TEST(HotEngine, BitIdenticalWithNonEmptyInitialStorage) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  sim::SimulationOptions options = config.simulation;
  options.initial_storage = Coulomb(3.5);
  expect_differential_identity(config, sim::PolicyKind::FcDpm, options);
  options.initial_storage = Coulomb(-1.0);  // "start full"
  expect_differential_identity(config, sim::PolicyKind::FcDpm, options);
}

TEST(HotEngine, FaultInjectionFallsBackAndStaysIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const fault::FaultSchedule schedule = fault::FaultSchedule::random_storm(
      7, 12, config.trace.stats().total_duration());
  const hot::CompiledTrace compiled(config.trace, config.device);

  fault::FaultInjector ref_injector(schedule);
  sim::SimulationOptions ref_options = config.simulation;
  ref_options.faults = &ref_injector;
  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_result = sim::simulate(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, ref_options);

  fault::FaultInjector hot_injector(schedule);
  sim::SimulationOptions hot_options = config.simulation;
  hot_options.faults = &hot_injector;
  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult hot_result = hot::simulate(
      compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid, hot_options);

  expect_identical_results(ref_result, hot_result);
  expect_identical_hybrids(ref.hybrid, hot_rig.hybrid);
  ASSERT_TRUE(hot_result.robustness.has_value());
  ASSERT_TRUE(ref_result.robustness.has_value());
  EXPECT_EQ(ref_result.robustness->dropouts, hot_result.robustness->dropouts);
  EXPECT_EQ(ref_result.robustness->brownouts,
            hot_result.robustness->brownouts);
}

TEST(HotEngine, TracingObserverFallsBackAndStaysIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const hot::CompiledTrace compiled(config.trace, config.device);

  sim::SimulationOptions plain = config.simulation;
  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_result =
      sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, plain);

  std::ostringstream ref_stream;
  std::ostringstream hot_stream;
  obs::JsonlTraceSink ref_sink(ref_stream);
  obs::JsonlTraceSink hot_sink(hot_stream);
  obs::Context ref_obs;
  ref_obs.set_sink(&ref_sink);
  obs::Context hot_obs;
  hot_obs.set_sink(&hot_sink);

  sim::SimulationOptions ref_options = config.simulation;
  ref_options.observer = &ref_obs;
  Rig ref_traced(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_traced_result = sim::simulate(
      config.trace, ref_traced.dpm, *ref_traced.fc, ref_traced.hybrid,
      ref_options);

  sim::SimulationOptions hot_options = config.simulation;
  hot_options.observer = &hot_obs;
  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult hot_result = hot::simulate(
      compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid, hot_options);

  // Observability must not change results, and the fallback must emit
  // the same trace stream the reference does.
  expect_identical_results(ref_result, hot_result);
  expect_identical_results(ref_traced_result, hot_result);
  ref_sink.flush();
  hot_sink.flush();
  EXPECT_EQ(ref_stream.str(), hot_stream.str());
}

TEST(HotEngine, ProfilerOnlyObserverStaysInTheLane) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const hot::CompiledTrace compiled(config.trace, config.device);

  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_result = sim::simulate(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, config.simulation);

  obs::Profiler profiler;
  obs::Context context;
  context.set_profiler(&profiler);
  sim::SimulationOptions options = config.simulation;
  options.observer = &context;
  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult hot_result = hot::simulate(
      compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid, options);

  expect_identical_results(ref_result, hot_result);
  expect_identical_hybrids(ref.hybrid, hot_rig.hybrid);
  EXPECT_EQ(profiler.scopes().count("hot.simulate"), 1u);
  EXPECT_EQ(profiler.scopes().count("hot.plan"), 1u);
  EXPECT_EQ(profiler.scopes().count("hot.segment"), 1u);
}

TEST(HotEngine, RecordProfilesFallsBackAndStaysIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  sim::SimulationOptions options = config.simulation;
  options.record_profiles = true;
  options.profile_limit = Seconds(300.0);
  const hot::CompiledTrace compiled(config.trace, config.device);
  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult ref_result =
      sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, options);
  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  const sim::SimulationResult hot_result = hot::simulate(
      compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid, options);
  expect_identical_results(ref_result, hot_result);
  ASSERT_EQ(ref_result.profiles.has_value(), hot_result.profiles.has_value());
}

TEST(HotEngine, PreservedSourceStateAccumulatesIdentically) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const hot::CompiledTrace compiled(config.trace, config.device);
  sim::SimulationOptions first = config.simulation;
  sim::SimulationOptions next = config.simulation;
  next.preserve_source_state = true;

  Rig ref(config, sim::PolicyKind::FcDpm);
  (void)sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, first);
  const sim::SimulationResult ref_result =
      sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid, next);

  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  (void)hot::simulate(compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid,
                      first);
  const sim::SimulationResult hot_result = hot::simulate(
      compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid, next);

  expect_identical_results(ref_result, hot_result);
  expect_identical_hybrids(ref.hybrid, hot_rig.hybrid);
}

TEST(HotEngine, SlotBudgetThrowsWithIdenticalPartialState) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const hot::CompiledTrace compiled(config.trace, config.device);
  sim::SimulationOptions options = config.simulation;
  options.slot_budget = 50;

  Rig ref(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW(
      (void)sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid,
                          options),
      sim::DeadlineExceededError);
  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW((void)hot::simulate(compiled, hot_rig.dpm, *hot_rig.fc,
                                   hot_rig.hybrid, options),
               sim::DeadlineExceededError);
  // The reference leaves the hybrid partially advanced; the lane's
  // write-back must land the exact same partial state.
  expect_identical_hybrids(ref.hybrid, hot_rig.hybrid);
  EXPECT_GT(hot_rig.hybrid.totals().fuel.value(), 0.0);
}

TEST(HotEngine, CancelledTokenThrowsOnBothEngines) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const hot::CompiledTrace compiled(config.trace, config.device);
  sim::CancellationToken token;
  token.cancel();
  sim::SimulationOptions options = config.simulation;
  options.cancel = &token;

  Rig ref(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW(
      (void)sim::simulate(config.trace, ref.dpm, *ref.fc, ref.hybrid,
                          options),
      sim::CancelledError);
  const std::uint64_t ref_beats = token.heartbeat();
  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW((void)hot::simulate(compiled, hot_rig.dpm, *hot_rig.fc,
                                   hot_rig.hybrid, options),
               sim::CancelledError);
  EXPECT_EQ(token.heartbeat(), 2 * ref_beats);
  expect_identical_hybrids(ref.hybrid, hot_rig.hybrid);
}

TEST(HotEngine, LifetimeMeasurementIsBitIdentical) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  const hot::CompiledTrace compiled(config.trace, config.device);
  sim::LifetimeOptions options;
  options.tank = Coulomb(36000.0);
  options.simulation = config.simulation;

  Rig ref(config, sim::PolicyKind::FcDpm);
  const sim::LifetimeResult ref_result = sim::measure_lifetime(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, options);
  Rig hot_rig(config, sim::PolicyKind::FcDpm);
  const sim::LifetimeResult hot_result = hot::measure_lifetime(
      compiled, hot_rig.dpm, *hot_rig.fc, hot_rig.hybrid, options);

  EXPECT_EQ(ref_result.lifetime.value(), hot_result.lifetime.value());
  EXPECT_EQ(ref_result.passes, hot_result.passes);
  EXPECT_EQ(ref_result.slots_completed, hot_result.slots_completed);
  EXPECT_EQ(ref_result.tank_emptied, hot_result.tank_emptied);
  EXPECT_EQ(ref_result.average_fuel_current.value(),
            hot_result.average_fuel_current.value());
}

TEST(HotEngine, RefusesACompiledTraceFromAnotherDevice) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  dpm::DevicePowerModel other = config.device;
  other.bus_voltage = Volt(11.0);
  const hot::CompiledTrace foreign(config.trace, other);
  Rig rig(config, sim::PolicyKind::FcDpm);
  EXPECT_THROW((void)hot::simulate(foreign, rig.dpm, *rig.fc, rig.hybrid,
                                   config.simulation),
               PreconditionError);
}


// The slack witness over FC-DPM on the camcorder trace from a 1 A-s
// reserve: a 4 A-s buffer clamps the plans and fills, so the run is
// dirty; at 50 A-s neither happens and the witness stays clean. The run
// through the latch is bit-identical to one without it.
TEST(HotEngine, SlackWitnessSeesTheCapacityClamps) {
  for (const double capacity : {4.0, 50.0}) {
    SCOPED_TRACE(testing::Message() << "capacity=" << capacity);
    sim::ExperimentConfig config = sim::experiment1_config();
    config.storage_capacity = Coulomb(capacity);
    const hot::CompiledTrace ct(config.trace, config.device);
    sim::SimulationOptions options = config.simulation;
    options.initial_storage = config.initial_storage;

    Rig plain(config, sim::PolicyKind::FcDpm);
    const sim::SimulationResult want =
        hot::simulate_lane(ct, plain.dpm, *plain.fc, plain.hybrid, options);

    Rig rig(config, sim::PolicyKind::FcDpm);
    hot::SlackWitness witness;
    rig.fc->set_solve_cache(&witness.latch.emplace(nullptr));
    const sim::SimulationResult got = hot::simulate_lane(
        ct, rig.dpm, *rig.fc, rig.hybrid, options, &witness);
    expect_identical_results(want, got);
    EXPECT_EQ(witness.latch->clamped(), capacity == 4.0);
    EXPECT_EQ(witness.capacity_sensitive, capacity == 4.0);
    EXPECT_EQ(witness.clean(), capacity == 50.0);
  }
}

/// Solves a slot whose flat optimum overfills a small buffer, then runs
/// the FC off, so the buffer only drains: the capacity shapes the plan
/// and never the integration.
class ClampedPlanPolicy final : public core::FcOutputPolicy {
 public:
  explicit ClampedPlanPolicy(const power::LinearEfficiencyModel& model)
      : optimizer_(model) {}

  void on_idle_start(const core::IdleContext& context) override {
    const core::SlotLoad load{Seconds(100.0), Ampere(0.01), Seconds(10.0),
                              Ampere(2.0)};
    clamped_ = cached_solve(optimizer_, load,
                            {context.storage_charge, context.storage_charge,
                             context.storage_capacity})
                   .setting.capacity_clamped;
  }
  void on_active_start(const core::ActiveContext&) override {}
  [[nodiscard]] core::SegmentSetpoint segment_setpoint(
      const core::SegmentContext&) override {
    return {Ampere(0.0), false};
  }
  void on_slot_end(const core::SlotObservation&) override {}
  [[nodiscard]] std::string name() const override { return "clamped-plan"; }
  [[nodiscard]] std::unique_ptr<core::FcOutputPolicy> clone() const override {
    return std::make_unique<ClampedPlanPolicy>(*this);
  }
  void reset() override {}

  [[nodiscard]] bool clamped() const noexcept { return clamped_; }

 private:
  core::SlotOptimizer optimizer_;
  bool clamped_ = false;
};

// A plan the capacity clamped makes the witness dirty on its own: the
// latch carries it even when the buffer never fills.
TEST(HotEngine, SlackWitnessLatchesAPlanClampWithoutAStoreClamp) {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.storage_capacity = Coulomb(1.0);
  const hot::CompiledTrace ct(config.trace, config.device);
  sim::SimulationOptions options = config.simulation;
  options.initial_storage = Coulomb(0.5);
  dpm::PredictiveDpmPolicy dpm = sim::make_dpm_policy(config);
  ClampedPlanPolicy fc(config.efficiency);
  power::HybridPowerSource hybrid = sim::make_hybrid(config);
  hot::SlackWitness witness;
  fc.set_solve_cache(&witness.latch.emplace(nullptr));
  const sim::SimulationResult result =
      hot::simulate_lane(ct, dpm, fc, hybrid, options, &witness);
  ASSERT_TRUE(fc.clamped());
  EXPECT_LE(result.storage_max.value(), 0.5);
  EXPECT_FALSE(witness.capacity_sensitive);
  EXPECT_TRUE(witness.latch->clamped());
  EXPECT_FALSE(witness.clean());
}

// The hot lane's eligibility rules, asked of sim::choose_engine with a
// Hot request: Hot when the run stays, Reference with the first
// fallback cause when it leaves.
TEST(HotEngine, LaneEligibilityMatchesTheDocumentedRules) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  power::HybridPowerSource hybrid = sim::make_hybrid(config);
  const auto lands = [&](const sim::SimulationOptions& options) {
    return sim::choose_engine(sim::Engine::Hot, hybrid, options);
  };
  const sim::SimulationOptions plain = config.simulation;
  EXPECT_EQ(lands(plain).engine, sim::Engine::Hot);
  EXPECT_EQ(lands(plain).reason, sim::EngineReason::Requested);

  sim::SimulationOptions with_profiles = plain;
  with_profiles.record_profiles = true;
  EXPECT_EQ(lands(with_profiles).engine, sim::Engine::Reference);
  EXPECT_EQ(lands(with_profiles).reason,
            sim::EngineReason::ProfileRecording);

  // Options that do NOT evict from the lane: budgets, cancellation,
  // record keeping, preserved state.
  sim::SimulationOptions busy = plain;
  sim::CancellationToken token;
  busy.cancel = &token;
  busy.slot_budget = 10;
  busy.keep_slot_records = true;
  busy.preserve_source_state = true;
  EXPECT_EQ(lands(busy).engine, sim::Engine::Hot);

  // A metering observer evicts; a profiler-only one does not.
  obs::MetricsRegistry metrics;
  obs::Context metered;
  metered.set_metrics(&metrics);
  sim::SimulationOptions with_metrics = plain;
  with_metrics.observer = &metered;
  EXPECT_EQ(lands(with_metrics).engine, sim::Engine::Reference);
  EXPECT_EQ(lands(with_metrics).reason, sim::EngineReason::EventObserver);

  obs::Profiler profiler;
  obs::Context profiled;
  profiled.set_profiler(&profiler);
  sim::SimulationOptions with_profiler = plain;
  with_profiler.observer = &profiled;
  EXPECT_EQ(lands(with_profiler).engine, sim::Engine::Hot);
}

}  // namespace
