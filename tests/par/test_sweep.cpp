#include "par/sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "audit/audit.hpp"
#include "obs/context.hpp"
#include "par/worker_pool.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"
#include "sim/result_fields.hpp"
#include "telemetry/sweep_telemetry.hpp"
#include "workload/camcorder.hpp"

namespace fcdpm::par {
namespace {

sim::ExperimentConfig small_base() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));
  return config;
}

SweepGrid table2_grid() {
  SweepGrid grid;
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  grid.storm_seeds = {0, 42};
  return grid;  // policies default to the Table-2 trio -> 24 points
}

void expect_same_result(const sim::SimulationResult& a,
                        const sim::SimulationResult& b) {
  EXPECT_EQ(a.totals.fuel.value(), b.totals.fuel.value());
  EXPECT_EQ(a.totals.duration.value(), b.totals.duration.value());
  EXPECT_EQ(a.totals.bled.value(), b.totals.bled.value());
  EXPECT_EQ(a.totals.unserved.value(), b.totals.unserved.value());
  EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
  EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.sleeps, b.sleeps);
}

TEST(SweepGridTest, PointsEnumerateTheCartesianProductInGridOrder) {
  const sim::ExperimentConfig base = small_base();
  const std::vector<SweepPoint> points = table2_grid().points(base);
  ASSERT_EQ(points.size(), 3u * 2u * 2u * 2u);
  // Nested order: policy -> rho -> capacity -> seed.
  EXPECT_EQ(points[0].policy, sim::PolicyKind::Conv);
  EXPECT_EQ(points[0].rho, 0.3);
  EXPECT_EQ(points[0].capacity.value(), 3.0);
  EXPECT_EQ(points[0].storm_seed, 0u);
  EXPECT_EQ(points[1].storm_seed, 42u);
  EXPECT_EQ(points[2].capacity.value(), 6.0);
  EXPECT_EQ(points[8].policy, sim::PolicyKind::Asap);
  EXPECT_EQ(points.back().policy, sim::PolicyKind::FcDpm);
  EXPECT_EQ(points.back().rho, 0.5);
}

TEST(SweepGridTest, EmptyDimensionsFallBackToTheBaseConfig) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  const std::vector<SweepPoint> points = grid.points(base);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].rho, base.rho);
  EXPECT_EQ(points[0].capacity.value(), base.storage_capacity.value());
  EXPECT_EQ(points[0].storm_seed, 0u);
}

TEST(SweepTest, SerialSweepMatchesDirectRunPolicy) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.rhos = {base.rho};
  grid.capacities = {base.storage_capacity};
  grid.storm_seeds = {0};

  SweepOptions options;
  options.jobs = 1;
  const SweepResult sweep = run_sweep(base, grid, options);
  ASSERT_EQ(sweep.points.size(), 3u);

  for (const SweepPointResult& point : sweep.points) {
    const sim::SimulationResult direct =
        sim::run_policy(point.point.policy, base);
    expect_same_result(point.result, direct);
  }
}

// The tentpole's headline guarantee: the Table-2 grid is bit-identical
// for any job count.
TEST(SweepTest, ParallelSweepIsBitIdenticalToSerialAcrossJobCounts) {
  const sim::ExperimentConfig base = small_base();
  const SweepGrid grid = table2_grid();

  SweepOptions serial;
  serial.jobs = 1;
  const SweepResult reference = run_sweep(base, grid, serial);
  ASSERT_EQ(reference.points.size(), 24u);

  for (const std::size_t jobs : {2u, 8u}) {
    SweepOptions options;
    options.jobs = jobs;
    const SweepResult parallel = run_sweep(base, grid, options);
    ASSERT_EQ(parallel.points.size(), reference.points.size());
    for (std::size_t k = 0; k < reference.points.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "jobs=" << jobs << " point=" << k);
      EXPECT_EQ(parallel.points[k].point.policy,
                reference.points[k].point.policy);
      EXPECT_EQ(parallel.points[k].point.storm_seed,
                reference.points[k].point.storm_seed);
      expect_same_result(parallel.points[k].result,
                         reference.points[k].result);
    }
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Bit-level equality over every field a sweep row or rollup reads.
void expect_bit_identical(const SweepPointResult& a,
                          const SweepPointResult& b) {
  const sim::SimulationResult& x = a.result;
  const sim::SimulationResult& y = b.result;
  EXPECT_TRUE(same_bits(x.totals.fuel.value(), y.totals.fuel.value()));
  EXPECT_TRUE(same_bits(x.totals.delivered_energy.value(),
                        y.totals.delivered_energy.value()));
  EXPECT_TRUE(same_bits(x.totals.load_energy.value(),
                        y.totals.load_energy.value()));
  EXPECT_TRUE(same_bits(x.totals.bled.value(), y.totals.bled.value()));
  EXPECT_TRUE(same_bits(x.totals.unserved.value(), y.totals.unserved.value()));
  EXPECT_TRUE(same_bits(x.totals.duration.value(), y.totals.duration.value()));
  EXPECT_TRUE(same_bits(x.latency_added.value(), y.latency_added.value()));
  EXPECT_TRUE(same_bits(x.storage_initial.value(), y.storage_initial.value()));
  EXPECT_TRUE(same_bits(x.storage_end.value(), y.storage_end.value()));
  EXPECT_TRUE(same_bits(x.storage_min.value(), y.storage_min.value()));
  EXPECT_TRUE(same_bits(x.storage_max.value(), y.storage_max.value()));
  EXPECT_EQ(x.slots, y.slots);
  EXPECT_EQ(x.sleeps, y.sleeps);
  EXPECT_EQ(a.engine, b.engine);
  ASSERT_EQ(x.audit.has_value(), y.audit.has_value());
  if (x.audit.has_value()) {
    EXPECT_EQ(x.audit->slots_audited, y.audit->slots_audited);
    EXPECT_EQ(x.audit->segments_audited, y.audit->segments_audited);
    EXPECT_EQ(x.audit->checks_run, y.audit->checks_run);
    EXPECT_EQ(x.audit->violations, 0u);
    EXPECT_EQ(y.audit->violations, 0u);
    EXPECT_EQ(x.audit->engine_fallbacks, y.audit->engine_fallbacks);
  }
}

// An exact-key (quantum 0) memo is transparent: on every engine, at 1
// and 4 jobs, with and without sampled auditing, a memo-attached sweep —
// including a second pass served entirely by hits — answers bit for bit
// what a memo-free sweep does. The grid shares one initial charge across
// capacities, so the batched engine forms merge sets whose per-slot memo
// falls through to the attached memo or, without one, to a fresh solve.
TEST(SweepTest, ExactKeyCacheDoesNotChangeAnyResult) {
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle,
                   sim::PolicyKind::Asap};
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0), Coulomb(12.0),
                     Coulomb(24.0)};

  for (const sim::Engine engine :
       {sim::Engine::Reference, sim::Engine::Hot, sim::Engine::Batched}) {
    for (const audit::Mode audit_mode : {audit::Mode::Off, audit::Mode::Sample}) {
      sim::ExperimentConfig base = small_base();
      base.simulation.engine = engine;
      base.initial_storage = Coulomb(1.0);
      base.audit.mode = audit_mode;
      for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(testing::Message()
                     << "engine=" << static_cast<int>(engine)
                     << " audit=" << audit::to_string(audit_mode)
                     << " jobs=" << jobs);
        SweepOptions plain;
        plain.jobs = jobs;
        const SweepResult uncached = run_sweep(base, grid, plain);

        SharedSolveCache cache;
        SweepOptions cached_options = plain;
        cached_options.cache = &cache;
        // Two sweeps through one memo: the second is served by hits.
        const SweepResult first = run_sweep(base, grid, cached_options);
        const SweepResult second = run_sweep(base, grid, cached_options);

        ASSERT_EQ(first.points.size(), uncached.points.size());
        ASSERT_EQ(second.points.size(), uncached.points.size());
        for (std::size_t k = 0; k < uncached.points.size(); ++k) {
          SCOPED_TRACE(testing::Message() << "point=" << k);
          expect_bit_identical(first.points[k], uncached.points[k]);
          expect_bit_identical(second.points[k], uncached.points[k]);
        }
        for (const SweepResult* cached : {&first, &second}) {
          EXPECT_EQ(cached->stats.points_batched,
                    uncached.stats.points_batched);
          EXPECT_EQ(cached->stats.batch_merge_sets,
                    uncached.stats.batch_merge_sets);
          EXPECT_EQ(cached->stats.batch_merged_lane_slots,
                    uncached.stats.batch_merged_lane_slots);
          EXPECT_EQ(cached->stats.batch_splits, uncached.stats.batch_splits);
          EXPECT_EQ(cached->stats.batch_journal_hits,
                    uncached.stats.batch_journal_hits);
        }
        if (engine == sim::Engine::Batched) {
          EXPECT_GT(uncached.stats.batch_merge_sets, 0u);
        }
        EXPECT_EQ(uncached.stats.cache_hits + uncached.stats.cache_misses,
                  0u);
        EXPECT_GT(first.stats.cache_misses, 0u);
        EXPECT_GT(second.stats.cache_hits, 0u);
        EXPECT_EQ(second.stats.cache_misses, 0u);
      }
    }
  }
}

// The one task planner of both runners: ordered contiguous slices of
// its input, one rho per task, whole policy runs packed up to kBatchMax
// and cut only when a run alone exceeds it, ineligible points alone.
TEST(SweepTest, BatchPlanIsOrderedAndKeepsPolicyRuns) {
  const sim::ExperimentConfig base = small_base();
  const auto capacities = [](std::size_t n) {
    std::vector<Coulomb> values;
    for (std::size_t c = 1; c <= n; ++c) {
      values.push_back(Coulomb(static_cast<double>(c)));
    }
    return values;
  };
  const auto sizes = [](const std::vector<std::span<const std::size_t>>&
                            tasks) {
    std::vector<std::size_t> out;
    for (const std::span<const std::size_t> task : tasks) {
      out.push_back(task.size());
    }
    return out;
  };
  const auto rho_bits = [](const SweepPoint& point) {
    return std::bit_cast<std::uint64_t>(point.rho);
  };
  // Properties every plan has, over any slice of any grid.
  const auto check = [&](const std::vector<SweepPoint>& points,
                         std::span<const std::size_t> indices)
      -> std::vector<std::size_t> {
    const std::vector<std::span<const std::size_t>> tasks =
        plan_batches(points, indices);
    std::vector<std::size_t> joined;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      SCOPED_TRACE(testing::Message() << "task=" << t);
      const std::span<const std::size_t> task = tasks[t];
      if (task.empty()) {
        ADD_FAILURE() << "empty task";
        continue;
      }
      EXPECT_LE(task.size(), kBatchMax);
      // A slice of the input itself, in order.
      EXPECT_EQ(task.data(), indices.data() + joined.size());
      joined.insert(joined.end(), task.begin(), task.end());
      for (const std::size_t k : task) {
        if (points[k].storm_seed != 0 || points[k].stacks != 0) {
          EXPECT_EQ(task.size(), 1u) << "ineligible point " << k;
        }
        EXPECT_EQ(rho_bits(points[k]), rho_bits(points[task.front()]));
      }
      if (t == 0) {
        continue;
      }
      // A cut between two points of one policy run at one rho leaves a
      // full task of that run behind it.
      const SweepPoint& last = points[tasks[t - 1].back()];
      const SweepPoint& next = points[task.front()];
      const bool eligible = last.storm_seed == 0 && last.stacks == 0 &&
                            next.storm_seed == 0 && next.stacks == 0;
      if (eligible && last.policy == next.policy &&
          rho_bits(last) == rho_bits(next)) {
        EXPECT_EQ(tasks[t - 1].size(), kBatchMax);
        for (const std::size_t k : tasks[t - 1]) {
          EXPECT_EQ(points[k].policy, next.policy);
        }
      }
    }
    EXPECT_TRUE(std::equal(joined.begin(), joined.end(), indices.begin(),
                           indices.end()));
    return sizes(tasks);
  };
  const auto plan_grid = [&](const SweepGrid& grid) {
    const std::vector<SweepPoint> points = grid.points(base);
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    return check(points, order);
  };
  using Sizes = std::vector<std::size_t>;

  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle,
                   sim::PolicyKind::Asap};
  grid.rhos = {0.5};
  grid.capacities = capacities(7);
  // One rho: runs of 7 pack two to a task.
  EXPECT_EQ(plan_grid(grid), (Sizes{14, 7}));
  // Runs of 20 are cut at kBatchMax; a remainder never joins a full run.
  grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  grid.capacities = capacities(20);
  EXPECT_EQ(plan_grid(grid), (Sizes{16, 4, 16, 4}));
  // Grid order is policy -> rho, so each task holds one run at one rho.
  grid.rhos = {0.3, 0.5};
  grid.capacities = capacities(3);
  EXPECT_EQ(plan_grid(grid), (Sizes{3, 3, 3, 3}));
  // Storm points run alone, and so do the fault-free points between them.
  grid.storm_seeds = {0, 42};
  EXPECT_EQ(plan_grid(grid), Sizes(24, 1));
  grid.storm_seeds = {};
  grid.stack_counts = {0, 2};
  EXPECT_EQ(plan_grid(grid), Sizes(24, 1));

  // Any slice of the grid, as the resilient runner plans one commit
  // chunk of a round, and a round with holes (points already journaled).
  grid = SweepGrid{};
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Asap,
                   sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  grid.rhos = {0.2, 0.5};
  grid.capacities = capacities(24);
  grid.storm_seeds = {0};
  const std::vector<SweepPoint> points = grid.points(base);
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::span<const std::size_t> all(order);
  EXPECT_EQ(check(points, all.subspan(40, 64)),
            (Sizes{8, 16, 8, 16, 8, 8}));
  std::vector<std::size_t> holes;
  for (const std::size_t k : order) {
    if (k % 5 != 0) {
      holes.push_back(k);
    }
  }
  (void)check(points, holes);
  EXPECT_TRUE(plan_batches(points, {}).empty());
}

TEST(SweepTest, StormPointsCarryRobustnessAndDifferFromFaultFree) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(6.0)};
  grid.storm_seeds = {0, 7};

  const SweepResult sweep = run_sweep(base, grid, SweepOptions{});
  ASSERT_EQ(sweep.points.size(), 2u);
  const sim::SimulationResult& clean = sweep.points[0].result;
  const sim::SimulationResult& stormy = sweep.points[1].result;
  EXPECT_FALSE(clean.robustness.has_value());
  ASSERT_TRUE(stormy.robustness.has_value());
  EXPECT_GT(stormy.robustness->activations, 0u);
}

// The seed axis is innermost, so in grid order every fault-free point
// of a storm grid sits between storm points. The plan takes the storm
// points out of the way: the fault-free capacities of one policy and
// rho still share one batch task and merge from a shared charge.
TEST(SweepTest, BatchedStormGridKeepsItsMergeSets) {
  sim::ExperimentConfig base = small_base();
  base.initial_storage = Coulomb(1.0);  // sub-capacity: lanes merge
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  grid.rhos = {0.3};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0), Coulomb(12.0),
                     Coulomb(24.0)};
  grid.storm_seeds = {0, 7};

  const SweepResult reference = run_sweep(base, grid);
  base.simulation.engine = sim::Engine::Batched;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    SweepOptions options;
    options.jobs = jobs;
    const SweepResult batched = run_sweep(base, grid, options);
    EXPECT_GT(batched.stats.batch_merge_sets, 0u);
    EXPECT_EQ(batched.stats.points_batched, 8u);
    ASSERT_EQ(batched.points.size(), reference.points.size());
    for (std::size_t k = 0; k < reference.points.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      EXPECT_EQ(batched.points[k].point.storm_seed,
                reference.points[k].point.storm_seed);
      EXPECT_TRUE(sim::same_result(batched.points[k].result,
                                   reference.points[k].result));
    }
  }
}

TEST(SweepTest, StatsCountPointsAndPublishToObserver) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Asap};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(6.0)};
  grid.storm_seeds = {0};

  obs::MetricsRegistry metrics;
  obs::Context obs(nullptr, &metrics, nullptr);
  SweepOptions options;
  options.jobs = 2;
  options.observer = &obs;
  const SweepResult sweep = run_sweep(base, grid, options);

  EXPECT_EQ(sweep.stats.points, 2u);
  EXPECT_EQ(sweep.stats.jobs, 2u);
  EXPECT_GT(sweep.stats.wall_seconds, 0.0);
  EXPECT_GT(sweep.stats.points_per_second(), 0.0);
  EXPECT_EQ(metrics.gauge("par.sweep.points").last(), 2.0);
  EXPECT_EQ(metrics.gauge("par.sweep.jobs").last(), 2.0);
}

TEST(SweepTelemetryTest, AttachedTelemetryChangesNoResultAtAnyJobCount) {
  const sim::ExperimentConfig base = small_base();
  const SweepGrid grid = table2_grid();
  const SweepResult plain = run_sweep(base, grid, SweepOptions{});

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    telemetry::TelemetryConfig tconfig;
    tconfig.workers = WorkerPool::resolve(jobs);
    tconfig.total_points = grid.points(base).size();
    tconfig.record_lanes = true;
    telemetry::SweepTelemetry tel(tconfig);
    SweepOptions options;
    options.jobs = jobs;
    options.telemetry = &tel;
    const SweepResult observed = run_sweep(base, grid, options);
    ASSERT_EQ(observed.points.size(), plain.points.size());
    for (std::size_t k = 0; k < plain.points.size(); ++k) {
      expect_same_result(plain.points[k].result, observed.points[k].result);
    }
  }
}

TEST(SweepTelemetryTest, FinalSnapshotTotalsEqualTheSweepReport) {
  const sim::ExperimentConfig base = small_base();
  const SweepGrid grid = table2_grid();
  const std::size_t total = grid.points(base).size();

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = WorkerPool::resolve(4);
  tconfig.total_points = total;
  tconfig.record_lanes = true;
  telemetry::SweepTelemetry tel(tconfig);

  SharedSolveCache cache(SolveCacheConfig{});
  SweepOptions options;
  options.jobs = 4;
  options.cache = &cache;
  options.telemetry = &tel;
  const SweepResult sweep = run_sweep(base, grid, options);

  const telemetry::SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.done, sweep.stats.points);
  EXPECT_EQ(snap.retried, 0u);
  EXPECT_EQ(snap.quarantined, 0u);
  // Worker-attributed cache traffic equals the report's shared-counter
  // deltas: every lookup of this sweep went through a worker tap.
  EXPECT_EQ(snap.cache_hits, sweep.stats.cache_hits);
  EXPECT_EQ(snap.cache_misses, sweep.stats.cache_misses);
  EXPECT_EQ(snap.hot_dispatches + snap.reference_dispatches +
                snap.batched_dispatches,
            sweep.stats.points);
  EXPECT_GT(snap.slots, 0u);
  EXPECT_GT(snap.wall_max_us, 0.0);

  // Lanes recorded exactly one attempt per grid point.
  ASSERT_NE(tel.lanes(), nullptr);
  std::size_t lanes = 0;
  for (std::size_t w = 0; w < tel.lanes()->workers(); ++w) {
    lanes += tel.lanes()->lane(w).size();
  }
  EXPECT_EQ(lanes, total);
}

TEST(SweepTelemetryTest, PublishedCacheGaugesMatchTheCountersExactly) {
  const sim::ExperimentConfig base = small_base();
  SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5, 0.5};  // duplicate rho: guaranteed cache hits
  grid.capacities = {Coulomb(6.0)};
  grid.storm_seeds = {0};

  obs::MetricsRegistry metrics;
  obs::Context obs(nullptr, &metrics, nullptr);
  SharedSolveCache cache(SolveCacheConfig{});
  SweepOptions options;
  options.jobs = 2;
  options.cache = &cache;
  options.observer = &obs;
  (void)run_sweep(base, grid, options);

  // The runner publishes once, at sweep end: the gauges must equal the
  // cache's own counters, not some call-site snapshot.
  EXPECT_EQ(metrics.gauge("par.cache.hits").last(),
            static_cast<double>(cache.hits()));
  EXPECT_EQ(metrics.gauge("par.cache.misses").last(),
            static_cast<double>(cache.misses()));
  EXPECT_EQ(metrics.gauge("par.cache.entries").last(),
            static_cast<double>(cache.size()));
}

}  // namespace
}  // namespace fcdpm::par
