#include "par/sweep.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "audit/audit.hpp"
#include "batch/engine.hpp"
#include "cap/governor.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "hot/engine.hpp"
#include "par/verifying_cache.hpp"
#include "par/worker_pool.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace fcdpm::par {

std::vector<SweepPoint> SweepGrid::points(
    const sim::ExperimentConfig& base) const {
  const std::vector<sim::PolicyKind> kinds =
      policies.empty()
          ? std::vector<sim::PolicyKind>{sim::PolicyKind::Conv,
                                         sim::PolicyKind::Asap,
                                         sim::PolicyKind::FcDpm}
          : policies;
  const std::vector<double> rho_values =
      rhos.empty() ? std::vector<double>{base.rho} : rhos;
  const std::vector<Coulomb> capacity_values =
      capacities.empty() ? std::vector<Coulomb>{base.storage_capacity}
                         : capacities;
  const std::vector<std::uint64_t> seeds =
      storm_seeds.empty() ? std::vector<std::uint64_t>{0} : storm_seeds;
  const std::vector<std::size_t> counts =
      stack_counts.empty()
          ? std::vector<std::size_t>{base.stacks.enabled ? base.stacks.count
                                                         : 0}
          : stack_counts;
  const std::vector<stacks::Distribution> dists =
      distributions.empty()
          ? std::vector<stacks::Distribution>{base.stacks.distribution}
          : distributions;

  std::vector<SweepPoint> grid;
  grid.reserve(kinds.size() * rho_values.size() * capacity_values.size() *
               counts.size() * dists.size() * seeds.size());
  for (const sim::PolicyKind kind : kinds) {
    for (const double rho : rho_values) {
      for (const Coulomb capacity : capacity_values) {
        for (const std::size_t count : counts) {
          for (const stacks::Distribution dist : dists) {
            for (const std::uint64_t seed : seeds) {
              grid.push_back({kind, rho, capacity, seed, count, dist});
            }
          }
        }
      }
    }
  }
  return grid;
}

sim::SimulationResult run_one(const sim::ExperimentConfig& config,
                              sim::PolicyKind policy,
                              core::SlotSolveCache* cache,
                              const hot::CompiledTrace* compiled,
                              sim::Engine* landed) {
  // Fresh-solve source for audited cache verification. The memo itself
  // qualifies, and so does the telemetry tap wrapping it; any other
  // cache implementation simply runs unverified.
  const SharedSolveCache* fresh_source = nullptr;
  if (config.audit.enabled() && cache != nullptr) {
    fresh_source = dynamic_cast<const SharedSolveCache*>(cache);
    if (fresh_source == nullptr) {
      if (const auto* tap = dynamic_cast<const SolveCacheTap*>(cache)) {
        fresh_source = &tap->underlying();
      }
    }
  }

  // Everything stateful — policies, hybrid, governor, auditor — is
  // rebuilt per attempt, so the self-heal replay below starts from the
  // same clean state the compiled attempt did.
  sim::Engine engine = sim::Engine::Reference;
  std::optional<audit::AuditStats> failed_stats;
  const auto attempt = [&](sim::Engine requested) -> sim::SimulationResult {
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc_policy =
        sim::make_fc_policy(policy, config);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);

    sim::SimulationOptions options = config.simulation;
    options.initial_storage = config.initial_storage;
    // One fresh governor per run keeps the held-level state
    // thread-private and the results independent of execution order.
    std::optional<cap::Governor> governor;
    if (config.cap.enabled) {
      governor.emplace(cap::make_governor(config.cap, config.efficiency));
      options.governor = &*governor;
    }
    // The batch loop runs multi-point tasks only: a single run asks for
    // the hot lane, which is faster at B = 1 and bit-identical.
    engine = sim::choose_engine(requested == sim::Engine::Batched
                                    ? sim::Engine::Hot
                                    : requested,
                                hybrid, options)
                 .engine;
    const bool compiled_lane = engine != sim::Engine::Reference;

    // Keyed to the landed engine: compiled lanes fail fast (the catch
    // below heals them) and tamper, which models a compiled-engine
    // defect; reference runs fail fast only in strict mode.
    std::optional<audit::Auditor> auditor;
    std::optional<VerifyingSolveCache> verifier;
    core::SlotSolveCache* run_cache = cache;
    if (config.audit.enabled()) {
      audit::AuditSpec spec = config.audit;
      if (!compiled_lane) {
        spec.tamper_slot = audit::npos;
      }
      auditor.emplace(spec,
                      compiled_lane || spec.mode == audit::Mode::Strict);
      options.auditor = &*auditor;
      if (fresh_source != nullptr) {
        verifier.emplace(*cache, *fresh_source, *auditor);
        run_cache = &*verifier;
      }
    }
    if (run_cache != nullptr) {
      fc_policy->set_solve_cache(run_cache);
    }

    try {
      if (!compiled_lane) {
        return sim::simulate(config.trace, dpm_policy, *fc_policy, hybrid,
                             options);
      }
      std::optional<hot::CompiledTrace> local;
      const hot::CompiledTrace& trace =
          compiled != nullptr ? *compiled
                              : local.emplace(config.trace, config.device);
      return hot::simulate_lane(trace, dpm_policy, *fc_policy, hybrid,
                                options);
    } catch (const audit::AuditError&) {
      // The auditor dies with this frame; keep its tally for the
      // fallback record before rethrowing to the dispatcher.
      if (auditor.has_value()) {
        failed_stats = auditor->stats();
      }
      throw;
    }
  };

  sim::SimulationResult result;
  try {
    result = attempt(config.simulation.engine);
  } catch (const audit::AuditError&) {
    if (engine == sim::Engine::Reference) {
      // Reference-engine violation: nothing trusted to heal onto.
      throw;
    }
    // Self-heal: the compiled lane broke an invariant, so replay the
    // run on the reference engine (fresh state, tamper disarmed; its
    // auditor fills result.audit) and keep that result, recording the
    // run's violations as a fallback.
    const audit::AuditStats failed = failed_stats.value_or(audit::AuditStats{});
    result = attempt(sim::Engine::Reference);
    audit::record_engine_fallback(result.audit.value(), failed);
  }
  if (landed != nullptr) {
    *landed = engine;
  }
  return result;
}

SweepPointResult run_point(const sim::ExperimentConfig& base,
                           const SweepPoint& point,
                           std::size_t storm_faults,
                           core::SlotSolveCache* cache,
                           sim::CancellationToken* cancel,
                           std::size_t slot_budget,
                           const hot::CompiledTrace* compiled) {
  sim::ExperimentConfig config = base;
  config.rho = point.rho;
  config.storage_capacity = point.capacity;
  // A shrunk buffer cannot hold the configured reserve.
  config.initial_storage = min(config.initial_storage, point.capacity);
  if (point.stacks > 0) {
    config.stacks.enabled = true;
    config.stacks.count = point.stacks;
    config.stacks.distribution = point.distribution;
  }
  // Workers own everything they mutate; the run-level observer is
  // published to after the batch, never attached to a worker's run.
  config.simulation.observer = nullptr;
  config.simulation.cancel = cancel;
  config.simulation.slot_budget = slot_budget;
  // A storm run lands on the reference loop, which never replays.
  std::optional<fault::FaultInjector> injector;
  if (point.storm_seed != 0) {
    injector.emplace(fault::FaultSchedule::random_storm(
        point.storm_seed, storm_faults,
        config.trace.stats().total_duration()));
    config.simulation.faults = &*injector;
  }

  SweepPointResult out;
  out.point = point;
  out.result = run_one(config, point.policy, cache, compiled, &out.engine);
  return out;
}

namespace {

// Points a batched task can carry, judged from the grid point before
// any hybrid exists; everything else (fault storms, multi-stack
// sources) runs alone through run_point, which asks choose_engine.
bool batch_point_eligible(const SweepPoint& point) {
  return point.storm_seed == 0 && point.stacks == 0;
}

}  // namespace

bool batched_sweep(const sim::ExperimentConfig& base) {
  return base.simulation.engine == sim::Engine::Batched &&
         !base.cap.enabled && base.audit.mode != audit::Mode::Strict &&
         base.audit.tamper_slot == audit::npos && !base.stacks.enabled;
}

std::vector<std::span<const std::size_t>> plan_batches(
    const std::vector<SweepPoint>& points,
    std::span<const std::size_t> indices) {
  const auto rho_bits = [&](std::size_t at) {
    return std::bit_cast<std::uint64_t>(points[indices[at]].rho);
  };
  std::vector<std::span<const std::size_t>> tasks;
  std::size_t begin = 0;  // the open task is indices[begin, at)
  const auto cut = [&](std::size_t end) {
    if (end > begin) {
      tasks.push_back(indices.subspan(begin, end - begin));
    }
    begin = end;
  };
  std::size_t at = 0;
  while (at < indices.size()) {
    const SweepPoint& first = points[indices[at]];
    if (!batch_point_eligible(first)) {
      cut(at);
      cut(at + 1);
      ++at;
      continue;
    }
    // The next piece: up to kBatchMax points of one policy run at one
    // rho. Merge sets only form within one FC policy, so a task cut
    // inside a run strands part of the cascade in a second, shorter-
    // lived set; pieces are packed whole.
    std::size_t end = at + 1;
    while (end < indices.size() && end - at < kBatchMax &&
           batch_point_eligible(points[indices[end]]) &&
           points[indices[end]].policy == first.policy &&
           rho_bits(end) == rho_bits(at)) {
      ++end;
    }
    if (rho_bits(begin) != rho_bits(at) || end - begin > kBatchMax) {
      cut(at);
    }
    at = end;
  }
  cut(indices.size());
  return tasks;
}

void run_batch_chunk(
    const sim::ExperimentConfig& base, const std::vector<SweepPoint>& points,
    std::span<const std::size_t> task, std::size_t storm_faults,
    const hot::CompiledTrace& compiled, core::SlotSolveCache* cache,
    const std::function<SweepPointResult&(std::size_t lane)>& lane_out,
    batch::BatchStats& stats) {
  sim::ExperimentConfig config = base;
  config.rho = points[task.front()].rho;
  config.simulation.observer = nullptr;

  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);

  sim::SimulationOptions options = config.simulation;
  options.engine = sim::Engine::Batched;
  // The engine clamps per lane: min(shared initial, lane capacity)
  // reproduces run_point's per-point initial_storage exactly.
  options.initial_storage = base.initial_storage;

  // Options, observers and the hybrid's type are the same for every
  // lane of a task, so the first lane's hybrid answers for all of them.
  config.storage_capacity = points[task.front()].capacity;
  if (sim::choose_engine(sim::Engine::Batched, sim::make_hybrid(config),
                         options)
          .engine != sim::Engine::Batched) {
    for (std::size_t i = 0; i < task.size(); ++i) {
      lane_out(i) = run_point(base, points[task[i]], storm_faults, cache,
                              nullptr, 0, &compiled);
    }
    return;
  }

  std::vector<std::unique_ptr<core::FcOutputPolicy>> fcs;
  std::vector<std::unique_ptr<audit::Auditor>> auditors;
  std::vector<power::HybridPowerSource> hybrids;
  std::vector<batch::BatchLaneSpec> lanes;
  // Lane specs hold pointers into these vectors: no reallocation.
  fcs.reserve(task.size());
  auditors.reserve(task.size());
  hybrids.reserve(task.size());
  lanes.reserve(task.size());

  for (const std::size_t k : task) {
    const SweepPoint& point = points[k];
    config.storage_capacity = point.capacity;
    config.initial_storage = min(base.initial_storage, point.capacity);
    hybrids.push_back(sim::make_hybrid(config));
    fcs.push_back(sim::make_fc_policy(point.policy, config));
    batch::BatchLaneSpec lane;
    lane.fc = fcs.back().get();
    lane.hybrid = &hybrids.back();
    if (config.audit.enabled()) {
      audit::AuditSpec spec = config.audit;
      // Tamper is a per-point drill; batched sweeps disarm it (the
      // scheduler keeps tampered sweeps on the per-point path anyway).
      spec.tamper_slot = audit::npos;
      auditors.push_back(
          std::make_unique<audit::Auditor>(spec, /*fail_fast=*/true));
      lane.auditor = auditors.back().get();
    }
    lanes.push_back(lane);
  }

  std::vector<batch::LaneOutcome> outcomes =
      batch::run_batch(compiled, dpm_policy, lanes, options, cache, &stats);

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SweepPoint& point = points[task[i]];
    batch::LaneOutcome& outcome = outcomes[i];
    SweepPointResult& out = lane_out(i);
    if (outcome.end == batch::LaneOutcome::End::Completed) {
      out.point = point;
      out.result = std::move(outcome.result);
      out.engine = sim::Engine::Batched;
      continue;
    }
    // AuditFailed (budgets are never set here): heal on the reference
    // engine from fresh state, keeping the failed lane's tally.
    sim::ExperimentConfig ref = base;
    ref.simulation.engine = sim::Engine::Reference;
    out = run_point(ref, point, storm_faults, cache);
    audit::record_engine_fallback(
        out.result.audit.value(),
        outcome.result.audit.value_or(audit::AuditStats{}));
  }
}

void SweepRunStats::add_batch(const batch::BatchStats& task) noexcept {
  batch_merge_sets += task.merge_sets;
  batch_merged_lane_slots += task.merged_lane_slots;
  batch_splits += task.splits;
}

void account_point(telemetry::WorkerShard& shard,
                   const SweepPointResult& done, double wall_us) {
  shard.points_done.fetch_add(1, std::memory_order_relaxed);
  shard.slots.fetch_add(done.result.slots, std::memory_order_relaxed);
  if (done.engine == sim::Engine::Batched) {
    shard.batched_dispatches.fetch_add(1, std::memory_order_relaxed);
  } else if (done.engine == sim::Engine::Hot) {
    shard.hot_dispatches.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard.reference_dispatches.fetch_add(1, std::memory_order_relaxed);
  }
  if (done.result.cap.has_value()) {
    shard.capped_slots.fetch_add(done.result.cap->slots_capped,
                                 std::memory_order_relaxed);
  }
  if (done.result.audit.has_value()) {
    const audit::AuditStats& a = *done.result.audit;
    shard.audited_slots.fetch_add(a.slots_audited, std::memory_order_relaxed);
    shard.audit_violations.fetch_add(a.violations,
                                     std::memory_order_relaxed);
    shard.engine_fallbacks.fetch_add(a.engine_fallbacks,
                                     std::memory_order_relaxed);
  }
  shard.wall_us.observe(wall_us);
  shard.sim_s.observe(done.result.totals.duration.value());
}

TimedTask::TimedTask(telemetry::SweepTelemetry* telemetry,
                     std::size_t worker, SharedSolveCache* memo)
    : telemetry_(telemetry), worker_(worker), memo_(memo) {
  if (telemetry_ != nullptr) {
    if (memo_ != nullptr) {
      tap_.emplace(*memo_);
    }
    start_ns_ = telemetry_->now_ns();
  }
}

core::SlotSolveCache* TimedTask::cache() noexcept {
  return tap_.has_value() ? static_cast<core::SlotSolveCache*>(&*tap_)
                          : memo_;
}

telemetry::WorkerShard& TimedTask::shard() const {
  return telemetry_->shards().shard(worker_);
}

double TimedTask::finish() {
  end_ns_ = telemetry_->now_ns();
  telemetry::WorkerShard& s = shard();
  s.busy_ns.fetch_add(end_ns_ - start_ns_, std::memory_order_relaxed);
  if (tap_.has_value()) {
    s.cache_hits.fetch_add(tap_->hits(), std::memory_order_relaxed);
    s.cache_misses.fetch_add(tap_->misses(), std::memory_order_relaxed);
  }
  return static_cast<double>(end_ns_ - start_ns_) * 1e-3;
}

void TimedTask::record_lane(std::size_t point_index, std::size_t attempt,
                            bool ok, bool quarantined,
                            sim::Engine engine) const {
  telemetry::LaneRecorder* lanes = telemetry_->lanes();
  if (lanes == nullptr) {
    return;
  }
  const auto count = [](std::uint64_t n) {
    return static_cast<std::uint32_t>(n);
  };
  lanes->record(worker_,
                {.start_ns = start_ns_,
                 .end_ns = end_ns_,
                 .point_index = count(point_index),
                 .attempt = count(attempt),
                 .cache_hits = count(tap_.has_value() ? tap_->hits() : 0),
                 .cache_misses = count(tap_.has_value() ? tap_->misses() : 0),
                 .ok = ok,
                 .quarantined = quarantined,
                 .engine = engine});
}

SweepResult run_sweep(const sim::ExperimentConfig& base,
                      const SweepGrid& grid, const SweepOptions& options) {
  const std::vector<SweepPoint> points = grid.points(base);

  SweepResult out;
  out.points.resize(points.size());
  out.stats.points = points.size();

  const std::uint64_t hits_before =
      options.cache != nullptr ? options.cache->hits() : 0;
  const std::uint64_t misses_before =
      options.cache != nullptr ? options.cache->misses() : 0;

  // Compile the trace once, up front, and share it read-only across all
  // workers (CompiledTrace is immutable after construction).
  std::optional<hot::CompiledTrace> compiled;
  if (base.simulation.engine != sim::Engine::Reference) {
    compiled.emplace(base.trace, base.device);
  }
  const hot::CompiledTrace* shared =
      compiled.has_value() ? &*compiled : nullptr;

  // Batched sweeps fan multi-point tasks instead of single points; the
  // plan depends on the grid alone, so results stay bit-identical across
  // --jobs. Other sweeps run every point as its own task.
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::span<const std::size_t>> tasks;
  if (batched_sweep(base)) {
    // Storm and stack points run alone; moved to the back, they no
    // longer split the fault-free points of one policy and rho (the
    // seed axis is innermost) into one-point tasks. Results are stored
    // by grid index, so the order changes no output.
    std::stable_partition(order.begin(), order.end(), [&](std::size_t k) {
      return batch_point_eligible(points[k]);
    });
    tasks = plan_batches(points, order);
  } else {
    for (const std::size_t& k : order) {
      tasks.emplace_back(&k, 1);
    }
  }
  std::vector<batch::BatchStats> task_stats(tasks.size());

  const auto started = std::chrono::steady_clock::now();
  {
    WorkerPool pool(options.jobs);
    out.stats.jobs = pool.thread_count();
    telemetry::SweepTelemetry* tel = options.telemetry;

    pool.run_indexed_on_workers(tasks.size(), [&](std::size_t worker,
                                                  std::size_t t) {
      TimedTask task(tel, worker, options.cache);
      const std::span<const std::size_t> chunk = tasks[t];
      if (chunk.size() > 1) {
        run_batch_chunk(
            base, points, chunk, grid.storm_faults, *shared, task.cache(),
            [&](std::size_t lane) -> SweepPointResult& {
              return out.points[chunk[lane]];
            },
            task_stats[t]);
        if (tel != nullptr) {
          // The slot loop advances all lanes together, so per-point wall
          // time is the chunk's share — the histogram keeps per-point
          // semantics without pretending to per-lane timers.
          const double per_point_us =
              task.finish() / static_cast<double>(chunk.size());
          for (const std::size_t k : chunk) {
            account_point(task.shard(), out.points[k], per_point_us);
          }
          // One lane per chunk: the span covers every point it carried.
          task.record_lane(chunk.front(), 1, true, false,
                           sim::Engine::Batched);
        }
        return;
      }
      const std::size_t k = chunk.front();
      out.points[k] = run_point(base, points[k], grid.storm_faults,
                                task.cache(), nullptr, 0, shared);
      if (tel != nullptr) {
        account_point(task.shard(), out.points[k], task.finish());
        task.record_lane(k, 1, true, false, out.points[k].engine);
      }
    });
  }

  for (const batch::BatchStats& s : task_stats) {
    out.stats.add_batch(s);
  }
  for (const SweepPointResult& r : out.points) {
    if (r.engine == sim::Engine::Batched) {
      ++out.stats.points_batched;
    }
  }
  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  if (options.cache != nullptr) {
    out.stats.cache_hits = options.cache->hits() - hits_before;
    out.stats.cache_misses = options.cache->misses() - misses_before;
  }

  if (options.observer != nullptr) {
    publish_sweep_stats(*options.observer, out.stats, options.cache);
  }
  return out;
}

void publish_sweep_stats(obs::Context& obs, const SweepRunStats& stats,
                         const SharedSolveCache* cache) {
  if (!obs.active()) {
    return;
  }
  obs.gauge("par.sweep.points", static_cast<double>(stats.points));
  obs.gauge("par.sweep.jobs", static_cast<double>(stats.jobs));
  obs.gauge("par.sweep.wall_s", stats.wall_seconds);
  obs.gauge("par.sweep.points_per_s", stats.points_per_second());
  if (stats.points_batched > 0) {
    obs.gauge("par.sweep.points_batched",
              static_cast<double>(stats.points_batched));
    obs.gauge("par.sweep.batch_merge_sets",
              static_cast<double>(stats.batch_merge_sets));
    obs.gauge("par.sweep.batch_merged_lane_slots",
              static_cast<double>(stats.batch_merged_lane_slots));
    obs.gauge("par.sweep.batch_splits",
              static_cast<double>(stats.batch_splits));
    obs.gauge("par.sweep.batch_journal_hits",
              static_cast<double>(stats.batch_journal_hits));
  }
  if (cache != nullptr) {
    cache->publish(obs);
  }
}

}  // namespace fcdpm::par
