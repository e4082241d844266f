#include "par/sweep.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>

#include "audit/audit.hpp"
#include "batch/engine.hpp"
#include "cap/governor.hpp"
#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "hot/engine.hpp"
#include "par/verifying_cache.hpp"

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
                              sim::Engine* landed,
                              hot::SlackWitness* witness) {
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
    if (witness != nullptr) {
      witness->latch.reset();
      if (compiled_lane) {
        run_cache = &witness->latch.emplace(run_cache);
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
                                options, witness);
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

namespace {

/// The config a grid point runs under, before any per-attempt wiring.
sim::ExperimentConfig point_config(const sim::ExperimentConfig& base,
                                   const SweepPoint& point) {
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
  return config;
}

}  // namespace

SweepPointResult run_point(const sim::ExperimentConfig& base,
                           const SweepPoint& point,
                           std::size_t storm_faults,
                           core::SlotSolveCache* cache,
                           sim::CancellationToken* cancel,
                           std::size_t slot_budget,
                           const hot::CompiledTrace* compiled) {
  sim::ExperimentConfig config = point_config(base, point);
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

SweepPointResult SweepTwins::serve(
    const SweepPoint& point, const SweepPointResult& canonical_result) const {
  SweepPointResult out = canonical_result;
  out.point = point;
  const auto bits = std::bit_cast<std::uint64_t>(point.rho);
  for (const auto& [rho, tally] : accuracy) {
    if (std::bit_cast<std::uint64_t>(rho) == bits) {
      out.result.idle_accuracy = tally;
    }
  }
  return out;
}

void SweepTwins::link(std::size_t twin, std::size_t to) {
  if (is_twin(twin)) {
    std::vector<std::size_t>& from = twin_lists[canonical[twin]];
    from.erase(std::lower_bound(from.begin(), from.end(), twin));
  }
  canonical[twin] = to;
  std::vector<std::size_t>& list = twin_lists[to];
  list.insert(std::upper_bound(list.begin(), list.end(), twin), twin);
}

SweepTwins find_twins(const sim::ExperimentConfig& base,
                      const std::vector<SweepPoint>& points,
                      const hot::CompiledTrace& compiled,
                      std::size_t never_twin) {
  SweepTwins twins;
  if (base.audit.tamper_slot != audit::npos ||
      base.simulation.faults != nullptr) {
    return twins;
  }
  const auto may_twin = [](const SweepPoint& point) {
    return !sim::reads_idle_prediction(point.policy) &&
           point.storm_seed == 0;
  };

  // One DPM-only pass per distinct rho: the sleep decision of every
  // slot, stepped as the slot loops step the predictor.
  std::vector<std::uint64_t> rho_bits;
  std::vector<std::vector<bool>> decisions;
  sim::ExperimentConfig config = base;
  for (const SweepPoint& point : points) {
    const auto bits = std::bit_cast<std::uint64_t>(point.rho);
    if (!may_twin(point) ||
        std::find(rho_bits.begin(), rho_bits.end(), bits) != rho_bits.end()) {
      continue;
    }
    config.rho = point.rho;
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    dpm::InlineIdlePlan plan;
    std::vector<bool>& slept = decisions.emplace_back(compiled.size());
    for (std::size_t k = 0; k < compiled.size(); ++k) {
      dpm_policy.plan_idle_into(compiled.idle(k), plan);
      slept[k] = plan.slept;
      dpm_policy.observe_idle(compiled.idle(k));
    }
    rho_bits.push_back(bits);
    twins.accuracy.emplace_back(point.rho, dpm_policy.accuracy());
  }
  // A rho's decision class: the first rho with the same decisions.
  std::vector<std::size_t> classes(decisions.size());
  for (std::size_t r = 0; r < decisions.size(); ++r) {
    classes[r] = static_cast<std::size_t>(
        std::find(decisions.begin(), decisions.end(), decisions[r]) -
        decisions.begin());
  }
  const auto decision_class = [&](double rho) {
    return classes[static_cast<std::size_t>(
        std::find(rho_bits.begin(), rho_bits.end(),
                  std::bit_cast<std::uint64_t>(rho)) -
        rho_bits.begin())];
  };

  // The first point of each (policy, capacity, stacks, distribution,
  // decision class) is its canonical; every later one is a twin.
  using Key = std::tuple<sim::PolicyKind, std::uint64_t, std::size_t,
                         stacks::Distribution, std::size_t>;
  std::map<Key, std::size_t> canonical_of;
  twins.canonical.resize(points.size());
  std::iota(twins.canonical.begin(), twins.canonical.end(), std::size_t{0});
  twins.twin_lists.resize(points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    const SweepPoint& point = points[k];
    if (!may_twin(point)) {
      continue;
    }
    // The distribution matters only on stack points (see run_point).
    const Key key{point.policy,
                  std::bit_cast<std::uint64_t>(point.capacity.value()),
                  point.stacks,
                  point.stacks > 0 ? point.distribution
                                   : stacks::Distribution::Proportional,
                  decision_class(point.rho)};
    const auto [first, inserted] = canonical_of.try_emplace(key, k);
    if (!inserted && k != never_twin) {
      twins.link(k, first->second);
      ++twins.count;
    }
  }
  return twins;
}

bool batch_point_eligible(const SweepPoint& point) noexcept {
  return point.storm_seed == 0 && point.stacks == 0;
}

bool capacity_twin_eligible(const SweepPoint& point) noexcept {
  return batch_point_eligible(point) && point.policy != sim::PolicyKind::Asap;
}

bool hot_chunked_sweep(const sim::ExperimentConfig& base) {
  return base.simulation.engine == sim::Engine::Hot && !base.cap.enabled &&
         base.audit.tamper_slot == audit::npos &&
         base.simulation.faults == nullptr && !base.stacks.enabled;
}

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

std::vector<SweepPointResult> run_batch_chunk(
    const sim::ExperimentConfig& base, const std::vector<SweepPoint>& points,
    std::span<const std::size_t> task, std::size_t storm_faults,
    const hot::CompiledTrace& compiled, core::SlotSolveCache* cache,
    batch::BatchStats& stats) {
  std::vector<SweepPointResult> out(task.size());
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
      out[i] = run_point(base, points[task[i]], storm_faults, cache, nullptr,
                         0, &compiled);
    }
    return out;
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
    if (outcome.end == batch::LaneOutcome::End::Completed) {
      out[i].point = point;
      out[i].result = std::move(outcome.result);
      out[i].engine = sim::Engine::Batched;
      continue;
    }
    // AuditFailed (budgets are never set here): heal on the reference
    // engine from fresh state, keeping the failed lane's tally.
    sim::ExperimentConfig ref = base;
    ref.simulation.engine = sim::Engine::Reference;
    out[i] = run_point(ref, point, storm_faults, cache);
    audit::record_engine_fallback(
        out[i].result.audit.value(),
        outcome.result.audit.value_or(audit::AuditStats{}));
  }
  return out;
}

CapacityKey capacity_key(const sim::ExperimentConfig& base,
                         const SweepPoint& point) {
  // point_config's reserve, then the slot loops' clamp (a negative
  // reserve means a full buffer).
  const Coulomb reserve = min(base.initial_storage, point.capacity);
  const Coulomb initial =
      reserve.value() < 0.0 ? point.capacity : min(reserve, point.capacity);
  return {point.policy, std::bit_cast<std::uint64_t>(point.rho),
          std::bit_cast<std::uint64_t>(initial.value())};
}

std::vector<SweepPointResult> run_hot_chunk(
    const sim::ExperimentConfig& base, const std::vector<SweepPoint>& points,
    std::span<const std::size_t> task, const hot::CompiledTrace& compiled,
    core::SlotSolveCache* cache, std::vector<std::size_t>& leader) {
  std::vector<SweepPointResult> out(task.size());
  leader.assign(task.size(), kNoLeader);
  // Smallest capacity first, grid order among equal ones.
  std::vector<std::size_t> order(task.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return points[task[a]].capacity < points[task[b]].capacity;
                   });
  for (std::size_t at = 0; at < order.size(); ++at) {
    const std::size_t i = order[at];
    if (leader[i] != kNoLeader) {
      continue;
    }
    const SweepPoint& point = points[task[i]];
    FCDPM_EXPECTS(capacity_twin_eligible(point),
                  "run_hot_chunk: a point that can have no capacity twin");
    hot::SlackWitness witness;
    out[i].point = point;
    out[i].result = run_one(point_config(base, point), point.policy, cache,
                            &compiled, &out[i].engine, &witness);
    if (out[i].engine != sim::Engine::Hot || !witness.clean()) {
      continue;  // the next-smallest capacity of the group runs
    }
    // The leader itself, then every larger capacity not yet run.
    const CapacityKey key = capacity_key(base, point);
    for (std::size_t later = at; later < order.size(); ++later) {
      const std::size_t j = order[later];
      if (leader[j] == kNoLeader &&
          capacity_key(base, points[task[j]]) == key) {
        leader[j] = task[i];
      }
    }
  }
  return out;
}

}  // namespace fcdpm::par
