#include "resilience/resilient_sweep.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "batch/engine.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "par/worker_pool.hpp"
#include "resilience/journal.hpp"
#include "resilience/watchdog.hpp"
#include "sim/result_fields.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace fcdpm::resilience {

namespace {

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The distribution is journaled, and matters, only on stack points.
bool same_point(const par::SweepPoint& a, const par::SweepPoint& b) noexcept {
  return a.policy == b.policy && same_bits(a.rho, b.rho) &&
         same_bits(a.capacity.value(), b.capacity.value()) &&
         a.storm_seed == b.storm_seed && a.stacks == b.stacks &&
         (a.stacks == 0 || a.distribution == b.distribution);
}

/// grid_fingerprint plus the memo's quanta when any is nonzero: a
/// snapped sweep solves different problems than an exact one, so their
/// journals must not splice. Exact sweeps (no memo, or all quanta 0)
/// keep the plain grid fingerprint, so their journals still resume.
std::uint64_t sweep_fingerprint(const sim::ExperimentConfig& base,
                                const std::vector<par::SweepPoint>& points,
                                std::size_t storm_faults,
                                const par::SharedSolveCache* cache) {
  std::uint64_t hash = grid_fingerprint(base, points, storm_faults);
  if (cache == nullptr) {
    return hash;
  }
  const par::SolveCacheConfig& q = cache->config();
  const std::array<double, 3> quanta = {q.time_quantum.value(),
                                        q.current_quantum.value(),
                                        q.charge_quantum.value()};
  if (quanta == std::array<double, 3>{}) {
    return hash;
  }
  for (const double quantum : quanta) {
    const auto bits = std::bit_cast<std::uint64_t>(quantum);
    for (int shift = 0; shift < 64; shift += 8) {  // FNV-1a, as journal.cpp
      hash ^= (bits >> shift) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

/// One scheduled unit of work: a grid point and which attempt this is.
struct BatchItem {
  std::size_t index = 0;
  std::size_t attempt = 1;
};

}  // namespace

ResilientSweepResult run_resilient_sweep(const sim::ExperimentConfig& base,
                                         const par::SweepGrid& grid,
                                         const ResilienceOptions& options) {
  const std::vector<par::SweepPoint> points = grid.points(base);
  const std::uint64_t fingerprint =
      sweep_fingerprint(base, points, grid.storm_faults, options.cache);
  const std::size_t max_attempts = 1 + options.contract.max_retries;

  ResilientSweepResult out;
  out.points.resize(points.size());
  out.stats.points = points.size();

  // One compiled trace serves every attempt and spot-check, shared
  // read-only across workers, as in par::run_sweep.
  std::optional<hot::CompiledTrace> compiled;
  if (base.simulation.engine != sim::Engine::Reference) {
    compiled.emplace(base.trace, base.device);
  }
  const hot::CompiledTrace* shared =
      compiled.has_value() ? &*compiled : nullptr;

  // --- resume: replay the journal, schedule only the remainder --------
  std::size_t journal_valid_bytes = 0;
  if (options.resume) {
    FCDPM_EXPECTS(!options.journal_path.empty(),
                  "--resume requires a journal path");
    JournalLoad load;
    {
      obs::StageTimer timer(options.observer, "resilience.load_s");
      load = load_journal(options.journal_path);
    }
    if (load.header.fingerprint != fingerprint ||
        load.header.points != points.size()) {
      throw CsvError("journal does not match this sweep (grid fingerprint "
                     "mismatch): " +
                     options.journal_path);
    }
    out.resilience.torn_tail_recovered = load.torn_tail;
    out.resilience.torn_bytes_dropped = load.dropped_bytes;
    journal_valid_bytes = load.valid_bytes;
    for (JournalRecord& record : load.records) {
      if (record.index >= points.size() ||
          !same_point(record.point, points[record.index])) {
        throw CsvError("journal record does not match grid point " +
                       std::to_string(record.index) + ": " +
                       options.journal_path);
      }
      ResilientPoint& slot = out.points[record.index];
      slot.replayed = true;
      slot.attempts = record.attempts;
      slot.ok = record.ok;
      slot.result.point = points[record.index];
      if (record.ok) {
        slot.result.result = std::move(record.result);
      } else {
        slot.error = std::move(record.error);
      }
      ++out.resilience.replayed;
    }

    // Spot-check: re-simulate a deterministic sample of the replayed
    // points and hold the journal to bit-identity. Catches a journal
    // from a different build or a tampered record that still checksums.
    std::vector<std::size_t> replayed_ok;
    for (std::size_t k = 0; k < out.points.size(); ++k) {
      if (out.points[k].replayed && out.points[k].ok) {
        replayed_ok.push_back(k);
      }
    }
    const std::size_t checks =
        std::min(options.spot_checks, replayed_ok.size());
    for (std::size_t c = 0; c < checks; ++c) {
      const std::size_t k =
          replayed_ok[c * replayed_ok.size() / checks];  // evenly spaced
      const par::SweepPointResult fresh =
          par::run_point(base, points[k], grid.storm_faults, options.cache,
                         nullptr, 0, shared);
      if (!sim::same_result(fresh.result, out.points[k].result.result)) {
        throw CsvError("journal spot-check failed at grid point " +
                       std::to_string(k) +
                       ": replayed result is not bit-identical to "
                       "re-simulation: " +
                       options.journal_path);
      }
      ++out.resilience.spot_checks;
    }
  }

  // --- journal writer --------------------------------------------------
  std::optional<Journal> journal;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      journal.emplace(Journal::open_for_append(options.journal_path,
                                               journal_valid_bytes));
    } else {
      journal.emplace(Journal::create(
          options.journal_path,
          {base.trace.name(), points.size(), fingerprint}));
    }
  }

  // --- round-based schedule -------------------------------------------
  std::map<std::size_t, std::vector<std::size_t>> schedule;
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (!out.points[k].replayed) {
      schedule[0].push_back(k);
      ++out.resilience.scheduled;
    }
  }

  const std::uint64_t hits_before =
      options.cache != nullptr ? options.cache->hits() : 0;
  const std::uint64_t misses_before =
      options.cache != nullptr ? options.cache->misses() : 0;
  std::vector<std::size_t> attempts(points.size(), 0);

  // Multi-point batched tasks, planned per commit chunk as par::run_sweep
  // plans its grid, wherever batching honours the contract. Per-point
  // attempts stay for a nonzero deadline (a slot budget per attempt), a
  // running watchdog (per-point cancellation) and the injected failure.
  const bool batching = par::batched_sweep(base) &&
                        options.contract.point_deadline_slots == 0 &&
                        options.watchdog_stall.count() == 0;
  const auto plan_tasks = [&](std::span<const std::size_t> chunk) {
    std::vector<std::span<const std::size_t>> tasks;
    if (!batching) {
      for (std::size_t c = 0; c < chunk.size(); ++c) {
        tasks.push_back(chunk.subspan(c, 1));
      }
      return tasks;
    }
    for (const std::span<const std::size_t> task :
         par::plan_batches(points, chunk)) {
      const auto at = std::find(task.begin(), task.end(),
                                options.contract.inject_fail_index);
      if (at == task.end()) {
        tasks.push_back(task);
        continue;
      }
      const auto i = static_cast<std::size_t>(at - task.begin());
      for (const std::span<const std::size_t> piece :
           {task.first(i), task.subspan(i, 1), task.subspan(i + 1)}) {
        if (!piece.empty()) {
          tasks.push_back(piece);
        }
      }
    }
    return tasks;
  };

  const auto started = std::chrono::steady_clock::now();
  {
    par::WorkerPool pool(options.jobs);
    out.stats.jobs = pool.thread_count();

    std::vector<sim::CancellationToken> tokens(pool.thread_count());
    std::optional<Watchdog> watchdog;
    if (options.watchdog_stall.count() > 0) {
      watchdog.emplace(pool.thread_count(),
                       WatchdogConfig{options.watchdog_poll,
                                      options.watchdog_stall, true});
    }

    while (!schedule.empty()) {
      const auto head = schedule.begin();
      const std::size_t round = head->first;
      const std::vector<std::size_t> indices = std::move(head->second);
      schedule.erase(head);
      ++out.resilience.rounds;

      std::vector<BatchItem> batch;
      batch.reserve(indices.size());
      for (const std::size_t k : indices) {
        batch.push_back({k, attempts[k] + 1});
      }
      std::vector<PointOutcome> outcomes(batch.size());

      // Outcome j failed its last attempt.
      const auto quarantined = [&](std::size_t j) {
        return !outcomes[j].ok && batch[j].attempt >= max_attempts;
      };
      // One finished attempt on its worker's shard.
      const auto account = [&](telemetry::WorkerShard& shard, std::size_t j,
                               double wall_us) {
        if (outcomes[j].ok) {
          par::account_point(shard, outcomes[j].result, wall_us);
          return;
        }
        // A failed attempt has no trustworthy result fields.
        (quarantined(j) ? shard.points_quarantined : shard.points_retried)
            .fetch_add(1, std::memory_order_relaxed);
        shard.wall_us.observe(wall_us);
      };
      // Journal a final outcome at once: written through, so a crash can
      // only lose in-flight points; the chunk's commit makes it durable.
      const auto journal_outcome = [&](std::size_t j) {
        if (!journal.has_value() || !(outcomes[j].ok || quarantined(j))) {
          return;
        }
        JournalRecord record;
        record.index = batch[j].index;
        record.point = points[record.index];
        record.attempts = batch[j].attempt;
        record.ok = outcomes[j].ok;
        if (record.ok) {
          record.result = outcomes[j].result.result;
        } else {
          record.error = outcomes[j].error;
        }
        journal->append(record);
      };

      // A one-point task: one attempt under the full contract.
      const auto run_single = [&](std::size_t worker, std::size_t j) {
        const BatchItem item = batch[j];
        sim::CancellationToken& token = tokens[worker];
        token.reset();
        if (watchdog.has_value()) {
          watchdog->begin_work(worker, &token);
        }
        par::TimedTask task(options.telemetry, worker, options.cache);
        outcomes[j] = execute_point(base, points[item.index], item.index,
                                    grid.storm_faults, task.cache(),
                                    options.contract, &token, shared);
        if (watchdog.has_value()) {
          watchdog->end_work(worker);
        }
        if (options.telemetry != nullptr) {
          telemetry::WorkerShard& shard = task.shard();
          account(shard, j, task.finish());
          // Heartbeats accumulated by this attempt's run (the token is
          // reset per attempt, so this is exactly one attempt's beats).
          shard.heartbeats.fetch_add(token.heartbeat(),
                                     std::memory_order_relaxed);
          task.record_lane(item.index, item.attempt, outcomes[j].ok,
                           quarantined(j),
                           outcomes[j].ok ? outcomes[j].result.engine
                                          : sim::Engine::Reference);
        }
        journal_outcome(j);
      };

      // A multi-point task, outcomes [first, first + lanes.size()): one
      // batched run, each lane judged by the same contract checks as a
      // per-point attempt. If the run throws, the points re-run one by
      // one, so every error reads exactly as on the per-point path.
      const auto run_batched = [&](std::size_t worker, std::size_t first,
                                   std::span<const std::size_t> lanes,
                                   batch::BatchStats& stats) {
        par::TimedTask task(options.telemetry, worker, options.cache);
        bool ran = true;
        try {
          par::run_batch_chunk(
              base, points, lanes, grid.storm_faults, *shared, task.cache(),
              [&](std::size_t lane) -> par::SweepPointResult& {
                return outcomes[first + lane].result;
              },
              stats);
        } catch (const std::exception&) {
          ran = false;
          stats = {};
        }
        for (std::size_t j = first; j < first + lanes.size(); ++j) {
          outcomes[j] =
              ran ? check_result(std::move(outcomes[j].result),
                                 options.contract)
                  : execute_point(base, points[batch[j].index],
                                  batch[j].index, grid.storm_faults,
                                  task.cache(), options.contract, nullptr,
                                  shared);
        }
        if (options.telemetry != nullptr) {
          // The chunk's share of wall time per point, one trace lane per
          // chunk, as in par::run_sweep.
          const double per_point_us =
              task.finish() / static_cast<double>(lanes.size());
          bool ok = true;
          bool any_quarantined = false;
          for (std::size_t j = first; j < first + lanes.size(); ++j) {
            account(task.shard(), j, per_point_us);
            ok = ok && outcomes[j].ok;
            any_quarantined = any_quarantined || quarantined(j);
          }
          task.record_lane(lanes.front(), batch[first].attempt, ok,
                           any_quarantined,
                           ran ? sim::Engine::Batched
                               : outcomes[first].result.engine);
        }
        for (std::size_t j = first; j < first + lanes.size(); ++j) {
          journal_outcome(j);
        }
      };

      // Group commit: each chunk's records are written as its tasks
      // finish and fsynced once when the chunk is done, before any of
      // its outcomes is folded into the result or the retry schedule.
      for (std::size_t begin = 0; begin < batch.size();
           begin += kCommitChunk) {
        const std::size_t end =
            std::min(batch.size(), begin + kCommitChunk);
        const std::vector<std::span<const std::size_t>> tasks =
            plan_tasks(std::span(indices).subspan(begin, end - begin));
        std::vector<batch::BatchStats> task_stats(tasks.size());
        pool.run_indexed_on_workers(
            tasks.size(), [&](std::size_t worker, std::size_t t) {
              const std::size_t first =
                  static_cast<std::size_t>(tasks[t].data() - indices.data());
              if (tasks[t].size() > 1) {
                run_batched(worker, first, tasks[t], task_stats[t]);
              } else {
                run_single(worker, first);
              }
            });
        if (journal.has_value() && journal->commit()) {
          ++out.resilience.journal_commits;
        }
        for (const batch::BatchStats& stats : task_stats) {
          out.stats.add_batch(stats);
        }

        // Serial post-pass in batch order: deterministic retry schedule.
        for (std::size_t j = begin; j < end; ++j) {
          const BatchItem item = batch[j];
          attempts[item.index] = item.attempt;
          ResilientPoint& slot = out.points[item.index];
          slot.attempts = item.attempt;
          if (outcomes[j].ok) {
            slot.ok = true;
            slot.result = std::move(outcomes[j].result);
            continue;
          }
          if (item.attempt < max_attempts) {
            const std::size_t delay = backoff_delay_rounds(
                options.contract.backoff_seed, item.index, item.attempt,
                options.contract.max_backoff_exponent);
            schedule[round + delay].push_back(item.index);
            ++out.resilience.retries;
            continue;
          }
          slot.ok = false;
          slot.result.point = points[item.index];
          slot.error = std::move(outcomes[j].error);
        }
      }
    }

    if (watchdog.has_value()) {
      watchdog->stop();
      out.resilience.watchdog_stalls = watchdog->stalls_detected();
    }
  }
  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  for (const ResilientPoint& point : out.points) {
    if (point.ok && point.result.engine == sim::Engine::Batched) {
      ++out.stats.points_batched;
    }
    if (!point.ok) {
      ++out.resilience.quarantined;
    } else if (point.result.result.cap.has_value() &&
               point.result.result.cap->slots_capped > 0) {
      // Points that survived only by throttling — the governor's
      // headline number for brownout reports.
      ++out.resilience.capped_ok;
    }
  }

  if (options.cache != nullptr) {
    out.stats.cache_hits = options.cache->hits() - hits_before;
    out.stats.cache_misses = options.cache->misses() - misses_before;
  }

  if (options.observer != nullptr && options.observer->active()) {
    obs::Context& obs = *options.observer;
    // Shared end-of-sweep publication (par.sweep.* + par.cache.*): one
    // site for both runners, so the cache gauges always equal the
    // cache's own counters at sweep end.
    par::publish_sweep_stats(obs, out.stats, options.cache);
    obs.gauge("resilience.scheduled",
              static_cast<double>(out.resilience.scheduled));
    obs.gauge("resilience.replayed",
              static_cast<double>(out.resilience.replayed));
    obs.gauge("resilience.retries",
              static_cast<double>(out.resilience.retries));
    obs.gauge("resilience.quarantined",
              static_cast<double>(out.resilience.quarantined));
    obs.gauge("resilience.capped_ok",
              static_cast<double>(out.resilience.capped_ok));
    obs.gauge("resilience.rounds",
              static_cast<double>(out.resilience.rounds));
    obs.gauge("resilience.spot_checks",
              static_cast<double>(out.resilience.spot_checks));
    obs.gauge("resilience.watchdog_stalls",
              static_cast<double>(out.resilience.watchdog_stalls));
    obs.gauge("resilience.torn_bytes_dropped",
              static_cast<double>(out.resilience.torn_bytes_dropped));
    obs.gauge("resilience.journal_commits",
              static_cast<double>(out.resilience.journal_commits));
  }
  return out;
}

}  // namespace fcdpm::resilience
