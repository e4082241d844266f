#include "resilience/resilient_sweep.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/audit.hpp"
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

/// Telemetry of one finished attempt on a worker's shard. An ok point
/// adds the done count, slots, dispatch engine, cap and audit counters
/// and its simulated time; a failed attempt has no trustworthy result
/// fields and counts as retried, or as `quarantined`. The caller
/// observes its wall time.
void account_attempt(telemetry::WorkerShard& shard,
                     const PointOutcome& outcome, bool quarantined) {
  if (!outcome.ok) {
    (quarantined ? shard.quarantined : shard.retried)
        .fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const par::SweepPointResult& done = outcome.result;
  shard.done.fetch_add(1, std::memory_order_relaxed);
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
  shard.sim_s.observe(done.result.totals.duration.value());
}

/// One task (a point, an attempt or a batched chunk) timed on its
/// worker's shard. With telemetry attached the task solves through a
/// tap on the memo, so its cache traffic is attributed to this worker
/// (the tap adds no caching; results are unchanged). Without telemetry
/// cache() is the memo itself, and shard(), finish() and record_lane()
/// must not be called.
class TimedTask {
 public:
  TimedTask(telemetry::SweepTelemetry* telemetry, std::size_t worker,
            par::SharedSolveCache* memo)
      : telemetry_(telemetry), worker_(worker), memo_(memo) {
    if (telemetry_ != nullptr) {
      if (memo_ != nullptr) {
        tap_.emplace(*memo_);
      }
      start_ns_ = telemetry_->now_ns();
    }
  }

  /// The cache the task solves through (nullptr without a memo).
  [[nodiscard]] core::SlotSolveCache* cache() noexcept {
    return tap_.has_value() ? static_cast<core::SlotSolveCache*>(&*tap_)
                            : memo_;
  }
  [[nodiscard]] telemetry::WorkerShard& shard() const {
    return telemetry_->shards().shard(worker_);
  }

  /// Stop the clock, add the busy time and cache traffic to the shard,
  /// and return the task's wall time in microseconds.
  double finish() {
    end_ns_ = telemetry_->now_ns();
    telemetry::WorkerShard& s = shard();
    s.busy_ns.fetch_add(end_ns_ - start_ns_, std::memory_order_relaxed);
    if (tap_.has_value()) {
      s.cache_hits.fetch_add(tap_->hits(), std::memory_order_relaxed);
      s.cache_misses.fetch_add(tap_->misses(), std::memory_order_relaxed);
    }
    return static_cast<double>(end_ns_ - start_ns_) * 1e-3;
  }

  /// Record the task's span as one trace lane (no-op unless lanes are
  /// recorded); call after finish().
  void record_lane(std::size_t point_index, std::size_t attempt, bool ok,
                   bool quarantined, sim::Engine engine) const {
    telemetry::LaneRecorder* lanes = telemetry_->lanes();
    if (lanes == nullptr) {
      return;
    }
    const auto count = [](std::uint64_t n) {
      return static_cast<std::uint32_t>(n);
    };
    lanes->record(
        worker_,
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

 private:
  telemetry::SweepTelemetry* telemetry_;
  std::size_t worker_;
  par::SharedSolveCache* memo_;
  std::optional<par::SolveCacheTap> tap_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t end_ns_ = 0;
};

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
  // Only a journal's header and a resume read the fingerprint.
  const std::uint64_t fingerprint =
      options.journal_path.empty()
          ? 0
          : sweep_fingerprint(base, points, grid.storm_faults, options.cache);
  const std::size_t max_attempts = 1 + options.contract.max_retries;

  ResilientSweepResult out;
  out.points.resize(points.size());
  out.stats.points = points.size();

  // One compiled trace serves every attempt and spot-check, shared
  // read-only across workers (CompiledTrace is immutable).
  std::optional<hot::CompiledTrace> compiled;
  if (base.simulation.engine != sim::Engine::Reference) {
    compiled.emplace(base.trace, base.device);
  }
  const hot::CompiledTrace* shared =
      compiled.has_value() ? &*compiled : nullptr;
  // The one served-from table (par::SweepTwins): rho twins found here,
  // capacity twins added as their leaders finish.
  par::SweepTwins twins =
      shared != nullptr
          ? par::find_twins(base, points, *shared,
                            options.contract.inject_fail_index)
          : par::SweepTwins{};

  // Multi-point tasks, planned per chunk, wherever they honour the
  // contract: batched tasks on the batch loop, capacity groups on the hot
  // lane (par::run_hot_chunk). Per-point attempts stay for a nonzero
  // deadline (a slot budget per attempt), a running watchdog (per-point
  // cancellation) and the injected failure; a hot sweep also runs alone
  // each point that can have no capacity twin.
  const bool per_point_only = options.contract.point_deadline_slots != 0 ||
                              options.watchdog_stall.count() != 0;
  const bool batching = par::batched_sweep(base) && !per_point_only;
  const bool grouping = par::hot_chunked_sweep(base) && !per_point_only;
  const auto alone = [&](std::size_t k) {
    return k == options.contract.inject_fail_index ||
           (grouping && !par::capacity_twin_eligible(points[k]));
  };

  // --- resume: replay the journal, schedule only the remainder --------
  std::size_t journal_valid_bytes = 0;
  // The smallest-capacity replayed clean leader of each capacity key.
  std::map<par::CapacityKey, std::pair<Coulomb, std::size_t>> leaders;
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
      if (record.clean_leader && grouping) {
        const std::pair leader{points[record.index].capacity, record.index};
        const auto [at, added] = leaders.try_emplace(
            par::capacity_key(base, points[record.index]), leader);
        at->second = std::min(at->second, leader);
      }
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
  // A twin waits to be served after the rounds, unless its canonical
  // was replayed as quarantined: then it is simulated like any point. A
  // replayed clean leader serves the capacity twins a fresh run would.
  std::map<std::size_t, std::vector<std::size_t>> schedule;
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (out.points[k].replayed) {
      continue;
    }
    ++out.resilience.scheduled;
    if (!twins.is_twin(k) && !leaders.empty() && !alone(k)) {
      const auto at = leaders.find(par::capacity_key(base, points[k]));
      if (at != leaders.end() && !(points[k].capacity < at->second.first)) {
        twins.link(k, at->second.second);
      }
    }
    if (!twins.is_twin(k) || (out.points[twins.canonical[k]].replayed &&
                              !out.points[twins.canonical[k]].ok)) {
      schedule[0].push_back(k);
    }
  }

  const std::uint64_t hits_before =
      options.cache != nullptr ? options.cache->hits() : 0;
  const std::uint64_t misses_before =
      options.cache != nullptr ? options.cache->misses() : 0;
  std::vector<std::size_t> attempts(points.size(), 0);

  const auto plan_tasks = [&](std::span<const std::size_t> chunk) {
    std::vector<std::span<const std::size_t>> tasks;
    if (!batching && !grouping) {
      for (std::size_t c = 0; c < chunk.size(); ++c) {
        tasks.push_back(chunk.subspan(c, 1));
      }
      return tasks;
    }
    for (const std::span<const std::size_t> task :
         par::plan_batches(points, chunk)) {
      std::size_t begin = 0;  // the open piece is task[begin, i)
      for (std::size_t i = 0; i < task.size(); ++i) {
        if (!alone(task[i])) {
          continue;
        }
        if (i > begin) {
          tasks.push_back(task.subspan(begin, i - begin));
        }
        tasks.push_back(task.subspan(i, 1));
        begin = i + 1;
      }
      if (begin < task.size()) {
        tasks.push_back(task.subspan(begin));
      }
    }
    return tasks;
  };
  // Journal a final outcome at once, into the journal's buffer; the
  // chunk's commit writes and fsyncs it.
  const auto journal_final = [&](std::size_t index, std::size_t attempt,
                                 const PointOutcome& outcome) {
    if (!journal.has_value()) {
      return;
    }
    JournalRecord record;
    record.index = index;
    record.point = points[index];
    record.attempts = attempt;
    record.ok = outcome.ok;
    record.clean_leader = outcome.leader == index;
    if (record.ok) {
      record.result = outcome.result.result;
    } else {
      record.error = outcome.error;
    }
    journal->append(record);
  };
  const auto commit = [&] {
    if (journal.has_value() && journal->commit()) {
      ++out.resilience.journal_commits;
    }
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
      std::vector<std::size_t> indices = std::move(head->second);
      schedule.erase(head);
      ++out.resilience.rounds;
      if (batching) {
        // Storm and stack points run alone; planned last, they no longer
        // cut the fault-free points of one policy and rho (the seed axis
        // is innermost) into one-point tasks. Results are stored by grid
        // index, so only the journal's record order sees this.
        std::stable_partition(
            indices.begin(), indices.end(),
            [&](std::size_t k) { return par::batch_point_eligible(points[k]); });
      }
      // Group commit: each chunk's records are buffered as its tasks
      // finish, then written with one write() and fsynced once when the
      // chunk is done, before any of its outcomes is folded into the
      // result or the retry schedule.
      // Without a journal the round is one chunk.
      const std::size_t chunk =
          journal.has_value() ? kCommitChunk : indices.size();

      std::vector<BatchItem> batch;
      batch.reserve(indices.size());
      for (const std::size_t k : indices) {
        batch.push_back({k, attempts[k] + 1});
      }
      std::vector<PointOutcome> outcomes(batch.size());

      // Outcome j is a capacity twin's: a clean leader serves it.
      const auto served = [&](std::size_t j) {
        return outcomes[j].leader != par::kNoLeader &&
               outcomes[j].leader != batch[j].index;
      };
      // Outcome j failed its last attempt.
      const auto quarantined = [&](std::size_t j) {
        return !outcomes[j].ok && batch[j].attempt >= max_attempts;
      };

      // One task, outcomes [first, first + lanes.size()). A multi-point
      // task is one batched run or one hot capacity group, each lane that
      // ran judged by the same contract checks as a per-point attempt; if
      // the run throws, its points re-run one by one, so every error reads
      // exactly as on the per-point path. A one-point task is one attempt
      // under the full contract. A served lane only names its leader.
      const auto run_task = [&](std::size_t worker, std::size_t first,
                                std::span<const std::size_t> lanes,
                                batch::BatchStats& stats) {
        TimedTask task(options.telemetry, worker, options.cache);
        std::vector<par::SweepPointResult> done;
        std::vector<std::size_t> leader(lanes.size(), par::kNoLeader);
        if (lanes.size() > 1) {
          try {
            done = batching ? par::run_batch_chunk(base, points, lanes,
                                                   grid.storm_faults, *shared,
                                                   task.cache(), stats)
                            : par::run_hot_chunk(base, points, lanes, *shared,
                                                 task.cache(), leader);
          } catch (const std::exception&) {
            stats = {};
            leader.assign(lanes.size(), par::kNoLeader);
          }
        }
        const bool ran = !done.empty();
        sim::CancellationToken& token = tokens[worker];
        std::uint64_t heartbeats = 0;
        std::vector<std::size_t> simulated;  // a served lane counts later
        for (std::size_t j = first; j < first + lanes.size(); ++j) {
          const std::size_t by = leader[j - first];
          if (by != par::kNoLeader && by != batch[j].index) {
            outcomes[j].leader = by;
            continue;
          }
          simulated.push_back(j);
          if (ran) {
            outcomes[j] =
                check_result(std::move(done[j - first]), options.contract);
            outcomes[j].leader = by;
            continue;
          }
          token.reset();
          if (watchdog.has_value()) {
            watchdog->begin_work(worker, &token);
          }
          outcomes[j] = execute_point(base, points[batch[j].index],
                                      batch[j].index, grid.storm_faults,
                                      task.cache(), options.contract, &token,
                                      shared);
          if (watchdog.has_value()) {
            watchdog->end_work(worker);
          }
          heartbeats += token.heartbeat();
        }
        if (options.telemetry != nullptr) {
          // The slot loop advances all lanes together, so each simulated
          // point's wall time is the task's share; one trace lane covers it.
          const double per_point_us =
              task.finish() / static_cast<double>(simulated.size());
          bool ok = true;
          bool any_quarantined = false;
          for (const std::size_t j : simulated) {
            account_attempt(task.shard(), outcomes[j], quarantined(j));
            task.shard().wall_us.observe(per_point_us);
            ok = ok && outcomes[j].ok;
            any_quarantined = any_quarantined || quarantined(j);
          }
          task.shard().heartbeats.fetch_add(heartbeats,
                                            std::memory_order_relaxed);
          const std::size_t lead = simulated.front();
          sim::Engine engine = sim::Engine::Batched;
          if (!ran || !batching) {
            engine = outcomes[lead].ok ? outcomes[lead].result.engine
                                       : sim::Engine::Reference;
          }
          task.record_lane(batch[lead].index, batch[lead].attempt, ok,
                           any_quarantined, engine);
        }
        for (const std::size_t j : simulated) {
          if (outcomes[j].ok || quarantined(j)) {
            journal_final(batch[j].index, batch[j].attempt, outcomes[j]);
          }
        }
      };

      for (std::size_t begin = 0; begin < batch.size(); begin += chunk) {
        const std::size_t end = std::min(batch.size(), begin + chunk);
        // Each task lands its outcomes and journal records, and its merge
        // accounting goes to the stats.
        const std::vector<std::span<const std::size_t>> tasks =
            plan_tasks(std::span(indices).subspan(begin, end - begin));
        std::vector<batch::BatchStats> task_stats(tasks.size());
        pool.run_indexed_on_workers(
            tasks.size(), [&](std::size_t worker, std::size_t t) {
              run_task(worker,
                       static_cast<std::size_t>(tasks[t].data() -
                                                indices.data()),
                       tasks[t], task_stats[t]);
            });
        for (const batch::BatchStats& stats : task_stats) {
          telemetry::for_each_batch_stat(telemetry::merge_stat, out.stats,
                                         stats);
        }
        commit();

        // Serial post-pass in batch order: deterministic retry schedule.
        // Served lanes join the table first, so that their leader's
        // quarantine below finds them.
        for (std::size_t j = begin; j < end; ++j) {
          if (served(j)) {
            twins.link(batch[j].index, outcomes[j].leader);
          }
        }
        for (std::size_t j = begin; j < end; ++j) {
          const BatchItem item = batch[j];
          if (served(j)) {
            continue;
          }
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
          // A quarantined canonical's twins have no result to take: they
          // run in the next round as first attempts, in ascending index.
          for (const std::size_t k : twins.twins_of(item.index)) {
            if (!out.points[k].replayed) {
              schedule[round + 1].push_back(k);
            }
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

  // Every twin of either kind that neither was replayed nor ran takes
  // its canonical's ok result, simulated, replayed or served earlier in
  // this loop. The twins are journaled in grid order under one trailing
  // commit: a crash before it loses no simulated work, as a resume serves
  // them again from their replayed canonicals and clean leaders.
  for (std::size_t k = 0; k < points.size(); ++k) {
    ResilientPoint& slot = out.points[k];
    if (!twins.is_twin(k) || slot.replayed || attempts[k] > 0) {
      continue;
    }
    const ResilientPoint& canonical = out.points[twins.canonical[k]];
    FCDPM_ENSURES(canonical.ok, "a twin left to serve has an ok canonical");
    PointOutcome outcome = check_result(
        twins.serve(points[k], canonical.result), options.contract);
    ++out.stats.twins;
    if (options.telemetry != nullptr) {
      telemetry::WorkerShard& shard = options.telemetry->shards().shard(0);
      account_attempt(shard, outcome, !outcome.ok);
      if (outcome.ok) {
        shard.twins.fetch_add(1, std::memory_order_relaxed);
      }
    }
    journal_final(k, 1, outcome);
    slot.ok = outcome.ok;
    if (outcome.ok) {
      slot.result = std::move(outcome.result);
    } else {
      slot.result.point = points[k];
      slot.error = std::move(outcome.error);
    }
  }
  commit();

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
    const auto gauge = [&obs](const telemetry::Stat& stat, auto value) {
      if (stat.gauge != nullptr) {
        obs.gauge(stat.gauge, static_cast<double>(value));
      }
    };
    const par::SweepRunStats& stats = out.stats;
    telemetry::for_each_run_stat(gauge, stats);
    obs.gauge("par.sweep.points_per_s", stats.points_per_second());
    if (stats.points_batched > 0) {
      obs.gauge("par.sweep.points_batched",
                static_cast<double>(stats.points_batched));
      telemetry::for_each_batch_stat(gauge, stats);
    }
    // Published once, at sweep end, so the par.cache.* gauges equal the
    // cache's own counters.
    if (options.cache != nullptr) {
      options.cache->publish(obs);
    }
    telemetry::for_each_resilience_stat(gauge, out.resilience);
  }
  return out;
}

void require_all_ok(const ResilientSweepResult& sweep) {
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    const ResilientPoint& point = sweep.points[k];
    if (!point.ok) {
      throw std::runtime_error("sweep point " + std::to_string(k) +
                               " failed: " + to_string(point.error.kind) +
                               ": " + point.error.detail);
    }
  }
}

}  // namespace fcdpm::resilience

namespace fcdpm::par {

SweepResult run_sweep(const sim::ExperimentConfig& base,
                      const SweepGrid& grid, const SweepOptions& options) {
  resilience::ResilienceOptions run;
  run.contract.max_retries = 0;
  run.jobs = options.jobs;
  run.cache = options.cache;
  run.observer = options.observer;
  run.telemetry = options.telemetry;
  resilience::ResilientSweepResult sweep =
      resilience::run_resilient_sweep(base, grid, run);
  resilience::require_all_ok(sweep);
  SweepResult out;
  out.stats = sweep.stats;
  out.points.reserve(sweep.points.size());
  for (resilience::ResilientPoint& point : sweep.points) {
    out.points.push_back(std::move(point.result));
  }
  return out;
}

}  // namespace fcdpm::par
