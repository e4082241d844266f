// The sweep runner: every sweep's tasks are scheduled on the worker
// pool here, with journaling + resume, retries with deterministic
// backoff ordering, failure quarantine and an optional hung-worker
// watchdog layered over the fcdpm::par point and task runs.
// par::run_sweep, declared below, is this runner with the journal off
// and no retries; a failed point makes it throw.
//
// Execution proceeds in scheduling *rounds*. Round 0 holds every point
// not replayed from a journal and not a twin (par::SweepTwins); a
// failed attempt is pushed back by backoff_delay_rounds() and re-run in
// a later round, until its attempts exhaust the contract and the point
// is quarantined. Rounds and their task order are a pure function of
// the grid and the contract, so the sweep's results (and its journal,
// modulo the append interleaving within a chunk) are reproducible for
// any job count. With a journal each round runs in chunks of
// kCommitChunk points; without one a round is a single chunk. A
// finished point's record is written to the journal at once, and the
// chunk is fsynced once when it is done (group commit), before any of
// its outcomes is folded into the result: a SIGKILL at any instant
// loses at most work in flight, a power loss at most the uncommitted
// chunk of kCommitChunk simulated points plus twins a resume serves
// again, and no point is reported before its record is durable.
//
// With the batched engine each round lists its batch-eligible points
// first (par::batch_point_eligible), then each chunk is planned into
// multi-point tasks (par::plan_batches). Every batched lane is judged by
// the per-point contract checks, and a task journals its records in lane
// order when it finishes. A hot sweep keeps its round order (so its
// --jobs 1 journal does not move), plans each chunk with
// par::plan_batches too, and runs each multi-point task as capacity
// groups (par::run_hot_chunk); ASAP points run alone there. A nonzero
// point deadline, a running watchdog and the injected failure keep their
// points on the per-point path.
//
// Hot and batched sweeps simulate each distinct run once
// (par::SweepTwins). A rho twin is not scheduled, and a capacity twin's
// lane does not run: after the last round the calling thread serves each
// twin its canonical's ok result, simulated this run or replayed, and
// journals the served twins in grid order under one trailing commit. On
// resume a replayed clean leader serves the capacity twins a fresh run
// would. A twin whose canonical is quarantined runs in the round after
// that quarantine (in round 0 when the journal replays the quarantine)
// as a first attempt, like any point.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "par/solve_cache.hpp"
#include "par/sweep.hpp"
#include "resilience/retry.hpp"
#include "telemetry/sweep_stats.hpp"

namespace fcdpm::resilience {

/// Simulated points per group commit: one journal fsync per chunk of a
/// round (served twins take one more). Fixed, so the chunking (and the
/// journal at --jobs 1) never depends on the job count. Unjournaled
/// rounds are not chunked.
inline constexpr std::size_t kCommitChunk = 64;

struct ResilienceOptions {
  ExecutionContract contract;

  /// Journal file to create (or, with `resume`, to continue). Empty =
  /// run without a journal (retry/quarantine still apply).
  std::string journal_path;
  /// Replay completed points from `journal_path` and schedule only the
  /// remainder. The journal's grid fingerprint must match.
  bool resume = false;
  /// Replayed points re-simulated and compared bit-for-bit against the
  /// journal (capped at the number of replayed ok points). A mismatch
  /// throws: the journal does not describe this build/grid.
  std::size_t spot_checks = 1;

  /// Watchdog stall window; zero disables the watchdog entirely.
  std::chrono::milliseconds watchdog_stall{0};
  std::chrono::milliseconds watchdog_poll{25};

  /// Worker threads; 0 = hardware concurrency.
  std::size_t jobs = 1;
  /// Optional solve memo (see par::SweepOptions::cache). Its nonzero
  /// quanta are part of the journal's fingerprint.
  par::SharedSolveCache* cache = nullptr;
  /// Post-run stats publication only (never attached to worker runs).
  obs::Context* observer = nullptr;
  /// Live per-worker shards + optional lane recording (see
  /// par::SweepOptions::telemetry). Shard count must be >=
  /// par::WorkerPool::resolve(jobs). Derived observation only; results
  /// and the journal are unchanged by attaching it.
  telemetry::SweepTelemetry* telemetry = nullptr;
};

/// Per-point outcome of a resilient sweep, in grid order.
struct ResilientPoint {
  par::SweepPointResult result;  ///< .point always set; .result valid when ok
  bool ok = false;
  PointError error;       ///< valid when !ok (the point is quarantined)
  std::size_t attempts = 1;
  bool replayed = false;  ///< restored from the journal, not re-run
};

/// Bookkeeping for reports and the resilience.* metrics (listed in
/// telemetry/sweep_stats.hpp).
using ResilienceStats = telemetry::ResilienceCounters;

struct ResilientSweepResult {
  std::vector<ResilientPoint> points;  ///< grid order
  par::SweepRunStats stats;
  ResilienceStats resilience;
};

/// Run the grid under the resilience contract. Throws CsvError for
/// journal-level failures (unreadable header, fingerprint mismatch,
/// failed spot-check); individual point failures never propagate — they
/// are retried and ultimately quarantined in the result.
[[nodiscard]] ResilientSweepResult run_resilient_sweep(
    const sim::ExperimentConfig& base, const par::SweepGrid& grid,
    const ResilienceOptions& options);

/// Throws std::runtime_error naming the lowest failed grid index, its
/// PointErrorKind and the error detail when any point of `sweep` failed.
void require_all_ok(const ResilientSweepResult& sweep);

}  // namespace fcdpm::resilience

namespace fcdpm::par {

/// Fan the grid across `options.jobs` workers: run_resilient_sweep with
/// no journal and no retries, its points moved into the result. Throws
/// as require_all_ok when a point failed.
[[nodiscard]] SweepResult run_sweep(const sim::ExperimentConfig& base,
                                    const SweepGrid& grid,
                                    const SweepOptions& options = {});

}  // namespace fcdpm::par
