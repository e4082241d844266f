// Grid points, their planning into tasks, and the per-point and
// per-task runs a sweep is made of.
//
// A sweep grid (policy x rho x capacity x stacks x fault-storm seed) is
// fanned across the worker pool by resilience::run_resilient_sweep, the
// one sweep runner; par::run_sweep (declared in
// resilience/resilient_sweep.hpp) is that runner with the journal off and
// no retries. Every worker builds its *own* policies, hybrid source and
// fault injector for each point (nothing mutable is shared between
// points except an attached solve memo, whose answers are deterministic
// by construction), and stores its result at the point's grid index.
// Results are therefore bit-identical for any job count — `--jobs 8`
// must reproduce `--jobs 1` exactly, and the tests hold it to that.
//
// Every single run goes through run_one, which run_point and the CLI's
// run/compare share. It asks sim::choose_engine once, after building the
// governor, and asks for the hot lane where the config says Batched: the
// batch loop runs multi-point tasks only, and at B = 1 the hot lane is
// faster. Its auditor fails fast, and its tamper drill arms, only on a
// compiled lane (strict mode fails fast everywhere). A compiled-lane
// audit failure is healed by replaying on the reference loop and
// recording an engine fallback. Multi-point tasks decide per task in
// run_batch_chunk, the only caller that asks for Batched, and in
// run_hot_chunk, which runs a hot sweep's capacity groups.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "hot/compiled_trace.hpp"
#include "obs/context.hpp"
#include "par/solve_cache.hpp"
#include "sim/cancellation.hpp"
#include "sim/experiments.hpp"
#include "telemetry/sweep_stats.hpp"

namespace fcdpm::batch {
struct BatchStats;
}  // namespace fcdpm::batch

namespace fcdpm::hot {
struct SlackWitness;
}  // namespace fcdpm::hot

namespace fcdpm::telemetry {
class SweepTelemetry;
}  // namespace fcdpm::telemetry

namespace fcdpm::par {

/// One point of the sweep grid.
struct SweepPoint {
  sim::PolicyKind policy = sim::PolicyKind::FcDpm;
  double rho = 0.5;
  Coulomb capacity{6.0};
  std::uint64_t storm_seed = 0;  ///< 0 = fault-free
  /// Multi-stack axis: 0 = run the base config's source unchanged;
  /// N >= 1 forces an N-stack source with `distribution`.
  std::size_t stacks = 0;
  stacks::Distribution distribution = stacks::Distribution::Proportional;
};

/// Grid specification. Empty dimensions fall back to a single value
/// from the base config (policies default to the Table-2 trio).
struct SweepGrid {
  std::vector<sim::PolicyKind> policies;
  std::vector<double> rhos;
  std::vector<Coulomb> capacities;
  std::vector<std::uint64_t> storm_seeds;
  /// Events per random storm (seeds != 0).
  std::size_t storm_faults = 12;
  /// Stack-count axis; empty = one entry mirroring the base config
  /// (its configured count when stacks are enabled, else 0).
  std::vector<std::size_t> stack_counts;
  /// Distribution-policy axis; empty = the base config's policy.
  std::vector<stacks::Distribution> distributions;

  /// Cartesian product in deterministic nested order:
  /// policy -> rho -> capacity -> stacks -> distribution -> seed.
  [[nodiscard]] std::vector<SweepPoint> points(
      const sim::ExperimentConfig& base) const;
};

/// Options of par::run_sweep (see resilience/resilient_sweep.hpp).
struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t jobs = 1;
  /// Optional shared slot-solve memo (hit/miss counters accumulate).
  /// nullptr = FC-DPM and Oracle solve every slot directly. An exact-key
  /// memo changes no result and costs more than the closed-form solve it
  /// saves; attach one only with nonzero quanta.
  SharedSolveCache* cache = nullptr;
  /// Post-run stats publication only — never attached to worker runs
  /// (obs::Context is not thread-safe).
  obs::Context* observer = nullptr;
  /// Live per-worker shards + optional lane recording. Must be sized
  /// with >= WorkerPool::resolve(jobs) shards and total_points >= the
  /// grid size. Purely derived observation: results stay bit-identical
  /// with this attached or not.
  telemetry::SweepTelemetry* telemetry = nullptr;
};

struct SweepPointResult {
  SweepPoint point;
  sim::SimulationResult result;
  /// The loop whose result this is: where sim::choose_engine landed the
  /// point, or Reference after a self-heal replay. Batched only for a
  /// point that ran in a multi-point task. A twin (SweepTwins) carries
  /// its canonical's engine.
  sim::Engine engine = sim::Engine::Reference;
};

/// The run and batch statistics of one sweep (telemetry/sweep_stats.hpp
/// lists them), and the points whose result the batch loop made.
struct SweepRunStats : telemetry::RunCounters, telemetry::BatchCounters {
  /// Ok points with engine Batched: those the batch loop ran, all in
  /// multi-point tasks, and the rho twins served their results.
  std::size_t points_batched = 0;

  [[nodiscard]] double points_per_second() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(points) / wall_seconds
               : 0.0;
  }
  [[nodiscard]] double cache_hit_rate() const noexcept {
    const double total =
        static_cast<double>(cache_hits) + static_cast<double>(cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

struct SweepResult {
  /// One entry per grid point, in grid order (independent of jobs).
  std::vector<SweepPointResult> points;
  SweepRunStats stats;
};

/// One run of `policy` under `config` (see the file comment). Policies,
/// hybrid, governor and auditor are built fresh; the options' observer,
/// injector, cancel token and budget are used as given. `cache` is
/// attached to the FC policy; `compiled`, when given, is config's trace
/// compiled once; `landed` receives the loop whose result is returned
/// (never Batched: a Batched config runs on the hot lane). `witness`,
/// when given, records a hot-lane run's capacity reads (the FC policy
/// solves through its latch); it stays unclean on the reference loop.
[[nodiscard]] sim::SimulationResult run_one(
    const sim::ExperimentConfig& config, sim::PolicyKind policy,
    core::SlotSolveCache* cache = nullptr,
    const hot::CompiledTrace* compiled = nullptr,
    sim::Engine* landed = nullptr, hot::SlackWitness* witness = nullptr);

/// Evaluate one grid point serially (what each worker runs): run_one
/// over the point's config, with a fresh storm injector for a nonzero
/// storm seed and no observer. `cancel` and `slot_budget` thread
/// straight into SimulationOptions: the resilience layer uses them for
/// watchdog cancellation and the deterministic per-point deadline; the
/// defaults leave the run unbounded. `compiled` is the trace compiled
/// once by the sweep runner and shared read-only across points —
/// nullptr makes the point compile its own.
[[nodiscard]] SweepPointResult run_point(
    const sim::ExperimentConfig& base, const SweepPoint& point,
    std::size_t storm_faults, core::SlotSolveCache* cache,
    sim::CancellationToken* cancel = nullptr, std::size_t slot_budget = 0,
    const hot::CompiledTrace* compiled = nullptr);

/// The sweep's one served-from table: a twin takes a copy of its
/// canonical's bit-identical run. A rho twin's FC policy never reads the
/// idle prediction (sim::reads_idle_prediction), it has no fault storm,
/// and a lower grid index with the same policy, capacity, stacks and
/// distribution has a rho whose predictor makes the same sleep decision
/// in every slot: only idle_accuracy tells the two runs apart. A
/// capacity twin takes a clean leader's run (capacity_key). find_twins
/// fills the rho entries, the runner the capacity entries, each through
/// link().
struct SweepTwins {
  /// canonical[k]: the grid index whose result point k takes; k itself
  /// for a point that is simulated. Empty when no point can be a twin.
  std::vector<std::size_t> canonical;
  /// twin_lists[c]: the twins whose canonical is c, ascending; the
  /// inverse of `canonical`, empty with it.
  std::vector<std::vector<std::size_t>> twin_lists;
  /// The rho twins find_twins found.
  std::size_t count = 0;
  /// The predictor's tally over the trace at each rho of a point that
  /// may be a twin.
  std::vector<std::pair<double, dpm::PredictionAccuracy>> accuracy;

  [[nodiscard]] bool is_twin(std::size_t k) const noexcept {
    return !canonical.empty() && canonical[k] != k;
  }
  /// Make `twin` take `to`'s result, in both directions of the table.
  void link(std::size_t twin, std::size_t to);
  /// The twins whose canonical is `c`, ascending.
  [[nodiscard]] std::span<const std::size_t> twins_of(
      std::size_t c) const noexcept {
    return twin_lists.empty() ? std::span<const std::size_t>{}
                              : std::span<const std::size_t>(twin_lists[c]);
  }
  /// The result a twin at `point` would end its own run with:
  /// `canonical_result` with the twin's point and its rho's
  /// idle_accuracy.
  [[nodiscard]] SweepPointResult serve(
      const SweepPoint& point, const SweepPointResult& canonical_result) const;
};

/// Find the twins of `points` (see SweepTwins): one DPM-only pass per
/// distinct rho of the points that may be twins, stepping the predictor
/// over `compiled` as the slot loops do. `never_twin` is a grid index
/// that is always simulated (the injected failure). A base config that
/// arms a tamper drill or carries a fault injector has no twins.
[[nodiscard]] SweepTwins find_twins(const sim::ExperimentConfig& base,
                                    const std::vector<SweepPoint>& points,
                                    const hot::CompiledTrace& compiled,
                                    std::size_t never_twin);

/// Maximum points per batched task. Fixed — never derived from the job
/// count — so the task list, and therefore every result, is identical
/// for any --jobs value.
inline constexpr std::size_t kBatchMax = 16;

/// True when a sweep over `base` runs multi-point batched tasks: the
/// batched engine with no cap governor, no strict or tampered audit and
/// no multi-stack source. Other base configs keep the per-point path,
/// where run_point asks sim::choose_engine per point. It plans from the
/// config alone, before any hybrid exists.
[[nodiscard]] bool batched_sweep(const sim::ExperimentConfig& base);

/// A point a batched task can carry, judged from the grid point before
/// any hybrid exists: no fault storm and no forced stack count. The
/// runner plans these first in each round, so storm and stack points
/// do not cut the fault-free points of one policy and rho into
/// one-point tasks.
[[nodiscard]] bool batch_point_eligible(const SweepPoint& point) noexcept;

/// True when a sweep over `base` runs multi-point hot tasks
/// (run_hot_chunk): the hot engine with no cap governor, tamper drill,
/// fault injector or multi-stack source. Like batched_sweep, it plans
/// from the config alone.
[[nodiscard]] bool hot_chunked_sweep(const sim::ExperimentConfig& base);

/// A point a hot multi-point task can carry: batch_point_eligible, and
/// an FC policy that reads the capacity only where the slack witness
/// sees it (Conv, FC-DPM, Oracle; ASAP reads its state of charge).
[[nodiscard]] bool capacity_twin_eligible(const SweepPoint& point) noexcept;

/// Plan the tasks of a batched or hot sweep over `indices` (grid indices
/// into `points`), in order: each task is a contiguous slice of `indices`
/// with one rho and at most kBatchMax points, so concatenating the
/// tasks gives `indices` back. Adjacent whole policy runs are packed
/// into one task (merge sets only form within one FC policy); a run is
/// cut only when it alone exceeds kBatchMax. A point a batched task
/// cannot carry (fault storm, forced stacks), or one left alone by the
/// packing, is a one-point task, which run_point runs as a single run
/// (never on the batch loop). Depends on the points alone, never on
/// the job count.
[[nodiscard]] std::vector<std::span<const std::size_t>> plan_batches(
    const std::vector<SweepPoint>& points,
    std::span<const std::size_t> indices);

/// Run one multi-point task: every lane shares the compiled trace, one
/// DPM policy (rho is constant within a task) and one slot loop. Returns
/// the result of lane i (grid point `task[i]`) at index i.
/// sim::choose_engine is asked once per task; when it does not land on
/// Batched, every lane runs alone through run_point. A fail-fast audit
/// violation self-heals like run_one's: the point is replayed on the
/// reference engine and the fallback recorded. Merge accounting is
/// added to `stats`. Throws what the runs throw.
[[nodiscard]] std::vector<SweepPointResult> run_batch_chunk(
    const sim::ExperimentConfig& base, const std::vector<SweepPoint>& points,
    std::span<const std::size_t> task, std::size_t storm_faults,
    const hot::CompiledTrace& compiled, core::SlotSolveCache* cache,
    batch::BatchStats& stats);

/// What a clean leader (hot::SlackWitness) shares with each point it
/// serves at a capacity no smaller than its own: the policy, and the rho
/// and the starting charge bit for bit.
using CapacityKey = std::tuple<sim::PolicyKind, std::uint64_t, std::uint64_t>;
[[nodiscard]] CapacityKey capacity_key(const sim::ExperimentConfig& base,
                                       const SweepPoint& point);

/// A lane of run_hot_chunk that no clean leader serves.
inline constexpr std::size_t kNoLeader = ~std::size_t{0};

/// Run one multi-point task of a hot sweep: capacity groups. Every point
/// must be capacity_twin_eligible. Lanes run smallest capacity first on
/// the hot lane with a slack witness; a run that stays clean on Hot
/// leads every lane not yet run with its capacity_key, which then does
/// not run. leader[i]: the grid index of the clean leader lane i takes
/// its result from (task[i] when it led), else kNoLeader. Returns the
/// result of task[i] at index i for each lane that ran, bit-identical to
/// its own run_point. Throws what the runs throw.
[[nodiscard]] std::vector<SweepPointResult> run_hot_chunk(
    const sim::ExperimentConfig& base, const std::vector<SweepPoint>& points,
    std::span<const std::size_t> task, const hot::CompiledTrace& compiled,
    core::SlotSolveCache* cache, std::vector<std::size_t>& leader);

}  // namespace fcdpm::par
