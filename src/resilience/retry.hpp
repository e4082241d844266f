// Per-point execution contract: typed error taxonomy, bounded retries
// with deterministic seeded exponential backoff *ordering*, and the
// single-attempt executor the resilient sweep runner schedules.
//
// Nothing here consults a wall clock: a retry's "backoff" is expressed
// as the number of scheduling rounds the attempt is pushed back, drawn
// from a seeded hash of (point, attempt) over an exponentially growing
// window. The retry schedule — and therefore every result — is a pure
// function of the grid and the contract, independent of thread count
// and machine speed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "par/solve_cache.hpp"
#include "par/sweep.hpp"
#include "sim/cancellation.hpp"

namespace fcdpm::resilience {

/// Why a grid point failed. A poisoned point fails the *point* — it is
/// journaled with its error and quarantined — never the sweep.
enum class PointErrorKind {
  solver_diverged,    ///< numerical solve diverged beyond the contract
  non_finite_result,  ///< NaN/Inf leaked into the observable result
  deadline_exceeded,  ///< slot budget exhausted or watchdog-cancelled
  contract_violation, ///< precondition/invariant tripped mid-point
  io_error,           ///< journal or file I/O failed for this point
  /// The source could not deliver the load: unserved charge exceeded
  /// the contract's budget. The cap governor exists to prevent exactly
  /// this outcome — a capped-but-completed point is a success, never
  /// this error.
  power_undeliverable,
};

[[nodiscard]] const char* to_string(PointErrorKind kind) noexcept;

struct PointError {
  PointErrorKind kind = PointErrorKind::contract_violation;
  std::string detail;
};

/// The contract every scheduled point executes under.
struct ExecutionContract {
  /// Re-attempts after the first try before the point is quarantined.
  std::size_t max_retries = 2;
  /// Simulated slots one attempt may spend (0 = unlimited). Slot-based,
  /// so the deadline is deterministic; see SimulationOptions::slot_budget.
  std::size_t point_deadline_slots = 0;
  /// Seed for the backoff ordering hash.
  std::uint64_t backoff_seed = 0x9e3779b97f4a7c15ull;
  /// Backoff window cap: the window doubles per attempt up to 2^this.
  std::size_t max_backoff_exponent = 6;
  /// Solver failures tolerated per attempt before the point is declared
  /// solver_diverged (robustness accounting from PR 2 carries the
  /// count). Default: unlimited — graceful degradation stays the norm.
  std::size_t solver_failure_budget =
      std::numeric_limits<std::size_t>::max();
  /// Unserved charge (A-s) tolerated per point before it is declared
  /// power_undeliverable. Default: unlimited — shortfalls degrade
  /// results but never fail points, exactly the pre-contract behavior.
  double unserved_budget_as = std::numeric_limits<double>::infinity();
  /// Test hook: this grid index always fails with solver_diverged
  /// (simulating a permanently poisoned point). npos = disabled.
  std::size_t inject_fail_index = std::numeric_limits<std::size_t>::max();
};

/// Deterministic backoff: how many scheduling rounds attempt `attempt`
/// of point `point_index` waits before re-running (>= 1). The window is
/// exponential in the attempt number; the draw within the window is a
/// seeded hash, so distinct points interleave instead of thundering
/// back in lockstep.
[[nodiscard]] std::size_t backoff_delay_rounds(std::uint64_t seed,
                                               std::size_t point_index,
                                               std::size_t attempt,
                                               std::size_t max_exponent)
    noexcept;

/// Outcome of one attempt at one grid point.
struct PointOutcome {
  par::SweepPointResult result;  ///< valid when ok
  bool ok = false;
  PointError error;              ///< valid when !ok
  /// The clean leader whose result a hot task's lane takes
  /// (par::run_hot_chunk): the point's own index when it led; another
  /// point's when that one serves it, and then nothing else is set.
  std::size_t leader = par::kNoLeader;
};

/// The contract's verdict on a finished run: its result must be finite
/// and within the solver-failure and unserved-charge budgets. The
/// outcome keeps `done` either way; it is ok only when every check
/// passes. Per-point attempts and batched lanes are judged by this one
/// function, so a failure reads the same from either path.
[[nodiscard]] PointOutcome check_result(par::SweepPointResult done,
                                        const ExecutionContract& contract);

/// Run one attempt of `point` under the contract: wraps par::run_point
/// with the slot-budget deadline and cancellation token, maps every
/// failure mode onto the typed taxonomy, and judges the result with
/// check_result. Never throws — a poisoned point must fail the point
/// only.
/// `compiled` is the sweep's trace compiled once and shared read-only
/// (see par::run_point); nullptr makes the attempt compile its own.
[[nodiscard]] PointOutcome execute_point(
    const sim::ExperimentConfig& base, const par::SweepPoint& point,
    std::size_t point_index, std::size_t storm_faults,
    core::SlotSolveCache* cache, const ExecutionContract& contract,
    sim::CancellationToken* cancel,
    const hot::CompiledTrace* compiled = nullptr);

}  // namespace fcdpm::resilience
