// Umbrella header: everything a downstream user needs with one include.
//
//   #include "fcdpm.hpp"
//   using namespace fcdpm;
//
// Layering (each header is also individually includable):
//   common   — units, math, solvers, RNG, CSV, contracts
//   obs      — tracing, metrics registry, wall-clock profiling (opt-in)
//   fault    — fault schedules/injection, robustness accounting (opt-in)
//   fuelcell — polarization, stack, fuel/Gibbs model
//   power    — converters, controllers, FC system, storage, hybrid
//   dpm      — device power states, predictors, DPM policies
//   workload — traces, generators, analysis, aggregation, merge, I/O
//   core     — slot optimizer(s), estimator, FC output policies
//   dvs      — voltage/frequency scaling substrate
//   audit    — runtime invariant auditing, divergence bisection (opt-in)
//   sim      — simulators, experiments, lifetime, metrics
//   par      — worker pool, shared solve cache, parallel sweep engine
//   resilience — crash-safe journal/resume, retries, quarantine, watchdog
//   report   — tables, series export, report assembly
#pragma once

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/math.hpp"
#include "common/random.hpp"
#include "common/solvers.hpp"
#include "common/text.hpp"
#include "common/units.hpp"

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"

#include "fuelcell/fuel_model.hpp"
#include "fuelcell/polarization.hpp"
#include "fuelcell/stack.hpp"

#include "power/controller.hpp"
#include "power/dcdc.hpp"
#include "power/efficiency_model.hpp"
#include "power/fc_system.hpp"
#include "power/hybrid.hpp"
#include "power/storage.hpp"

#include "dpm/dpm_policy.hpp"
#include "dpm/power_states.hpp"
#include "dpm/predictors.hpp"
#include "dpm/stochastic_policy.hpp"

#include "workload/aggregation.hpp"
#include "workload/analysis.hpp"
#include "workload/camcorder.hpp"
#include "workload/merge.hpp"
#include "workload/mpeg_model.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

#include "core/efficiency_estimator.hpp"
#include "core/fc_policy.hpp"
#include "core/numerical_solver.hpp"
#include "core/quantized_optimizer.hpp"
#include "core/slot_optimizer.hpp"
#include "core/solve_cache.hpp"

#include "dvs/planner.hpp"
#include "dvs/processor.hpp"

#include "audit/audit.hpp"
#include "audit/bisect.hpp"

#include "sim/experiments.hpp"
#include "sim/lifetime.hpp"
#include "sim/metrics.hpp"
#include "sim/recorder.hpp"
#include "sim/slot_simulator.hpp"
#include "sim/timed_simulator.hpp"

#include "hot/arena.hpp"
#include "hot/compiled_trace.hpp"
#include "hot/engine.hpp"
#include "hot/lifetime.hpp"

#include "par/bounded_queue.hpp"
#include "par/solve_cache.hpp"
#include "par/sweep.hpp"
#include "par/worker_pool.hpp"

#include "resilience/journal.hpp"
#include "resilience/resilient_sweep.hpp"
#include "resilience/retry.hpp"
#include "resilience/watchdog.hpp"

#include "report/experiment_report.hpp"
#include "report/obs_export.hpp"
#include "report/series_export.hpp"
#include "report/svg_export.hpp"
#include "report/sweep_export.hpp"
#include "report/table.hpp"
