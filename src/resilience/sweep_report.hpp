// Report of one finished sweep, from either runner: the result table,
// summary and rollup lines it prints, and the BENCH_sweep.json form of
// the same results. Both runners go through one assembly, so the two
// differ only where a resilient sweep has more to say (a status column,
// the resilience and quarantine lines).
#pragma once

#include <cstdio>

#include "par/sweep.hpp"
#include "report/sweep_export.hpp"
#include "resilience/resilient_sweep.hpp"

namespace fcdpm::resilience {

/// Print the report of par::run_sweep to `out` and return its bench
/// form. `memo_attached` adds the solve-cache hit rate to the summary.
/// The caller fills `telemetry` and the serial-check fields. With a
/// metrics registry on `observer`, the table's wall time is recorded as
/// gauge `report.table_s`.
[[nodiscard]] report::SweepBenchReport print_sweep_report(
    std::FILE* out, const sim::ExperimentConfig& config,
    const par::SweepResult& sweep, bool memo_attached,
    obs::Context* observer = nullptr);

/// The same for run_resilient_sweep under `options` (its `observer`
/// gets the gauge).
[[nodiscard]] report::SweepBenchReport print_sweep_report(
    std::FILE* out, const sim::ExperimentConfig& config,
    const ResilientSweepResult& sweep, const ResilienceOptions& options);

}  // namespace fcdpm::resilience
