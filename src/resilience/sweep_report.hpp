// Report of one finished sweep: the result table, summary and rollup
// lines it prints, and the BENCH_sweep.json form of the same results.
// A plain sweep (no resilience options) prints the table without a
// status column and no resilience lines; a resilient one adds the
// status column, the resilience and quarantine lines and the
// resilience block.
#pragma once

#include <cstdio>

#include "report/sweep_export.hpp"
#include "resilience/resilient_sweep.hpp"

namespace fcdpm::resilience {

/// Print the report of `sweep` to `out` and return its bench form.
/// `resilience` is the runner's options when a resilience flag was
/// given, else nullptr (the plain presentation). `memo_attached` adds
/// the solve-cache hit rate to the summary. The caller fills
/// `telemetry` and the serial-check fields. With a metrics registry on
/// `observer`, the table's wall time is recorded as gauge
/// `report.table_s`.
[[nodiscard]] report::SweepBenchReport print_sweep_report(
    std::FILE* out, const sim::ExperimentConfig& config,
    const ResilientSweepResult& sweep, const ResilienceOptions* resilience,
    bool memo_attached = false, obs::Context* observer = nullptr);

}  // namespace fcdpm::resilience
