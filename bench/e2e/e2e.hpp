// End-to-end benchmark of `fcdpm_cli sweep`: shared declarations.
//
// fcdpm_e2e.cpp times whole CLI processes on five named
// workloads, checks every result row against the reference engine, and
// runs a separate traced pass (traced.cpp) that replays each workload
// through the library to break the wall time down by layer. See
// README.md for why each workload exists and which layer each metric
// belongs to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace fcdpm::e2e {

// ---- workloads (workloads.cpp) -------------------------------------

/// How a workload's command uses the sweep journal.
enum class Journal { None, Write, Resume };

/// One named workload: the shape of the `fcdpm_cli sweep` command it
/// times. Flags not listed keep the CLI's defaults (experiment 1).
struct Workload {
  const char* name;
  const char* engine;  ///< "batched" | "hot"
  std::size_t jobs;
  const char* policies;        ///< comma list, as the CLI spells it
  std::size_t rho_stride;      ///< rho 0.05 k for k = stride, 2 stride .. 19
  std::size_t capacity_steps;  ///< capacities 400 k / steps A-s, k = 1..steps
  std::size_t slots;           ///< camcorder slots in the trace
  bool initial_one;            ///< --initial 1 (shared start charge)
  Journal journal;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The sweep axes as comma lists, plus the point count.
struct Grid {
  std::string policies;
  std::string rhos;
  std::string capacities;
  std::size_t points = 0;
};

/// The workload's grid: rho by `rho_stride`, capacities by
/// `capacity_steps`. `smoke` keeps every 5th of those rhos and every
/// 4th capacity (about 1/20 of the points).
[[nodiscard]] Grid workload_grid(const Workload& workload, bool smoke);
/// The first value of each axis: the one-point grid set-up time uses.
[[nodiscard]] Grid first_point(const Grid& grid);

/// Write the workload's input trace: the first `slots` slots of the
/// camcorder trace generated from `seed`.
void write_trace(const std::string& path, std::size_t slots,
                 std::uint64_t seed);

/// argv of one `fcdpm_cli sweep` run. `reference` swaps in
/// `--engine reference --jobs 1` and drops the journal flags; otherwise
/// `journal` names the file for `--journal` (Write) or `--resume`
/// (Resume).
[[nodiscard]] std::vector<std::string> sweep_command(
    const std::string& cli, const Workload& workload, const Grid& grid,
    const std::string& trace, const std::string& out, Journal journal,
    const std::string& journal_path, bool reference);

/// Copy the journal at `full` to `cut` keeping the header, the first
/// 90 % of the records and half of the next record (a torn tail).
/// Returns the number of whole records kept.
std::size_t cut_journal(const std::string& full, const std::string& cut);

// ---- measurement helpers (measure.cpp) -----------------------------

/// One child process, timed from spawn until wait4 returns.
struct ChildRun {
  int exit_code = -1;  ///< 128 + signal when killed
  double wall_s = 0.0;
  double cpu_s = 0.0;        ///< user + sys
  double peak_rss_mb = 0.0;  ///< ru_maxrss
  /// Steal time recorded on the child's CPUs while it ran, in /proc/stat
  /// ticks: time the host ran something else in their place.
  std::uint64_t steal_ticks = 0;
};

/// Spawn `argv` with stdin and stdout on /dev/null and stderr into
/// `log`, and wait for it. The child may run on `cpus` of the usable
/// CPUs, the next ones in turn after the previous child's, so
/// successive runs sample every CPU. Throws when the spawn itself fails.
[[nodiscard]] ChildRun run_child(const std::vector<std::string>& argv,
                                 const std::string& log, std::size_t cpus);

/// Steady-clock nanoseconds.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] std::string read_file(const std::string& path);
/// Last `lines` lines of a text file (for error reports).
[[nodiscard]] std::string file_tail(const std::string& path,
                                    std::size_t lines);

/// The raw row objects of a sweep JSON's "results" array, in order.
/// Throws when the document has no well-formed results array.
[[nodiscard]] std::vector<std::string> result_rows(const std::string& json);
/// A row without its "attempts" and "replayed" fields, which differ
/// between a fresh run, a resumed run and the reference.
[[nodiscard]] std::string normalized_row(std::string row);
/// FNV-1a-64 over the normalized rows, each followed by '\n'.
[[nodiscard]] std::uint64_t rows_digest(
    const std::vector<std::string>& normalized);
/// Points of `rows` (raw) that differ from `reference` (normalized).
/// A row count that does not match fails every point.
[[nodiscard]] std::size_t failed_points(
    const std::vector<std::string>& rows,
    const std::vector<std::string>& reference);

[[nodiscard]] std::string hex64(std::uint64_t value);

/// Median and quartiles as Python's statistics.quantiles(n=4) gives them.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);

/// Exact quantile q of `values` by linear interpolation.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// What a time metric reports: the median over the runs that lost the
/// least time to the host, those whose steal time is at most the median
/// steal time of all runs (README "Steal time").
[[nodiscard]] double least_stolen_median(
    const std::vector<double>& values,
    const std::vector<std::uint64_t>& steal_ticks);

/// JSON number with every digit ("%.17g"); non-finite values as 0.
[[nodiscard]] std::string json_number(double value);
/// Append every part to `out` (builds JSON text piece by piece).
void append(std::string& out, std::initializer_list<std::string_view> parts);

/// The machine record of a result file, as one JSON object: CPU model,
/// usable cores, compiler and flags, build type, git commit and dirty
/// flag, the work directory's filesystem and a calibration loop time.
[[nodiscard]] std::string machine_json(const std::string& work_dir,
                                       const std::string& git_commit,
                                       const std::string& git_dirty);

// ---- traced per-layer pass (traced.cpp) ----------------------------

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct TracedInput {
  const Workload* workload = nullptr;
  Grid grid;
  std::string dir;    ///< work directory of this workload
  std::string trace;  ///< input trace CSV
  /// journal-resume only: the torn-tail journal the CLI resumes from.
  std::string cut;
  /// Raw result rows of a timed CLI run of the same command.
  std::vector<std::string> cli_rows;
  /// The untraced CLI runs' wall_s (median of the least-stolen runs).
  double untraced_wall_s = 0.0;
};

struct TracedResult {
  std::vector<LayerMetric> metrics;
  /// The replay's rows were byte-equal to the CLI's.
  bool rows_equal = false;
  std::string trace_json;  ///< where the Chrome trace was written
};

/// Replay the workload's CLI pipeline through the library with spans
/// around every layer call, then time the layers one call at a time
/// at jobs 1. Writes `<dir>/<workload>.trace.json`.
[[nodiscard]] TracedResult run_traced(const TracedInput& input);

// ---- result comparison (compare.cpp) -------------------------------

/// Compare two result files under BENCHMARK.json's bounds; prints one
/// line per workload x metric. Returns the process exit code: 1 on any
/// "worse" or on a rise in fail_frac, 2 on unreadable input, else 0.
[[nodiscard]] int compare_results(const std::string& benchmark_json,
                                  const std::string& a_path,
                                  const std::string& b_path);

}  // namespace fcdpm::e2e
