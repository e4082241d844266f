// fcdpm_e2e: end-to-end benchmark of `fcdpm_cli sweep`.
//
// Run it through bench/e2e/run.sh, which builds the CLI and this program
// in Release and passes --root/--build/--git-commit/--git-dirty:
//
//   run.sh [--seed S] [--repeats N] [--out results.json] [--traced] [--smoke]
//       All five workloads: an untimed reference run and set-up runs per
//       workload, one discarded warm-up each, then N timed runs (default
//       40) interleaved round-robin. --traced adds the per-layer pass.
//       --smoke: grids ~1/20 the size, 1 timed run, traced pass.
//   run.sh --compare A.json B.json
//       Apply BENCHMARK.json's bounds to two result files.
//   run.sh --workload NAME --seed S --seconds T --trace 0|1
//       One workload, timed runs for T seconds; the last stdout line is
//       one JSON object with the end-to-end (--trace 0) or per-layer
//       (--trace 1) metrics that BENCHMARK.json names.
//
// Every timed run is one fcdpm_cli child, spawned from this process with
// stdout on /dev/null, on the next CPU in turn, and timed from spawn
// until wait4 returns; its rows are checked against the reference
// engine's. Time metrics report the median of the runs that lost the
// least time to the hypervisor's steal (see README.md).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "e2e.hpp"
#include "resilience/journal.hpp"
#include "telemetry/json.hpp"

namespace fcdpm::e2e {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 20070604;
/// One-point runs per set-up measurement; setup_s is their median.
constexpr std::size_t kSetupRuns = 61;
/// Fewest timed runs behind a --workload result, however short --seconds.
constexpr std::size_t kMinRuns = 20;

struct Options {
  std::string root;
  std::string build;
  std::string git_commit = "unknown";
  std::string git_dirty = "unknown";
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::size_t repeats = 0;  ///< 0: 40, or 1 with --smoke
  std::string out;
  bool traced = false;
  bool smoke = false;
  std::vector<std::string> compare;
};

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0') {
    throw std::runtime_error(flag + ": not a whole number: '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) {
        throw std::runtime_error(flag + ": missing value");
      }
      return argv[++k];
    };
    if (flag == "--root") {
      o.root = value();
    } else if (flag == "--build") {
      o.build = value();
    } else if (flag == "--git-commit") {
      o.git_commit = value();
    } else if (flag == "--git-dirty") {
      o.git_dirty = value();
    } else if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.seed = parse_count(flag, value());
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_count(flag, value()));
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") {
        throw std::runtime_error("--trace: use 0 or 1");
      }
      o.trace = v == "1" ? 1 : 0;
    } else if (flag == "--repeats") {
      o.repeats = parse_count(flag, value());
      if (o.repeats == 0) {
        throw std::runtime_error("--repeats: need at least 1");
      }
    } else if (flag == "--out") {
      o.out = value();
    } else if (flag == "--traced") {
      o.traced = true;
    } else if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--compare") {
      o.compare.push_back(value());
      o.compare.push_back(value());
    } else {
      throw std::runtime_error("unknown option: " + flag);
    }
  }
  if (o.root.empty() || o.build.empty()) {
    throw std::runtime_error("--root and --build are required (use run.sh)");
  }
  if (o.repeats == 0) {
    o.repeats = o.smoke ? 1 : 40;
  }
  // The smoke run is the quick end-to-end check: gate and traced pass.
  o.traced = o.traced || o.smoke;
  return o;
}

/// Locations derived from --root and --build.
struct Env {
  std::string cli;
  std::string work;
  std::string benchmark;
  std::string golden;
  std::string git_commit;
  std::string git_dirty;
};

/// Reference rows (normalized) shared by workloads with the same trace
/// and grid: policy-mix-hot / parallel-jobs2 and the two journal ones.
using References = std::map<std::string, std::vector<std::string>>;

/// Digests of the reference rows at one seed (bench/e2e/golden.json).
struct Golden {
  std::uint64_t seed = 0;
  std::map<std::string, std::string> digests;
};

Golden load_golden(const std::string& path, bool smoke) {
  Golden golden;
  if (!fs::exists(path)) {
    return golden;
  }
  const telemetry::json::ParseResult parsed =
      telemetry::json::parse(read_file(path));
  if (!parsed.ok) {
    throw std::runtime_error(path + ": " + parsed.error);
  }
  golden.seed = static_cast<std::uint64_t>(
      parsed.value.number_at("seed").value_or(0.0));
  if (const telemetry::json::Value* table =
          parsed.value.find(smoke ? "smoke" : "full")) {
    for (const auto& [name, digest] : table->members()) {
      golden.digests[name] = digest.as_string();
    }
  }
  return golden;
}

/// One workload at one seed: its inputs, reference and samples.
struct WorkloadRun {
  const Workload* workload = nullptr;
  Grid grid;
  Grid one;
  std::string dir;
  std::string log;
  std::string trace;
  std::string out;
  std::string journal;
  std::string cut;
  std::string one_out;
  std::string one_journal;
  std::string one_cut;
  const std::vector<std::string>* reference = nullptr;
  std::uint64_t digest = 0;
  bool golden_ok = true;
  std::vector<std::string> last_rows;
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> rss;
  std::vector<double> pps;
  std::vector<std::uint64_t> steal;  ///< per timed run: ChildRun::steal_ticks
  std::vector<double> setup;
  std::vector<std::uint64_t> setup_steal;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<LayerMetric> layers;
};

void note(const WorkloadRun& s, const std::string& text) {
  std::fprintf(stderr, "[%s] %s\n", s.workload->name, text.c_str());
}

/// Put the journal a command expects in place: none for a fresh
/// --journal, a fresh copy of the torn-tail cut for --resume.
void stage_journal(Journal mode, const std::string& journal,
                   const std::string& cut) {
  if (mode == Journal::Write) {
    fs::remove(journal);
  } else if (mode == Journal::Resume) {
    fs::copy_file(cut, journal, fs::copy_options::overwrite_existing);
  }
}

/// Untimed journal-write run of `grid`, cut into the resume input.
void make_cut(const Env& env, const WorkloadRun& s, const Grid& grid,
              const std::string& out, const std::string& journal,
              const std::string& cut) {
  fs::remove(journal);
  const ChildRun run = run_child(
      sweep_command(env.cli, *s.workload, grid, s.trace, out, Journal::Write,
                    journal, false),
      s.log, s.workload->jobs);
  if (run.exit_code != 0) {
    throw std::runtime_error(std::string(s.workload->name) +
                             ": journal run failed\n" + file_tail(s.log, 20));
  }
  cut_journal(journal, cut);
}

void prepare(WorkloadRun& s, const Env& env, std::uint64_t seed, bool smoke,
             References& references, const Golden& golden) {
  const Workload& w = *s.workload;
  s.grid = workload_grid(w, smoke);
  s.one = first_point(s.grid);
  s.dir = env.work + "/" + w.name;
  fs::remove_all(s.dir);
  fs::create_directories(s.dir);
  s.log = s.dir + "/cli.log";
  s.trace = s.dir + "/trace.csv";
  s.out = s.dir + "/out.json";
  s.journal = s.dir + "/sweep.jnl";
  s.cut = s.dir + "/cut.jnl";
  s.one_out = s.dir + "/one.json";
  s.one_journal = s.dir + "/one.jnl";
  s.one_cut = s.dir + "/one-cut.jnl";
  write_trace(s.trace, w.slots, seed);

  const std::string key = std::to_string(w.slots) + "|" + s.grid.policies +
                          "|" + s.grid.rhos + "|" + s.grid.capacities + "|" +
                          (w.initial_one ? "1" : "0");
  auto it = references.find(key);
  if (it == references.end()) {
    const std::string out = s.dir + "/reference.json";
    const ChildRun run = run_child(
        sweep_command(env.cli, w, s.grid, s.trace, out, Journal::None, "",
                      true),
        s.log, 1);
    if (run.exit_code != 0) {
      throw std::runtime_error(std::string(w.name) +
                               ": reference run failed\n" +
                               file_tail(s.log, 20));
    }
    std::vector<std::string> rows = result_rows(read_file(out));
    if (rows.size() != s.grid.points) {
      throw std::runtime_error(std::string(w.name) + ": reference has " +
                               std::to_string(rows.size()) + " rows, want " +
                               std::to_string(s.grid.points));
    }
    for (std::string& row : rows) {
      row = normalized_row(std::move(row));
    }
    note(s, "reference: " + std::to_string(rows.size()) + " points in " +
                std::to_string(run.wall_s) + " s");
    it = references.emplace(key, std::move(rows)).first;
  }
  s.reference = &it->second;
  s.digest = rows_digest(*s.reference);
  const auto expected = golden.digests.find(w.name);
  if (golden.seed == seed && expected != golden.digests.end() &&
      expected->second != hex64(s.digest)) {
    s.golden_ok = false;
    note(s, "reference digest " + hex64(s.digest) + " != golden " +
                expected->second + ": the reference answers moved");
  }

  if (w.journal == Journal::Resume) {
    make_cut(env, s, s.grid, s.out, s.journal, s.cut);
    make_cut(env, s, s.one, s.one_out, s.one_journal, s.one_cut);
  }
}

/// One setup_s sample: the workload's command on its one-point grid.
void setup_run(WorkloadRun& s, const Env& env) {
  const Workload& w = *s.workload;
  stage_journal(w.journal, s.one_journal, s.one_cut);
  const ChildRun run = run_child(
      sweep_command(env.cli, w, s.one, s.trace, s.one_out, w.journal,
                    s.one_journal, false),
      s.log, w.jobs);
  ++s.attempted;
  if (run.exit_code != 0) {
    ++s.failed;
    note(s, "one-point run failed\n" + file_tail(s.log, 20));
  }
  s.setup.push_back(run.wall_s);
  s.setup_steal.push_back(run.steal_ticks);
}

/// One run of the workload's command, checked against the reference.
/// `record` = false is the discarded warm-up.
void timed_run(WorkloadRun& s, const Env& env, bool record) {
  const Workload& w = *s.workload;
  stage_journal(w.journal, s.journal, s.cut);
  const ChildRun run = run_child(
      sweep_command(env.cli, w, s.grid, s.trace, s.out, w.journal, s.journal,
                    false),
      s.log, w.jobs);
  std::size_t failed = s.grid.points;
  if (run.exit_code == 0) {
    try {
      s.last_rows = result_rows(read_file(s.out));
      failed = failed_points(s.last_rows, *s.reference);
      if (w.journal == Journal::Write) {
        const resilience::JournalLoad load =
            resilience::load_journal(s.journal);
        if (load.records.size() != s.grid.points || load.torn_tail) {
          note(s, "journal holds " + std::to_string(load.records.size()) +
                      " records" + (load.torn_tail ? " and a torn tail" : ""));
          failed = s.grid.points;
        }
      }
    } catch (const std::exception& error) {
      note(s, error.what());
    }
  } else {
    note(s, "exit code " + std::to_string(run.exit_code) + "\n" +
                file_tail(s.log, 20));
  }
  if (!s.golden_ok) {
    failed = s.grid.points;
  }
  if (failed > 0) {
    note(s, std::to_string(failed) + " of " + std::to_string(s.grid.points) +
                " points missing or different from the reference");
  }
  s.attempted += s.grid.points;
  s.failed += failed;
  if (record) {
    s.wall.push_back(run.wall_s);
    s.cpu.push_back(run.cpu_s);
    s.rss.push_back(run.peak_rss_mb);
    s.pps.push_back(static_cast<double>(s.grid.points) / run.wall_s);
    s.steal.push_back(run.steal_ticks);
  }
}

void traced_pass(WorkloadRun& s) {
  TracedInput in;
  in.workload = s.workload;
  in.grid = s.grid;
  in.dir = s.dir;
  in.trace = s.trace;
  in.cut = s.cut;
  in.cli_rows = s.last_rows;
  in.untraced_wall_s = least_stolen_median(s.wall, s.steal);
  TracedResult result = run_traced(in);
  s.layers = std::move(result.metrics);
  s.attempted += s.grid.points;
  if (!result.rows_equal) {
    s.failed += s.grid.points;
    note(s, "library replay rows differ from the CLI's --out rows");
  }
  note(s, "trace written to " + result.trace_json);
}

/// An end-to-end metric: every run's value and the one it reports.
struct EndToEnd {
  const char* name;
  const char* unit;
  std::vector<double> values;
  double value = 0.0;
};

std::vector<EndToEnd> end_to_end(const WorkloadRun& s) {
  const double fail_frac =
      s.attempted > 0 ? static_cast<double>(s.failed) /
                            static_cast<double>(s.attempted)
                      : 1.0;
  return {{"wall_s", "s", s.wall, least_stolen_median(s.wall, s.steal)},
          {"points_per_s", "1/s", s.pps, least_stolen_median(s.pps, s.steal)},
          {"cpu_s", "s", s.cpu, least_stolen_median(s.cpu, s.steal)},
          {"peak_rss_mb", "MB", s.rss, median(s.rss)},
          {"setup_s", "s", s.setup,
           least_stolen_median(s.setup, s.setup_steal)},
          {"fail_frac", "ratio", {fail_frac}, fail_frac}};
}

/// Metric names BENCHMARK.json lists under `section`, with their units.
std::vector<std::pair<std::string, std::string>> benchmark_metrics(
    const std::string& path, const char* section) {
  const telemetry::json::ParseResult parsed =
      telemetry::json::parse(read_file(path));
  if (!parsed.ok) {
    throw std::runtime_error(path + ": " + parsed.error);
  }
  std::vector<std::pair<std::string, std::string>> names;
  if (const telemetry::json::Value* list = parsed.value.find(section)) {
    for (const telemetry::json::Value& metric : list->items()) {
      names.emplace_back(metric.string_at("name"), metric.string_at("unit"));
    }
  }
  return names;
}

/// "n/total": how many runs recorded no steal time.
std::string steal_free(const std::vector<std::uint64_t>& steal) {
  const auto clean = std::count(steal.begin(), steal.end(), 0);
  return std::to_string(clean) + "/" + std::to_string(steal.size());
}

void print_end_to_end(const std::vector<WorkloadRun>& runs) {
  std::printf("\n%-15s %-13s %-6s %14s %14s %14s %14s %4s\n", "workload",
              "metric", "unit", "value", "median", "q1", "q3", "n");
  for (const WorkloadRun& s : runs) {
    for (const EndToEnd& m : end_to_end(s)) {
      const Summary sum = summarize(m.values);
      std::printf("%-15s %-13s %-6s %14.6g %14.6g %14.6g %14.6g %4zu\n",
                  s.workload->name, m.name, m.unit, m.value, sum.median,
                  sum.q1, sum.q3, sum.n);
    }
    std::printf("%-15s steal-free runs: timed %s, set-up %s\n",
                s.workload->name, steal_free(s.steal).c_str(),
                steal_free(s.setup_steal).c_str());
  }
}

void print_layers(const std::vector<WorkloadRun>& runs) {
  if (runs.empty() || runs.front().layers.empty()) {
    return;
  }
  std::printf("\n%-26s %-6s", "layer metric", "unit");
  for (const WorkloadRun& s : runs) {
    std::printf(" %15s", s.workload->name);
  }
  std::printf("\n");
  const std::vector<LayerMetric>& names = runs.front().layers;
  for (std::size_t k = 0; k < names.size(); ++k) {
    std::printf("%-26s %-6s", names[k].name.c_str(), names[k].unit.c_str());
    for (const WorkloadRun& s : runs) {
      std::printf(" %15.6g", s.layers[k].value);
    }
    std::printf("\n");
  }
}

std::string summary_json(const EndToEnd& m) {
  const std::vector<double>& values = m.values;
  const Summary sum = summarize(values);
  std::string out;
  append(out, {"\"value\":", json_number(m.value),
               ",\"median\":", json_number(sum.median),
               ",\"q1\":", json_number(sum.q1),
               ",\"q3\":", json_number(sum.q3),
               ",\"n\":", std::to_string(sum.n), ",\"values\":["});
  for (std::size_t k = 0; k < values.size(); ++k) {
    append(out, {k == 0 ? "" : ",", json_number(values[k])});
  }
  out += "]";
  return out;
}

std::string results_json(const Options& o, const Env& env,
                         const std::vector<WorkloadRun>& runs) {
  std::string out;
  append(out, {"{\"schema\":\"fcdpm-e2e/1\",\"seed\":", std::to_string(o.seed),
               ",\"repeats\":", std::to_string(o.repeats),
               ",\"smoke\":", o.smoke ? "true" : "false",
               ",\"traced\":", o.traced ? "true" : "false",
               ",\"machine\":",
               machine_json(env.work, env.git_commit, env.git_dirty),
               ",\"workloads\":["});
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const WorkloadRun& s = runs[k];
    append(out, {k == 0 ? "\n" : ",\n", "{\"name\":\"", s.workload->name,
                 "\",\"points\":", std::to_string(s.grid.points),
                 ",\"attempted\":", std::to_string(s.attempted),
                 ",\"failed\":", std::to_string(s.failed),
                 ",\"reference_digest\":\"", hex64(s.digest),
                 "\",\"steal_free_runs\":\"", steal_free(s.steal),
                 "\",\"steal_free_setup_runs\":\"",
                 steal_free(s.setup_steal),
                 "\",\"metrics\":{"});
    bool first = true;
    for (const EndToEnd& m : end_to_end(s)) {
      append(out, {first ? "\"" : ",\"", m.name, "\":{\"unit\":\"", m.unit,
                   "\",", summary_json(m), "}"});
      first = false;
    }
    out += "}";
    if (!s.layers.empty()) {
      out += ",\"layers\":{";
      for (std::size_t j = 0; j < s.layers.size(); ++j) {
        append(out, {j == 0 ? "\"" : ",\"", s.layers[j].name,
                     "\":{\"unit\":\"", s.layers[j].unit, "\",\"value\":",
                     json_number(s.layers[j].value), "}"});
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

/// All five workloads, interleaved round-robin.
int run_all(const Options& o, const Env& env) {
  const Golden golden = load_golden(env.golden, o.smoke);
  References references;
  std::vector<WorkloadRun> runs(workloads().size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    runs[k].workload = &workloads()[k];
    prepare(runs[k], env, o.seed, o.smoke, references, golden);
  }
  for (WorkloadRun& s : runs) {
    while (s.setup.size() < kSetupRuns) {
      setup_run(s, env);
    }
    timed_run(s, env, false);
  }
  for (std::size_t r = 0; r < o.repeats; ++r) {
    for (WorkloadRun& s : runs) {
      timed_run(s, env, true);
    }
    std::fprintf(stderr, "repeat %zu/%zu done\n", r + 1, o.repeats);
  }
  if (o.traced) {
    for (WorkloadRun& s : runs) {
      traced_pass(s);
    }
  }
  print_end_to_end(runs);
  print_layers(runs);

  const std::string out = o.out.empty() ? env.work + "/results.json" : o.out;
  write_file_atomic(out, results_json(o, env, runs));
  std::printf("\nwrote %s\n", out.c_str());
  std::size_t failed = 0;
  for (const WorkloadRun& s : runs) {
    failed += s.failed;
  }
  return failed > 0 ? 1 : 0;
}

/// One workload for --seconds; the last stdout line is the result.
int run_one(const Options& o, const Env& env) {
  const Workload* workload = find_workload(o.workload);
  if (workload == nullptr) {
    throw std::runtime_error("unknown workload: " + o.workload);
  }
  const auto wanted = benchmark_metrics(
      env.benchmark, o.trace == 1 ? "per_layer" : "end_to_end");
  References references;
  std::vector<WorkloadRun> runs(1);
  WorkloadRun& s = runs.front();
  s.workload = workload;
  prepare(s, env, o.seed, o.smoke, references,
          load_golden(env.golden, o.smoke));
  timed_run(s, env, false);
  // The set-up runs (--trace 0 only) are spread evenly over the timed
  // window, so that a burst of host contention reaches few of them.
  const std::size_t setup_runs = o.trace == 0 ? kSetupRuns : 0;
  const std::int64_t start = now_ns();
  const auto elapsed_share = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9 / o.seconds;
  };
  while (s.wall.size() < kMinRuns || elapsed_share() < 1.0) {
    timed_run(s, env, true);
    while (s.setup.size() < setup_runs &&
           static_cast<double>(s.setup.size()) <
               static_cast<double>(setup_runs) * elapsed_share()) {
      setup_run(s, env);
    }
  }
  while (s.setup.size() < setup_runs) {
    setup_run(s, env);
  }
  if (o.trace == 1) {
    traced_pass(s);
  }
  print_end_to_end(runs);
  print_layers(runs);

  std::map<std::string, LayerMetric> measured;
  for (const EndToEnd& m : end_to_end(s)) {
    measured[m.name] = {m.name, m.unit, m.value};
  }
  for (const LayerMetric& m : s.layers) {
    measured[m.name] = m;
  }
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    const auto it = measured.find(name);
    if (it == measured.end() || it->second.unit != unit) {
      throw std::runtime_error("BENCHMARK.json names " + name + " [" + unit +
                               "], which fcdpm_e2e does not measure");
    }
    append(metrics, {metrics.empty() ? "\"" : ",\"", name, "\":{\"value\":",
                     json_number(it->second.value), ",\"unit\":\"", unit,
                     "\"}"});
  }
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{%s}}\n",
              s.failed == 0 ? "true" : "false", s.attempted, s.failed,
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace fcdpm::e2e

int main(int argc, char** argv) {
  using namespace fcdpm::e2e;
  try {
    const Options o = parse_options(argc, argv);
    Env env;
    env.cli = o.build + "/examples/fcdpm_cli";
    env.work = o.build + "/e2e-work";
    env.benchmark = o.root + "/BENCHMARK.json";
    env.golden = o.root + "/bench/e2e/golden.json";
    env.git_commit = o.git_commit;
    env.git_dirty = o.git_dirty;
    if (o.compare.size() == 2) {
      return compare_results(env.benchmark, o.compare[0], o.compare[1]);
    }
    std::filesystem::create_directories(env.work);
    return o.workload.empty() ? run_all(o, env) : run_one(o, env);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fcdpm_e2e: %s\n", error.what());
    return 2;
  }
}
