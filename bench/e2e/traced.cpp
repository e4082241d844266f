// Traced per-layer pass. Spans are recorded only from this file, around
// the calls into each library layer; the library itself is unchanged.
//
// Pass 1 (run 1) replays the workload's CLI pipeline — trace load, grid,
// serial check, sweep, table, report — in the CLI's order with the same
// engine, jobs and journal, and checks that its rows are byte-equal to
// the CLI's. Pass 2 (run 2) times single calls at jobs 1: par::run_point
// per point, every solve-cache call, every journal encode and append,
// and one load of a torn-tail journal.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/text.hpp"
#include "e2e.hpp"
#include "hot/compiled_trace.hpp"
#include "par/solve_cache.hpp"
#include "par/sweep.hpp"
#include "par/worker_pool.hpp"
#include "report/sweep_export.hpp"
#include "report/table.hpp"
#include "resilience/journal.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"
#include "telemetry/sweep_telemetry.hpp"
#include "workload/trace_io.hpp"

namespace fcdpm::e2e {
namespace {

/// In-memory spans {name, start, end, parent, run}, written once as a
/// Chrome trace. `lane` 0 is the calling thread, 1 + w is sweep worker w.
class Spans {
 public:
  int begin(std::string name, int parent, int run) {
    spans_.push_back({std::move(name), now_ns(), 0, parent, run, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, int run, int lane) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, run, lane});
  }

  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Summed duration of the direct children of `parent`.
  [[nodiscard]] double child_seconds(int parent) const {
    double total = 0.0;
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      if (spans_[k].parent == parent) {
        total += seconds(static_cast<int>(k));
      }
    }
    return total;
  }

  void write_chrome(const std::string& path,
                    const std::vector<std::string>& run_names) const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto event = [&](const std::string& text) {
      out += first ? "\n" : ",\n";
      out += text;
      first = false;
    };
    for (std::size_t r = 0; r < run_names.size(); ++r) {
      event("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
            std::to_string(r + 1) + ",\"args\":{\"name\":\"" +
            run_names[r] + "\"}}");
    }
    for (const Span& s : spans_) {
      const std::string parent =
          s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
      event("{\"name\":\"" + s.name + "\",\"cat\":\"e2e\",\"ph\":\"X\"" +
            ",\"ts\":" +
            json_number(static_cast<double>(s.start_ns - origin) * 1e-3) +
            ",\"dur\":" +
            json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3) +
            ",\"pid\":" + std::to_string(s.run) +
            ",\"tid\":" + std::to_string(s.lane) +
            ",\"args\":{\"parent\":\"" + parent + "\"}}");
    }
    out += "\n]}\n";
    write_file_atomic(path, out);
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
    int lane = 0;
  };
  std::vector<Span> spans_;
};

/// Bench-owned front of a SharedSolveCache: forwards every solve (the
/// answers are the memo's own), times each call and, on every 64th call,
/// a fresh solve of the same problem for the cost the memo saves.
class TimedSolveCache final : public core::SlotSolveCache {
 public:
  explicit TimedSolveCache(par::SharedSolveCache& cache) : cache_(&cache) {}

  [[nodiscard]] core::CheckedSetting solve(
      const core::SlotOptimizer& optimizer, const core::SlotLoad& load,
      const core::StorageBounds& storage) override {
    bool hit = false;
    const std::int64_t start = now_ns();
    const core::CheckedSetting answer =
        cache_->solve(optimizer, load, storage, hit);
    count(now_ns() - start, hit);
    if (calls_ % kFreshPeriod == 0) {
      const std::int64_t fresh = now_ns();
      static_cast<void>(cache_->solve_fresh(optimizer, load, storage));
      fresh_ns_ += now_ns() - fresh;
      ++fresh_calls_;
    }
    return answer;
  }

  [[nodiscard]] core::CheckedSetting solve_active_only(
      const core::SlotOptimizer& optimizer, Seconds duration, Coulomb charge,
      const core::StorageBounds& storage) override {
    bool hit = false;
    const std::int64_t start = now_ns();
    const core::CheckedSetting answer =
        cache_->solve_active_only(optimizer, duration, charge, storage, hit);
    count(now_ns() - start, hit);
    if (calls_ % kFreshPeriod == 0) {
      const std::int64_t fresh = now_ns();
      static_cast<void>(cache_->solve_active_only_fresh(optimizer, duration,
                                                        charge, storage));
      fresh_ns_ += now_ns() - fresh;
      ++fresh_calls_;
    }
    return answer;
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::int64_t call_ns() const noexcept { return call_ns_; }
  [[nodiscard]] double mean_call_ns() const noexcept {
    return calls_ > 0 ? static_cast<double>(call_ns_) /
                            static_cast<double>(calls_)
                      : 0.0;
  }
  [[nodiscard]] double mean_fresh_ns() const noexcept {
    return fresh_calls_ > 0 ? static_cast<double>(fresh_ns_) /
                                  static_cast<double>(fresh_calls_)
                            : 0.0;
  }

 private:
  static constexpr std::uint64_t kFreshPeriod = 64;

  void count(std::int64_t ns, bool hit) noexcept {
    ++calls_;
    hits_ += hit ? 1 : 0;
    call_ns_ += ns;
  }

  par::SharedSolveCache* cache_;
  std::uint64_t calls_ = 0;
  std::uint64_t hits_ = 0;
  std::int64_t call_ns_ = 0;
  std::uint64_t fresh_calls_ = 0;
  std::int64_t fresh_ns_ = 0;
};

/// The CLI's build_config for the flags the workloads pass.
sim::ExperimentConfig base_config(const Workload& workload,
                                  wl::Trace trace) {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = std::move(trace);
  if (workload.initial_one) {
    config.initial_storage = Coulomb(1.0);
  }
  config.simulation.initial_storage = config.initial_storage;
  config.simulation.engine = std::string_view(workload.engine) == "hot"
                                 ? sim::Engine::Hot
                                 : sim::Engine::Batched;
  return config;
}

/// The CLI's policy names.
sim::PolicyKind policy_kind(const std::string& name) {
  if (name == "conv") {
    return sim::PolicyKind::Conv;
  }
  if (name == "asap") {
    return sim::PolicyKind::Asap;
  }
  if (name == "fcdpm") {
    return sim::PolicyKind::FcDpm;
  }
  if (name == "oracle") {
    return sim::PolicyKind::Oracle;
  }
  throw std::runtime_error("unknown policy: " + name);
}

std::vector<double> numbers(const std::string& list) {
  std::vector<double> values;
  for (const std::string& item : split(list, ',')) {
    double value = 0.0;
    if (!parse_double(item, value)) {
      throw std::runtime_error("bad grid value: " + item);
    }
    values.push_back(value);
  }
  return values;
}

par::SweepGrid sweep_grid(const Grid& grid) {
  par::SweepGrid out;
  for (const std::string& name : split(grid.policies, ',')) {
    out.policies.push_back(policy_kind(name));
  }
  out.rhos = numbers(grid.rhos);
  for (const double capacity : numbers(grid.capacities)) {
    out.capacities.push_back(Coulomb(capacity));
  }
  return out;
}

/// The CLI's make_point_row for runs without cap, stacks or audit.
report::SweepPointRow point_row(const par::SweepPoint& point,
                                const sim::SimulationResult& result) {
  report::SweepPointRow row;
  row.policy = sim::to_string(point.policy);
  row.rho = point.rho;
  row.capacity = point.capacity.value();
  row.storm_seed = point.storm_seed;
  row.fuel = result.totals.fuel.value();
  row.bled = result.totals.bled.value();
  row.unserved = result.totals.unserved.value();
  row.duration = result.totals.duration.value();
  row.storage_end = result.storage_end.value();
  row.latency = result.latency_added.value();
  row.slots = result.slots;
  row.sleeps = result.sleeps;
  return row;
}

std::vector<std::string> result_cells(const par::SweepPoint& point,
                                      const sim::SimulationResult& result) {
  return {sim::to_string(point.policy),
          report::cell(point.rho, 2),
          report::cell(point.capacity.value(), 1),
          std::to_string(point.storm_seed),
          report::cell(result.totals.fuel.value(), 2),
          report::cell(result.totals.bled.value(), 2),
          report::cell(result.totals.unserved.value(), 2),
          std::to_string(result.sleeps)};
}

std::vector<std::string> table_columns() {
  return {"policy",     "rho",        "capacity",       "storm seed",
          "fuel (A-s)", "bled (A-s)", "unserved (A-s)", "sleeps"};
}

/// Print to /dev/null, as the CLI's stdout is during the timed runs.
void print_discarded(const std::string& text) {
  std::FILE* sink = std::fopen("/dev/null", "w");
  if (sink != nullptr) {
    std::fprintf(sink, "%s\n", text.c_str());
    std::fclose(sink);
  }
}

bool same_results(const par::SweepResult& a, const par::SweepResult& b) {
  if (a.points.size() != b.points.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    const sim::SimulationResult& x = a.points[k].result;
    const sim::SimulationResult& y = b.points[k].result;
    if (x.totals.fuel.value() != y.totals.fuel.value() ||
        x.totals.bled.value() != y.totals.bled.value() ||
        x.storage_end.value() != y.storage_end.value() ||
        x.slots != y.slots || x.sleeps != y.sleeps) {
      return false;
    }
  }
  return true;
}

/// What pass 1 measures: step times, the sweep's stats and telemetry.
struct Pipeline {
  double load_s = 0.0;
  double grid_s = 0.0;
  double serial_check_s = 0.0;
  double sweep_s = 0.0;       ///< par::run_sweep or the resilient runner
  double resilience_s = 0.0;  ///< the resilient runner only
  double table_s = 0.0;
  double encode_s = 0.0;
  double write_s = 0.0;
  double total_s = 0.0;        ///< the whole replay
  double unaccounted_s = 0.0;  ///< total minus its top-level spans
  par::SweepRunStats stats;
  telemetry::SweepSnapshot snapshot;
  std::vector<double> task_us;
};

/// Pass 1: the CLI pipeline, spans around each step. Returns the
/// encoded report.
std::string replay_pipeline(const TracedInput& in, Spans& spans,
                            Pipeline& layer) {
  const Workload& w = *in.workload;
  const int run = 1;
  const int root = spans.begin("pipeline", -1, run);

  int span = spans.begin("workload.load", root, run);
  wl::Trace trace = wl::load_trace_file(in.trace);
  spans.end(span);
  layer.load_s = spans.seconds(span);

  span = spans.begin("config", root, run);
  const sim::ExperimentConfig config = base_config(w, std::move(trace));
  const par::SweepGrid grid = sweep_grid(in.grid);
  spans.end(span);

  span = spans.begin("par.grid", root, run);
  const std::size_t points = grid.points(config).size();
  spans.end(span);
  layer.grid_s = spans.seconds(span);

  std::optional<par::SweepResult> serial;
  if (w.jobs != 1) {
    span = spans.begin("par.serial_check", root, run);
    {
      par::SharedSolveCache serial_cache;
      par::SweepOptions serial_options;
      serial_options.jobs = 1;
      serial_options.cache = &serial_cache;
      serial = par::run_sweep(config, grid, serial_options);
    }
    spans.end(span);
    layer.serial_check_s = spans.seconds(span);
  }

  // The sweep span covers building the solve cache and the telemetry
  // shards; results stay alive until the teardown span, as in the CLI.
  const int sweep_span = spans.begin(
      w.journal == Journal::None ? "par.sweep" : "resilience.sweep", root,
      run);
  telemetry::TelemetryConfig tel_config;
  tel_config.workers = par::WorkerPool::resolve(w.jobs);
  tel_config.total_points = points;
  tel_config.record_lanes = true;
  const std::int64_t tel_origin = now_ns();
  telemetry::SweepTelemetry tel(tel_config);
  std::optional<par::SharedSolveCache> cache(std::in_place);
  std::optional<par::SweepResult> plain;
  std::optional<resilience::ResilientSweepResult> resilient;

  report::SweepBenchReport bench;
  bench.trace_name = config.trace.name();
  std::optional<report::Table> table;
  if (w.journal == Journal::None) {
    par::SweepOptions options;
    options.jobs = w.jobs;
    options.cache = &*cache;
    options.telemetry = &tel;
    const par::SweepResult& sweep =
        plain.emplace(par::run_sweep(config, grid, options));
    spans.end(sweep_span);
    layer.sweep_s = spans.seconds(sweep_span);
    layer.stats = sweep.stats;

    span = spans.begin("report.table", root, run);
    table.emplace("sweep: " + config.trace.name(), table_columns());
    for (const par::SweepPointResult& p : sweep.points) {
      table->add_row(result_cells(p.point, p.result));
    }
    print_discarded(table->to_ascii());
    spans.end(span);
    layer.table_s = spans.seconds(span);

    span = spans.begin("report.rows", root, run);
    bench.batched_points = sweep.stats.points_batched;
    bench.batch_merge_sets = sweep.stats.batch_merge_sets;
    bench.batch_merged_lane_slots = sweep.stats.batch_merged_lane_slots;
    bench.batch_splits = sweep.stats.batch_splits;
    bench.batch_journal_hits = sweep.stats.batch_journal_hits;
    for (const par::SweepPointResult& p : sweep.points) {
      bench.results.push_back(point_row(p.point, p.result));
    }
    if (serial.has_value()) {
      bench.serial_wall_seconds = serial->stats.wall_seconds;
      bench.speedup = sweep.stats.wall_seconds > 0.0
                          ? bench.serial_wall_seconds / sweep.stats.wall_seconds
                          : 0.0;
      bench.bit_identical_to_serial = same_results(*serial, sweep) ? 1 : 0;
    }
    spans.end(span);
  } else {
    const std::string journal = in.dir + "/replay.jnl";
    std::filesystem::remove(journal);
    resilience::ResilienceOptions options;
    options.journal_path = journal;
    if (w.journal == Journal::Resume) {
      std::filesystem::copy_file(
          in.cut, journal, std::filesystem::copy_options::overwrite_existing);
      options.resume = true;
    }
    options.jobs = w.jobs;
    options.cache = &*cache;
    options.telemetry = &tel;
    const resilience::ResilientSweepResult& sweep = resilient.emplace(
        resilience::run_resilient_sweep(config, grid, options));
    spans.end(sweep_span);
    layer.sweep_s = layer.resilience_s = spans.seconds(sweep_span);
    layer.stats = sweep.stats;

    span = spans.begin("report.table", root, run);
    std::vector<std::string> columns = table_columns();
    columns.push_back("status");
    table.emplace("sweep: " + config.trace.name(), std::move(columns));
    for (const resilience::ResilientPoint& p : sweep.points) {
      std::vector<std::string> cells;
      if (p.ok) {
        cells = result_cells(p.result.point, p.result.result);
        cells.push_back(p.replayed ? "replayed" : "ok");
      } else {
        const par::SweepPoint& point = p.result.point;
        cells = {sim::to_string(point.policy), report::cell(point.rho, 2),
                 report::cell(point.capacity.value(), 1),
                 std::to_string(point.storm_seed), "-", "-", "-", "-",
                 std::string("quarantined: ") +
                     resilience::to_string(p.error.kind)};
      }
      table->add_row(std::move(cells));
    }
    print_discarded(table->to_ascii());
    spans.end(span);
    layer.table_s = spans.seconds(span);

    span = spans.begin("report.rows", root, run);
    for (const resilience::ResilientPoint& p : sweep.points) {
      report::SweepPointRow row = point_row(p.result.point, p.result.result);
      row.ok = p.ok;
      row.attempts = p.attempts;
      row.replayed = p.replayed;
      if (!p.ok) {
        row.error = resilience::to_string(p.error.kind);
        row.fuel = row.bled = row.unserved = 0.0;
        row.duration = row.storage_end = row.latency = 0.0;
        row.slots = row.sleeps = 0;
      }
      bench.results.push_back(std::move(row));
    }
    const resilience::ResilienceStats& rs = sweep.resilience;
    bench.resilience.enabled = true;
    bench.resilience.scheduled = rs.scheduled;
    bench.resilience.replayed = rs.replayed;
    bench.resilience.retries = rs.retries;
    bench.resilience.quarantined = rs.quarantined;
    bench.resilience.rounds = rs.rounds;
    bench.resilience.spot_checks = rs.spot_checks;
    bench.resilience.torn_tail_recovered = rs.torn_tail_recovered;
    bench.resilience.torn_bytes_dropped = rs.torn_bytes_dropped;
    bench.resilience.watchdog_stalls = rs.watchdog_stalls;
    bench.resilience.max_retries = options.contract.max_retries;
    bench.resilience.point_deadline_slots =
        options.contract.point_deadline_slots;
    spans.end(span);
  }

  bench.points = layer.stats.points;
  bench.jobs = layer.stats.jobs;
  bench.wall_seconds = layer.stats.wall_seconds;
  bench.points_per_second = layer.stats.points_per_second();
  bench.cache_hits = layer.stats.cache_hits;
  bench.cache_misses = layer.stats.cache_misses;
  bench.cache_hit_rate = layer.stats.cache_hit_rate();

  span = spans.begin("report.encode", root, run);
  std::string json = report::sweep_bench_to_json(bench);
  spans.end(span);
  layer.encode_s = spans.seconds(span);

  // write_sweep_bench_file is this encode followed by this atomic write.
  span = spans.begin("report.write", root, run);
  write_file_atomic(in.dir + "/replay.json", json);
  spans.end(span);
  layer.write_s = spans.seconds(span);

  span = spans.begin("teardown", root, run);
  serial.reset();
  cache.reset();
  plain.reset();
  resilient.reset();
  table.reset();
  bench = {};
  spans.end(span);
  spans.end(root);
  layer.total_s = spans.seconds(root);
  layer.unaccounted_s = layer.total_s - spans.child_seconds(root);

  // Bookkeeping outside the replay: the shards and lanes it recorded.
  layer.snapshot = tel.snapshot();
  for (std::size_t worker = 0; worker < tel.lanes()->workers(); ++worker) {
    for (const telemetry::PointLane& lane : tel.lanes()->lane(worker)) {
      spans.add("par.task",
                tel_origin + static_cast<std::int64_t>(lane.start_ns),
                tel_origin + static_cast<std::int64_t>(lane.end_ns),
                sweep_span, run, static_cast<int>(worker) + 1);
      layer.task_us.push_back(
          static_cast<double>(lane.end_ns - lane.start_ns) * 1e-3);
    }
  }
  return json;
}

}  // namespace

TracedResult run_traced(const TracedInput& in) {
  const Workload& w = *in.workload;
  Spans spans;
  TracedResult out;
  std::vector<LayerMetric>& m = out.metrics;
  const auto add = [&m](const char* name, const char* unit, double value) {
    m.push_back({name, unit, value});
  };

  // ---- pass 1: the CLI pipeline ----
  Pipeline layer;
  const std::string json = replay_pipeline(in, spans, layer);
  out.rows_equal = result_rows(json) == in.cli_rows;

  // ---- pass 2: one layer call at a time, jobs 1 ----
  const int fine = spans.begin("layers", -1, 2);
  const sim::ExperimentConfig config =
      base_config(w, wl::load_trace_file(in.trace));
  const par::SweepGrid grid = sweep_grid(in.grid);
  const std::vector<par::SweepPoint> points = grid.points(config);

  int span = spans.begin("hot.compile", fine, 2);
  const hot::CompiledTrace compiled(config.trace, config.device);
  spans.end(span);
  const double compile_s = spans.seconds(span);

  par::SharedSolveCache shared;
  TimedSolveCache cache(shared);
  std::vector<double> point_us;
  std::vector<resilience::JournalRecord> records(points.size());
  std::int64_t point_ns = 0;
  const int engine = spans.begin("engine.points", fine, 2);
  for (std::size_t k = 0; k < points.size(); ++k) {
    span = spans.begin("engine.point", engine, 2);
    par::SweepPointResult result = par::run_point(
        config, points[k], grid.storm_faults, &cache, nullptr, 0, &compiled);
    spans.end(span);
    point_us.push_back(spans.seconds(span) * 1e6);
    point_ns += static_cast<std::int64_t>(spans.seconds(span) * 1e9);
    records[k].index = k;
    records[k].point = points[k];
    records[k].result = std::move(result.result);
  }
  spans.end(engine);

  std::vector<double> encode_us;
  span = spans.begin("resilience.encode", fine, 2);
  for (const resilience::JournalRecord& record : records) {
    const std::int64_t start = now_ns();
    static_cast<void>(resilience::record_to_json(record));
    encode_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  spans.end(span);

  const std::string journal_path = in.dir + "/layers.jnl";
  const std::string cut_path = in.dir + "/layers-cut.jnl";
  std::vector<double> append_us;
  span = spans.begin("resilience.append", fine, 2);
  {
    resilience::JournalHeader header;
    header.trace_name = config.trace.name();
    header.points = points.size();
    header.fingerprint = resilience::grid_fingerprint(
        config, points, grid.storm_faults);
    resilience::Journal journal =
        resilience::Journal::create(journal_path, header);
    for (const resilience::JournalRecord& record : records) {
      const std::int64_t start = now_ns();
      journal.append(record);
      append_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    }
  }
  spans.end(span);

  span = spans.begin("resilience.cut", fine, 2);
  cut_journal(journal_path, cut_path);
  spans.end(span);

  span = spans.begin("resilience.load", fine, 2);
  const resilience::JournalLoad load = resilience::load_journal(cut_path);
  spans.end(span);
  const double load_s = spans.seconds(span);
  spans.end(fine);

  out.trace_json = in.dir + "/" + w.name + ".trace.json";
  spans.write_chrome(out.trace_json,
                     {"pass 1: CLI pipeline replay", "pass 2: layer calls"});

  // ---- metrics ----
  const par::SweepRunStats& stats = layer.stats;
  const telemetry::SweepSnapshot& snap = layer.snapshot;
  double busy_s = 0.0;
  for (const telemetry::WorkerSnapshot& worker : snap.workers) {
    busy_s += worker.busy_seconds;
  }
  const double jobs = static_cast<double>(par::WorkerPool::resolve(w.jobs));
  double encode_sum = 0.0;
  double append_sum = 0.0;
  for (const double us : encode_us) encode_sum += us;
  for (const double us : append_us) append_sum += us;
  const double lane_slots =
      static_cast<double>(stats.points_batched) *
      static_cast<double>(config.trace.size());

  add("workload.load_s", "s", layer.load_s);
  add("hot.compile_s", "s", compile_s);
  add("engine.point_us.p50", "us", quantile(point_us, 0.50));
  add("engine.point_us.p99", "us", quantile(point_us, 0.99));
  add("par.grid_s", "s", layer.grid_s);
  add("par.sweep_s", "s", layer.sweep_s);
  add("par.serial_check_s", "s", layer.serial_check_s);
  add("par.busy_s", "s", busy_s);
  add("par.idle_frac", "ratio", 1.0 - busy_s / (jobs * layer.sweep_s));
  add("par.worker_skew", "ratio", snap.worker_skew);
  add("par.task_us.p50", "us", quantile(layer.task_us, 0.50));
  add("par.task_us.p99", "us", quantile(layer.task_us, 0.99));
  add("par.dispatch_batched", "count",
      static_cast<double>(snap.batched_dispatches));
  add("par.dispatch_hot", "count", static_cast<double>(snap.hot_dispatches));
  add("par.dispatch_reference", "count",
      static_cast<double>(snap.reference_dispatches));
  add("core.solve_calls", "count", static_cast<double>(cache.calls()));
  add("core.cache_hit_rate", "ratio",
      cache.calls() > 0 ? static_cast<double>(cache.hits()) /
                              static_cast<double>(cache.calls())
                        : 0.0);
  add("core.cache_entries", "count", static_cast<double>(shared.size()));
  add("core.cache_call_ns", "ns", cache.mean_call_ns());
  add("core.solve_fresh_ns", "ns", cache.mean_fresh_ns());
  add("core.cache_share", "ratio",
      point_ns > 0 ? static_cast<double>(cache.call_ns()) /
                         static_cast<double>(point_ns)
                   : 0.0);
  add("batch.points", "count", static_cast<double>(stats.points_batched));
  add("batch.merge_sets", "count", static_cast<double>(stats.batch_merge_sets));
  add("batch.merged_lane_slots", "count",
      static_cast<double>(stats.batch_merged_lane_slots));
  add("batch.splits", "count", static_cast<double>(stats.batch_splits));
  add("batch.journal_hits", "count",
      static_cast<double>(stats.batch_journal_hits));
  add("batch.merged_frac", "ratio",
      lane_slots > 0.0
          ? static_cast<double>(stats.batch_merged_lane_slots) / lane_slots
          : 0.0);
  add("resilience.sweep_s", "s", layer.resilience_s);
  add("resilience.encode_us.p50", "us", quantile(encode_us, 0.50));
  add("resilience.encode_us.p99", "us", quantile(encode_us, 0.99));
  add("resilience.append_us.p50", "us", quantile(append_us, 0.50));
  add("resilience.append_us.p99", "us", quantile(append_us, 0.99));
  add("resilience.fsync_frac", "ratio",
      append_sum > 0.0 ? 1.0 - encode_sum / append_sum : 0.0);
  add("resilience.load_s", "s", load_s);
  add("resilience.records", "count", static_cast<double>(load.records.size()));
  add("resilience.journal_mb", "MB",
      static_cast<double>(std::filesystem::file_size(journal_path)) /
          (1024.0 * 1024.0));
  add("report.table_s", "s", layer.table_s);
  add("report.encode_s", "s", layer.encode_s);
  add("report.write_s", "s", layer.write_s);
  add("report.json_mb", "MB",
      static_cast<double>(json.size()) / (1024.0 * 1024.0));
  add("trace.unaccounted_frac", "ratio",
      layer.total_s > 0.0 ? layer.unaccounted_s / layer.total_s : 0.0);
  add("trace.overhead_frac", "ratio",
      in.untraced_wall_s > 0.0 ? layer.total_s / in.untraced_wall_s - 1.0
                               : 0.0);
  return out;
}

}  // namespace fcdpm::e2e
