// fcdpm_cli — command-line front end to the library. Every flag is one
// row of the table in cli_flags.cpp, which parses, checks and documents
// it; `fcdpm_cli` with no arguments prints the generated usage. Exit
// status: 0 on success, 1 for the usage and an unknown command, 2 for any
// other error. A quarantined grid point is not a sweep failure.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "audit/audit.hpp"
#include "audit/bisect.hpp"
#include "cap/stats.hpp"
#include "common/atomic_file.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "hot/compiled_trace.hpp"
#include "hot/lifetime.hpp"
#include "obs/context.hpp"
#include "par/sweep.hpp"
#include "par/worker_pool.hpp"
#include "report/obs_export.hpp"
#include "resilience/resilient_sweep.hpp"
#include "resilience/sweep_report.hpp"
#include "report/sweep_export.hpp"
#include "sim/result_fields.hpp"
#include "telemetry/lanes.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/sweep_telemetry.hpp"
#include "report/table.hpp"
#include "sim/experiments.hpp"
#include "sim/lifetime.hpp"
#include "stacks/multi_stack.hpp"
#include "workload/aggregation.hpp"
#include "workload/analysis.hpp"
#include "workload/camcorder.hpp"
#include "workload/merge.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace fcdpm;
using cli::Args;

wl::Trace load_workload(const Args& args) {
  if (args.has("trace")) {
    return wl::load_trace_file(args.text("trace"));
  }
  const std::uint64_t seed = args.count("seed", 0);
  if (args.choice("kind", "camcorder") == "synthetic") {
    wl::SyntheticConfig config;
    if (seed != 0) {
      config.seed = seed;
    }
    return wl::generate_synthetic_trace(config);
  }
  wl::CamcorderConfig config;
  if (seed != 0) {
    config.seed = seed;
  }
  return wl::generate_camcorder_trace(config);
}

sim::ExperimentConfig build_config(const Args& args) {
  sim::ExperimentConfig config = args.choice("kind", "camcorder") ==
                                         "synthetic"
                                     ? sim::experiment2_config()
                                     : sim::experiment1_config();
  config.trace = load_workload(args);
  config.rho = args.real("rho", config.rho);
  config.sigma = args.real("sigma", config.sigma);
  config.storage_capacity =
      Coulomb(args.real("capacity", config.storage_capacity.value()));
  // Above the capacity is fine: every run clamps it to its buffer.
  config.initial_storage =
      Coulomb(args.real("initial", config.initial_storage.value()));
  config.simulation.initial_storage = config.initial_storage;
  const std::string engine = args.choice("engine", "reference");
  if (engine == "hot") {
    config.simulation.engine = sim::Engine::Hot;
  } else if (engine == "batched") {
    config.simulation.engine = sim::Engine::Batched;
  }
  config.cap.enabled = args.choice("cap", "off") == "on";
  config.cap.table_csv = args.text("cap-table");
  config.cap.hysteresis_slots =
      args.count("cap-hysteresis", config.cap.hysteresis_slots);
  config.cap.storage_draw_fraction =
      args.real("cap-draw-fraction", config.cap.storage_draw_fraction);
  // Runtime invariant auditing (opt-in; results stay bit-identical). The
  // table admits only the modes parse_mode knows.
  (void)audit::parse_mode(args.choice("audit", "off"), config.audit.mode);
  config.audit.sample_period =
      args.count("audit-sample-period", config.audit.sample_period);
  config.audit.tamper_slot =
      args.count("audit-tamper-slot", config.audit.tamper_slot);
  // The batched engine refuses combinations it would otherwise have to
  // silently degrade on, instead of quietly running something else.
  if (config.simulation.engine == sim::Engine::Batched) {
    if (args.has("faults")) {
      throw std::runtime_error(
          "--engine batched: incompatible with --faults (fault injection "
          "is not modelled by the batch loop; use --engine hot or "
          "--engine reference)");
    }
    if (config.audit.mode == audit::Mode::Strict) {
      throw std::runtime_error(
          "--engine batched: incompatible with --audit strict (strict "
          "violations must propagate, but batched lanes self-heal onto "
          "the reference engine; use --audit sample or --engine "
          "reference)");
    }
  }
  // Multi-stack source: --stacks N (>= 1) enables it. On sweep --stacks
  // is the grid's count list, and each point N >= 1 forces its count. A
  // 0 point runs the base source, so a list with a 0 leaves the base
  // single-stack; any other list seeds it (and so the journal
  // fingerprint) with its first item.
  const std::vector<std::uint64_t> stack_list =
      args.command() == cli::kSweep
          ? args.counts("stacks")
          : std::vector<std::uint64_t>{args.count("stacks", 0)};
  const std::size_t stack_count =
      stack_list.empty() || std::ranges::min(stack_list) == 0
          ? 0
          : stack_list.front();
  config.stacks.config_csv = args.text("stacks-config");
  if (stack_count > 0 || !config.stacks.config_csv.empty()) {
    config.stacks.enabled = true;
    config.stacks.count = stack_count > 0 ? stack_count : 1;
  }
  if (args.has("distribution")) {
    config.stacks.distribution =
        stacks::parse_distribution(args.choice("distribution", ""));
  }
  config.stacks.charge_fade_per_as =
      args.real("stack-charge-fade", config.stacks.charge_fade_per_as);
  config.stacks.cycle_fade =
      args.real("stack-cycle-fade", config.stacks.cycle_fade);
  return config;
}

/// Observability wiring behind --trace-out / --metrics-out /
/// --profile-out: owns the sink, registry and profiler for one command
/// and writes the requested files when the command finishes. With none
/// of the flags given, context() is nullptr and the simulation runs the
/// untouched fast path.
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : trace_path_(args.text("trace-out")),
        metrics_path_(args.text("metrics-out")),
        profile_path_(args.text("profile-out")) {
    if (!trace_path_.empty()) {
      // Stream into the atomic-write staging sibling; finish() renames
      // it over the destination, so a killed run never leaves a
      // truncated trace behind.
      stream_.open(atomic_temp_path(trace_path_));
      if (!stream_) {
        throw std::runtime_error("cannot create trace file: " + trace_path_);
      }
      const bool jsonl =
          trace_path_.size() >= 6 &&
          trace_path_.compare(trace_path_.size() - 6, 6, ".jsonl") == 0;
      if (jsonl) {
        sink_ = std::make_unique<obs::JsonlTraceSink>(stream_);
      } else {
        sink_ = std::make_unique<obs::ChromeTraceSink>(stream_);
      }
      context_.set_sink(sink_.get());
    }
    if (!metrics_path_.empty()) {
      context_.set_metrics(&metrics_);
    }
    if (!profile_path_.empty()) {
      context_.set_profiler(&profiler_);
    }
  }

  /// nullptr when no observability flag was given.
  [[nodiscard]] obs::Context* context() {
    return enabled() ? &context_ : nullptr;
  }

  /// The attached trace sink (nullptr without --trace-out). Valid until
  /// finish(); the sweep commands drain telemetry lanes into it first.
  [[nodiscard]] obs::TraceSink* sink() { return sink_.get(); }

  /// Rewind the simulated clock and switch tracks; one track per run
  /// keeps sequential runs side by side in the trace viewer.
  void start_run(int track) {
    context_.set_track(track);
    context_.set_now(Seconds(0.0));
  }

  /// Close the sink (Chrome traces need their closing bracket) and
  /// write the metrics / profile files.
  void finish() {
    if (sink_ != nullptr) {
      sink_->flush();
      sink_.reset();
      stream_.close();
      commit_file(atomic_temp_path(trace_path_), trace_path_);
      std::printf("wrote trace to %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      report::write_metrics_file(metrics_path_, metrics_);
      std::printf("wrote metrics to %s\n", metrics_path_.c_str());
    }
    if (!profile_path_.empty()) {
      write_csv_file(profile_path_, report::profile_to_csv(profiler_));
      std::printf("wrote profile to %s\n", profile_path_.c_str());
    }
  }

 private:
  [[nodiscard]] bool enabled() const {
    return !trace_path_.empty() || !metrics_path_.empty() ||
           !profile_path_.empty();
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::string profile_path_;
  std::ofstream stream_;
  std::unique_ptr<obs::TraceSink> sink_;
  obs::MetricsRegistry metrics_;
  obs::Profiler profiler_;
  obs::Context context_;
};

/// Sweep telemetry wiring behind --progress / --progress-out /
/// --progress-interval-ms (and lane recording when --trace-out is
/// given). Owns the SweepTelemetry shards, the JSONL progress stream
/// and the background sampler for one sweep; disabled (telemetry() ==
/// nullptr) when none of the flags ask for it, which leaves the sweep
/// hot path byte-for-byte as before.
class TelemetrySession {
 public:
  TelemetrySession(const Args& args, std::size_t jobs,
                   std::size_t total_points, bool record_lanes)
      : progress_path_(args.text("progress-out")),
        live_(args.choice("progress", "off") == "on"),
        record_lanes_(record_lanes) {
    if (!live_ && progress_path_.empty() && !record_lanes_) {
      return;
    }
    telemetry::TelemetryConfig config;
    config.workers = par::WorkerPool::resolve(jobs);
    config.total_points = total_points;
    config.record_lanes = record_lanes_;
    telemetry_.emplace(config);
    if (!progress_path_.empty()) {
      progress_stream_.open(progress_path_);
      if (!progress_stream_) {
        throw std::runtime_error("cannot create progress file: " +
                                 progress_path_);
      }
    }
    if (live_ || !progress_path_.empty()) {
      const std::chrono::milliseconds interval(
          args.count("progress-interval-ms", 200));
      sampler_.emplace(*telemetry_, interval,
                       [this](const telemetry::SweepSnapshot& snap) {
                         emit(snap);
                       });
    }
  }

  /// nullptr when no telemetry flag was given.
  [[nodiscard]] telemetry::SweepTelemetry* telemetry() {
    return telemetry_.has_value() ? &*telemetry_ : nullptr;
  }

  /// Stop the sampler, take the final authoritative snapshot (its
  /// totals equal the sweep report — the last JSONL line is the whole
  /// run), emit it, drain recorded lanes into the trace sink, and fill
  /// `bench.telemetry`.
  void finish(report::SweepBenchReport& bench, obs::TraceSink* sink) {
    if (!telemetry_.has_value()) {
      return;
    }
    std::uint64_t sampled = 0;
    if (sampler_.has_value()) {
      sampler_->stop();
      sampled = sampler_->emitted();
    }
    const telemetry::SweepSnapshot& snap =
        bench.telemetry.emplace(telemetry_->snapshot());
    bench.telemetry_snapshots = sampled + 1;
    emit(snap);
    if (live_) {
      std::fprintf(stderr, "\n");
    }
    if (progress_stream_.is_open()) {
      progress_stream_.flush();
      std::printf("wrote progress stream to %s\n", progress_path_.c_str());
    }
    if (record_lanes_ && sink != nullptr &&
        telemetry_->lanes() != nullptr) {
      telemetry::emit_lanes(*telemetry_->lanes(), telemetry_->total_points(),
                            *sink);
    }
  }

 private:
  /// Called from the sampler thread while running and once more from
  /// finish() after stop() — never concurrently.
  void emit(const telemetry::SweepSnapshot& snap) {
    if (progress_stream_.is_open()) {
      progress_stream_ << telemetry::snapshot_to_json(snap) << '\n';
      progress_stream_.flush();
    }
    if (live_) {
      std::fprintf(stderr, "\r%s", telemetry::progress_line(snap).c_str());
      std::fflush(stderr);
    }
  }

  std::string progress_path_;
  bool live_ = false;
  bool record_lanes_ = false;
  std::ofstream progress_stream_;
  std::optional<telemetry::SweepTelemetry> telemetry_;
  std::optional<telemetry::Sampler> sampler_;
};

/// --faults wiring. Three argument forms:
///   spec with '@'        inline schedule, e.g. converter_dropout@120:30
///   storm:SEED[:COUNT]   seeded random storm over the trace duration
///   anything else        CSV schedule file (kind,start_s,duration_s,...)
/// Returns nullptr when --faults was not given.
std::unique_ptr<fault::FaultInjector> make_fault_injector(
    const Args& args, const wl::Trace& trace) {
  if (!args.has("faults")) {
    return nullptr;
  }
  const std::string value = args.text("faults");
  fault::FaultSchedule schedule;
  if (const std::optional<cli::StormSpec> storm = cli::parse_storm(value)) {
    schedule = fault::FaultSchedule::random_storm(
        storm->seed, storm->count, trace.stats().total_duration());
    std::printf("fault storm (seed %llu): %s\n",
                static_cast<unsigned long long>(storm->seed),
                schedule.to_spec().c_str());
  } else if (value.find('@') != std::string::npos) {
    schedule = fault::FaultSchedule::parse(value);
  } else {
    schedule = fault::FaultSchedule::load_file(value);
  }
  return std::make_unique<fault::FaultInjector>(schedule);
}

void print_robustness(const fault::RobustnessStats& r) {
  std::printf("  robustness: %zu fault windows | %zu dropouts | "
              "%zu brownouts (%.2f A-s lost) | %zu clamped segments\n"
              "              %zu reprojections | %zu fallbacks | "
              "%zu solver failures | degraded %.1f s | recovery %.1f s\n",
              r.activations, r.dropouts, r.brownouts,
              r.brownout_lost.value(), r.fc_clamped_segments,
              r.reprojections, r.fallbacks, r.solver_failures,
              r.degraded_time.value(), r.recovery_time.value());
}

void print_cap(const cap::CapStats& c) {
  std::printf("  power cap : %zu/%zu slots capped | %zu reductions | "
              "%zu restorations | deferred %.1f J (%.1f s) | "
              "%zu budget violations\n",
              c.slots_capped, c.slots_seen, c.level_reductions,
              c.level_restorations, c.energy_deferred.value(),
              c.time_deferred.value(), c.budget_violations);
}

void print_stacks(const stacks::StacksStats& s) {
  std::printf("  stacks    : %zu x %s | startups %zu | max wear %.3g\n",
              s.stacks.size(), stacks::to_string(s.distribution),
              s.total_startups(), s.max_wear());
  for (std::size_t k = 0; k < s.stacks.size(); ++k) {
    const stacks::StackTotals& t = s.stacks[k];
    std::printf("    stack %zu : fuel %9.2f A-s | delivered %9.2f A-s | "
                "startups %zu | wear %.3g\n",
                k, t.fuel_as, t.delivered_as, t.startups, t.wear);
  }
}

void print_audit(const audit::AuditStats& a) {
  std::printf("  audit     : %s | %llu slots + %llu segments audited | "
              "%llu checks | %llu violations | %llu engine fallbacks\n",
              audit::to_string(static_cast<audit::Mode>(a.mode)),
              static_cast<unsigned long long>(a.slots_audited),
              static_cast<unsigned long long>(a.segments_audited),
              static_cast<unsigned long long>(a.checks_run),
              static_cast<unsigned long long>(a.violations),
              static_cast<unsigned long long>(a.engine_fallbacks));
  if (!a.first_violation.empty()) {
    std::printf("    first violation: %s at slot %zu\n",
                a.first_violation.c_str(), a.first_violation_slot);
  }
}

/// The table admits only these names, which follow PolicyKind's order.
sim::PolicyKind parse_policy(const std::string& name) {
  constexpr std::string_view kNames[] = {"conv", "asap", "fcdpm", "oracle"};
  return static_cast<sim::PolicyKind>(
      std::find(std::begin(kNames), std::end(kNames), name) - kNames);
}

int cmd_gen(const Args& args) {
  if (!args.has("out")) {
    throw std::runtime_error("gen requires --out <file>");
  }
  const wl::Trace trace = load_workload(args);
  wl::save_trace_file(args.text("out"), trace);
  std::printf("wrote %zu slots (%.1f min) to %s\n", trace.size(),
              trace.stats().total_duration().value() / 60.0,
              args.text("out").c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  const wl::Trace trace = load_workload(args);
  const wl::TraceStats stats = trace.stats();
  std::printf("trace: %s\n", trace.name().c_str());
  std::printf("  slots          : %zu\n", stats.slots);
  std::printf("  duration       : %.1f s (%.1f min)\n",
              stats.total_duration().value(),
              stats.total_duration().value() / 60.0);
  std::printf("  idle           : %.2f - %.2f s (mean %.2f)\n",
              stats.min_idle.value(), stats.max_idle.value(),
              stats.mean_idle.value());
  std::printf("  active         : %.2f - %.2f s (mean %.2f)\n",
              stats.min_active.value(), stats.max_active.value(),
              stats.mean_active.value());
  std::printf("  active power   : %.2f - %.2f W (mean %.2f)\n",
              stats.min_active_power.value(),
              stats.max_active_power.value(),
              stats.mean_active_power.value());
  std::printf("  duty cycle     : %.1f%%\n",
              100.0 * wl::duty_cycle(trace));
  if (trace.size() > 3) {
    std::printf("  idle lag-1 ac  : %.2f\n",
                wl::autocorrelation(wl::idle_durations(trace), 1));
  }
  std::printf("  avg load (slept idles) : %.3f A on 12 V\n",
              wl::average_load_current(trace, Volt(12.0), Ampere(0.2))
                  .value());
  return 0;
}

void print_result(const sim::SimulationResult& result) {
  std::printf("%-14s fuel %9.2f A-s | avg Ifc %6.3f A | sleeps %zu/%zu | "
              "bled %6.2f | unserved %6.2f\n",
              result.fc_policy.c_str(), result.fuel().value(),
              result.average_fuel_current().value(), result.sleeps,
              result.slots, result.totals.bled.value(),
              result.totals.unserved.value());
}

int cmd_run(const Args& args) {
  sim::ExperimentConfig config = build_config(args);
  const sim::PolicyKind kind = parse_policy(args.choice("policy", "fcdpm"));
  ObsSession obs(args);
  config.simulation.observer = obs.context();
  const std::unique_ptr<fault::FaultInjector> faults =
      make_fault_injector(args, config.trace);
  config.simulation.faults = faults.get();
  const sim::SimulationResult result = par::run_one(config, kind);
  print_result(result);
  if (result.robustness.has_value()) {
    print_robustness(*result.robustness);
  }
  if (result.cap.has_value()) {
    print_cap(*result.cap);
  }
  if (result.stacks.has_value()) {
    print_stacks(*result.stacks);
  }
  if (result.audit.has_value()) {
    print_audit(*result.audit);
  }
  obs.finish();
  return 0;
}

int cmd_compare(const Args& args) {
  sim::ExperimentConfig config = build_config(args);
  ObsSession obs(args);
  const std::unique_ptr<fault::FaultInjector> faults =
      make_fault_injector(args, config.trace);
  config.simulation.faults = faults.get();

  // One run per policy, each on its own trace track.
  config.simulation.observer = obs.context();
  sim::PolicyComparison c;
  sim::SimulationResult* const results[] = {&c.conv, &c.asap, &c.fcdpm};
  const sim::PolicyKind kinds[] = {sim::PolicyKind::Conv,
                                   sim::PolicyKind::Asap,
                                   sim::PolicyKind::FcDpm};
  for (int k = 0; k < 3; ++k) {
    obs.start_run(k);
    *results[k] = par::run_one(config, kinds[k]);
  }

  report::Table table("normalized fuel consumption",
                      {"DPM policy", "Conv-DPM", "ASAP-DPM", "FC-DPM"});
  table.add_row(
      {"compared to Conv-DPM", "100%",
       report::percent_cell(sim::normalized_fuel(c.asap, c.conv)),
       report::percent_cell(sim::normalized_fuel(c.fcdpm, c.conv))});
  std::printf("%s\n", table.to_ascii().c_str());
  print_result(c.conv);
  print_result(c.asap);
  print_result(c.fcdpm);
  if (c.fcdpm.robustness.has_value()) {
    std::printf("FC-DPM under faults:\n");
    print_robustness(*c.fcdpm.robustness);
  }
  if (c.fcdpm.cap.has_value()) {
    std::printf("FC-DPM under power cap:\n");
    print_cap(*c.fcdpm.cap);
  }
  if (c.fcdpm.stacks.has_value()) {
    std::printf("FC-DPM multi-stack split:\n");
    print_stacks(*c.fcdpm.stacks);
  }
  if (c.fcdpm.audit.has_value()) {
    std::printf("FC-DPM audit:\n");
    print_audit(*c.fcdpm.audit);
  }
  std::printf("\nFC-DPM vs ASAP-DPM: %.1f%% fuel saving, %.2fx lifetime\n",
              100.0 * sim::fuel_saving(c.fcdpm, c.asap),
              sim::lifetime_extension(c.fcdpm, c.asap));
  obs.finish();
  return 0;
}

int cmd_lifetime(const Args& args) {
  sim::ExperimentConfig config = build_config(args);
  const sim::PolicyKind kind = parse_policy(args.choice("policy", "fcdpm"));
  const Coulomb tank(args.real("tank", 10000.0));

  ObsSession obs(args);
  config.simulation.observer = obs.context();
  const std::unique_ptr<fault::FaultInjector> faults =
      make_fault_injector(args, config.trace);
  config.simulation.faults = faults.get();

  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc_policy =
      sim::make_fc_policy(kind, config);
  power::HybridPowerSource hybrid = sim::make_hybrid(config);

  sim::LifetimeOptions lifetime_options;
  lifetime_options.tank = tank;
  lifetime_options.simulation = config.simulation;
  sim::LifetimeResult r;
  if (config.simulation.engine == sim::Engine::Reference) {
    r = sim::measure_lifetime(config.trace, dpm_policy, *fc_policy, hybrid,
                              lifetime_options);
  } else {
    // A lifetime is a single run: --engine batched takes the hot lane.
    const hot::CompiledTrace compiled(config.trace, config.device);
    r = hot::measure_lifetime(compiled, dpm_policy, *fc_policy, hybrid,
                              lifetime_options);
  }

  std::printf("%s on a %.0f A-s tank: ", sim::to_string(kind),
              tank.value());
  if (r.tank_emptied) {
    std::printf("%.1f min (%zu workload passes, avg Ifc %.3f A)\n",
                r.lifetime.value() / 60.0, r.passes,
                r.average_fuel_current.value());
  } else {
    std::printf("did not empty within %zu passes (%.1f min simulated)\n",
                r.passes, r.lifetime.value() / 60.0);
  }
  if (faults != nullptr) {
    // The injector accumulates across workload passes (the lifetime
    // loop preserves source state), so this is whole-life accounting.
    print_robustness(faults->stats());
  }
  obs.finish();
  return 0;
}

par::SweepGrid parse_sweep_grid(const Args& args) {
  par::SweepGrid grid;
  for (const std::string& name : args.choices("policies")) {
    grid.policies.push_back(parse_policy(name));
  }
  grid.rhos = args.reals("rhos");
  for (const double value : args.reals("capacities")) {
    grid.capacities.push_back(Coulomb(value));
  }
  grid.storm_seeds = args.seeds("storm-seeds");
  grid.storm_faults = args.count("storm-faults", grid.storm_faults);
  const std::vector<std::uint64_t> stack_counts = args.counts("stacks");
  grid.stack_counts.assign(stack_counts.begin(), stack_counts.end());
  for (const std::string& name : args.choices("distributions")) {
    grid.distributions.push_back(stacks::parse_distribution(name));
  }
  if (!grid.distributions.empty() && grid.stack_counts.empty() &&
      args.text("stacks-config").empty()) {
    throw std::runtime_error(
        "--distributions needs a multi-stack source (--stacks N or "
        "--stacks-config FILE)");
  }
  return grid;
}

/// The sweep's solve memo for one `--cache-quantum` (all three quanta).
/// nullptr at quantum 0: an exact-key memo cannot change an answer, and
/// its locked lookup (330–890 ns, ~190 B per entry) costs more than the
/// 90–120 ns closed-form solve it would save. Only snapped keys, which
/// do change answers, are routed through a memo.
std::unique_ptr<par::SharedSolveCache> make_solve_memo(double quantum) {
  if (quantum == 0.0) {
    return nullptr;
  }
  par::SolveCacheConfig config;
  config.time_quantum = Seconds(quantum);
  config.current_quantum = Ampere(quantum);
  config.charge_quantum = Coulomb(quantum);
  return std::make_unique<par::SharedSolveCache>(config);
}

/// The runner's options from the resilience flags. Without one there
/// is no journal and no retry, and a failed point fails the sweep.
resilience::ResilienceOptions resilience_options(const Args& args,
                                                 bool resilient) {
  resilience::ResilienceOptions ropt;
  ropt.contract.max_retries = args.count("max-retries", resilient ? 2 : 0);
  ropt.contract.point_deadline_slots = args.count("point-deadline", 0);
  ropt.contract.unserved_budget_as =
      args.real("unserved-budget", ropt.contract.unserved_budget_as);
  ropt.contract.inject_fail_index =
      args.count("inject-fail", ropt.contract.inject_fail_index);
  ropt.journal_path = args.text("journal");
  const std::string resume = args.text("resume");
  if (!resume.empty()) {
    if (!ropt.journal_path.empty() && ropt.journal_path != resume) {
      throw std::runtime_error(
          "--journal and --resume name different files");
    }
    ropt.journal_path = resume;
    ropt.resume = true;
  }
  ropt.spot_checks = args.count("spot-checks", 1);
  ropt.watchdog_stall =
      std::chrono::milliseconds(args.count("watchdog-stall-ms", 0));
  return ropt;
}

int cmd_sweep(const Args& args) {
  const sim::ExperimentConfig config = build_config(args);
  const par::SweepGrid grid = parse_sweep_grid(args);

  // 0 = one worker per core.
  const std::size_t jobs = args.count("jobs", 1);
  // One knob covers all three quanta; 0 (default) attaches no memo (see
  // make_solve_memo).
  const double quantum = args.real("cache-quantum", 0.0);

  ObsSession obs(args);

  // Any resilience flag turns on retries, quarantine and the resilient
  // report; without one a failed point ends the sweep.
  const bool resilient = args.any(cli::Group::Resilience);
  resilience::ResilienceOptions ropt = resilience_options(args, resilient);
  const std::size_t point_count = grid.points(config).size();
  if (args.has("inject-fail") &&
      ropt.contract.inject_fail_index >= point_count) {
    throw std::runtime_error(
        "--inject-fail " + std::to_string(ropt.contract.inject_fail_index) +
        " is outside the " + std::to_string(point_count) + "-point grid");
  }
  const auto run = [&](const resilience::ResilienceOptions& options) {
    resilience::ResilientSweepResult sweep =
        resilience::run_resilient_sweep(config, grid, options);
    if (!resilient) {
      resilience::require_all_ok(sweep);
    }
    return sweep;
  };

  // Plain sweeps run a single-job reference first (own memo, same
  // quantum): it provides the speedup baseline and the bit-identity
  // check.
  std::optional<resilience::ResilientSweepResult> serial;
  if (!resilient && jobs != 1 && args.choice("serial-check", "on") == "on") {
    const std::unique_ptr<par::SharedSolveCache> serial_memo =
        make_solve_memo(quantum);
    resilience::ResilienceOptions serial_options = ropt;
    serial_options.jobs = 1;
    serial_options.cache = serial_memo.get();
    serial = run(serial_options);
  }

  // The serial reference above runs without telemetry: shards observe
  // only the measured run, so snapshot totals equal its report.
  TelemetrySession tel(args, jobs, point_count,
                       !args.text("trace-out").empty());

  const std::unique_ptr<par::SharedSolveCache> memo = make_solve_memo(quantum);
  ropt.jobs = jobs;
  ropt.cache = memo.get();
  ropt.observer = obs.context();
  ropt.telemetry = tel.telemetry();
  report::SweepBenchReport bench;
  bool diverged = false;
  {
    // Scoped: the per-point results go once the report rows exist.
    const resilience::ResilientSweepResult sweep = run(ropt);
    bench = resilience::print_sweep_report(stdout, config, sweep,
                                           resilient ? &ropt : nullptr,
                                           memo != nullptr, obs.context());
    if (serial.has_value()) {
      bench.serial_wall_seconds = serial->stats.wall_seconds;
      bench.speedup = bench.wall_seconds > 0.0
                          ? bench.serial_wall_seconds / bench.wall_seconds
                          : 0.0;
      diverged = !std::equal(
          serial->points.begin(), serial->points.end(), sweep.points.begin(),
          sweep.points.end(),
          [](const resilience::ResilientPoint& a,
             const resilience::ResilientPoint& b) {
            return sim::same_result(a.result.result, b.result.result);
          });
      bench.bit_identical_to_serial = diverged ? 0 : 1;
      std::printf("vs --jobs 1: %.3f s serial, speedup %.2fx, results %s\n",
                  bench.serial_wall_seconds, bench.speedup,
                  diverged ? "DIVERGED" : "bit-identical");
    }
  }

  tel.finish(bench, obs.sink());

  const std::string out = args.text("out");
  if (!out.empty()) {
    // The JSON is encoded, then written atomically: two timed stages.
    std::string json;
    {
      obs::StageTimer timer(obs.context(), "report.encode_s");
      json = report::sweep_bench_to_json(bench);
    }
    {
      obs::StageTimer timer(obs.context(), "report.write_s");
      write_file_atomic(out, json);
    }
    std::printf("wrote sweep bench to %s\n", out.c_str());
  }
  obs.finish();
  if (diverged) {
    std::fprintf(stderr,
                 "error: parallel sweep diverged from the serial "
                 "reference (determinism bug)\n");
    return 2;
  }
  return 0;
}

/// Divergence bisection: binary-search the first slot where the hot
/// engine disagrees with the reference and dump a minimized repro.
/// Exit 0 either way — finding (or excluding) a divergence is the
/// tool's successful outcome; tests and CI parse the report.
int cmd_bisect(const Args& args) {
  sim::ExperimentConfig config = build_config(args);
  const sim::PolicyKind kind = parse_policy(args.choice("policy", "fcdpm"));
  audit::BisectOptions bisect_options;
  bisect_options.perturb_slot = args.count("perturb-slot", audit::npos);
  const audit::BisectReport report =
      audit::bisect_point(config, kind, bisect_options);
  if (!report.diverged) {
    std::printf("engines agree: %s on %s is bit-identical over all "
                "%zu slots (%zu probe runs)\n",
                sim::to_string(kind), config.trace.name().c_str(),
                config.trace.size(), report.runs);
    return 0;
  }
  std::printf("first divergent slot: %zu of %zu (%zu probe runs)\n",
              report.first_divergent_slot, config.trace.size(),
              report.runs);
  std::printf("  entry state : fuel %.17g A-s | storage %.17g A-s\n",
              report.entry_fuel_as, report.entry_storage_as);
  std::printf("  reference   : fuel %.17g A-s | storage end %.17g A-s\n",
              report.reference.totals.fuel.value(),
              report.reference.storage_end.value());
  std::printf("  hot         : fuel %.17g A-s | storage end %.17g A-s\n",
              report.hot.totals.fuel.value(),
              report.hot.storage_end.value());
  const std::string out = args.text("repro-out");
  if (!out.empty()) {
    audit::write_repro(out, config, kind, report);
    std::printf("wrote repro to %s.json and %s_window.csv\n", out.c_str(),
                out.c_str());
  }
  return 0;
}

int cmd_aggregate(const Args& args) {
  if (!args.has("out")) {
    throw std::runtime_error("aggregate requires --out <file>");
  }
  const wl::Trace trace = load_workload(args);
  const Seconds budget(args.real("defer", 30.0));
  wl::AggregationReport report;
  const wl::Trace merged = wl::aggregate_trace(trace, budget, &report);
  wl::save_trace_file(args.text("out"), merged);
  std::printf(
      "aggregated %zu slots into %zu (deferral budget %.1f s, worst "
      "deferral %.1f s) -> %s\n",
      report.original_slots, report.merged_slots, budget.value(),
      report.worst_deferral.value(), args.text("out").c_str());
  return 0;
}

int cmd_merge(int argc, char** argv) {
  // merge out.csv in1.csv in2.csv [...]
  if (argc < 5) {
    throw std::runtime_error(
        "merge requires: merge <out.csv> <in1.csv> <in2.csv> [...]");
  }
  std::vector<wl::Trace> traces;
  for (int k = 3; k < argc; ++k) {
    traces.push_back(wl::load_trace_file(argv[k]));
  }
  const wl::Trace merged = wl::merge_traces(traces, "merged");
  wl::save_trace_file(argv[2], merged);
  std::printf("merged %zu traces into %zu aggregate slots -> %s\n",
              traces.size(), merged.size(), argv[2]);
  return 0;
}

int usage() {
  std::fputs(cli::usage().c_str(), stderr);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    if (command == "merge") {
      return cmd_merge(argc, argv);  // positional arguments
    }
    const std::optional<cli::Command> parsed = cli::parse_command(command);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "unknown command: %s\n", command.c_str());
      return usage();
    }
    // Indexed by the Command's bit.
    constexpr int (*kHandlers[])(const Args&) = {
        cmd_gen,      cmd_analyze, cmd_run,    cmd_compare,
        cmd_lifetime, cmd_sweep,   cmd_bisect, cmd_aggregate};
    return kHandlers[std::countr_zero(unsigned{*parsed})](
        Args::parse(*parsed, argc - 2, argv + 2));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
