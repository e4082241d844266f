// Regression-gated perf bench for the hot-path engine: BENCH_core.json.
//
// Measures the headline single-thread runs (camcorder trace, FC-DPM
// policy) on the reference and hot engines — min-of-N wall clock with
// warmup — plus a per-phase breakdown from the hot engine's profiler
// scopes and a capture of the build environment, and writes the lot
// atomically as JSON.
//
// Two gates, both exit 1:
//   * bit-identity: the hot engine must reproduce the reference run
//     and the reference lifetime measurement to the last bit;
//   * --min-speedup X (default 0 = report only): the measured hot
//     lifetime speedup must reach X. CI runs with --min-speedup 1.2;
//     the checked-in baseline shows >= 1.5x.
//
//   perf_harness [--out BENCH_core.json] [--repeats N] [--min-speedup X]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "hot/compiled_trace.hpp"
#include "hot/engine.hpp"
#include "hot/lifetime.hpp"
#include "obs/context.hpp"
#include "obs/profiler.hpp"
#include "sim/experiments.hpp"
#include "sim/lifetime.hpp"
#include "sim/result_fields.hpp"
#include "sim/slot_simulator.hpp"

namespace {

using namespace fcdpm;
using Clock = std::chrono::steady_clock;

constexpr double kTankAs = 36000.0;

struct Policies {
  dpm::PredictiveDpmPolicy dpm;
  std::unique_ptr<core::FcOutputPolicy> fc;
  power::HybridPowerSource hybrid;

  explicit Policies(const sim::ExperimentConfig& config)
      : dpm(sim::make_dpm_policy(config)),
        fc(sim::make_fc_policy(sim::PolicyKind::FcDpm, config)),
        hybrid(sim::make_hybrid(config)) {}
};

sim::LifetimeOptions lifetime_options(const sim::ExperimentConfig& config) {
  sim::LifetimeOptions options;
  options.tank = Coulomb(kTankAs);
  options.simulation = config.simulation;
  return options;
}

/// Best-of-`repeats` wall-clock seconds for one call of `body`, after
/// `warmup` unmeasured calls.
template <typename Body>
double best_of(int repeats, int warmup, Body&& body) {
  for (int k = 0; k < warmup; ++k) {
    body();
  }
  double best = 1e300;
  for (int k = 0; k < repeats; ++k) {
    const auto start = Clock::now();
    body();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed < best) {
      best = elapsed;
    }
  }
  return best;
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  int repeats = 9;
  double min_speedup = 0.0;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    const auto value = [&]() -> std::string {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "dangling option: %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++k];
    };
    if (arg == "--out") {
      out_path = value();
    } else if (arg == "--repeats") {
      repeats = std::atoi(value().c_str());
    } else if (arg == "--min-speedup") {
      min_speedup = std::atof(value().c_str());
    } else {
      std::fprintf(stderr,
                   "usage: perf_harness [--out FILE] [--repeats N] "
                   "[--min-speedup X]\n");
      return 1;
    }
  }
  if (repeats < 1) {
    repeats = 1;
  }

  const sim::ExperimentConfig config = sim::experiment1_config();
  const hot::CompiledTrace compiled(config.trace, config.device);

  // ---- Gate 1: bit-identity, single run and lifetime. -----------------
  Policies ref(config);
  const sim::SimulationResult ref_run = sim::simulate(
      config.trace, ref.dpm, *ref.fc, ref.hybrid, config.simulation);
  Policies hot_p(config);
  const sim::SimulationResult hot_run = hot::simulate(
      compiled, hot_p.dpm, *hot_p.fc, hot_p.hybrid, config.simulation);
  if (!sim::same_result(ref_run, hot_run)) {
    fail("hot::simulate diverged from sim::simulate (single run)");
  }

  Policies ref_l(config);
  const sim::LifetimeResult ref_life =
      sim::measure_lifetime(config.trace, ref_l.dpm, *ref_l.fc,
                            ref_l.hybrid, lifetime_options(config));
  Policies hot_l(config);
  const sim::LifetimeResult hot_life =
      hot::measure_lifetime(compiled, hot_l.dpm, *hot_l.fc, hot_l.hybrid,
                            lifetime_options(config));
  const bool life_identical =
      ref_life.lifetime == hot_life.lifetime &&
      ref_life.passes == hot_life.passes &&
      ref_life.slots_completed == hot_life.slots_completed &&
      ref_life.tank_emptied == hot_life.tank_emptied &&
      ref_life.average_fuel_current == hot_life.average_fuel_current;
  if (!life_identical) {
    fail("hot::measure_lifetime diverged from sim::measure_lifetime");
  }
  std::printf("bit-identity: OK (fuel %.17g A-s, lifetime %.17g s, "
              "%zu passes)\n",
              ref_run.totals.fuel.value(), ref_life.lifetime.value(),
              ref_life.passes);

  // ---- Timing: min-of-N with warmup. ----------------------------------
  // Single run is tens of microseconds, so each sample times an inner
  // batch; the lifetime run (~44 workload passes) is long enough to
  // sample directly.
  constexpr int kBatch = 200;
  volatile double sink = 0.0;
  const double ref_single =
      best_of(repeats, 2, [&] {
        for (int k = 0; k < kBatch; ++k) {
          Policies p(config);
          const sim::SimulationResult r = sim::simulate(
              config.trace, p.dpm, *p.fc, p.hybrid, config.simulation);
          sink = sink + r.totals.fuel.value();
        }
      }) /
      kBatch;
  const double hot_single =
      best_of(repeats, 2, [&] {
        for (int k = 0; k < kBatch; ++k) {
          Policies p(config);
          const sim::SimulationResult r = hot::simulate(
              compiled, p.dpm, *p.fc, p.hybrid, config.simulation);
          sink = sink + r.totals.fuel.value();
        }
      }) /
      kBatch;
  const double ref_lifetime_s = best_of(repeats, 2, [&] {
    Policies p(config);
    const sim::LifetimeResult r = sim::measure_lifetime(
        config.trace, p.dpm, *p.fc, p.hybrid, lifetime_options(config));
    sink = sink + r.lifetime.value();
  });
  const double hot_lifetime_s = best_of(repeats, 2, [&] {
    Policies p(config);
    const sim::LifetimeResult r = hot::measure_lifetime(
        compiled, p.dpm, *p.fc, p.hybrid, lifetime_options(config));
    sink = sink + r.lifetime.value();
  });
  const double single_speedup =
      hot_single > 0.0 ? ref_single / hot_single : 0.0;
  const double lifetime_speedup =
      hot_lifetime_s > 0.0 ? ref_lifetime_s / hot_lifetime_s : 0.0;
  std::printf("single run: ref %.1f us, hot %.1f us (%.2fx)\n",
              ref_single * 1e6, hot_single * 1e6, single_speedup);
  std::printf("lifetime  : ref %.2f ms, hot %.2f ms (%.2fx)\n",
              ref_lifetime_s * 1e3, hot_lifetime_s * 1e3,
              lifetime_speedup);

  // ---- Per-phase breakdown from the hot engine's profiler scopes. -----
  // A profiler-only observer keeps the run inside the hot lane (and
  // bit-identical); the scopes split the wall clock between planning
  // and segment integration.
  obs::Profiler profiler;
  obs::Context profiled;
  profiled.set_profiler(&profiler);
  {
    Policies p(config);
    sim::SimulationOptions options = config.simulation;
    options.observer = &profiled;
    const sim::SimulationResult r =
        hot::simulate(compiled, p.dpm, *p.fc, p.hybrid, options);
    if (!sim::same_result(r, hot_run)) {
      fail("profiled hot run diverged from the unprofiled hot run");
    }
  }

  // ---- BENCH_core.json. -----------------------------------------------
  const bool speedup_ok = lifetime_speedup >= min_speedup;
  std::ostringstream json;
  json << "{\n"
       << "  \"schema\": \"fcdpm.bench.core.v1\",\n"
       << "  \"generated_by\": \"bench/perf_harness\",\n"
       << "  \"env\": {\n"
       << "    \"compiler\": \"" << __VERSION__ << "\",\n"
       << "    \"cpp_standard\": " << __cplusplus << ",\n"
#ifdef NDEBUG
       << "    \"assertions\": \"off\",\n"
#else
       << "    \"assertions\": \"on\",\n"
#endif
       << "    \"pointer_bits\": " << 8 * sizeof(void*) << "\n"
       << "  },\n"
       << "  \"workload\": {\n"
       << "    \"trace\": \"" << config.trace.name() << "\",\n"
       << "    \"slots\": " << config.trace.size() << ",\n"
       << "    \"policy\": \"fcdpm\",\n"
       << "    \"tank_As\": " << json_number(kTankAs) << "\n"
       << "  },\n"
       << "  \"identity\": {\n"
       << "    \"single_run_bit_identical\": true,\n"
       << "    \"lifetime_bit_identical\": true,\n"
       << "    \"fuel_As\": " << json_number(ref_run.totals.fuel.value())
       << ",\n"
       << "    \"lifetime_s\": " << json_number(ref_life.lifetime.value())
       << ",\n"
       << "    \"passes\": " << ref_life.passes << "\n"
       << "  },\n"
       << "  \"timing\": {\n"
       << "    \"repeats\": " << repeats << ",\n"
       << "    \"batch\": " << kBatch << ",\n"
       << "    \"single_run\": {\n"
       << "      \"reference_us\": " << json_number(ref_single * 1e6)
       << ",\n"
       << "      \"hot_us\": " << json_number(hot_single * 1e6) << ",\n"
       << "      \"speedup\": " << json_number(single_speedup) << "\n"
       << "    },\n"
       << "    \"lifetime\": {\n"
       << "      \"reference_ms\": " << json_number(ref_lifetime_s * 1e3)
       << ",\n"
       << "      \"hot_ms\": " << json_number(hot_lifetime_s * 1e3)
       << ",\n"
       << "      \"speedup\": " << json_number(lifetime_speedup) << "\n"
       << "    }\n"
       << "  },\n"
       << "  \"phases\": [";
  bool first = true;
  for (const auto& [name, stats] : profiler.scopes()) {
    if (!first) {
      json << ",";
    }
    first = false;
    const double total_us =
        static_cast<double>(stats.total.count()) / 1e3;
    json << "\n    {\"scope\": \"" << name << "\", \"calls\": "
         << stats.calls << ", \"total_us\": " << json_number(total_us)
         << ", \"mean_us\": "
         << json_number(stats.calls > 0
                            ? total_us / static_cast<double>(stats.calls)
                            : 0.0)
         << "}";
  }
  json << "\n  ],\n"
       << "  \"gates\": {\n"
       << "    \"min_speedup\": " << json_number(min_speedup) << ",\n"
       << "    \"passed\": " << (speedup_ok ? "true" : "false") << "\n"
       << "  }\n"
       << "}\n";
  write_file_atomic(out_path, json.str());
  std::printf("wrote %s\n", out_path.c_str());

  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: lifetime speedup %.2fx below the --min-speedup "
                 "%.2fx gate\n",
                 lifetime_speedup, min_speedup);
    return 1;
  }
  return 0;
}
