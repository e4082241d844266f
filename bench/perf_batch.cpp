// Regression-gated perf bench for the batched sweep engine:
// BENCH_batch.json.
//
// Measures par::run_sweep over a merge-heavy capacity grid (camcorder
// trace, FC-DPM, no twins, shared sub-capacity initial charge — the
// sweep shape the batched engine amortizes) on the reference and batched
// engines, at --jobs 1 and --jobs N — min-of-N wall clock with warmup —
// plus the merge accounting of one batched run (the `batch` block) and
// the --jobs 1 wall and twin count of the hot engine's sweep of the same
// grid, which serves capacity twins where the batched sweep forms merge
// sets, and writes the lot atomically as JSON. The `single_run` block times the two compiled
// loops on one run each, the shape of every single run: the hot lane
// (hot::simulate_lane), which single runs take, against a one-lane
// batch::run_batch, summed over the grid's points and reported per run.
// The `capacity_twins` block times the hot engine's capacity twins
// (par::run_hot_chunk) on the FC-DPM slice of the ROADMAP Baseline grid
// (19 rho x 80 capacities): one sweep, which serves every capacity its
// group's clean leader certifies, against one sweep per capacity, which
// can serve none. Its `baseline_grid` block says what each twin kind
// buys on the whole hot Baseline grid (4 policies x 19 rho x 80
// capacities): one sweep, one sweep per rho (no rho twins) and one
// sweep per capacity (no capacity twins). A split row pays a trace
// compile and a twin pass per sweep.
//
// Two gates, both exit 1:
//   * bit-identity: every batched point must reproduce the reference
//     sweep to the last bit, at both job counts, with no point served
//     as a twin, the hot sweep of that grid must reproduce the batched
//     one, and every one-lane batch and hot-lane run must
//     reproduce its reference point; the one hot sweep must serve
//     capacity twins and reproduce the per-capacity sweeps, and the
//     Baseline grid's one, per-rho and per-capacity sweeps must agree;
//   * --min-speedup X (default 0 = report only): the measured jobs-1
//     batched-vs-reference speedup must reach X. CI runs with
//     --min-speedup 4; the checked-in baseline shows >= 4x.
//
//   perf_batch [--out BENCH_batch.json] [--repeats N] [--min-speedup X]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/engine.hpp"
#include "common/atomic_file.hpp"
#include "hot/engine.hpp"
#include "par/sweep.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"
#include "sim/result_fields.hpp"
#include "telemetry/sweep_stats.hpp"

namespace {

using namespace fcdpm;
using Clock = std::chrono::steady_clock;

/// Merge-heavy grid: FC-DPM only. Asap's stateful lanes never merge,
/// and Conv pins storage at the ceiling from the first slot, so both
/// would dilute the measurement into a hot-vs-reference comparison; and
/// FC-DPM reads the idle prediction, so no point is a twin
/// (par::SweepTwins) that the batched sweep serves without simulating
/// while the reference sweep simulates it. The capacity axis spans the
/// above-saturation regime a capacity ablation actually explores
/// (where the planner's buffered level fits and lanes stay bitwise
/// shared), with a sub-saturation tail so the split/hand-off machinery
/// is exercised too.
par::SweepGrid bench_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};
  for (const double capacity :
       {3.0,  4.0,  5.0,  6.0,  7.0,  8.0,  9.0,  10.0, 11.0, 12.0, 13.0,
        14.0, 15.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0, 28.0, 32.0, 36.0,
        40.0, 44.0, 48.0, 52.0, 56.0, 64.0, 72.0, 80.0, 96.0, 128.0}) {
    grid.capacities.push_back(Coulomb(capacity));
  }
  return grid;
}

/// The ROADMAP Baseline grid over `policies`: rho 0.05..0.95 by 0.05
/// and capacities 5..400 A-s by 5. Its FC-DPM slice (1520 points) has no
/// rho twins.
par::SweepGrid baseline_grid(std::vector<sim::PolicyKind> policies) {
  par::SweepGrid grid;
  grid.policies = std::move(policies);
  for (int k = 1; k <= 19; ++k) {
    grid.rhos.push_back(0.05 * k);
  }
  for (int k = 1; k <= 80; ++k) {
    grid.capacities.push_back(Coulomb(5.0 * k));
  }
  return grid;
}

/// `grid` run at --jobs 1 as one sweep per rho (`by_rho`) or per
/// capacity, its rows put back in grid order (policy, rho, capacity),
/// with the twins the sweeps served.
std::pair<std::vector<par::SweepPointResult>, std::size_t> split_sweeps(
    const sim::ExperimentConfig& base, const par::SweepGrid& grid,
    bool by_rho) {
  const std::size_t rhos = grid.rhos.size();
  const std::size_t capacities = grid.capacities.size();
  std::vector<par::SweepPointResult> rows(grid.policies.size() * rhos *
                                          capacities);
  std::size_t served = 0;
  for (std::size_t v = 0; v < (by_rho ? rhos : capacities); ++v) {
    par::SweepGrid slice = grid;
    if (by_rho) {
      slice.rhos = {grid.rhos[v]};
    } else {
      slice.capacities = {grid.capacities[v]};
    }
    par::SweepResult r = par::run_sweep(base, slice);
    served += r.stats.twins;
    const std::size_t other = by_rho ? capacities : rhos;
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      const std::size_t rho = by_rho ? v : i % other;
      const std::size_t capacity = by_rho ? i % other : v;
      rows[((i / other) * rhos + rho) * capacities + capacity] =
          std::move(r.points[i]);
    }
  }
  return {std::move(rows), served};
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

bool identical_rows(const std::vector<par::SweepPointResult>& ref,
                    const std::vector<par::SweepPointResult>& got) {
  return std::equal(ref.begin(), ref.end(), got.begin(), got.end(),
                    [](const auto& a, const auto& b) {
                      return sim::same_result(a.result, b.result);
                    });
}

bool identical_sweeps(const par::SweepResult& ref,
                      const par::SweepResult& got) {
  return identical_rows(ref.points, got.points);
}

/// One run of `point` alone, wired as par::run_point wires it, on the
/// hot lane (`one_lane_batch` false) or as a one-lane batch. Adds the
/// engine call's wall time, and nothing of the setup, to `seconds`.
sim::SimulationResult single_run(const sim::ExperimentConfig& base,
                                 const par::SweepPoint& point,
                                 const hot::CompiledTrace& compiled,
                                 bool one_lane_batch, double& seconds) {
  sim::ExperimentConfig config = base;
  config.rho = point.rho;
  config.storage_capacity = point.capacity;
  config.initial_storage = min(config.initial_storage, point.capacity);
  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
  const std::unique_ptr<core::FcOutputPolicy> fc =
      sim::make_fc_policy(point.policy, config);
  power::HybridPowerSource hybrid = sim::make_hybrid(config);
  sim::SimulationOptions options = config.simulation;
  options.initial_storage = config.initial_storage;
  std::vector<batch::BatchLaneSpec> lanes(1);
  lanes[0].fc = fc.get();
  lanes[0].hybrid = &hybrid;

  sim::SimulationResult result;
  const auto start = Clock::now();
  if (one_lane_batch) {
    result = std::move(
        batch::run_batch(compiled, dpm_policy, lanes, options)[0].result);
  } else {
    result = hot::simulate_lane(compiled, dpm_policy, *fc, hybrid, options);
  }
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
  return result;
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
  std::string out_path = "BENCH_batch.json";
  int repeats = 7;
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
                   "usage: perf_batch [--out FILE] [--repeats N] "
                   "[--min-speedup X]\n");
      return 1;
    }
  }
  if (repeats < 1) {
    repeats = 1;
  }

  sim::ExperimentConfig reference = sim::experiment1_config();
  // Sub-capacity shared initial charge: capacity-only lanes start
  // physically identical, which is what makes them mergeable.
  reference.initial_storage = Coulomb(1.0);
  sim::ExperimentConfig batched = reference;
  batched.simulation.engine = sim::Engine::Batched;
  const par::SweepGrid grid = bench_grid();

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t jobs_n = hw > 1 ? hw : 2;
  par::SweepOptions one;
  one.jobs = 1;
  par::SweepOptions many;
  many.jobs = jobs_n;

  // ---- Gate 1: bit-identity at both job counts. -----------------------
  const par::SweepResult ref_run = par::run_sweep(reference, grid, one);
  const par::SweepResult batch_run = par::run_sweep(batched, grid, one);
  if (!identical_sweeps(ref_run, batch_run)) {
    fail("batched sweep diverged from the reference sweep (--jobs 1)");
  }
  const par::SweepResult batch_run_n = par::run_sweep(batched, grid, many);
  if (!identical_sweeps(ref_run, batch_run_n)) {
    fail("batched sweep diverged from the reference sweep (--jobs N)");
  }
  const std::size_t points = ref_run.points.size();
  if (batch_run.stats.twins != 0 || batch_run_n.stats.twins != 0) {
    fail("a grid point was served as a twin, not simulated");
  }
  if (batch_run.stats.points_batched != points) {
    fail("a grid point fell off the batched path");
  }
  if (batch_run.stats.batch_merged_lane_slots == 0) {
    fail("no follower slot was served by a leader (merging is dead)");
  }
  std::string merge_line = std::to_string(points) + " points";
  telemetry::for_each_batch_stat(telemetry::LabelLine{merge_line, " | ", {}},
                                 batch_run.stats);
  std::printf("bit-identity: OK (%s)\n", merge_line.c_str());

  // The hot engine's sweep of the same grid: it runs the capacity groups
  // as capacity twins instead of merge sets.
  sim::ExperimentConfig hot_sweep = reference;
  hot_sweep.simulation.engine = sim::Engine::Hot;
  const par::SweepResult hot_run = par::run_sweep(hot_sweep, grid, one);
  if (!identical_sweeps(batch_run, hot_run)) {
    fail("the hot sweep diverged from the batched sweep (--jobs 1)");
  }

  // ---- Single runs: the hot lane against a one-lane batch. ------------
  const hot::CompiledTrace compiled(batched.trace, batched.device);
  const std::vector<par::SweepPoint> grid_points = grid.points(batched);
  double discard = 0.0;
  for (std::size_t k = 0; k < points; ++k) {
    for (const bool one_lane_batch : {false, true}) {
      if (!sim::same_result(single_run(batched, grid_points[k], compiled,
                                       one_lane_batch, discard),
                            ref_run.points[k].result)) {
        fail(one_lane_batch
                 ? "a one-lane batch diverged from the reference point"
                 : "a hot-lane run diverged from the reference point");
      }
    }
  }
  // Rounds alternate the two loops so machine drift hits both alike;
  // each keeps its best of 4 x --repeats rounds (a round is short).
  double hot_best = 1e300;
  double lane_best = 1e300;
  for (int round = 0; round <= 4 * repeats; ++round) {  // round 0 warms up
    for (const bool one_lane_batch : {false, true}) {
      double seconds = 0.0;
      for (const par::SweepPoint& point : grid_points) {
        (void)single_run(batched, point, compiled, one_lane_batch, seconds);
      }
      double& best = one_lane_batch ? lane_best : hot_best;
      if (round > 0 && seconds < best) {
        best = seconds;
      }
    }
  }
  const double hot_us = hot_best / static_cast<double>(points) * 1e6;
  const double lane_us = lane_best / static_cast<double>(points) * 1e6;
  const double hot_speedup = hot_us > 0.0 ? lane_us / hot_us : 0.0;
  std::printf("single run: hot lane %.2f us, one-lane batch %.2f us "
              "(hot %.2fx)\n",
              hot_us, lane_us, hot_speedup);

  // ---- Capacity twins: one hot sweep against one per capacity. -------
  sim::ExperimentConfig hot = sim::experiment1_config();
  hot.simulation.engine = sim::Engine::Hot;
  const par::SweepGrid twin_grid = baseline_grid({sim::PolicyKind::FcDpm});
  const std::size_t twin_capacities = twin_grid.capacities.size();
  const par::SweepResult one_sweep = par::run_sweep(hot, twin_grid, one);
  const auto [split_rows, split_twins] = split_sweeps(hot, twin_grid, false);
  const std::size_t twins = one_sweep.stats.twins;
  if (split_twins != 0) {
    fail("a one-capacity hot sweep served a twin");
  }
  if (twins == 0) {
    fail("the hot sweep served no capacity twin (capacity twins are dead)");
  }
  if (!identical_rows(split_rows, one_sweep.points)) {
    fail("the hot sweep diverged from its per-capacity sweeps");
  }
  // Rounds alternate the ways of running a grid, each keeping its best.
  const auto best_ways = [&](const std::vector<std::function<void()>>& ways) {
    std::vector<double> best(ways.size(), 1e300);
    for (int round = 0; round <= repeats; ++round) {  // round 0 warms up
      for (std::size_t w = 0; w < ways.size(); ++w) {
        const auto start = Clock::now();
        ways[w]();
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (round > 0 && seconds < best[w]) {
          best[w] = seconds;
        }
      }
    }
    return best;
  };
  const std::vector<double> slice_best = best_ways(
      {[&] { (void)par::run_sweep(hot, twin_grid, one); },
       [&] { (void)split_sweeps(hot, twin_grid, false); }});
  const double one_best = slice_best[0];
  const double split_best = slice_best[1];
  const double twin_speedup = one_best > 0.0 ? split_best / one_best : 0.0;
  std::printf("capacity twins: %zu of %zu points; one hot sweep %.2f ms, "
              "one per capacity %.2f ms (%.2fx)\n",
              twins, split_rows.size(), one_best * 1e3, split_best * 1e3,
              twin_speedup);

  // ---- What each twin kind buys on the whole hot Baseline grid. -------
  const par::SweepGrid full_grid =
      baseline_grid({sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle,
                     sim::PolicyKind::Asap, sim::PolicyKind::Conv});
  const par::SweepResult full = par::run_sweep(hot, full_grid, one);
  const auto [by_rho_rows, by_rho_twins] = split_sweeps(hot, full_grid, true);
  const auto [by_capacity_rows, by_capacity_twins] =
      split_sweeps(hot, full_grid, false);
  if (!identical_rows(full.points, by_rho_rows) ||
      !identical_rows(full.points, by_capacity_rows)) {
    fail("the Baseline grid's one, per-rho and per-capacity hot sweeps "
         "disagree");
  }
  const std::vector<double> full_best = best_ways(
      {[&] { (void)par::run_sweep(hot, full_grid, one); },
       [&] { (void)split_sweeps(hot, full_grid, true); },
       [&] { (void)split_sweeps(hot, full_grid, false); }});
  const std::size_t full_twins[] = {full.stats.twins, by_rho_twins,
                                    by_capacity_twins};
  const std::size_t full_sweeps[] = {1, full_grid.rhos.size(),
                                     full_grid.capacities.size()};
  std::printf("Baseline grid, %zu points: one hot sweep %.2f ms (%zu twins), "
              "one per rho %.2f ms (%zu), one per capacity %.2f ms (%zu)\n",
              full.points.size(), full_best[0] * 1e3, full_twins[0],
              full_best[1] * 1e3, full_twins[1], full_best[2] * 1e3,
              full_twins[2]);

  // ---- Timing: min-of-N with warmup. ----------------------------------
  volatile double sink = 0.0;
  const auto time_sweep = [&](const sim::ExperimentConfig& config,
                              const par::SweepOptions& options) {
    return best_of(repeats, 1, [&] {
      const par::SweepResult r = par::run_sweep(config, grid, options);
      sink = sink + r.points.back().result.totals.fuel.value();
    });
  };
  const double ref_1 = time_sweep(reference, one);
  const double batch_1 = time_sweep(batched, one);
  const double hot_1 = time_sweep(hot_sweep, one);
  const double ref_n = time_sweep(reference, many);
  const double batch_n = time_sweep(batched, many);

  const double pts = static_cast<double>(points);
  const double speedup_1 = batch_1 > 0.0 ? ref_1 / batch_1 : 0.0;
  const double speedup_n = batch_n > 0.0 ? ref_n / batch_n : 0.0;
  std::printf("--jobs 1 : ref %.2f ms, batched %.2f ms (%.2fx, "
              "%.0f devices/s), hot %.2f ms (%zu twins)\n",
              ref_1 * 1e3, batch_1 * 1e3, speedup_1, pts / batch_1,
              hot_1 * 1e3, hot_run.stats.twins);
  std::printf("--jobs %zu: ref %.2f ms, batched %.2f ms (%.2fx, "
              "%.0f devices/s)\n",
              jobs_n, ref_n * 1e3, batch_n * 1e3, speedup_n,
              pts / batch_n);

  // ---- BENCH_batch.json. ----------------------------------------------
  const bool speedup_ok = speedup_1 >= min_speedup;
  const par::SweepRunStats& bs = batch_run.stats;
  std::ostringstream json;
  json << "{\n"
       << "  \"schema\": \"fcdpm.bench.batch.v1\",\n"
       << "  \"generated_by\": \"bench/perf_batch\",\n"
       << "  \"env\": {\n"
       << "    \"compiler\": \"" << __VERSION__ << "\",\n"
       << "    \"cpp_standard\": " << __cplusplus << ",\n"
#ifdef NDEBUG
       << "    \"assertions\": \"off\",\n"
#else
       << "    \"assertions\": \"on\",\n"
#endif
       << "    \"pointer_bits\": " << 8 * sizeof(void*) << ",\n"
       << "    \"hardware_threads\": " << hw << "\n"
       << "  },\n"
       << "  \"workload\": {\n"
       << "    \"trace\": \"" << reference.trace.name() << "\",\n"
       << "    \"slots\": " << reference.trace.size() << ",\n"
       << "    \"policies\": [\"fcdpm\"],\n"
       << "    \"rhos\": " << grid.rhos.size() << ",\n"
       << "    \"capacities\": " << grid.capacities.size() << ",\n"
       << "    \"points\": " << points << "\n"
       << "  },\n"
       << "  \"identity\": {\n"
       << "    \"bit_identical_jobs1\": true,\n"
       << "    \"bit_identical_jobsN\": true,\n"
       << "    \"hot_bit_identical_jobs1\": true\n"
       << "  },\n"
       << "  \"batch\": {\n"
       << "    \"points\": " << bs.points_batched;
  telemetry::for_each_batch_stat(
      [&](const telemetry::Stat& stat, auto value) {
        json << ",\n    \"" << stat.key << "\": " << value;
      },
      bs);
  json << "\n  },\n"
       << "  \"single_run\": {\n"
       << "    \"points\": " << points << ",\n"
       << "    \"bit_identical\": true,\n"
       << "    \"hot_us_per_run\": " << json_number(hot_us) << ",\n"
       << "    \"one_lane_batch_us_per_run\": " << json_number(lane_us)
       << ",\n"
       << "    \"hot_speedup\": " << json_number(hot_speedup) << "\n"
       << "  },\n"
       << "  \"capacity_twins\": {\n"
       << "    \"engine\": \"hot\",\n"
       << "    \"policies\": [\"fcdpm\"],\n"
       << "    \"rhos\": " << twin_grid.rhos.size() << ",\n"
       << "    \"capacities\": " << twin_capacities << ",\n"
       << "    \"points\": " << split_rows.size() << ",\n"
       << "    \"twins\": " << twins << ",\n"
       << "    \"bit_identical\": true,\n"
       << "    \"one_sweep_s\": " << json_number(one_best) << ",\n"
       << "    \"per_capacity_sweeps_s\": " << json_number(split_best)
       << ",\n"
       << "    \"speedup\": " << json_number(twin_speedup) << ",\n"
       << "    \"baseline_grid\": {\n"
       << "      \"policies\": [\"fcdpm\", \"oracle\", \"asap\", \"conv\"],\n"
       << "      \"points\": " << full.points.size() << ",\n"
       << "      \"bit_identical\": true,\n"
       << "      \"note\": \"a split row pays a trace compile and a twin "
          "pass per sweep\"";
  const char* const way_names[] = {"one_sweep", "per_rho_sweeps",
                                   "per_capacity_sweeps"};
  for (std::size_t w = 0; w < 3; ++w) {
    json << ",\n      \"" << way_names[w]
         << "\": {\"sweeps\": " << full_sweeps[w]
         << ", \"twins\": " << full_twins[w]
         << ", \"wall_s\": " << json_number(full_best[w]) << "}";
  }
  json << "\n    }\n"
       << "  },\n"
       << "  \"timing\": {\n"
       << "    \"repeats\": " << repeats << ",\n"
       << "    \"jobs1\": {\n"
       << "      \"reference_s\": " << json_number(ref_1) << ",\n"
       << "      \"batched_s\": " << json_number(batch_1) << ",\n"
       << "      \"speedup\": " << json_number(speedup_1) << ",\n"
       << "      \"devices_per_s\": " << json_number(pts / batch_1) << ",\n"
       << "      \"hot_s\": " << json_number(hot_1) << ",\n"
       << "      \"hot_twins\": " << hot_run.stats.twins << "\n"
       << "    },\n"
       << "    \"jobsN\": {\n"
       << "      \"jobs\": " << jobs_n << ",\n"
       << "      \"reference_s\": " << json_number(ref_n) << ",\n"
       << "      \"batched_s\": " << json_number(batch_n) << ",\n"
       << "      \"speedup\": " << json_number(speedup_n) << ",\n"
       << "      \"devices_per_s\": " << json_number(pts / batch_n) << "\n"
       << "    }\n"
       << "  },\n"
       << "  \"gates\": {\n"
       << "    \"min_speedup\": " << json_number(min_speedup) << ",\n"
       << "    \"passed\": " << (speedup_ok ? "true" : "false") << "\n"
       << "  }\n"
       << "}\n";
  write_file_atomic(out_path, json.str());
  std::printf("wrote %s\n", out_path.c_str());

  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FAIL: --jobs 1 batched speedup %.2fx below the "
                 "--min-speedup %.2fx gate\n",
                 speedup_1, min_speedup);
    return 1;
  }
  return 0;
}
