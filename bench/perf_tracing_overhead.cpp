// Tracing overhead: simulate() wall time with observability disabled,
// with an attached-but-discarding NullTraceSink, and with the JSONL
// serializer. The null-sink path is the cost ceiling for leaving the
// pipeline wired into sweeps; this bench FAILS (exit 1) when it exceeds
// the 2 % budget over the disabled path.
//
// Second section: sweep-scale telemetry. run_sweep wall time with no
// telemetry vs with shards attached and a null aggregator (no sampler
// thread, snapshots never pulled during the run) — the cost ceiling
// for leaving shards wired into every sweep. Same 2 % budget, same
// exit-1 gate, plus a hard bit-identity assertion between the
// telemetry-on and telemetry-off results.
//
// Third section: runtime auditing. run_sweep wall time audit-off vs
// sample-mode (the always-on candidate) under the same 2 % budget and
// exit-1 gate, read as the median of paired per-round ratios; strict
// mode is reported for information only. Bit identity between audited
// and unaudited sweeps is asserted first.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <streambuf>
#include <vector>

#include "audit/audit.hpp"
#include "obs/context.hpp"
#include "par/solve_cache.hpp"
#include "par/sweep.hpp"
#include "par/worker_pool.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"
#include "sim/result_fields.hpp"
#include "sim/slot_simulator.hpp"
#include "telemetry/sweep_telemetry.hpp"

namespace {

using namespace fcdpm;
using Clock = std::chrono::steady_clock;

constexpr int kInnerRuns = 250;  // one sample = this many simulate() calls
constexpr int kSamples = 25;     // keep the minimum: robust to jitter

double run_sample(const sim::ExperimentConfig& config,
                  obs::Context* observer) {
  sim::SimulationOptions options = config.simulation;
  options.observer = observer;
  double checksum = 0.0;
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < kInnerRuns; ++k) {
    dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
    const std::unique_ptr<core::FcOutputPolicy> fc =
        sim::make_fc_policy(sim::PolicyKind::FcDpm, config);
    power::HybridPowerSource hybrid = sim::make_hybrid(config);
    const sim::SimulationResult r =
        sim::simulate(config.trace, dpm_policy, *fc, hybrid, options);
    checksum += r.fuel().value();
  }
  const std::chrono::duration<double, std::milli> elapsed =
      Clock::now() - start;
  // Defeat dead-code elimination without perturbing the timing.
  static volatile double sink_value;
  sink_value = checksum;
  return elapsed.count();
}

/// Discards everything written: measures serialization without growing
/// a buffer across the 9 x 40 runs.
class DiscardBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// Best-of-N over a set of measurement variants, interleaved: each
/// round samples every variant once before the next round. Measuring
/// one variant's samples back to back lets slow machine-load drift
/// bias whichever side runs later; alternating cancels the drift, and
/// the minimum discards load spikes entirely.
std::vector<double> best_of_interleaved(
    const std::vector<std::function<double()>>& variants, int samples) {
  std::vector<double> best(variants.size(),
                           std::numeric_limits<double>::infinity());
  for (int s = 0; s < samples; ++s) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      best[v] = std::min(best[v], variants[v]());
    }
  }
  return best;
}

/// One variant's cost over variant 0 of a paired_overhead run.
struct Overhead {
  double median_ms = 0.0;  ///< the variant's median sample
  double pct = 0.0;        ///< median per-round overhead, percent
  double q1_pct = 0.0;     ///< quartiles of the per-round overheads
  double q3_pct = 0.0;
};

/// Each variant's overhead over variant 0, paired per round: a round
/// samples every variant once, the first one rotating, and yields each
/// variant's ratio to variant 0 within that round. A ratio taken within
/// a round cancels the machine's drift between rounds, and the median
/// over hundreds of rounds discards load spikes, so on a shared 4-vCPU
/// guest the reading repeats to a few tenths of a percent, where
/// best-of-N minimums taken apart per variant spread over three points.
std::vector<Overhead> paired_overhead(
    const std::vector<std::function<double()>>& variants, int rounds) {
  const std::size_t n = variants.size();
  std::vector<std::vector<double>> ms(n);
  std::vector<std::vector<double>> pct(n);
  std::vector<double> sample(n);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t v = (static_cast<std::size_t>(r) + k) % n;
      sample[v] = variants[v]();
    }
    for (std::size_t v = 0; v < n; ++v) {
      ms[v].push_back(sample[v]);
      pct[v].push_back(100.0 * (sample[v] - sample[0]) / sample[0]);
    }
  }
  const auto quantile = [](std::vector<double>& values, double q) {
    const auto at = values.begin() + static_cast<std::ptrdiff_t>(
                                         q * static_cast<double>(
                                                 values.size() - 1));
    std::nth_element(values.begin(), at, values.end());
    return *at;
  };
  std::vector<Overhead> out(n);
  for (std::size_t v = 0; v < n; ++v) {
    out[v] = {quantile(ms[v], 0.5), quantile(pct[v], 0.5),
              quantile(pct[v], 0.25), quantile(pct[v], 0.75)};
  }
  return out;
}

// --- sweep-scale telemetry overhead ---------------------------------

constexpr std::size_t kSweepJobs = 2;
constexpr int kSweepInner = 8;     // one sample = this many sweeps
constexpr int kSweepSamples = 40;  // interleaved across the variants
constexpr int kAuditRounds = 300;  // paired rounds of the audit budget

par::SweepGrid sweep_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  grid.rhos = {0.5, 0.7};
  grid.capacities = {Coulomb(300.0), Coulomb(600.0)};
  return grid;
}

double sweep_sample(const sim::ExperimentConfig& config,
                    const par::SweepGrid& grid,
                    telemetry::SweepTelemetry* telemetry,
                    std::size_t jobs = kSweepJobs) {
  const Clock::time_point start = Clock::now();
  for (int k = 0; k < kSweepInner; ++k) {
    par::SweepOptions options;
    options.jobs = jobs;
    options.telemetry = telemetry;
    const par::SweepResult result = par::run_sweep(config, grid, options);
    static volatile std::size_t sink_value;
    sink_value = result.points.size();
  }
  const std::chrono::duration<double, std::milli> elapsed =
      Clock::now() - start;
  return elapsed.count();
}

/// sim::same_result at every grid point.
bool identical_results(const par::SweepResult& a, const par::SweepResult& b) {
  return std::equal(a.points.begin(), a.points.end(), b.points.begin(),
                    b.points.end(), [](const auto& x, const auto& y) {
                      return sim::same_result(x.result, y.result);
                    });
}

}  // namespace

int main() {
  const sim::ExperimentConfig config = sim::experiment1_config();

  // Warm up caches and the allocator before the measured samples.
  (void)run_sample(config, nullptr);

  obs::NullTraceSink null_sink;
  obs::Context null_context(&null_sink, nullptr, nullptr);
  DiscardBuffer discard;
  std::ostream jsonl_out(&discard);
  obs::JsonlTraceSink jsonl_sink(jsonl_out);
  obs::Context jsonl_context(&jsonl_sink, nullptr, nullptr);
  const std::vector<double> sim_ms = best_of_interleaved(
      {[&] { return run_sample(config, nullptr); },
       [&] { return run_sample(config, &null_context); },
       [&] { return run_sample(config, &jsonl_context); }},
      kSamples);
  const double disabled_ms = sim_ms[0];
  const double null_sink_ms = sim_ms[1];
  const double jsonl_ms = sim_ms[2];

  const double per_run = 1.0 / kInnerRuns;
  const double overhead_pct =
      100.0 * (null_sink_ms - disabled_ms) / disabled_ms;
  const double jsonl_pct =
      100.0 * (jsonl_ms - disabled_ms) / disabled_ms;

  std::printf("tracing overhead (%d x simulate, best of %d samples)\n",
              kInnerRuns, kSamples);
  std::printf("  %-22s %8.3f ms/run\n", "disabled (nullptr)",
              disabled_ms * per_run);
  std::printf("  %-22s %8.3f ms/run  (%+.2f%%)\n", "null sink",
              null_sink_ms * per_run, overhead_pct);
  std::printf("  %-22s %8.3f ms/run  (%+.2f%%)\n", "jsonl sink",
              jsonl_ms * per_run, jsonl_pct);

  if (overhead_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: null-sink overhead %.2f%% exceeds the 2%% budget\n",
                 overhead_pct);
    return 1;
  }
  std::printf("PASS: null-sink overhead %.2f%% < 2%%\n", overhead_pct);

  // --- sweep-scale telemetry ----------------------------------------
  const par::SweepGrid grid = sweep_grid();

  // Bit-identity first: telemetry must be observation-only.
  {
    par::SweepOptions plain;
    plain.jobs = kSweepJobs;
    const par::SweepResult without = par::run_sweep(config, grid, plain);
    telemetry::TelemetryConfig tconfig;
    tconfig.workers = par::WorkerPool::resolve(kSweepJobs);
    tconfig.total_points = grid.points(config).size();
    telemetry::SweepTelemetry telemetry(tconfig);
    par::SweepOptions shielded;
    shielded.jobs = kSweepJobs;
    shielded.telemetry = &telemetry;
    const par::SweepResult with = par::run_sweep(config, grid, shielded);
    if (!identical_results(without, with)) {
      std::fprintf(stderr,
                   "FAIL: sweep results changed with telemetry attached\n");
      return 1;
    }
  }

  (void)sweep_sample(config, grid, nullptr);  // warmup

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(kSweepJobs);
  tconfig.total_points = grid.points(config).size();
  telemetry::SweepTelemetry telemetry(tconfig);
  const std::vector<double> sweep_ms = best_of_interleaved(
      {[&] { return sweep_sample(config, grid, nullptr); },
       [&] { return sweep_sample(config, grid, &telemetry); }},
      kSweepSamples);
  const double sweep_off_ms = sweep_ms[0];
  const double sweep_on_ms = sweep_ms[1];

  const double per_sweep = 1.0 / kSweepInner;
  const double sweep_pct =
      100.0 * (sweep_on_ms - sweep_off_ms) / sweep_off_ms;
  std::printf(
      "sweep telemetry overhead (%zu-point grid x %d, %zu jobs, best of "
      "%d)\n",
      grid.points(config).size(), kSweepInner, kSweepJobs, kSweepSamples);
  std::printf("  %-22s %8.3f ms/sweep\n", "telemetry off",
              sweep_off_ms * per_sweep);
  std::printf("  %-22s %8.3f ms/sweep  (%+.2f%%)\n", "shards, no sampler",
              sweep_on_ms * per_sweep, sweep_pct);
  if (sweep_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: telemetry shard overhead %.2f%% exceeds the 2%% "
                 "budget\n",
                 sweep_pct);
    return 1;
  }
  std::printf("PASS: telemetry shard overhead %.2f%% < 2%%\n", sweep_pct);
  std::printf("PASS: sweep results bit-identical with telemetry attached\n");

  // --- runtime auditing ---------------------------------------------
  sim::ExperimentConfig sampled = config;
  sampled.audit.mode = audit::Mode::Sample;
  sim::ExperimentConfig strict = config;
  strict.audit.mode = audit::Mode::Strict;

  // Bit-identity first: the auditor must be observation-only.
  {
    par::SweepOptions plain;
    plain.jobs = kSweepJobs;
    const par::SweepResult without = par::run_sweep(config, grid, plain);
    par::SweepResult with = par::run_sweep(strict, grid, plain);
    // The audit block is the one thing the auditor adds.
    for (par::SweepPointResult& point : with.points) {
      point.result.audit.reset();
    }
    if (!identical_results(without, with)) {
      std::fprintf(stderr,
                   "FAIL: sweep results changed with strict audit on\n");
      return 1;
    }
  }

  // Audit cost is per-point CPU work, so it is measured single-worker:
  // worker-pool scheduling noise would otherwise dominate the budget on
  // a loaded host (cross-job bit-identity is asserted by the tests).
  // Its budget sits close to the measured cost, so it is read paired
  // over enough rounds that the reading's own spread is a small part of
  // the 2 %.
  (void)sweep_sample(sampled, grid, nullptr, 1);  // warmup
  const std::vector<Overhead> audit = paired_overhead(
      {[&] { return sweep_sample(config, grid, nullptr, 1); },
       [&] { return sweep_sample(sampled, grid, nullptr, 1); },
       [&] { return sweep_sample(strict, grid, nullptr, 1); }},
      kAuditRounds);
  const double audit_pct = audit[1].pct;
  std::printf(
      "audit overhead (%zu-point grid x %d, 1 job, median of %d paired "
      "rounds)\n",
      grid.points(config).size(), kSweepInner, kAuditRounds);
  std::printf("  %-22s %8.3f ms/sweep\n", "audit off",
              audit[0].median_ms * per_sweep);
  std::printf("  %-22s %8.3f ms/sweep  (%+.2f%%, rounds q1 %+.2f%% q3 "
              "%+.2f%%)\n",
              "audit sample", audit[1].median_ms * per_sweep, audit_pct,
              audit[1].q1_pct, audit[1].q3_pct);
  std::printf("  %-22s %8.3f ms/sweep  (%+.2f%%)\n", "audit strict (info)",
              audit[2].median_ms * per_sweep, audit[2].pct);
  if (audit_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: sample-audit overhead %.2f%% exceeds the 2%% "
                 "budget\n",
                 audit_pct);
    return 1;
  }
  std::printf("PASS: sample-audit overhead %.2f%% < 2%%\n", audit_pct);
  std::printf("PASS: sweep results bit-identical with strict audit on\n");
  return 0;
}
