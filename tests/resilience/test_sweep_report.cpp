#include "resilience/sweep_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiments.hpp"

namespace fcdpm::resilience {
namespace {

/// Everything print_sweep_report writes to its stream.
std::string printed(const sim::ExperimentConfig& config,
                    const ResilientSweepResult& sweep,
                    const ResilienceOptions* options) {
  char* data = nullptr;
  std::size_t size = 0;
  std::FILE* out = ::open_memstream(&data, &size);
  EXPECT_NE(out, nullptr);
  (void)print_sweep_report(out, config, sweep, options);
  std::fclose(out);
  std::string text(data, size);
  std::free(data);
  return text;
}

sim::ExperimentConfig capped_config() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.cap.enabled = true;
  return config;
}

par::SweepPointResult done_point(sim::PolicyKind policy, double rho,
                                 double capacity) {
  par::SweepPointResult done;
  done.point.policy = policy;
  done.point.rho = rho;
  done.point.capacity = Coulomb(capacity);
  done.point.storm_seed = 42;
  return done;
}

// The stdout of a resilient sweep: the table with its status column, a
// quarantined row of "-" cells, a replayed row, a fuel that rounds to
// -0 (printed "0") and every summary line the report adds.
TEST(SweepReportTest, ResilientReportTextIsPinned) {
  ResilientSweepResult sweep;
  sweep.stats.points = 3;
  sweep.stats.jobs = 1;
  sweep.stats.wall_seconds = 0.25;

  ResilientPoint ok;
  ok.result = done_point(sim::PolicyKind::FcDpm, 0.3, 6.0);
  ok.ok = true;
  sim::SimulationResult& r = ok.result.result;
  r.totals.fuel = Coulomb(-0.001);
  r.totals.bled = Coulomb(1234.5678);
  r.totals.unserved = Coulomb(0.005);
  r.sleeps = 17;
  r.cap.emplace();
  r.cap->slots_capped = 5;
  r.cap->budget_violations = 0;
  sweep.points.push_back(ok);

  ResilientPoint quarantined;
  quarantined.result = done_point(sim::PolicyKind::Oracle, 0.55, 12.25);
  quarantined.ok = false;
  quarantined.attempts = 3;
  quarantined.error = {PointErrorKind::deadline_exceeded,
                       "slot budget exhausted"};
  sweep.points.push_back(quarantined);

  ResilientPoint replayed = ok;
  replayed.result.point.policy = sim::PolicyKind::Asap;
  replayed.replayed = true;
  replayed.result.result.totals.fuel = Coulomb(826.8249);
  sweep.points.push_back(replayed);

  sweep.resilience.scheduled = 2;
  sweep.resilience.replayed = 1;
  sweep.resilience.retries = 2;
  sweep.resilience.quarantined = 1;
  sweep.resilience.rounds = 3;
  sweep.resilience.spot_checks = 1;
  sweep.resilience.torn_tail_recovered = true;
  sweep.resilience.torn_bytes_dropped = 57;
  sweep.resilience.journal_commits = 2;
  sweep.resilience.capped_ok = 2;

  ResilienceOptions options;
  options.journal_path = "sweep.fcj";
  EXPECT_EQ(printed(capped_config(), sweep, &options),
            "sweep: camcorder\n"
            "policy         rho   capacity  storm seed  fuel (A-s)  bled (A-s)  unserved (A-s)  sleeps  capped  status                        \n"
            "---------------------------------------------------------------------------------------------------------------------------------\n"
            "FC-DPM         0.3   6         42          0           1234.57     0.01            17      5       ok                            \n"
            "Oracle-FC-DPM  0.55  12.2      42          -           -           -               -       -       quarantined: deadline_exceeded\n"
            "ASAP-DPM       0.3   6         42          826.82      1234.57     0.01            17      5       replayed                      \n"
            "\n"
            "3 points at 1 jobs: 0.250 s wall (12.0 points/s)\n"
            "resilience: 2 scheduled | 1 replayed | 2 retries | 1 quarantined | 3 rounds | 1 spot-checks | 0 stalls | 2 journal commits\n"
            "power cap: 2 points throttled to completion | 10 capped slots | 0 budget violations\n"
            "journal torn tail recovered (57 bytes dropped)\n"
            "quarantined point 1 after 3 attempts: deadline_exceeded: slot budget exhausted\n");
  // Without a journal the line has no commit count.
  options.journal_path.clear();
  EXPECT_NE(printed(capped_config(), sweep, &options)
                .find("| 1 spot-checks | 0 stalls\npower cap:"),
            std::string::npos);
}

// The plain presentation (no resilience options): no status column,
// every point ok.
TEST(SweepReportTest, PlainReportTextIsPinned) {
  ResilientSweepResult sweep;
  sweep.stats.points = 2;
  sweep.stats.jobs = 1;
  sweep.stats.wall_seconds = 0.5;
  sweep.points.resize(2);
  sweep.points[0].ok = sweep.points[1].ok = true;
  sweep.points[0].result = done_point(sim::PolicyKind::Conv, 0.05, 400.0);
  sweep.points[0].result.result.totals.fuel = Coulomb(-0.004);
  sweep.points[1].result = done_point(sim::PolicyKind::FcDpm, 0.95, 0.5);
  sweep.points[1].result.result.totals.fuel = Coulomb(1e6 / 3.0);
  sweep.points[1].result.result.sleeps = 123456;
  EXPECT_EQ(printed(sim::experiment1_config(), sweep, nullptr),
            "sweep: camcorder\n"
            "policy    rho   capacity  storm seed  fuel (A-s)  bled (A-s)  unserved (A-s)  sleeps\n"
            "------------------------------------------------------------------------------------\n"
            "Conv-DPM  0.05  400       42          0           0           0               0     \n"
            "FC-DPM    0.95  0.5       42          333333.33   0           0               123456\n"
            "\n"
            "2 points at 1 jobs: 0.500 s wall (4.0 points/s)\n");
}

// The plain presentation's rollup lines: the cap line with its deferred
// energy, the stacks line, the batched line with its journal-hit clause
// and the audit line, in that order.
TEST(SweepReportTest, PlainRollupLinesArePinned) {
  ResilientSweepResult sweep;
  sweep.stats.points = 2;
  sweep.stats.jobs = 4;
  sweep.stats.wall_seconds = 0.125;
  sweep.stats.points_batched = 2;
  sweep.stats.batch_merge_sets = 1;
  sweep.stats.batch_merged_lane_slots = 37;
  sweep.stats.batch_splits = 3;
  sweep.points.resize(2);
  for (ResilientPoint& p : sweep.points) {
    p.ok = true;
    p.result = done_point(sim::PolicyKind::FcDpm, 0.5, 6.0);
    sim::SimulationResult& r = p.result.result;
    r.cap.emplace();
    r.audit.emplace();
    r.audit->mode = 1;
    r.audit->slots_audited = 40;
    r.audit->checks_run = 400;
  }
  sim::SimulationResult& first = sweep.points[0].result.result;
  first.cap->slots_capped = 5;
  first.cap->energy_deferred = Joule(12.34);
  first.audit->engine_fallbacks = 1;
  first.stacks.emplace();
  first.stacks->stacks = {{.startups = 3, .wear = 0.25},
                          {.startups = 1, .wear = 0.125}};
  EXPECT_EQ(printed(capped_config(), sweep, nullptr),
            "sweep: camcorder\n"
            "policy  rho  capacity  storm seed  fuel (A-s)  bled (A-s)  unserved (A-s)  sleeps  capped  stacks  dist        \n"
            "---------------------------------------------------------------------------------------------------------------\n"
            "FC-DPM  0.5  6         42          0           0           0               0       5       2       proportional\n"
            "FC-DPM  0.5  6         42          0           0           0               0       0       -       -           \n"
            "\n"
            "2 points at 4 jobs: 0.125 s wall (16.0 points/s)\n"
            "power cap: 1/2 points throttled | 5 capped slots | 0 budget violations | 12.3 J deferred\n"
            "stacks: 1 multi-stack points | 4 stack startups | max wear 0.25\n"
            "batched: 2/2 points | 1 merge sets | 37 merged lane-slots | 3 splits | 0 journal hits\n"
            "audit (sample): 80 slots audited | 800 checks | 0 violations | 1 engine fallbacks (1 points)\n");
}

}  // namespace
}  // namespace fcdpm::resilience
