#include "resilience/resilient_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "hot/compiled_trace.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "par/worker_pool.hpp"
#include "resilience/journal.hpp"
#include "sim/experiments.hpp"
#include "sim/result_fields.hpp"
#include "telemetry/sweep_telemetry.hpp"

#include "forge_field.hpp"

namespace fcdpm::resilience {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fcdpm_resweep_" + name;
}

sim::ExperimentConfig small_base() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = config.trace.truncated(Seconds(120.0));
  return config;
}

par::SweepGrid small_grid() {
  par::SweepGrid grid;
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  grid.storm_seeds = {0, 42};
  return grid;  // Table-2 trio x 2 x 2 x 2 -> 24 points
}

void expect_same_result(const sim::SimulationResult& a,
                        const sim::SimulationResult& b) {
  EXPECT_EQ(a.totals.fuel.value(), b.totals.fuel.value());
  EXPECT_EQ(a.totals.duration.value(), b.totals.duration.value());
  EXPECT_EQ(a.totals.bled.value(), b.totals.bled.value());
  EXPECT_EQ(a.totals.unserved.value(), b.totals.unserved.value());
  EXPECT_EQ(a.storage_end.value(), b.storage_end.value());
  EXPECT_EQ(a.latency_added.value(), b.latency_added.value());
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.sleeps, b.sleeps);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The grid indices a --jobs 1 journal lists its records in, for a grid
/// of batch-eligible points: the points simulated in round 0 in grid
/// order, then the `failing` points (quarantined in later rounds, in the
/// order given; none is a twin's canonical), then the twins served after
/// the last round in grid order.
std::vector<std::size_t> serial_record_order(
    const sim::ExperimentConfig& base, const par::SweepGrid& grid,
    std::size_t inject_fail, const std::vector<std::size_t>& failing) {
  const std::vector<par::SweepPoint> points = grid.points(base);
  const par::SweepTwins twins = par::find_twins(
      base, points, hot::CompiledTrace(base.trace, base.device), inject_fail);
  EXPECT_GT(twins.count, 0u);
  const auto is_failing = [&](std::size_t k) {
    return std::find(failing.begin(), failing.end(), k) != failing.end();
  };
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < points.size(); ++k) {
    EXPECT_FALSE(twins.is_twin(k) && is_failing(twins.canonical[k]));
    if (!twins.is_twin(k) && !is_failing(k)) {
      order.push_back(k);
    }
  }
  order.insert(order.end(), failing.begin(), failing.end());
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (twins.is_twin(k)) {
      order.push_back(k);
    }
  }
  return order;
}

/// "SIGKILL" partway through: keep the header, `records` full records
/// and a torn half of the next.
void cut_journal(const std::string& path, int records) {
  const std::string full = read_file(path);
  std::size_t cut = full.find('\n') + 1;
  for (int k = 0; k < records; ++k) {
    cut = full.find('\n', cut) + 1;
  }
  write_file(path, full.substr(0, cut + 17));
}

/// Journal lines after the header: one per appended record, duplicates
/// included (load_journal keeps only the first record per index).
std::size_t record_lines(const std::string& path) {
  const std::string full = read_file(path);
  return static_cast<std::size_t>(
             std::count(full.begin(), full.end(), '\n')) -
         1;
}

/// A memo snapping every solve input to `quantum`.
par::SolveCacheConfig all_quanta(double quantum) {
  par::SolveCacheConfig config;
  config.time_quantum = Seconds(quantum);
  config.current_quantum = Ampere(quantum);
  config.charge_quantum = Coulomb(quantum);
  return config;
}

/// The CsvError message a resume throws; empty when it succeeds.
std::string resume_error(const sim::ExperimentConfig& base,
                         const par::SweepGrid& grid,
                         const ResilienceOptions& options) {
  try {
    (void)run_resilient_sweep(base, grid, options);
  } catch (const CsvError& error) {
    return error.what();
  }
  return "";
}

TEST(ResilientSweepTest, MatchesThePlainEngineBitwiseAcrossJobCounts) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepGrid grid = small_grid();

  par::SweepOptions plain_options;
  plain_options.jobs = 1;
  const par::SweepResult plain = par::run_sweep(base, grid, plain_options);

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    ResilienceOptions options;
    options.jobs = jobs;
    const ResilientSweepResult sweep =
        run_resilient_sweep(base, grid, options);

    ASSERT_EQ(sweep.points.size(), plain.points.size());
    EXPECT_EQ(sweep.resilience.quarantined, 0u);
    EXPECT_EQ(sweep.resilience.retries, 0u);
    EXPECT_EQ(sweep.resilience.rounds, 1u);
    for (std::size_t k = 0; k < sweep.points.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      ASSERT_TRUE(sweep.points[k].ok);
      EXPECT_EQ(sweep.points[k].attempts, 1u);
      expect_same_result(sweep.points[k].result.result,
                         plain.points[k].result);
    }
  }
}

// Acceptance: a permanently-failing point is retried exactly
// max_retries times, quarantined with its typed error, and no other
// point changes bitwise.
TEST(ResilientSweepTest, PoisonedPointIsQuarantinedOthersUntouched) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepGrid grid = small_grid();
  const std::size_t poisoned = 5;

  par::SweepOptions plain_options;
  plain_options.jobs = 1;
  const par::SweepResult plain = par::run_sweep(base, grid, plain_options);

  ResilienceOptions options;
  options.jobs = 4;
  options.contract.max_retries = 3;
  options.contract.inject_fail_index = poisoned;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);

  EXPECT_EQ(sweep.resilience.quarantined, 1u);
  EXPECT_EQ(sweep.resilience.retries, 3u);
  ASSERT_FALSE(sweep.points[poisoned].ok);
  EXPECT_EQ(sweep.points[poisoned].attempts, 1u + 3u);
  EXPECT_EQ(sweep.points[poisoned].error.kind,
            PointErrorKind::solver_diverged);
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    if (k == poisoned) {
      continue;
    }
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(sweep.points[k].ok);
    expect_same_result(sweep.points[k].result.result,
                       plain.points[k].result);
  }
}

TEST(ResilientSweepTest, QuarantineLandsInTheJournalWithItsTypedError) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};
  const std::string path = temp_path("quarantine.fcj");

  ResilienceOptions options;
  options.journal_path = path;
  options.contract.max_retries = 1;
  options.contract.inject_fail_index = 1;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);
  EXPECT_EQ(sweep.resilience.quarantined, 1u);

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 3u);
  std::size_t failed = 0;
  for (const JournalRecord& record : load.records) {
    if (!record.ok) {
      ++failed;
      EXPECT_EQ(record.index, 1u);
      EXPECT_EQ(record.attempts, 2u);
      EXPECT_EQ(record.error.kind, PointErrorKind::solver_diverged);
    }
  }
  EXPECT_EQ(failed, 1u);
  std::remove(path.c_str());
}

// Acceptance: kill-and-resume. The journal of an interrupted sweep
// (simulated by cutting it mid-record) resumes to results bit-identical
// to the uninterrupted run, re-simulating zero completed points beyond
// the spot-check.
TEST(ResilientSweepTest, TornJournalResumesBitIdenticalToUninterrupted) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepGrid grid = small_grid();
  const std::string path = temp_path("kill_resume.fcj");

  ResilienceOptions first;
  first.jobs = 2;
  first.journal_path = path;
  const ResilientSweepResult uninterrupted =
      run_resilient_sweep(base, grid, first);
  ASSERT_EQ(uninterrupted.resilience.quarantined, 0u);

  cut_journal(path, 10);

  ResilienceOptions second;
  second.jobs = 2;
  second.journal_path = path;
  second.resume = true;
  second.spot_checks = 1;
  const ResilientSweepResult resumed =
      run_resilient_sweep(base, grid, second);

  EXPECT_TRUE(resumed.resilience.torn_tail_recovered);
  EXPECT_EQ(resumed.resilience.replayed, 10u);
  EXPECT_EQ(resumed.resilience.scheduled, grid.points(base).size() - 10u);
  EXPECT_EQ(resumed.resilience.spot_checks, 1u);
  ASSERT_EQ(resumed.points.size(), uninterrupted.points.size());
  std::size_t replayed_points = 0;
  for (std::size_t k = 0; k < resumed.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(resumed.points[k].ok);
    // With jobs=2 the journal's append order follows completion, not
    // grid order — which 10 points were committed is scheduling-
    // dependent, but their *results* must replay bit-identically.
    replayed_points += resumed.points[k].replayed ? 1 : 0;
    expect_same_result(resumed.points[k].result.result,
                       uninterrupted.points[k].result.result);
  }
  EXPECT_EQ(replayed_points, 10u);

  // The healed journal now holds every point exactly once.
  const JournalLoad healed = load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  EXPECT_EQ(healed.records.size(), resumed.points.size());
  std::remove(path.c_str());
}

// A memo-free journal, cut and resumed, merges to the rows an
// exact-key memo run produces: attaching no memo changes no result.
TEST(ResilientSweepTest, MemoFreeJournalResumesToTheMemoRunsRows) {
  const sim::ExperimentConfig base = small_base();
  const par::SweepGrid grid = small_grid();
  const std::string path = temp_path("memo_free.fcj");

  par::SharedSolveCache memo;
  ResilienceOptions memo_run;
  memo_run.jobs = 2;
  memo_run.cache = &memo;
  const ResilientSweepResult with_memo =
      run_resilient_sweep(base, grid, memo_run);
  ASSERT_GT(memo.misses(), 0u);

  ResilienceOptions first;
  first.jobs = 2;
  first.journal_path = path;
  (void)run_resilient_sweep(base, grid, first);
  cut_journal(path, 7);

  ResilienceOptions second = first;
  second.resume = true;
  const ResilientSweepResult resumed =
      run_resilient_sweep(base, grid, second);
  EXPECT_EQ(resumed.resilience.replayed, 7u);
  EXPECT_EQ(resumed.stats.cache_hits + resumed.stats.cache_misses, 0u);
  ASSERT_EQ(resumed.points.size(), with_memo.points.size());
  for (std::size_t k = 0; k < resumed.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_TRUE(resumed.points[k].ok);
    expect_same_result(resumed.points[k].result.result,
                       with_memo.points[k].result.result);
  }
  std::remove(path.c_str());
}

// Snapped solves answer different problems, so a journal written at one
// nonzero quantum refuses to splice into a sweep at another — as a
// fingerprint error, before any spot check could mistake it for a
// tampered record. Exact-key journals keep the plain grid fingerprint,
// with or without an exact-key memo, so journals written before the
// quanta were hashed still resume.
TEST(ResilientSweepTest, ResumeRefusesAJournalWrittenAtAnotherQuantum) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  const std::vector<par::SweepPoint> points = grid.points(base);
  const std::string path = temp_path("quantum.fcj");

  par::SharedSolveCache snapped(all_quanta(0.5));
  ResilienceOptions first;
  first.journal_path = path;
  first.cache = &snapped;
  (void)run_resilient_sweep(base, grid, first);
  EXPECT_NE(load_journal(path).header.fingerprint,
            grid_fingerprint(base, points, grid.storm_faults));
  cut_journal(path, 3);

  ResilienceOptions exact;
  exact.journal_path = path;
  exact.resume = true;
  exact.spot_checks = 0;
  EXPECT_NE(resume_error(base, grid, exact).find("fingerprint mismatch"),
            std::string::npos);
  exact.spot_checks = 1;
  EXPECT_NE(resume_error(base, grid, exact).find("fingerprint mismatch"),
            std::string::npos);
  par::SharedSolveCache finer(all_quanta(0.25));
  exact.cache = &finer;
  EXPECT_NE(resume_error(base, grid, exact).find("fingerprint mismatch"),
            std::string::npos);

  ResilienceOptions same = first;
  same.resume = true;
  EXPECT_EQ(resume_error(base, grid, same), "");

  // Quantum 0: the plain fingerprint, resumable with or without a memo,
  // but not by a snapped sweep.
  ResilienceOptions plain;
  plain.journal_path = path;
  (void)run_resilient_sweep(base, grid, plain);
  EXPECT_EQ(load_journal(path).header.fingerprint,
            grid_fingerprint(base, points, grid.storm_faults));
  cut_journal(path, 3);
  par::SharedSolveCache exact_memo;
  ResilienceOptions resume_exact = plain;
  resume_exact.resume = true;
  resume_exact.cache = &exact_memo;
  EXPECT_EQ(resume_error(base, grid, resume_exact), "");
  ResilienceOptions resume_snapped = plain;
  resume_snapped.resume = true;
  resume_snapped.cache = &snapped;
  EXPECT_NE(
      resume_error(base, grid, resume_snapped).find("fingerprint mismatch"),
      std::string::npos);
  std::remove(path.c_str());
}

TEST(ResilientSweepTest, FullJournalResumeReSimulatesNothing) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.4, 0.6};
  const std::string path = temp_path("full_resume.fcj");

  ResilienceOptions first;
  first.journal_path = path;
  const ResilientSweepResult original =
      run_resilient_sweep(base, grid, first);

  ResilienceOptions second;
  second.journal_path = path;
  second.resume = true;
  second.spot_checks = 0;  // isolate "zero re-simulation"
  const ResilientSweepResult resumed =
      run_resilient_sweep(base, grid, second);

  EXPECT_EQ(resumed.resilience.scheduled, 0u);
  EXPECT_EQ(resumed.resilience.rounds, 0u);
  EXPECT_EQ(resumed.resilience.replayed, original.points.size());
  for (std::size_t k = 0; k < resumed.points.size(); ++k) {
    ASSERT_TRUE(resumed.points[k].replayed);
    expect_same_result(resumed.points[k].result.result,
                       original.points[k].result.result);
  }
  std::remove(path.c_str());
}

// Group commit: each round runs in chunks of kCommitChunk simulated
// points with one fsync per chunk that journaled anything, and the
// twins served after the rounds take one more. Every point is journaled
// exactly once, the commit count is a function of the grid alone, jobs
// 1 writes the simulated records by round and then the served twins in
// grid order, and a cut at a commit boundary, mid-chunk or among the
// uncommitted twins resumes to the uninterrupted rows.
TEST(ResilientSweepTest, GroupCommitJournalsOncePerPointAndResumesAnyCut) {
  sim::ExperimentConfig base = small_base();
  base.simulation.engine = sim::Engine::Batched;  // shared compiled trace
  par::SweepGrid grid;
  grid.rhos = {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95};
  grid.capacities = {Coulomb(1.5), Coulomb(3.0), Coulomb(4.5),
                     Coulomb(6.0), Coulomb(9.0), Coulomb(12.0)};
  const std::size_t n = grid.points(base).size();  // trio x 10 x 6 = 180
  // An FC-DPM point in round 0's first chunk, so that chunk commits
  // kCommitChunk - 1 records and the retries land in later rounds.
  const std::size_t poisoned = 2 * kCommitChunk + 5;
  ASSERT_LT(poisoned, n);
  // Conv and Asap at every rho but the first: each rho sleeps alike.
  const std::size_t twins =
      par::find_twins(base, grid.points(base),
                      hot::CompiledTrace(base.trace, base.device), poisoned)
          .count;
  ASSERT_EQ(twins, 2u * 9u * 6u);
  const std::size_t simulated = n - twins;  // round 0, poisoned included
  ASSERT_GT(simulated, kCommitChunk);

  ResilienceOptions options;
  options.contract.max_retries = 2;
  options.contract.inject_fail_index = poisoned;
  // Round 0 commits each of its chunks; round 1's lone retry is not
  // final, journals nothing and so makes no fsync; round 2 commits the
  // quarantine record; the served twins commit once.
  const std::size_t commits =
      (simulated + kCommitChunk - 1) / kCommitChunk + 1 + 1;
  ASSERT_EQ(commits, 4u);

  std::vector<ResilientSweepResult> sweeps;
  std::vector<std::string> paths;
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    const std::string path =
        temp_path("group_commit_j" + std::to_string(jobs) + ".fcj");
    options.jobs = jobs;
    options.journal_path = path;
    ResilientSweepResult sweep = run_resilient_sweep(base, grid, options);
    EXPECT_EQ(sweep.resilience.rounds, 3u);
    EXPECT_EQ(sweep.resilience.retries, 2u);
    EXPECT_EQ(sweep.resilience.quarantined, 1u);
    EXPECT_EQ(sweep.stats.twins, twins);
    EXPECT_EQ(sweep.resilience.journal_commits, commits);

    EXPECT_EQ(record_lines(path), n);
    const JournalLoad load = load_journal(path);
    ASSERT_EQ(load.records.size(), n);
    std::vector<bool> seen(n, false);
    for (const JournalRecord& record : load.records) {
      ASSERT_LT(record.index, n);
      EXPECT_FALSE(seen[record.index]) << "index " << record.index;
      seen[record.index] = true;
    }
    sweeps.push_back(std::move(sweep));
    paths.push_back(path);
  }
  for (std::size_t k = 0; k < n; ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    ASSERT_EQ(sweeps[1].points[k].ok, sweeps[0].points[k].ok);
    if (sweeps[0].points[k].ok) {
      expect_same_result(sweeps[1].points[k].result.result,
                         sweeps[0].points[k].result.result);
    }
  }

  // Jobs 1: round 0 without the failure, the quarantine record from
  // round 2, then the served twins.
  const JournalLoad serial = load_journal(paths[0]);
  const std::vector<std::size_t> record_order =
      serial_record_order(base, grid, poisoned, {poisoned});
  ASSERT_EQ(record_order.size(), n);
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(serial.records[r].index, record_order[r]) << "record " << r;
  }

  // Cut the jobs-1 journal at the first commit, mid-way through the
  // second chunk and among the served twins, each with a torn half
  // record after the cut.
  for (const std::size_t kept :
       {kCommitChunk - 1, kCommitChunk + 3, simulated + 37}) {
    SCOPED_TRACE(testing::Message() << "kept=" << kept);
    const std::string cut = temp_path("group_commit_cut.fcj");
    write_file(cut, read_file(paths[0]));
    cut_journal(cut, static_cast<int>(kept));

    ResilienceOptions resume = options;
    resume.jobs = 4;
    resume.journal_path = cut;
    resume.resume = true;
    resume.spot_checks = 3;
    const ResilientSweepResult resumed =
        run_resilient_sweep(base, grid, resume);
    EXPECT_TRUE(resumed.resilience.torn_tail_recovered);
    EXPECT_EQ(resumed.resilience.replayed, kept);
    EXPECT_EQ(resumed.resilience.spot_checks, 3u);
    EXPECT_EQ(record_lines(cut), n);
    std::vector<bool> kept_record(n, false);
    for (std::size_t r = 0; r < kept; ++r) {
      kept_record[record_order[r]] = true;
    }
    for (std::size_t k = 0; k < n; ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      EXPECT_EQ(resumed.points[k].replayed, kept_record[k]);
      EXPECT_EQ(resumed.points[k].attempts, sweeps[0].points[k].attempts);
      ASSERT_EQ(resumed.points[k].ok, sweeps[0].points[k].ok);
      if (resumed.points[k].ok) {
        expect_same_result(resumed.points[k].result.result,
                           sweeps[0].points[k].result.result);
      } else {
        EXPECT_EQ(resumed.points[k].error.kind,
                  PointErrorKind::solver_diverged);
      }
    }
    std::remove(cut.c_str());
  }
  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
}

// A journaled batched sweep plans its tasks per commit chunk: every
// point matches the unjournaled batched sweep bitwise,
// merge sets form, each batched lane is judged by the per-point
// contract checks (a lane over the unserved budget quarantines with the
// per-point path's error), the injected failure stays per point, jobs 1
// journals in batch order (the simulated records by round, then the
// served twins), the commit count is exact, and a cut journal resumes
// to the same rows.
TEST(ResilientSweepTest, BatchedJournalMatchesThePlainBatchedSweep) {
  sim::ExperimentConfig base = small_base();
  base.simulation.engine = sim::Engine::Batched;
  base.initial_storage = Coulomb(1.0);  // sub-capacity: lanes merge
  // A fuel cell capped below the active load runs the buffer dry, so
  // fault-free points leave charge unserved.
  base.efficiency = power::LinearEfficiencyModel(Volt(12.0), 37.5, 0.45,
                                                 0.13, Ampere(0.1),
                                                 Ampere(0.9));
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Asap,
                   sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  grid.rhos = {0.2, 0.4, 0.6, 0.8};
  grid.capacities = {Coulomb(1.5),  Coulomb(2.0),  Coulomb(3.0),
                     Coulomb(4.0),  Coulomb(6.0),  Coulomb(8.0),
                     Coulomb(12.0), Coulomb(16.0), Coulomb(24.0),
                     Coulomb(32.0), Coulomb(48.0), Coulomb(96.0)};
  const std::vector<par::SweepPoint> points = grid.points(base);
  const std::size_t n = points.size();  // 4 x 4 x 12 = 192

  par::SweepOptions plain_options;
  plain_options.jobs = 1;
  const par::SweepResult plain = par::run_sweep(base, grid, plain_options);
  ASSERT_GT(plain.stats.batch_merge_sets, 0u);

  ResilienceOptions options;
  options.contract.max_retries = 1;
  options.contract.inject_fail_index = 37;
  // Budget between the two largest unserved charges: exactly one lane,
  // in a batched task, exceeds it.
  std::vector<std::pair<double, std::size_t>> unserved;
  for (std::size_t k = 0; k < n; ++k) {
    if (k != options.contract.inject_fail_index) {
      unserved.emplace_back(plain.points[k].result.totals.unserved.value(),
                            k);
    }
  }
  std::sort(unserved.rbegin(), unserved.rend());
  ASSERT_GT(unserved[0].first, unserved[1].first);
  options.contract.unserved_budget_as =
      0.5 * (unserved[0].first + unserved[1].first);
  const std::size_t over_budget = unserved[0].second;
  const std::vector<std::size_t> failing = {
      std::min(over_budget, options.contract.inject_fail_index),
      std::max(over_budget, options.contract.inject_fail_index)};
  const par::SweepTwins twins =
      par::find_twins(base, points, hot::CompiledTrace(base.trace, base.device),
                      options.contract.inject_fail_index);
  // Round 0 simulates two chunks. Each failing point is quarantined in
  // the round of its retry, and the served twins commit once.
  const std::size_t simulated = n - twins.count;
  ASSERT_GT(simulated, kCommitChunk);
  ASSERT_LE(simulated, 2 * kCommitChunk);
  std::vector<std::size_t> retry_rounds;
  for (const std::size_t k : failing) {
    retry_rounds.push_back(backoff_delay_rounds(
        options.contract.backoff_seed, k, 1,
        options.contract.max_backoff_exponent));
  }
  const bool one_retry_round = retry_rounds[0] == retry_rounds[1];
  const std::size_t commits = 2 + (one_retry_round ? 1 : 2) + 1;

  std::string serial_path;
  std::vector<ResilientSweepResult> sweeps;
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    const std::string path =
        temp_path("batched_j" + std::to_string(jobs) + ".fcj");
    options.jobs = jobs;
    options.journal_path = path;
    ResilientSweepResult sweep = run_resilient_sweep(base, grid, options);
    EXPECT_GT(sweep.stats.points_batched, 0u);
    EXPECT_GT(sweep.stats.batch_merge_sets, 0u);
    EXPECT_EQ(sweep.resilience.quarantined, 2u);
    EXPECT_EQ(sweep.resilience.rounds, one_retry_round ? 2u : 3u);
    EXPECT_EQ(sweep.stats.twins, twins.count);
    EXPECT_EQ(sweep.resilience.journal_commits, commits);
    ASSERT_EQ(sweep.points.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      const ResilientPoint& point = sweep.points[k];
      if (k == failing[0] || k == failing[1]) {
        // The per-point path's verdict, kind and detail alike.
        const PointOutcome expected = execute_point(
            base, points[k], k, grid.storm_faults, nullptr,
            options.contract, nullptr);
        ASSERT_FALSE(expected.ok);
        ASSERT_FALSE(point.ok);
        EXPECT_EQ(point.attempts, 2u);
        EXPECT_EQ(point.error.kind, expected.error.kind);
        EXPECT_EQ(point.error.detail, expected.error.detail);
        continue;
      }
      ASSERT_TRUE(point.ok);
      EXPECT_EQ(point.attempts, 1u);
      // Splitting the injected failure out of its task leaves the point
      // before it alone, and a lone point is a single run: the hot lane.
      // A twin carries the engine of the canonical it copies.
      const std::size_t ran = twins.is_twin(k) ? twins.canonical[k] : k;
      EXPECT_EQ(point.result.engine,
                ran + 1 == options.contract.inject_fail_index
                    ? sim::Engine::Hot
                    : sim::Engine::Batched);
      EXPECT_TRUE(sim::same_result(point.result.result,
                                   plain.points[k].result));
    }
    EXPECT_EQ(sweep.points[over_budget].error.kind,
              PointErrorKind::power_undeliverable);
    if (jobs == 1) {
      serial_path = path;
    }
    sweeps.push_back(std::move(sweep));
  }

  // Jobs 1: round 0 in batch order without the two failures, whose final
  // attempts come in later rounds (in grid order when they share one),
  // then the served twins.
  const JournalLoad serial = load_journal(serial_path);
  ASSERT_EQ(serial.records.size(), n);
  std::vector<std::size_t> order;
  for (const JournalRecord& record : serial.records) {
    order.push_back(record.index);
  }
  const std::vector<std::size_t> record_order = serial_record_order(
      base, grid, options.contract.inject_fail_index,
      one_retry_round || retry_rounds[0] < retry_rounds[1]
          ? failing
          : std::vector<std::size_t>{failing[1], failing[0]});
  EXPECT_EQ(order, record_order);

  // Cut mid-way through round 0's first chunk, with a torn half record.
  const std::string cut = temp_path("batched_cut.fcj");
  write_file(cut, read_file(serial_path));
  cut_journal(cut, 41);
  ResilienceOptions resume = options;
  resume.jobs = 4;
  resume.journal_path = cut;
  resume.resume = true;
  resume.spot_checks = 5;
  const ResilientSweepResult resumed = run_resilient_sweep(base, grid, resume);
  EXPECT_TRUE(resumed.resilience.torn_tail_recovered);
  EXPECT_EQ(resumed.resilience.replayed, 41u);
  EXPECT_EQ(resumed.resilience.spot_checks, 5u);
  for (std::size_t k = 0; k < n; ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    const ResilientPoint& want = sweeps[0].points[k];
    ASSERT_EQ(resumed.points[k].ok, want.ok);
    EXPECT_EQ(resumed.points[k].attempts, want.attempts);
    if (want.ok) {
      EXPECT_TRUE(sim::same_result(resumed.points[k].result.result,
                                   want.result.result));
    } else {
      EXPECT_EQ(resumed.points[k].error.kind, want.error.kind);
      EXPECT_EQ(resumed.points[k].error.detail, want.error.detail);
    }
  }
  std::remove(cut.c_str());
  std::remove(temp_path("batched_j1.fcj").c_str());
  std::remove(temp_path("batched_j4.fcj").c_str());
}

TEST(ResilientSweepTest, ResumeRejectsAForeignGridFingerprint) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.4, 0.6};
  const std::string path = temp_path("foreign.fcj");

  ResilienceOptions first;
  first.journal_path = path;
  (void)run_resilient_sweep(base, grid, first);

  par::SweepGrid other = grid;
  other.rhos.push_back(0.8);
  ResilienceOptions second;
  second.journal_path = path;
  second.resume = true;
  EXPECT_THROW((void)run_resilient_sweep(base, other, second), CsvError);
  std::remove(path.c_str());
}

// A journal record that checksums fine but carries a forged value is
// exposed only by the spot-check's re-simulation. One forgery per entry
// of the result field lists, on a base that fills every block.
TEST(ResilientSweepTest, SpotCheckCatchesATamperedJournal) {
  sim::ExperimentConfig base = small_base();
  base.cap.enabled = true;
  base.stacks.enabled = true;
  base.stacks.count = 3;
  base.audit.mode = audit::Mode::Sample;
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  const std::string path = temp_path("tampered.fcj");
  const std::vector<par::SweepPoint> points = grid.points(base);
  ASSERT_EQ(points.size(), 1u);

  const par::SweepPointResult honest =
      par::run_point(base, points[0], grid.storm_faults, nullptr);
  ASSERT_TRUE(honest.result.cap.has_value());
  ASSERT_TRUE(honest.result.stacks.has_value());
  ASSERT_TRUE(honest.result.audit.has_value());
  // Appending re-frames the record: a valid length and checksum.
  const auto write_journal = [&](const sim::SimulationResult& result) {
    JournalRecord record;
    record.index = 0;
    record.point = points[0];
    record.result = result;
    Journal journal = Journal::create(
        path, {base.trace.name(), points.size(),
               grid_fingerprint(base, points, grid.storm_faults)});
    journal.append(record);
  };

  ResilienceOptions options;
  options.journal_path = path;
  options.resume = true;
  options.spot_checks = 1;
  write_journal(honest.result);
  EXPECT_EQ(run_resilient_sweep(base, grid, options).resilience.spot_checks,
            1u);

  std::size_t forgeries = 0;
  for (std::size_t k = 0;; ++k) {
    sim::SimulationResult forged = honest.result;
    const std::string key = forging::forge_entry(forged, k);
    if (key.empty()) {
      break;
    }
    SCOPED_TRACE(key);
    ++forgeries;
    write_journal(forged);
    const JournalLoad load = load_journal(path);
    ASSERT_EQ(load.records.size(), 1u);  // the forgery loads cleanly
    ASSERT_FALSE(load.torn_tail);
    try {
      (void)run_resilient_sweep(base, grid, options);
      ADD_FAILURE() << "forged " << key << " replayed unchallenged";
    } catch (const CsvError& error) {
      EXPECT_NE(std::string(error.what()).find("spot-check failed"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_GT(forgeries, 0u);

  // With spot-checks disabled a forged journal replays unchallenged —
  // the check is exactly what stands between the two behaviours.
  sim::SimulationResult forged = honest.result;
  forged.totals.fuel = Coulomb(honest.result.totals.fuel.value() + 1.0);
  write_journal(forged);
  options.spot_checks = 0;
  const ResilientSweepResult blind =
      run_resilient_sweep(base, grid, options);
  EXPECT_EQ(blind.points[0].result.result.totals.fuel.value(),
            honest.result.totals.fuel.value() + 1.0);
  std::remove(path.c_str());
}

TEST(ResilientSweepTest, PublishesResilienceMetrics) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};

  obs::MetricsRegistry metrics;
  obs::Context obs(nullptr, &metrics, nullptr);
  ResilienceOptions options;
  options.observer = &obs;
  options.contract.max_retries = 2;
  options.contract.inject_fail_index = 0;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);

  EXPECT_EQ(metrics.gauge("resilience.scheduled").last(), 3.0);
  EXPECT_EQ(metrics.gauge("resilience.retries").last(), 2.0);
  EXPECT_EQ(metrics.gauge("resilience.quarantined").last(), 1.0);
  EXPECT_EQ(metrics.gauge("resilience.replayed").last(), 0.0);
  EXPECT_EQ(metrics.gauge("resilience.watchdog_stalls").last(), 0.0);
  EXPECT_EQ(metrics.gauge("resilience.rounds").last(),
            static_cast<double>(sweep.resilience.rounds));
  EXPECT_EQ(metrics.gauge("resilience.journal_commits").last(), 0.0)
      << "no journal, no commits";

  // The whole par.sweep.* and resilience.* gauge set of two more sweeps,
  // values included; the timing gauges are checked for presence only.
  const auto sweep_gauges = [](const sim::ExperimentConfig& config,
                               const par::SweepGrid& sweep_grid,
                               ResilienceOptions run) {
    obs::MetricsRegistry registry;
    obs::Context context(nullptr, &registry, nullptr);
    run.observer = &context;
    (void)run_resilient_sweep(config, sweep_grid, run);
    std::map<std::string, double> gauges;
    for (const obs::MetricRow& row : registry.rows()) {
      if (row.type == "gauge" && (row.name.starts_with("par.sweep.") ||
                                  row.name.starts_with("resilience."))) {
        gauges[row.name] = row.value;
      }
    }
    for (const char* timing : {"par.sweep.wall_s", "par.sweep.points_per_s"}) {
      EXPECT_EQ(gauges.erase(timing), 1u) << timing;
    }
    return gauges;
  };

  // A journaled batched sweep whose capacity-only lanes merge; Oracle
  // serves its rho twins.
  sim::ExperimentConfig batched = base;
  batched.simulation.engine = sim::Engine::Batched;
  batched.initial_storage = Coulomb(1.0);
  par::SweepGrid merge_grid;
  merge_grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  merge_grid.rhos = {0.3, 0.5};
  merge_grid.capacities = {Coulomb(3.0), Coulomb(6.0), Coulomb(12.0)};
  ResilienceOptions journaled;
  journaled.journal_path = temp_path("gauges.fcj");
  std::remove(journaled.journal_path.c_str());
  EXPECT_EQ(sweep_gauges(batched, merge_grid, journaled),
            (std::map<std::string, double>{
                {"par.sweep.points", 12.0},
                {"par.sweep.jobs", 1.0},
                {"par.sweep.twins", 3.0},
                {"par.sweep.points_batched", 12.0},
                {"par.sweep.batch_merge_sets", 3.0},
                {"par.sweep.batch_merged_lane_slots", 18.0},
                {"par.sweep.batch_splits", 5.0},
                {"par.sweep.batch_journal_hits", 0.0},
                {"resilience.scheduled", 12.0},
                {"resilience.replayed", 0.0},
                {"resilience.retries", 0.0},
                {"resilience.quarantined", 0.0},
                {"resilience.capped_ok", 0.0},
                {"resilience.rounds", 1.0},
                {"resilience.spot_checks", 0.0},
                {"resilience.watchdog_stalls", 0.0},
                {"resilience.torn_bytes_dropped", 0.0},
                {"resilience.journal_commits", 2.0}}));
  std::remove(journaled.journal_path.c_str());

  // A plain hot sweep that serves rho twins and capacity twins: no batch
  // gauges.
  sim::ExperimentConfig hot = base;
  hot.simulation.engine = sim::Engine::Hot;
  par::SweepGrid twin_grid;
  twin_grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  twin_grid.rhos = {0.3, 0.5, 0.7};
  twin_grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  ResilienceOptions plain;
  plain.contract.max_retries = 0;
  plain.jobs = 2;
  EXPECT_EQ(sweep_gauges(hot, twin_grid, plain),
            (std::map<std::string, double>{
                {"par.sweep.points", 12.0},
                {"par.sweep.jobs", 2.0},
                {"par.sweep.twins", 4.0},
                {"resilience.scheduled", 12.0},
                {"resilience.replayed", 0.0},
                {"resilience.retries", 0.0},
                {"resilience.quarantined", 0.0},
                {"resilience.capped_ok", 0.0},
                {"resilience.rounds", 1.0},
                {"resilience.spot_checks", 0.0},
                {"resilience.watchdog_stalls", 0.0},
                {"resilience.torn_bytes_dropped", 0.0},
                {"resilience.journal_commits", 0.0}}));
}

TEST(ResilientSweepTest, DeadlineContractQuarantinesEveryPointTyped) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm};
  ResilienceOptions options;
  options.contract.max_retries = 1;
  options.contract.point_deadline_slots = 2;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.resilience.quarantined, 2u);
  for (const ResilientPoint& point : sweep.points) {
    ASSERT_FALSE(point.ok);
    EXPECT_EQ(point.error.kind, PointErrorKind::deadline_exceeded);
    EXPECT_EQ(point.attempts, 2u);
  }
}

TEST(ResilientSweepTest, WatchdogEnabledSweepStaysBitIdentical) {
  // Healthy workers beat every slot, so an armed watchdog must be
  // invisible in the results.
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.3, 0.7};

  ResilienceOptions plain;
  const ResilientSweepResult reference =
      run_resilient_sweep(base, grid, plain);

  ResilienceOptions watched;
  watched.jobs = 2;
  watched.watchdog_stall = std::chrono::milliseconds(2000);
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, watched);

  EXPECT_EQ(sweep.resilience.watchdog_stalls, 0u);
  ASSERT_EQ(sweep.points.size(), reference.points.size());
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    ASSERT_TRUE(sweep.points[k].ok);
    expect_same_result(sweep.points[k].result.result,
                       reference.points[k].result.result);
  }
}

TEST(ResilientSweepTest, TelemetryCountsRetriesAndQuarantines) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5, 0.7};

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(2);
  tconfig.total_points = 3;
  tconfig.record_lanes = true;
  telemetry::SweepTelemetry tel(tconfig);

  ResilienceOptions options;
  options.jobs = 2;
  options.contract.max_retries = 2;
  options.contract.inject_fail_index = 0;
  options.telemetry = &tel;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, options);

  const telemetry::SweepSnapshot snap = tel.snapshot();
  // Point 0: 3 attempts — two retried, the final one quarantined. The
  // other two points complete first try.
  EXPECT_EQ(snap.done, 2u);
  EXPECT_EQ(snap.retried, 2u);
  EXPECT_EQ(snap.quarantined, 1u);
  EXPECT_EQ(snap.settled(), 3u);
  EXPECT_EQ(sweep.resilience.retries, 2u);
  EXPECT_GT(snap.heartbeats, 0u);
  // Only successful attempts contribute simulated slots/dispatches.
  EXPECT_EQ(snap.hot_dispatches + snap.reference_dispatches +
                snap.batched_dispatches,
            2u);
  EXPECT_GT(snap.slots, 0u);

  // Every attempt — including failed ones — leaves a lane record.
  ASSERT_NE(tel.lanes(), nullptr);
  std::size_t lanes = 0;
  std::size_t quarantined_lanes = 0;
  for (std::size_t w = 0; w < tel.lanes()->workers(); ++w) {
    for (const telemetry::PointLane& lane : tel.lanes()->lane(w)) {
      ++lanes;
      quarantined_lanes += lane.quarantined;
    }
  }
  EXPECT_EQ(lanes, 5u);  // 2 ok + 3 attempts of the poisoned point
  EXPECT_EQ(quarantined_lanes, 1u);
}

TEST(ResilientSweepTest, TelemetryAttachedRunStaysBitIdentical) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.rhos = {0.3, 0.7};

  const ResilientSweepResult reference =
      run_resilient_sweep(base, grid, ResilienceOptions{});

  telemetry::TelemetryConfig tconfig;
  tconfig.workers = par::WorkerPool::resolve(2);
  tconfig.total_points = reference.points.size();
  telemetry::SweepTelemetry tel(tconfig);
  ResilienceOptions observed;
  observed.jobs = 2;
  observed.telemetry = &tel;
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, observed);

  ASSERT_EQ(sweep.points.size(), reference.points.size());
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    expect_same_result(sweep.points[k].result.result,
                       reference.points[k].result.result);
  }
  EXPECT_EQ(tel.snapshot().done, reference.points.size());
}

/// The loop sim::choose_engine picks for `point` under `base` when the
/// point runs alone, built the way run_point builds the run: the point's
/// source and, for a nonzero storm seed, its injector. A lone point is a
/// single run, so a Batched request asks for the hot lane.
sim::Engine chosen_engine(const sim::ExperimentConfig& base,
                          const par::SweepPoint& point,
                          std::size_t storm_faults) {
  sim::ExperimentConfig config = base;
  config.storage_capacity = point.capacity;
  if (point.stacks > 0) {
    config.stacks.enabled = true;
    config.stacks.count = point.stacks;
    config.stacks.distribution = point.distribution;
  }
  const power::HybridPowerSource hybrid = sim::make_hybrid(config);
  sim::SimulationOptions options = config.simulation;
  std::optional<fault::FaultInjector> injector;
  if (point.storm_seed != 0) {
    injector.emplace(fault::FaultSchedule::random_storm(
        point.storm_seed, storm_faults,
        config.trace.stats().total_duration()));
    options.faults = &*injector;
  }
  const sim::Engine requested = base.simulation.engine == sim::Engine::Batched
                                    ? sim::Engine::Hot
                                    : base.simulation.engine;
  return sim::choose_engine(requested, hybrid, options).engine;
}

TEST(ResilientSweepTest, BothRunnersReportTheEngineChooseEnginePicks) {
  const sim::ExperimentConfig reference_base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Asap};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  grid.storm_seeds = {0, 7};
  grid.stack_counts = {0, 3};
  grid.storm_faults = 6;
  const par::SweepResult reference = par::run_sweep(reference_base, grid);

  for (const sim::Engine engine : {sim::Engine::Hot, sim::Engine::Batched}) {
    sim::ExperimentConfig base = reference_base;
    base.simulation.engine = engine;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   ", jobs " + std::to_string(jobs));
      par::SweepOptions plain_options;
      plain_options.jobs = jobs;
      const par::SweepResult plain = par::run_sweep(base, grid, plain_options);
      ResilienceOptions resilient_options;
      resilient_options.jobs = jobs;
      const ResilientSweepResult resilient =
          run_resilient_sweep(base, grid, resilient_options);
      ASSERT_EQ(plain.points.size(), reference.points.size());
      ASSERT_EQ(resilient.points.size(), reference.points.size());

      std::size_t landed[3] = {0, 0, 0};
      for (std::size_t k = 0; k < reference.points.size(); ++k) {
        SCOPED_TRACE("point " + std::to_string(k));
        const sim::Engine want =
            chosen_engine(base, plain.points[k].point, grid.storm_faults);
        ++landed[static_cast<int>(want)];
        // The runner plans storm and stack points last, so the plain
        // points of each policy form one two-point batch task.
        const sim::Engine planned =
            engine == sim::Engine::Batched && want == sim::Engine::Hot
                ? sim::Engine::Batched
                : want;
        EXPECT_EQ(plain.points[k].engine, planned);
        EXPECT_TRUE(sim::same_result(plain.points[k].result,
                                     reference.points[k].result));
        ASSERT_TRUE(resilient.points[k].ok);
        EXPECT_EQ(resilient.points[k].result.engine, planned);
        EXPECT_TRUE(sim::same_result(resilient.points[k].result.result,
                                     reference.points[k].result));
      }
      // Storms and stacks land on the reference loop; a plain point
      // run alone would take the hot lane.
      EXPECT_EQ(landed[static_cast<int>(sim::Engine::Reference)], 12u);
      EXPECT_EQ(landed[static_cast<int>(sim::Engine::Hot)], 4u);
    }
  }
}

// A batched sweep runs the batch loop in multi-point tasks only; every
// one-point task is a single run, which takes the hot lane. Seventeen
// capacities at one rho plan into a kBatchMax task plus a lone point.
// In a grid-order plan a storm axis cuts every policy run, so each
// plain point of that grid would run alone; the runner plans storm
// points last and batches the plain points of each policy. A point
// deadline runs every point alone.
TEST(ResilientSweepTest, LonePointsOfABatchedSweepTakeTheHotLane) {
  sim::ExperimentConfig base = small_base();
  base.initial_storage = Coulomb(1.0);  // sub-capacity: lanes merge
  par::SweepGrid capped;
  capped.policies = {sim::PolicyKind::FcDpm};
  capped.rhos = {0.3, 0.5};
  for (std::size_t c = 0; c <= par::kBatchMax; ++c) {
    capped.capacities.push_back(Coulomb(2.0 + static_cast<double>(c)));
  }
  par::SweepGrid storm;
  storm.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  storm.rhos = {0.5};
  storm.capacities = {Coulomb(3.0), Coulomb(6.0)};
  storm.storm_seeds = {0, 7};
  storm.storm_faults = 6;

  sim::ExperimentConfig batched = base;
  batched.simulation.engine = sim::Engine::Batched;
  for (const par::SweepGrid* grid : {&capped, &storm}) {
    const bool is_storm = grid == &storm;
    SCOPED_TRACE(is_storm ? "storm grid" : "capped grid");
    const par::SweepResult reference = par::run_sweep(base, *grid);
    const std::vector<par::SweepPoint> points = grid->points(batched);
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Batched inside a multi-point task, else where a lone run lands.
    std::vector<sim::Engine> want(points.size());
    std::size_t landed[3] = {0, 0, 0};
    for (const std::span<const std::size_t> task :
         par::plan_batches(points, order)) {
      for (const std::size_t k : task) {
        want[k] = task.size() > 1
                      ? sim::Engine::Batched
                      : chosen_engine(batched, points[k], grid->storm_faults);
        ++landed[static_cast<int>(want[k])];
      }
    }
    EXPECT_EQ(landed[static_cast<int>(sim::Engine::Hot)], is_storm ? 4u : 2u);
    EXPECT_EQ(landed[static_cast<int>(sim::Engine::Batched)],
              is_storm ? 0u : 2 * par::kBatchMax);
    EXPECT_EQ(landed[static_cast<int>(sim::Engine::Reference)],
              is_storm ? 4u : 0u);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      par::SweepOptions plain_options;
      plain_options.jobs = jobs;
      const par::SweepResult plain =
          par::run_sweep(batched, *grid, plain_options);
      ResilienceOptions resilient_options;
      resilient_options.jobs = jobs;
      const ResilientSweepResult resilient =
          run_resilient_sweep(batched, *grid, resilient_options);
      ResilienceOptions deadline_options = resilient_options;
      deadline_options.contract.point_deadline_slots = base.trace.size();
      const ResilientSweepResult per_point =
          run_resilient_sweep(batched, *grid, deadline_options);
      ASSERT_EQ(plain.points.size(), points.size());
      ASSERT_EQ(resilient.points.size(), points.size());
      ASSERT_EQ(per_point.points.size(), points.size());

      for (std::size_t k = 0; k < points.size(); ++k) {
        SCOPED_TRACE("point " + std::to_string(k));
        const sim::SimulationResult& ref = reference.points[k].result;
        const sim::Engine planned = is_storm && points[k].storm_seed == 0
                                        ? sim::Engine::Batched
                                        : want[k];
        EXPECT_EQ(plain.points[k].engine, planned);
        EXPECT_TRUE(sim::same_result(plain.points[k].result, ref));
        ASSERT_TRUE(resilient.points[k].ok);
        EXPECT_EQ(resilient.points[k].result.engine, planned);
        EXPECT_TRUE(sim::same_result(resilient.points[k].result.result, ref));
        ASSERT_TRUE(per_point.points[k].ok);
        EXPECT_EQ(per_point.points[k].result.engine,
                  chosen_engine(batched, points[k], grid->storm_faults));
        EXPECT_TRUE(sim::same_result(per_point.points[k].result.result, ref));
      }
    }
  }
}

// A journal record is filed under its grid index with the point's full
// coordinates. One whose stack count or distribution differs from the
// grid point at that index is foreign, even when policy, rho, capacity
// and storm seed agree, and must not resume (spot-checks off, so only
// the coordinate check stands in the way).
TEST(ResilientSweepTest, ResumeRejectsARecordOfAnotherStackPoint) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.stack_counts = {2};
  grid.distributions = {stacks::Distribution::Proportional,
                        stacks::Distribution::Health};
  const std::vector<par::SweepPoint> points = grid.points(base);
  ASSERT_EQ(points.size(), 2u);
  const std::string path = temp_path("stack_point.fcj");
  const auto write_journal = [&](const par::SweepPoint& filed) {
    JournalRecord record;
    record.index = 0;
    record.point = filed;
    record.result =
        par::run_point(base, filed, grid.storm_faults, nullptr).result;
    Journal journal = Journal::create(
        path, {base.trace.name(), points.size(),
               grid_fingerprint(base, points, grid.storm_faults)});
    journal.append(record);
  };

  ResilienceOptions options;
  options.journal_path = path;
  options.resume = true;
  options.spot_checks = 0;
  write_journal(points[0]);
  EXPECT_EQ(resume_error(base, grid, options), "");

  par::SweepPoint more_stacks = points[0];
  more_stacks.stacks = 3;
  for (const par::SweepPoint& filed : {points[1], more_stacks}) {
    write_journal(filed);
    EXPECT_THROW((void)run_resilient_sweep(base, grid, options), CsvError);
    EXPECT_NE(resume_error(base, grid, options)
                  .find("journal record does not match grid point 0"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

// Every sweep runs through one runner. Across engine x storm axis x
// stack axis x --jobs x journal, from a shared sub-capacity charge so
// lanes merge: every point matches the reference sweep at --jobs 1
// bitwise, par::run_sweep and a journaled run land each point on the
// same engine, and with the journal off par::run_sweep and
// run_resilient_sweep batch alike.
TEST(ResilientSweepTest, OneRunnerAcrossFeatures) {
  sim::ExperimentConfig base = small_base();
  base.initial_storage = Coulomb(1.0);  // sub-capacity: lanes merge
  const std::string path = temp_path("one_runner.fcj");
  using Seeds = std::vector<std::uint64_t>;
  using Counts = std::vector<std::size_t>;
  for (const Seeds& storms : {Seeds{}, Seeds{0, 7}}) {
    for (const Counts& stacks : {Counts{}, Counts{0, 2}}) {
      par::SweepGrid grid;
      grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
      grid.rhos = {0.3};
      grid.capacities = {Coulomb(3.0), Coulomb(6.0), Coulomb(9.0)};
      grid.storm_seeds = storms;
      grid.storm_faults = 6;
      grid.stack_counts = stacks;
      const par::SweepResult reference = par::run_sweep(base, grid);
      const std::size_t n = reference.points.size();

      for (const sim::Engine engine :
           {sim::Engine::Reference, sim::Engine::Hot, sim::Engine::Batched}) {
        sim::ExperimentConfig config = base;
        config.simulation.engine = engine;
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
          SCOPED_TRACE(testing::Message()
                       << "storms " << storms.size() << ", stacks "
                       << stacks.size() << ", engine "
                       << static_cast<int>(engine) << ", jobs " << jobs);
          par::SweepOptions plain_options;
          plain_options.jobs = jobs;
          const par::SweepResult plain =
              par::run_sweep(config, grid, plain_options);
          ResilienceOptions options;
          options.jobs = jobs;
          const ResilientSweepResult unjournaled =
              run_resilient_sweep(config, grid, options);
          std::remove(path.c_str());
          options.journal_path = path;
          const ResilientSweepResult journaled =
              run_resilient_sweep(config, grid, options);
          EXPECT_EQ(load_journal(path).records.size(), n);

          ASSERT_EQ(plain.points.size(), n);
          ASSERT_EQ(unjournaled.points.size(), n);
          ASSERT_EQ(journaled.points.size(), n);
          for (std::size_t k = 0; k < n; ++k) {
            SCOPED_TRACE(testing::Message() << "point " << k);
            const sim::SimulationResult& want = reference.points[k].result;
            ASSERT_TRUE(unjournaled.points[k].ok);
            ASSERT_TRUE(journaled.points[k].ok);
            EXPECT_TRUE(sim::same_result(plain.points[k].result, want));
            EXPECT_TRUE(
                sim::same_result(unjournaled.points[k].result.result, want));
            EXPECT_TRUE(
                sim::same_result(journaled.points[k].result.result, want));
            EXPECT_EQ(plain.points[k].engine,
                      journaled.points[k].result.engine);
          }
          const par::SweepRunStats& a = plain.stats;
          const par::SweepRunStats& b = unjournaled.stats;
          EXPECT_EQ(a.points_batched, b.points_batched);
          EXPECT_EQ(a.batch_merge_sets, b.batch_merge_sets);
          EXPECT_EQ(a.batch_merged_lane_slots, b.batch_merged_lane_slots);
          EXPECT_EQ(a.batch_splits, b.batch_splits);
          if (engine == sim::Engine::Batched) {
            // The fault-free single-stack points of each policy batch.
            EXPECT_GT(journaled.stats.points_batched, 0u);
            EXPECT_GT(journaled.stats.batch_merge_sets, 0u);
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

// Without a journal or retries a failed point fails the sweep:
// par::run_sweep throws naming the lowest failed grid index, its error
// kind and detail. A zero capacity breaks the storage precondition.
TEST(ResilientSweepTest, PlainSweepThrowsNamingTheFailedPoint) {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.5};
  grid.capacities = {Coulomb(6.0), Coulomb(0.0), Coulomb(3.0), Coulomb(0.0)};
  for (const sim::Engine engine :
       {sim::Engine::Reference, sim::Engine::Hot, sim::Engine::Batched}) {
    sim::ExperimentConfig base = small_base();
    base.simulation.engine = engine;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "engine " << static_cast<int>(engine)
                                      << ", jobs " << jobs);
      par::SweepOptions options;
      options.jobs = jobs;
      std::string message;
      try {
        (void)par::run_sweep(base, grid, options);
      } catch (const std::runtime_error& error) {
        message = error.what();
      }
      EXPECT_EQ(message.rfind("sweep point 1 failed: contract_violation: ", 0),
                0u)
          << message;
    }
  }
}

// --- Twins -----------------------------------------------------------------

/// The grid of the twin tests: every policy, 19 rho, two capacities.
/// Conv comes first, so grid index 2 * r + c is Conv at rho r and
/// capacity c.
par::SweepGrid twin_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Asap,
                   sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle};
  for (int k = 1; k <= 19; ++k) {
    grid.rhos.push_back(0.05 * k);
  }
  grid.capacities = {Coulomb(4.0), Coulomb(12.0)};
  return grid;
}

/// The sleep decision of every slot at `rho`, stepped through the
/// vector plan_idle path of the reference loop.
std::vector<bool> decisions_at(const sim::ExperimentConfig& base,
                               double rho) {
  sim::ExperimentConfig config = base;
  config.rho = rho;
  dpm::PredictiveDpmPolicy dpm_policy = sim::make_dpm_policy(config);
  std::vector<bool> slept;
  for (const wl::TaskSlot& slot : base.trace.slots()) {
    slept.push_back(dpm_policy.plan_idle(slot.idle).slept);
    dpm_policy.observe_idle(slot.idle);
  }
  return slept;
}

/// Which points of a fault-free grid the DPM classes make twins: a
/// policy that ignores the prediction, at a rho whose decisions an
/// earlier rho of the axis already made.
std::vector<bool> predicted_twins(const sim::ExperimentConfig& base,
                                  const par::SweepGrid& grid,
                                  std::size_t* classes = nullptr) {
  std::vector<std::vector<bool>> seen;
  std::vector<bool> repeated;
  for (const double rho : grid.rhos) {
    std::vector<bool> slept = decisions_at(base, rho);
    repeated.push_back(std::find(seen.begin(), seen.end(), slept) !=
                       seen.end());
    if (!repeated.back()) {
      seen.push_back(std::move(slept));
    }
  }
  if (classes != nullptr) {
    *classes = seen.size();
  }
  std::vector<bool> twin;
  for (const par::SweepPoint& point : grid.points(base)) {
    const auto r = static_cast<std::size_t>(
        std::find(grid.rhos.begin(), grid.rhos.end(), point.rho) -
        grid.rhos.begin());
    twin.push_back(!sim::reads_idle_prediction(point.policy) && repeated[r]);
  }
  return twin;
}

std::size_t count_true(const std::vector<bool>& flags) {
  return static_cast<std::size_t>(
      std::count(flags.begin(), flags.end(), true));
}

void expect_same_accuracy(const dpm::PredictionAccuracy& a,
                          const dpm::PredictionAccuracy& b) {
  EXPECT_EQ(a.total(), b.total());
  EXPECT_EQ(a.false_sleeps(), b.false_sleeps());
  EXPECT_EQ(a.missed_sleeps(), b.missed_sleeps());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_absolute_error()),
            std::bit_cast<std::uint64_t>(b.mean_absolute_error()));
}

/// Every point of `grid` run alone through par::run_point.
std::vector<par::SweepPointResult> run_alone(
    const sim::ExperimentConfig& base, const par::SweepGrid& grid) {
  std::vector<par::SweepPointResult> alone;
  for (const par::SweepPoint& point : grid.points(base)) {
    alone.push_back(par::run_point(base, point, grid.storm_faults, nullptr));
  }
  return alone;
}

/// Point k of `sweep` is ok and bit-identical to its own run; a point
/// that was simulated or served in this run also has its own rho's
/// predictor tally (a replayed point has none: it is not journaled).
void expect_matches_alone(const ResilientSweepResult& sweep,
                          const std::vector<par::SweepPointResult>& alone) {
  ASSERT_EQ(sweep.points.size(), alone.size());
  for (std::size_t k = 0; k < alone.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    const ResilientPoint& point = sweep.points[k];
    ASSERT_TRUE(point.ok);
    EXPECT_EQ(point.attempts, 1u);
    EXPECT_TRUE(sim::same_result(point.result.result, alone[k].result));
    if (!point.replayed) {
      ASSERT_TRUE(point.result.result.idle_accuracy.has_value());
      expect_same_accuracy(*point.result.result.idle_accuracy,
                           *alone[k].result.idle_accuracy);
    }
  }
}

// Twin serving against each point's own run over the feature
// cross-product: the camcorder trace, where every rho sleeps alike, and
// the experiment-2 synthetic trace, where the 19 rho fall into at least
// 12 decision classes; hot and batched; one and four jobs; no journal,
// a full journal, and a journal cut mid-chunk with a torn tail, then
// resumed; the cap governor off and on; audit sampling throughout.
TEST(SweepTwinsTest, EveryPointMatchesItsOwnRunAcrossFeatures) {
  const std::string path = temp_path("twins.fcj");
  const par::SweepGrid grid = twin_grid();
  for (const bool synthetic : {false, true}) {
    sim::ExperimentConfig trace_base =
        synthetic ? sim::experiment2_config() : sim::experiment1_config();
    trace_base.audit.mode = audit::Mode::Sample;
    std::size_t classes = 0;
    const std::vector<bool> twin =
        predicted_twins(trace_base, grid, &classes);
    if (synthetic) {
      EXPECT_GE(classes, 12u);
    } else {
      EXPECT_EQ(classes, 1u);
    }
    ASSERT_GT(count_true(twin), 0u);
    const std::size_t n = twin.size();

    for (const bool cap : {false, true}) {
      for (const sim::Engine engine :
           {sim::Engine::Hot, sim::Engine::Batched}) {
        sim::ExperimentConfig base = trace_base;
        base.cap.enabled = cap;
        base.simulation.engine = engine;
        const std::vector<par::SweepPointResult> alone =
            run_alone(base, grid);
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
          for (const int journal : {0, 1, 2}) {  // none, full, cut + resume
            SCOPED_TRACE(testing::Message()
                         << (synthetic ? "synthetic" : "camcorder")
                         << ", cap " << cap << ", engine "
                         << static_cast<int>(engine) << ", jobs " << jobs
                         << ", journal " << journal);
            ResilienceOptions options;
            options.jobs = jobs;
            if (journal > 0) {
              std::remove(path.c_str());
              options.journal_path = path;
            }
            ResilientSweepResult sweep =
                run_resilient_sweep(base, grid, options);
            std::size_t want = count_true(twin);
            if (journal == 2) {
              cut_journal(path, static_cast<int>(kCommitChunk + 21));
              options.resume = true;
              options.spot_checks = 3;
              sweep = run_resilient_sweep(base, grid, options);
              ASSERT_EQ(sweep.resilience.replayed, kCommitChunk + 21);
              want = 0;
              for (std::size_t k = 0; k < n; ++k) {
                want += twin[k] && !sweep.points[k].replayed ? 1 : 0;
              }
            }
            EXPECT_EQ(sweep.stats.twins, want);
            expect_matches_alone(sweep, alone);
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

// FC-DPM reads the prediction, so it is never a twin: on the camcorder
// trace every rho makes the same decisions, yet FC-DPM's rows differ
// across rho. Serving them from one run would change answers, which
// the differential test above would catch.
TEST(SweepTwinsTest, FcDpmIsNeverATwinAndItsRowsDifferAcrossRho) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  const par::SweepGrid grid = twin_grid();
  const std::vector<par::SweepPoint> points = grid.points(base);
  const par::SweepTwins twins = par::find_twins(
      base, points, hot::CompiledTrace(base.trace, base.device),
      std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(twins.count, count_true(predicted_twins(base, grid)));
  const std::vector<par::SweepPointResult> alone = run_alone(base, grid);
  std::size_t fcdpm_rows = 0;
  std::size_t differing = 0;
  for (std::size_t k = 0; k < points.size(); ++k) {
    if (points[k].policy != sim::PolicyKind::FcDpm) {
      continue;
    }
    EXPECT_FALSE(twins.is_twin(k)) << "point " << k;
    ++fcdpm_rows;
    // Index k - 2 is the same capacity at the previous rho.
    if (points[k].rho != grid.rhos.front() &&
        !sim::same_result(alone[k].result, alone[k - 2].result)) {
      ++differing;
    }
  }
  EXPECT_EQ(fcdpm_rows, grid.rhos.size() * grid.capacities.size());
  EXPECT_GT(differing, 0u);
}

// The reference engine is the oracle: it simulates every point.
TEST(SweepTwinsTest, ReferenceSweepReportsNoTwins) {
  const sim::ExperimentConfig reference_base = sim::experiment1_config();
  const par::SweepGrid grid = twin_grid();
  for (const sim::Engine engine :
       {sim::Engine::Reference, sim::Engine::Hot}) {
    sim::ExperimentConfig base = reference_base;
    base.simulation.engine = engine;
    obs::MetricsRegistry metrics;
    obs::Context obs(nullptr, &metrics, nullptr);
    ResilienceOptions options;
    options.observer = &obs;
    const ResilientSweepResult sweep =
        run_resilient_sweep(base, grid, options);
    const std::size_t want = engine == sim::Engine::Reference
                                 ? 0
                                 : count_true(predicted_twins(base, grid));
    EXPECT_EQ(sweep.stats.twins, want);
    EXPECT_EQ(metrics.gauge("par.sweep.twins").last(),
              static_cast<double>(want));
  }
}

// The calling thread serves every twin on worker 0's shard, where each
// counts as done and as a twin. The skew is taken over the points each
// worker simulated, so the served twins do not make worker 0 look like
// the busiest.
TEST(SweepTwinsTest, TelemetrySkewCountsOnlySimulatedPoints) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  const par::SweepGrid grid = twin_grid();
  telemetry::TelemetryConfig config;
  config.workers = par::WorkerPool::resolve(4);
  config.total_points = grid.points(base).size();
  telemetry::SweepTelemetry tel(config);
  ResilienceOptions options;
  options.jobs = 4;
  options.telemetry = &tel;
  const ResilientSweepResult sweep = run_resilient_sweep(base, grid, options);
  ASSERT_GT(sweep.stats.twins, 0u);

  const telemetry::SweepSnapshot snap = tel.snapshot();
  EXPECT_EQ(snap.done, sweep.stats.points);
  EXPECT_EQ(snap.twins, sweep.stats.twins);
  ASSERT_EQ(snap.workers.size(), config.workers);
  EXPECT_EQ(snap.workers[0].twins, sweep.stats.twins);
  std::uint64_t simulated = 0;
  std::uint64_t max_simulated = 0;
  for (const telemetry::WorkerSnapshot& w : snap.workers) {
    simulated += w.done - w.twins;
    max_simulated = std::max(max_simulated, w.done - w.twins);
  }
  EXPECT_EQ(simulated, sweep.stats.points - sweep.stats.twins);
  const double mean = static_cast<double>(simulated) /
                      static_cast<double>(snap.workers.size());
  EXPECT_DOUBLE_EQ(snap.worker_skew,
                   static_cast<double>(max_simulated) / mean);
}

// --inject-fail on a canonical quarantines it; its twins have no ok
// result to copy, so each is simulated, as a first attempt in the round
// after the quarantine, and gets its own outcome. --inject-fail on a
// twin fails that point alone.
TEST(SweepTwinsTest, InjectedFailureOnACanonicalOrATwin) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepGrid grid = twin_grid();
  const std::size_t twins = count_true(predicted_twins(base, grid));
  const std::vector<par::SweepPointResult> alone = run_alone(base, grid);
  const std::string path = temp_path("twin_failure.fcj");
  // Conv at capacity 0: index 0 is the canonical of 2, 4, ..., 36.
  const std::size_t canonical = 0;
  const std::size_t conv_rhos = grid.rhos.size();
  for (const std::size_t poisoned : {canonical, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "poisoned=" << poisoned);
    ResilienceOptions options;
    options.jobs = 4;
    options.journal_path = path;
    options.contract.max_retries = 1;
    options.contract.inject_fail_index = poisoned;
    const ResilientSweepResult sweep =
        run_resilient_sweep(base, grid, options);
    EXPECT_EQ(sweep.stats.twins,
              poisoned == canonical ? twins - (conv_rhos - 1) : twins - 1);
    // Round 0, the retry's round and, for a canonical, its twins' round.
    EXPECT_EQ(sweep.resilience.rounds, poisoned == canonical ? 3u : 2u);
    if (poisoned == canonical) {
      // Rounds run one after another, so the journal lists the
      // quarantine record, then the canonical's twins (its round alone),
      // then the served twins.
      const JournalLoad load = load_journal(path);
      const auto quarantine = std::find_if(
          load.records.begin(), load.records.end(),
          [&](const JournalRecord& record) {
            return record.index == canonical;
          });
      ASSERT_LE(quarantine + static_cast<std::ptrdiff_t>(conv_rhos),
                load.records.end());
      EXPECT_FALSE(quarantine->ok);
      std::vector<std::size_t> next;
      for (auto record = quarantine + 1;
           record != quarantine + static_cast<std::ptrdiff_t>(conv_rhos);
           ++record) {
        EXPECT_TRUE(record->ok);
        next.push_back(record->index);
      }
      std::sort(next.begin(), next.end());
      std::vector<std::size_t> want;
      for (std::size_t r = 1; r < conv_rhos; ++r) {
        want.push_back(2 * r);
      }
      EXPECT_EQ(next, want);

      // Cut right after the quarantine record: the resume replays the
      // quarantine, so the canonical's twins run in its round 0.
      cut_journal(path,
                  static_cast<int>(quarantine - load.records.begin() + 1));
      ResilienceOptions resume = options;
      resume.resume = true;
      const ResilientSweepResult resumed =
          run_resilient_sweep(base, grid, resume);
      EXPECT_EQ(resumed.resilience.rounds, 1u);
      EXPECT_EQ(resumed.stats.twins, twins - (conv_rhos - 1));
      for (const std::size_t k : want) {
        SCOPED_TRACE(testing::Message() << "resumed twin=" << k);
        const ResilientPoint& point = resumed.points[k];
        ASSERT_TRUE(point.ok);
        EXPECT_FALSE(point.replayed);
        EXPECT_EQ(point.attempts, 1u);
        EXPECT_TRUE(sim::same_result(point.result.result, alone[k].result));
      }
    }
    for (std::size_t k = 0; k < alone.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      const ResilientPoint& point = sweep.points[k];
      if (k == poisoned) {
        ASSERT_FALSE(point.ok);
        EXPECT_EQ(point.error.kind, PointErrorKind::solver_diverged);
        EXPECT_EQ(point.attempts, 2u);
        continue;
      }
      ASSERT_TRUE(point.ok);
      EXPECT_EQ(point.attempts, 1u);
      EXPECT_TRUE(sim::same_result(point.result.result, alone[k].result));
      expect_same_accuracy(*point.result.result.idle_accuracy,
                           *alone[k].result.idle_accuracy);
    }
  }
  std::remove(path.c_str());
}

// Journals from before twins left the schedule list each 64-grid-point
// chunk of round 0 with its twins after its simulated points. Such a
// journal, cut mid-record with a torn tail, resumes at one and four jobs
// to the uninterrupted rows; each twin record it holds is replayed, not
// served again.
TEST(SweepTwinsTest, ChunkInterleavedJournalResumesToTheSameRows) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Batched;
  const par::SweepGrid grid = twin_grid();
  const std::size_t n = grid.points(base).size();
  const std::vector<bool> twin = predicted_twins(base, grid);
  const std::string path = temp_path("interleaved.fcj");
  ResilienceOptions options;
  options.journal_path = path;
  const ResilientSweepResult uninterrupted =
      run_resilient_sweep(base, grid, options);

  // Rewrite the journal's records in the interleaved order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t begin = 0; begin < n; begin += kCommitChunk) {
    std::stable_partition(
        order.begin() + static_cast<std::ptrdiff_t>(begin),
        order.begin() +
            static_cast<std::ptrdiff_t>(std::min(n, begin + kCommitChunk)),
        [&](std::size_t k) { return !twin[k]; });
  }
  {
    const JournalLoad load = load_journal(path);
    ASSERT_EQ(load.records.size(), n);
    std::vector<const JournalRecord*> by_index(n);
    for (const JournalRecord& record : load.records) {
      by_index[record.index] = &record;
    }
    Journal journal = Journal::create(path, load.header);
    for (const std::size_t k : order) {
      journal.append(*by_index[k]);
    }
    (void)journal.commit();
  }
  const std::string interleaved = read_file(path);

  // Into the second chunk, past the first chunk's twins.
  const std::size_t kept = kCommitChunk + 21;
  std::vector<bool> kept_record(n, false);
  std::size_t kept_twins = 0;
  for (std::size_t r = 0; r < kept; ++r) {
    kept_record[order[r]] = true;
    kept_twins += twin[order[r]] ? 1 : 0;
  }
  ASSERT_GT(kept_twins, 0u);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    write_file(path, interleaved);
    cut_journal(path, static_cast<int>(kept));
    ResilienceOptions resume;
    resume.jobs = jobs;
    resume.journal_path = path;
    resume.resume = true;
    resume.spot_checks = 3;
    const ResilientSweepResult resumed =
        run_resilient_sweep(base, grid, resume);
    EXPECT_TRUE(resumed.resilience.torn_tail_recovered);
    EXPECT_EQ(resumed.resilience.replayed, kept);
    EXPECT_EQ(resumed.stats.twins, count_true(twin) - kept_twins);
    for (std::size_t k = 0; k < n; ++k) {
      SCOPED_TRACE(testing::Message() << "point=" << k);
      ASSERT_TRUE(resumed.points[k].ok);
      EXPECT_EQ(resumed.points[k].replayed, kept_record[k]);
      EXPECT_TRUE(sim::same_result(resumed.points[k].result.result,
                                   uninterrupted.points[k].result.result));
    }
    EXPECT_EQ(load_journal(path).records.size(), n);
  }
  std::remove(path.c_str());
}

/// All four policies x rho {0.3, 0.5} x a capacity axis from a 1 A-s
/// reserve: 0.5 A-s starts below the reserve (a group of its own), the
/// 4 A-s buffer clamps so the next-smallest capacity must lead, and
/// 12 A-s appears twice. FC-DPM first: its rho-0.3 group is grid
/// indices 0-4, led (after the clamped 4 A-s run) by index 2.
par::SweepGrid capacity_twin_grid() {
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm, sim::PolicyKind::Oracle,
                   sim::PolicyKind::Conv, sim::PolicyKind::Asap};
  grid.rhos = {0.3, 0.5};
  grid.capacities = {Coulomb(0.5), Coulomb(4.0), Coulomb(12.0),
                     Coulomb(12.0), Coulomb(50.0)};
  return grid;
}

/// The journal `full` cut after its header and `records` records, with
/// the first half of the next record's line (of the last line, when
/// every record is kept) left as a torn tail.
std::string torn_cut(const std::string& full, std::size_t records) {
  std::size_t cut = full.find('\n') + 1;
  for (std::size_t r = 0; r < records; ++r) {
    cut = full.find('\n', cut) + 1;
  }
  const std::size_t torn =
      cut < full.size() ? cut : full.rfind('\n', full.size() - 2) + 1;
  const std::size_t line = full.find('\n', torn) + 1 - torn;
  return full.substr(0, cut) + full.substr(torn, line / 2);
}

/// Point k of `sweep` is what its own run makes of it under `contract`:
/// ok after one attempt and bit-identical to it, or quarantined after
/// every attempt with the error check_result gives its own run (the
/// injected failure's kind at the contract's inject_fail_index).
void expect_own_rows(const ResilientSweepResult& sweep,
                     const std::vector<par::SweepPointResult>& alone,
                     const ExecutionContract& contract) {
  ASSERT_EQ(sweep.points.size(), alone.size());
  for (std::size_t k = 0; k < alone.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    const ResilientPoint& point = sweep.points[k];
    const PointOutcome own = check_result(alone[k], contract);
    if (k == contract.inject_fail_index || !own.ok) {
      ASSERT_FALSE(point.ok);
      EXPECT_EQ(point.attempts, 1 + contract.max_retries);
      if (k == contract.inject_fail_index) {
        EXPECT_EQ(point.error.kind, PointErrorKind::solver_diverged);
      } else {
        EXPECT_EQ(point.error.kind, own.error.kind);
        EXPECT_EQ(point.error.detail, own.error.detail);
      }
      continue;
    }
    ASSERT_TRUE(point.ok);
    EXPECT_EQ(point.attempts, 1u);
    EXPECT_TRUE(sim::same_result(point.result.result, alone[k].result));
  }
}

// Capacity twins against each point's own run: a hot sweep's capacity
// groups over one and four jobs; no journal, a full journal, and a
// journal cut (torn tail) right after a group leader's record, then
// resumed; an injected failure on a leader; audit sampling throughout.
// The capacity-twin counts are those of the axis above: FC-DPM serves
// the second 12 A-s and the 50 A-s point at each rho, Oracle its 50 A-s
// point at rho 0.3 (its second 12 A-s point and rho 0.5 are rho twins),
// Conv fills every buffer and ASAP never leads.
TEST(SweepTwinsTest, CapacityTwinsMatchTheirOwnRunsAcrossFeatures) {
  const std::string path = temp_path("capacity_twins.fcj");
  const par::SweepGrid grid = capacity_twin_grid();
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  base.audit.mode = audit::Mode::Sample;
  ASSERT_EQ(base.initial_storage.value(), 1.0);
  const std::vector<par::SweepPoint> points = grid.points(base);
  const std::size_t rho_twins =
      par::find_twins(base, points, hot::CompiledTrace(base.trace, base.device),
                      std::numeric_limits<std::size_t>::max())
          .count;
  ASSERT_EQ(rho_twins, 18u);
  const std::vector<par::SweepPointResult> alone = run_alone(base, grid);
  const std::size_t leader = 2;
  ASSERT_EQ(points[leader].capacity.value(), 12.0);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const int journal : {0, 1, 2}) {  // none, full, cut + resume
      for (const bool poison : {false, true}) {
        if (journal == 2 && poison) {
          continue;
        }
        SCOPED_TRACE(testing::Message() << "jobs " << jobs << ", journal "
                                        << journal << ", poison " << poison);
        ResilienceOptions options;
        options.jobs = jobs;
        if (poison) {
          options.contract.inject_fail_index = leader;
        }
        if (journal > 0) {
          std::remove(path.c_str());
          options.journal_path = path;
        }
        const std::size_t capacity_twins = poison ? 4 : 5;
        if (journal == 2) {
          // Round 0 journals its simulated points in grid order at one
          // job: indices 0, 1 and the leader 2, whose record keeps its
          // clean witness. On resume the replayed leader serves its
          // followers 3 and 4 again, with the engine of a replayed
          // record (a journal keeps none).
          ResilienceOptions write = options;
          write.jobs = 1;
          (void)run_resilient_sweep(base, grid, write);
          const JournalLoad written = load_journal(path);
          ASSERT_EQ(written.records[leader].index, leader);
          EXPECT_TRUE(written.records[leader].clean_leader);
          EXPECT_FALSE(written.records[leader - 1].clean_leader);
          cut_journal(path, 3);
          options.resume = true;
          options.spot_checks = 3;
        }
        const ResilientSweepResult sweep =
            run_resilient_sweep(base, grid, options);
        if (journal == 2) {
          EXPECT_TRUE(sweep.resilience.torn_tail_recovered);
          ASSERT_EQ(sweep.resilience.replayed, 3u);
          EXPECT_TRUE(sweep.points[leader].replayed);
          EXPECT_FALSE(sweep.points[leader + 1].replayed);
        }
        EXPECT_EQ(sweep.stats.twins, rho_twins + capacity_twins);
        for (std::size_t k = 0; k < points.size(); ++k) {
          SCOPED_TRACE(testing::Message() << "point=" << k);
          const ResilientPoint& point = sweep.points[k];
          if (poison && k == leader) {
            ASSERT_FALSE(point.ok);
            EXPECT_EQ(point.error.kind, PointErrorKind::solver_diverged);
            continue;
          }
          ASSERT_TRUE(point.ok);
          EXPECT_EQ(point.attempts, 1u);
          EXPECT_TRUE(sim::same_result(point.result.result, alone[k].result));
          if (!point.replayed) {
            EXPECT_EQ(point.result.engine,
                      journal == 2 && (k == leader + 1 || k == leader + 2)
                          ? sim::Engine::Reference
                          : sim::Engine::Hot);
            expect_same_accuracy(*point.result.result.idle_accuracy,
                                 *alone[k].result.idle_accuracy);
          }
        }
      }
    }
  }

  // Rows only, on three more inputs: (b) the capacity axis reversed, so
  // each group's leader sits above the followers it serves in grid
  // order; (c) a contract every run fails (no unserved charge is within
  // a negative budget), with one retry and with none, so no leader's
  // result may be served and every point is quarantined with its own
  // error after its own attempts; and
  // (a) the --jobs 1 journal cut at every record boundary, each cut
  // with a torn half record, then resumed at one and four jobs.
  ExecutionContract failing;
  failing.max_retries = 1;
  failing.unserved_budget_as = -1.0;
  par::SweepGrid descending = grid;
  std::reverse(descending.capacities.begin(), descending.capacities.end());
  for (const par::SweepGrid& axis : {grid, descending}) {
    const std::vector<par::SweepPointResult> own = run_alone(base, axis);
    const auto first_12 = static_cast<std::size_t>(
        std::find(axis.capacities.begin(), axis.capacities.end(),
                  Coulomb(12.0)) -
        axis.capacities.begin());
    // Default, a poisoned leader, failing with one retry and with none.
    for (const int contract : {0, 1, 2, 3}) {
      for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        for (const bool journal : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "first capacity " << axis.capacities.front().value()
                       << ", contract " << contract << ", jobs " << jobs
                       << ", journal " << journal);
          ResilienceOptions options;
          options.jobs = jobs;
          if (contract == 1) {
            options.contract.inject_fail_index = first_12;
          } else if (contract >= 2) {
            options.contract = failing;
            options.contract.max_retries = contract == 2 ? 1 : 0;
          }
          if (journal) {
            std::remove(path.c_str());
            options.journal_path = path;
          }
          expect_own_rows(run_resilient_sweep(base, axis, options), own,
                          options.contract);
        }
      }
    }

    ResilienceOptions write;
    write.journal_path = path;
    std::remove(path.c_str());
    (void)run_resilient_sweep(base, axis, write);
    const std::string full = read_file(path);
    const JournalLoad written = load_journal(path);
    ASSERT_EQ(written.records.size(), points.size());
    for (std::size_t kept = 0; kept <= points.size(); ++kept) {
      std::vector<bool> kept_record(points.size(), false);
      for (std::size_t r = 0; r < kept; ++r) {
        kept_record[written.records[r].index] = true;
      }
      for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(testing::Message()
                     << "first capacity " << axis.capacities.front().value()
                     << ", kept " << kept << ", jobs " << jobs);
        write_file(path, torn_cut(full, kept));
        ResilienceOptions resume;
        resume.jobs = jobs;
        resume.journal_path = path;
        resume.resume = true;
        const ResilientSweepResult sweep =
            run_resilient_sweep(base, axis, resume);
        EXPECT_TRUE(sweep.resilience.torn_tail_recovered);
        expect_own_rows(sweep, own, resume.contract);
        for (std::size_t k = 0; k < points.size(); ++k) {
          EXPECT_EQ(sweep.points[k].replayed, kept_record[k]) << "point " << k;
        }
        EXPECT_EQ(record_lines(path), points.size());
        EXPECT_EQ(load_journal(path).records.size(), points.size());
      }
    }
  }
  std::remove(path.c_str());
}

// A --jobs 1 journal of the grid above, written (commit 141fe6f) when a
// hot task served its capacity twins itself: each task's records list
// its lanes, served twins included, and no record keeps a leader's
// witness, so every leader reads as dirty. Resumed whole, cut to 90 % of
// its records plus a torn half record, and cut right after a leader and
// one of its twins, at one and four jobs, it reaches the rows of an
// uninterrupted sweep, and every record it keeps stays replayed.
TEST(SweepTwinsTest, ChunkOrderCapacityTwinJournalResumesToTheSameRows) {
  const std::string fixture = std::string(FCDPM_SOURCE_DIR) +
                              "/tests/resilience/data/"
                              "capacity_twins_chunk_order.fcj";
  const std::string path = temp_path("chunk_order.fcj");
  const par::SweepGrid grid = capacity_twin_grid();
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  base.audit.mode = audit::Mode::Sample;
  const ResilientSweepResult uninterrupted =
      run_resilient_sweep(base, grid, ResilienceOptions{});
  const std::string full = read_file(fixture);
  const JournalLoad written = load_journal(fixture);
  const std::size_t n = uninterrupted.points.size();
  ASSERT_EQ(written.records.size(), n);
  // FC-DPM at rho 0.3: the leader 2, then its twins 3 and 4.
  ASSERT_EQ(written.records[3].index, 3u);
  for (const std::size_t kept : {n, n * 9 / 10, std::size_t{4}}) {
    std::vector<bool> kept_record(n, false);
    for (std::size_t r = 0; r < kept; ++r) {
      kept_record[written.records[r].index] = true;
    }
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "kept " << kept << ", jobs " << jobs);
      write_file(path, kept == n ? full : torn_cut(full, kept));
      ResilienceOptions resume;
      resume.jobs = jobs;
      resume.journal_path = path;
      resume.resume = true;
      resume.spot_checks = 3;
      const ResilientSweepResult resumed =
          run_resilient_sweep(base, grid, resume);
      EXPECT_EQ(resumed.resilience.replayed, kept);
      EXPECT_EQ(resumed.resilience.torn_tail_recovered, kept != n);
      for (std::size_t k = 0; k < n; ++k) {
        SCOPED_TRACE(testing::Message() << "point=" << k);
        ASSERT_TRUE(resumed.points[k].ok);
        EXPECT_EQ(resumed.points[k].replayed, kept_record[k]);
        EXPECT_TRUE(sim::same_result(resumed.points[k].result.result,
                                     uninterrupted.points[k].result.result));
      }
      EXPECT_EQ(load_journal(path).records.size(), n);
    }
  }
  std::remove(path.c_str());
}

/// The grid indices of a journal's records, in file order, and a check
/// that every record and row of `sweep` is a first-attempt quarantine
/// of `kind`.
std::vector<std::size_t> quarantine_order(const ResilientSweepResult& sweep,
                                          const std::string& path,
                                          PointErrorKind kind) {
  for (std::size_t k = 0; k < sweep.points.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "point=" << k);
    EXPECT_FALSE(sweep.points[k].ok);
    EXPECT_FALSE(sweep.points[k].replayed);
    EXPECT_EQ(sweep.points[k].attempts, 1u);
    EXPECT_EQ(sweep.points[k].error.kind, kind);
  }
  std::vector<std::size_t> order;
  for (const JournalRecord& record : load_journal(path).records) {
    EXPECT_FALSE(record.ok);
    EXPECT_EQ(record.attempts, 1u);
    EXPECT_EQ(record.error.kind, kind);
    EXPECT_EQ(record.error.detail, sweep.points[record.index].error.detail);
    order.push_back(record.index);
  }
  return order;
}

// A per-point sweep that quarantines every point: round 0 journals the
// simulated points in grid order; a quarantined canonical sends its rho
// twins to round 1, canonicals in batch order, each one's twins in
// ascending index. Conv and Oracle sleep alike at every rho here.
TEST(SweepTwinsTest, AllQuarantinePerPointJournalOrderIsPinned) {
  sim::ExperimentConfig base = small_base();
  base.simulation.engine = sim::Engine::Hot;
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::FcDpm,
                   sim::PolicyKind::Oracle};
  grid.rhos = {0.3, 0.5, 0.7};
  grid.capacities = {Coulomb(3.0), Coulomb(6.0)};
  const std::string path = temp_path("quarantine_per_point.fcj");
  ResilienceOptions options;
  options.journal_path = path;
  options.contract.point_deadline_slots = 1;
  options.contract.max_retries = 0;
  const ResilientSweepResult sweep = run_resilient_sweep(base, grid, options);
  EXPECT_EQ(sweep.resilience.quarantined, 18u);
  EXPECT_EQ(sweep.resilience.rounds, 2u);
  EXPECT_EQ(sweep.stats.twins, 0u);
  const std::vector<std::size_t> order =
      quarantine_order(sweep, path, PointErrorKind::deadline_exceeded);
  const std::vector<std::size_t> pinned = {0,  1, 6, 7, 8,  9,  10, 11, 12,
                                           13, 2, 4, 3, 5, 14, 16, 15, 17};
  EXPECT_EQ(order, pinned);
  std::remove(path.c_str());
}

// A grouped hot sweep that quarantines every point: each round's
// quarantined canonicals send their capacity and rho twins to the next
// round, canonicals in batch order, each one's twins in ascending index.
TEST(SweepTwinsTest, AllQuarantineGroupedJournalOrderIsPinned) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  const par::SweepGrid grid = capacity_twin_grid();
  const std::string path = temp_path("quarantine_grouped.fcj");
  ResilienceOptions options;
  options.journal_path = path;
  options.contract.unserved_budget_as = -1.0;
  options.contract.max_retries = 0;
  const ResilientSweepResult sweep = run_resilient_sweep(base, grid, options);
  EXPECT_EQ(sweep.resilience.quarantined, 40u);
  EXPECT_EQ(sweep.stats.twins, 0u);
  const std::vector<std::size_t> order =
      quarantine_order(sweep, path, PointErrorKind::power_undeliverable);
  EXPECT_EQ(sweep.resilience.rounds, 4u);
  // FC-DPM at rho 0.3 is 0-4: the leader 2 serves 3 and 4 in round 0, and
  // 3 leads 4 in round 1. Oracle's 15-19, Conv's 25-29 and Asap's 35-39
  // are rho twins of the rho-0.3 points ten below them.
  const std::vector<std::size_t> pinned = {
      0,  1,  2,  5,  6,  7,  10, 11, 12, 20, 21, 22, 24, 30,
      31, 32, 34, 3,  8,  15, 16, 13, 17, 25, 26, 23, 27, 28,
      29, 35, 36, 33, 37, 38, 39, 4,  9,  14, 18, 19};
  EXPECT_EQ(order, pinned);
  std::remove(path.c_str());
}

// An armed tamper drill is a per-point engine drill: every point runs,
// heals on the reference loop and records its own fallback.
TEST(SweepTwinsTest, ArmedTamperDrillTurnsTwinsOff) {
  sim::ExperimentConfig base = sim::experiment1_config();
  base.simulation.engine = sim::Engine::Hot;
  base.audit.mode = audit::Mode::Sample;
  base.audit.tamper_slot = 32;  // an audited slot (period 16)
  const par::SweepGrid grid = twin_grid();
  EXPECT_EQ(par::find_twins(base, grid.points(base),
                            hot::CompiledTrace(base.trace, base.device),
                            std::numeric_limits<std::size_t>::max())
                .count,
            0u);
  const ResilientSweepResult sweep =
      run_resilient_sweep(base, grid, ResilienceOptions{});
  EXPECT_EQ(sweep.stats.twins, 0u);
  const std::vector<par::SweepPointResult> alone = run_alone(base, grid);
  expect_matches_alone(sweep, alone);
  for (const ResilientPoint& point : sweep.points) {
    EXPECT_EQ(point.result.result.audit->engine_fallbacks, 1u);
  }
}

}  // namespace
}  // namespace fcdpm::resilience
