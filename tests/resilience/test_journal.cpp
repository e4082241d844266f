#include "resilience/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "cap/stats.hpp"
#include "common/csv.hpp"
#include "resilience/resilient_sweep.hpp"
#include "sim/experiments.hpp"
#include "sim/result_fields.hpp"

#include "forge_field.hpp"

namespace fcdpm::resilience {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fcdpm_journal_" + name;
}

sim::ExperimentConfig small_base() {
  sim::ExperimentConfig config = sim::experiment1_config();
  config.trace = config.trace.truncated(Seconds(60.0));
  return config;
}

/// Synthetic but fully-populated record for grid point `k`: journal
/// serialization is exercised without running a simulation.
JournalRecord make_record(std::size_t k, const par::SweepPoint& point) {
  JournalRecord record;
  record.index = k;
  record.point = point;
  record.attempts = 1 + k % 3;
  record.ok = true;
  sim::SimulationResult& r = record.result;
  r.trace_name = "trace-" + std::to_string(k);
  r.dpm_policy = "dpm \"quoted\"\nline";  // exercises JSON escaping
  r.fc_policy = "fc-" + std::to_string(k);
  const double base = 1.0 / (3.0 + static_cast<double>(k));  // inexact
  r.totals.fuel = Coulomb(base * 1000.0);
  r.totals.delivered_energy = Joule(base * 12000.0);
  r.totals.load_energy = Joule(base * 11000.0);
  r.totals.bled = Coulomb(base * 7.0);
  r.totals.unserved = Coulomb(base / 13.0);
  r.totals.duration = Seconds(1680.0 + base);
  r.slots = 100 + k;
  r.sleeps = 40 + k;
  r.latency_added = Seconds(base * 2.0);
  r.storage_initial = Coulomb(1.0);
  r.storage_end = Coulomb(base * 5.0);
  r.storage_min = Coulomb(0.0);
  r.storage_max = Coulomb(base * 6.0);
  return record;
}

void expect_same_record(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.point.policy, b.point.policy);
  EXPECT_EQ(a.point.rho, b.point.rho);
  EXPECT_EQ(a.point.capacity.value(), b.point.capacity.value());
  EXPECT_EQ(a.point.storm_seed, b.point.storm_seed);
  EXPECT_EQ(a.attempts, b.attempts);
  ASSERT_EQ(a.ok, b.ok);
  if (!a.ok) {
    EXPECT_EQ(a.error.kind, b.error.kind);
    EXPECT_EQ(a.error.detail, b.error.detail);
    return;
  }
  EXPECT_EQ(a.result.trace_name, b.result.trace_name);
  EXPECT_EQ(a.result.dpm_policy, b.result.dpm_policy);
  EXPECT_EQ(a.result.fc_policy, b.result.fc_policy);
  EXPECT_EQ(a.result.totals.fuel.value(), b.result.totals.fuel.value());
  EXPECT_EQ(a.result.totals.delivered_energy.value(),
            b.result.totals.delivered_energy.value());
  EXPECT_EQ(a.result.totals.load_energy.value(),
            b.result.totals.load_energy.value());
  EXPECT_EQ(a.result.totals.bled.value(), b.result.totals.bled.value());
  EXPECT_EQ(a.result.totals.unserved.value(),
            b.result.totals.unserved.value());
  EXPECT_EQ(a.result.totals.duration.value(),
            b.result.totals.duration.value());
  EXPECT_EQ(a.result.slots, b.result.slots);
  EXPECT_EQ(a.result.sleeps, b.result.sleeps);
  EXPECT_EQ(a.result.latency_added.value(),
            b.result.latency_added.value());
  EXPECT_EQ(a.result.storage_initial.value(),
            b.result.storage_initial.value());
  EXPECT_EQ(a.result.storage_end.value(), b.result.storage_end.value());
  EXPECT_EQ(a.result.storage_min.value(), b.result.storage_min.value());
  EXPECT_EQ(a.result.storage_max.value(), b.result.storage_max.value());
  EXPECT_EQ(a.point.stacks, b.point.stacks);
  EXPECT_EQ(a.point.distribution, b.point.distribution);
  ASSERT_EQ(a.result.stacks.has_value(), b.result.stacks.has_value());
  if (a.result.stacks.has_value()) {
    const stacks::StacksStats& sa = *a.result.stacks;
    const stacks::StacksStats& sb = *b.result.stacks;
    EXPECT_EQ(sa.distribution, sb.distribution);
    ASSERT_EQ(sa.stacks.size(), sb.stacks.size());
    for (std::size_t j = 0; j < sa.stacks.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.stacks[j].fuel_as),
                std::bit_cast<std::uint64_t>(sb.stacks[j].fuel_as));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.stacks[j].delivered_as),
                std::bit_cast<std::uint64_t>(sb.stacks[j].delivered_as));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.stacks[j].wear),
                std::bit_cast<std::uint64_t>(sb.stacks[j].wear));
      EXPECT_EQ(sa.stacks[j].startups, sb.stacks[j].startups);
    }
  }
  ASSERT_EQ(a.result.cap.has_value(), b.result.cap.has_value());
  if (a.result.cap.has_value()) {
    const cap::CapStats& ca = *a.result.cap;
    const cap::CapStats& cb = *b.result.cap;
    EXPECT_EQ(ca.slots_seen, cb.slots_seen);
    EXPECT_EQ(ca.slots_capped, cb.slots_capped);
    EXPECT_EQ(ca.level_reductions, cb.level_reductions);
    EXPECT_EQ(ca.level_restorations, cb.level_restorations);
    EXPECT_EQ(ca.budget_violations, cb.budget_violations);
    EXPECT_EQ(ca.energy_deferred.value(), cb.energy_deferred.value());
    EXPECT_EQ(ca.time_deferred.value(), cb.time_deferred.value());
    ASSERT_EQ(ca.time_at_level_s.size(), cb.time_at_level_s.size());
    for (std::size_t j = 0; j < ca.time_at_level_s.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ca.time_at_level_s[j]),
                std::bit_cast<std::uint64_t>(cb.time_at_level_s[j]));
    }
  }
  ASSERT_EQ(a.result.audit.has_value(), b.result.audit.has_value());
  if (a.result.audit.has_value()) {
    const audit::AuditStats& aa = *a.result.audit;
    const audit::AuditStats& ab = *b.result.audit;
    EXPECT_EQ(aa.mode, ab.mode);
    EXPECT_EQ(aa.slots_audited, ab.slots_audited);
    EXPECT_EQ(aa.segments_audited, ab.segments_audited);
    EXPECT_EQ(aa.checks_run, ab.checks_run);
    EXPECT_EQ(aa.violations, ab.violations);
    EXPECT_EQ(aa.fuel_violations, ab.fuel_violations);
    EXPECT_EQ(aa.storage_violations, ab.storage_violations);
    EXPECT_EQ(aa.cap_violations, ab.cap_violations);
    EXPECT_EQ(aa.stacks_violations, ab.stacks_violations);
    EXPECT_EQ(aa.cache_violations, ab.cache_violations);
    EXPECT_EQ(aa.engine_fallbacks, ab.engine_fallbacks);
    EXPECT_EQ(aa.first_violation_slot, ab.first_violation_slot);
    EXPECT_EQ(aa.first_violation, ab.first_violation);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<par::SweepPoint> grid_points(std::size_t shape) {
  par::SweepGrid grid;
  switch (shape % 3) {
    case 0:
      grid.policies = {sim::PolicyKind::FcDpm};
      grid.rhos = {0.3, 0.7};
      break;
    case 1:
      grid.rhos = {0.5};
      grid.capacities = {Coulomb(3.0), Coulomb(9.0)};
      grid.storm_seeds = {0, 11};
      break;
    default:
      grid.policies = {sim::PolicyKind::Conv, sim::PolicyKind::Oracle};
      grid.capacities = {Coulomb(6.0)};
      grid.storm_seeds = {5};
      break;
  }
  return grid.points(small_base());
}

TEST(JournalTest, RoundTripsOkAndFailedRecordsBitExactly) {
  const std::string path = temp_path("roundtrip.fcj");
  const std::vector<par::SweepPoint> points = grid_points(1);

  std::vector<JournalRecord> written;
  {
    Journal journal =
        Journal::create(path, {"camcorder", points.size(), 0xabcdefull});
    for (std::size_t k = 0; k < points.size(); ++k) {
      JournalRecord record = make_record(k, points[k]);
      if (k == 2) {
        record.ok = false;
        record.error = {PointErrorKind::deadline_exceeded,
                        "slot budget exhausted: 7 \"slots\""};
      }
      journal.append(record);
      written.push_back(record);
    }
  }

  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.header.trace_name, "camcorder");
  EXPECT_EQ(load.header.points, points.size());
  EXPECT_EQ(load.header.fingerprint, 0xabcdefull);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.dropped_bytes, 0u);
  ASSERT_EQ(load.records.size(), written.size());
  for (std::size_t k = 0; k < written.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "record=" << k);
    expect_same_record(load.records[k], written[k]);
  }
  std::remove(path.c_str());
}

TEST(JournalTest, HexfloatSerializationRoundTripsHostileDoubles) {
  const std::string path = temp_path("hexfloat.fcj");
  const std::vector<par::SweepPoint> points = grid_points(0);
  const double hostile[] = {0.1 + 0.2,
                            1.0 / 3.0,
                            3.141592653589793,
                            5e-324,  // smallest subnormal
                            -0.0,
                            1.7976931348623157e308};
  {
    Journal journal = Journal::create(path, {"t", 6, 1});
    for (std::size_t k = 0; k < 6; ++k) {
      JournalRecord record = make_record(k, points[k % points.size()]);
      record.index = k;
      record.point.rho = hostile[k];
      record.result.totals.fuel = Coulomb(hostile[k]);
      journal.append(record);
    }
  }
  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 6u);
  for (std::size_t k = 0; k < 6; ++k) {
    SCOPED_TRACE(testing::Message() << "value=" << hostile[k]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(load.records[k].point.rho),
              std::bit_cast<std::uint64_t>(hostile[k]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  load.records[k].result.totals.fuel.value()),
              std::bit_cast<std::uint64_t>(hostile[k]));
  }
  std::remove(path.c_str());
}

// Cap-stats block: present iff the run carried a governor, hexfloat
// round-trip including the per-level histogram, capless records coexist
// in the same journal.
TEST(JournalTest, CapStatsRoundTripBitExactly) {
  const std::string path = temp_path("cap.fcj");
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 2u);

  std::vector<JournalRecord> written;
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0xcab});
    JournalRecord capped = make_record(0, points[0]);
    cap::CapStats stats;
    stats.slots_seen = 112;
    stats.slots_capped = 51;
    stats.level_reductions = 2;
    stats.level_restorations = 2;
    stats.budget_violations = 0;
    stats.energy_deferred = Joule(1.0 / 3.0);
    stats.time_deferred = Seconds(0.1 + 0.2);
    stats.time_at_level_s = {5e-324, -0.0, 3.141592653589793, 42.0};
    capped.result.cap = stats;
    journal.append(capped);
    written.push_back(capped);

    const JournalRecord plain = make_record(1, points[1]);
    journal.append(plain);
    written.push_back(plain);
  }

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 2u);
  expect_same_record(load.records[0], written[0]);
  EXPECT_TRUE(load.records[0].result.cap.has_value());
  expect_same_record(load.records[1], written[1]);
  EXPECT_FALSE(load.records[1].result.cap.has_value());
  std::remove(path.c_str());
}

TEST(JournalTest, StacksStatsRoundTripBitExactly) {
  const std::string path = temp_path("stacks.fcj");
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 2u);

  std::vector<JournalRecord> written;
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0x57ac});
    JournalRecord stacked = make_record(0, points[0]);
    stacked.point.stacks = 3;
    stacked.point.distribution = stacks::Distribution::Health;
    stacks::StacksStats stats;
    stats.distribution = stacks::Distribution::Health;
    stats.stacks.resize(3);
    stats.stacks[0] = {1.0 / 3.0, 5e-324, 7, 0.1 + 0.2};
    stats.stacks[1] = {-0.0, 3.141592653589793, 0, 0.0};
    stats.stacks[2] = {42.0, 1e300, 12, 2.2250738585072014e-308};
    stacked.result.stacks = stats;
    journal.append(stacked);
    written.push_back(stacked);

    const JournalRecord plain = make_record(1, points[1]);
    journal.append(plain);
    written.push_back(plain);
  }

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 2u);
  expect_same_record(load.records[0], written[0]);
  EXPECT_TRUE(load.records[0].result.stacks.has_value());
  EXPECT_EQ(load.records[0].point.stacks, 3u);
  expect_same_record(load.records[1], written[1]);
  EXPECT_FALSE(load.records[1].result.stacks.has_value());
  EXPECT_EQ(load.records[1].point.stacks, 0u);
  std::remove(path.c_str());
}

// Audit block: present iff an auditor ran; a violated record keeps its
// first-violation token (with escaping), a clean audited record omits
// it, and unaudited records coexist byte-identically to pre-audit form.
TEST(JournalTest, AuditStatsRoundTripBitExactly) {
  const std::string path = temp_path("audit.fcj");
  const std::vector<par::SweepPoint> points = grid_points(0);
  ASSERT_GE(points.size(), 2u);

  std::vector<JournalRecord> written;
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0xaad});
    JournalRecord violated = make_record(0, points[0]);
    audit::AuditStats stats;
    stats.mode = 2;
    stats.slots_audited = 95;
    stats.segments_audited = 241;
    stats.checks_run = 1023;
    stats.violations = 3;
    stats.fuel_violations = 1;
    stats.storage_violations = 0;
    stats.cap_violations = 0;
    stats.stacks_violations = 1;
    stats.cache_violations = 1;
    stats.engine_fallbacks = 1;
    stats.first_violation_slot = 40;
    stats.first_violation = "delivered \"integral\"\n";  // escaping
    violated.result.audit = stats;
    journal.append(violated);
    written.push_back(violated);

    JournalRecord clean = make_record(1, points[1]);
    audit::AuditStats clean_stats;
    clean_stats.mode = 1;
    clean_stats.slots_audited = 7;
    clean_stats.checks_run = 35;
    clean.result.audit = clean_stats;  // first_violation empty, slot npos
    journal.append(clean);
    written.push_back(clean);

    const JournalRecord unaudited = make_record(0, points[0]);
    journal.append(unaudited);  // duplicate index: dropped on load
  }

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 2u);
  expect_same_record(load.records[0], written[0]);
  ASSERT_TRUE(load.records[0].result.audit.has_value());
  EXPECT_EQ(load.records[0].result.audit->first_violation,
            "delivered \"integral\"\n");
  expect_same_record(load.records[1], written[1]);
  ASSERT_TRUE(load.records[1].result.audit.has_value());
  EXPECT_EQ(load.records[1].result.audit->first_violation_slot, audit::npos);
  EXPECT_TRUE(load.records[1].result.audit->first_violation.empty());
  std::remove(path.c_str());
}

/// A record that carries every optional block: a multi-stack point with
/// cap, stacks and audit stats, and a first violation to journal.
JournalRecord full_record() {
  par::SweepPoint point;
  point.policy = sim::PolicyKind::Oracle;
  point.rho = 0.1 + 0.2;
  point.capacity = Coulomb(1.0 / 3.0);
  point.storm_seed = 18446744073709551557ull;  // above 2^53
  point.stacks = 2;
  point.distribution = stacks::Distribution::Waterfill;
  JournalRecord record = make_record(5, point);
  cap::CapStats& c = record.result.cap.emplace();
  c.slots_seen = 112;
  c.slots_capped = 51;
  c.level_reductions = 3;
  c.level_restorations = 2;
  c.budget_violations = 1;
  c.energy_deferred = Joule(1.0 / 7.0);
  c.time_deferred = Seconds(0.5);
  c.time_at_level_s = {5e-324, -0.0, 42.0};
  stacks::StacksStats& s = record.result.stacks.emplace();
  s.distribution = stacks::Distribution::Waterfill;
  s.stacks = {{1.0 / 3.0, 0.25, 7, 1e-300}, {-0.0, 3.5, 0, 0.0}};
  audit::AuditStats& a = record.result.audit.emplace();
  a.mode = 1;
  a.slots_audited = 95;
  a.segments_audited = 241;
  a.checks_run = 1023;
  a.violations = 3;
  a.fuel_violations = 1;
  a.storage_violations = 2;
  a.cap_violations = 4;
  a.stacks_violations = 5;
  a.cache_violations = 6;
  a.engine_fallbacks = 7;
  a.first_violation_slot = 40;
  a.first_violation = "fuel \"integral\"";
  return record;
}

// The exact journal bytes of one record carrying every block and of one
// quarantined record: key order, hexfloat spelling and escaping are the
// on-disk format that older journals were written in.
TEST(JournalTest, RecordBytesArePinned) {
  EXPECT_EQ(record_to_json(full_record()),
            R"({"index":5,"policy":3,"rho":"0x1.3333333333334p-2",)"
            R"("capacity":"0x1.5555555555555p-2","seed":18446744073709551557,)"
            R"("stacks":2,"dist":1,"attempts":3,"ok":true,"trace":"trace-5",)"
            R"("dpm":"dpm \"quoted\"\nline","fc":"fc-5","fuel":"0x1.f4p+6",)"
            R"("delivered_j":"0x1.77p+10","load_j":"0x1.57cp+10",)"
            R"("bled":"0x1.cp-1","unserved":"0x1.3b13b13b13b14p-7",)"
            R"("duration":"0x1.a408p+10","slots":105,"sleeps":45,)"
            R"("latency":"0x1p-2","storage_initial":"0x1p+0",)"
            R"("storage_end":"0x1.4p-1","storage_min":"0x0p+0",)"
            R"("storage_max":"0x1.8p-1","cap_slots":112,"cap_capped":51,)"
            R"("cap_reductions":3,"cap_restorations":2,"cap_violations":1,)"
            R"("cap_deferred_j":"0x1.2492492492492p-3",)"
            R"("cap_deferred_s":"0x1p-1",)"
            R"("cap_levels":"0x0.0000000000001p-1022,-0x0p+0,0x1.5p+5",)"
            R"("stk_n":2,"stk_dist":1,)"
            R"("stk_fuel":"0x1.5555555555555p-2,-0x0p+0",)"
            R"("stk_delivered":"0x1p-2,0x1.cp+1","stk_startups":"7,0",)"
            R"("stk_wear":"0x1.56e1fc2f8f359p-997,0x0p+0","aud_mode":1,)"
            R"("aud_slots":95,"aud_segments":241,"aud_checks":1023,)"
            R"("aud_violations":3,"aud_fuel":1,"aud_storage":2,"aud_cap":4,)"
            R"("aud_stacks":5,"aud_cache":6,"aud_fallbacks":7,)"
            R"("aud_first_slot":40,"aud_first":"fuel \"integral\""})");

  JournalRecord failed = make_record(9, grid_points(1)[3]);
  failed.attempts = 3;
  failed.ok = false;
  failed.error = {PointErrorKind::power_undeliverable,
                  "unserved 0.5 A-s > budget\t\"0\""};
  EXPECT_EQ(record_to_json(failed),
            R"({"index":9,"policy":0,"rho":"0x1p-1","capacity":"0x1.2p+3",)"
            R"("seed":11,"attempts":3,"ok":false,)"
            R"("error_kind":"power_undeliverable",)"
            R"("error_detail":"unserved 0.5 A-s > budget\t\"0\""})");

  // A clean leader's record gains one key after "ok"; nothing else moves.
  JournalRecord leader = make_record(2, grid_points(1)[0]);
  std::string keyed = record_to_json(leader);
  keyed.insert(keyed.find(R"(,"ok":true)") + 10, R"(,"clean_leader":true)");
  leader.clean_leader = true;
  EXPECT_EQ(record_to_json(leader), keyed);
}

// Every entry of the result field lists reaches the journal encoder, the
// decoder and same_result: a record carrying all four blocks round-trips
// bit-exactly, and forging any single entry changes the journaled
// bytes, survives the round trip and makes same_result false.
TEST(JournalTest, EveryResultFieldRoundTripsAndIsCompared) {
  const JournalRecord honest = full_record();
  ASSERT_TRUE(honest.result.cap.has_value());
  ASSERT_TRUE(honest.result.stacks.has_value());
  ASSERT_TRUE(honest.result.audit.has_value());
  EXPECT_TRUE(sim::same_result(honest.result, honest.result));

  std::vector<JournalRecord> written = {honest};
  std::vector<std::string> keys = {"(none)"};
  for (std::size_t k = 0;; ++k) {
    JournalRecord forged = honest;
    forged.index = honest.index + 1 + k;
    const std::string key = forging::forge_entry(forged.result, k);
    if (key.empty()) {
      break;
    }
    SCOPED_TRACE(key);
    EXPECT_FALSE(sim::same_result(forged.result, honest.result));
    EXPECT_FALSE(sim::same_result(honest.result, forged.result));
    JournalRecord same_index = forged;
    same_index.index = honest.index;
    EXPECT_NE(record_to_json(same_index), record_to_json(honest));
    written.push_back(forged);
    keys.push_back(key);
  }
  // One key per entry: a key journaled twice could not decode.
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  const std::string path = temp_path("every_field.fcj");
  {
    Journal journal = Journal::create(path, {"t", 64, 0xf1e1d});
    for (const JournalRecord& record : written) {
      journal.append(record);
    }
  }
  const JournalLoad load = load_journal(path);
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), written.size());
  for (std::size_t k = 0; k < written.size(); ++k) {
    SCOPED_TRACE(keys[k]);
    EXPECT_TRUE(sim::same_result(load.records[k].result, written[k].result));
    EXPECT_EQ(record_to_json(load.records[k]), record_to_json(written[k]));
    expect_same_record(load.records[k], written[k]);
    if (k != 0) {
      EXPECT_FALSE(sim::same_result(load.records[k].result, honest.result));
    }
  }
  std::remove(path.c_str());
}

// Satellite: a torn tail across a record that carries an audit block —
// truncation at every byte offset of the final (audited) record drops
// exactly that record and keeps the earlier audited one intact.
TEST(JournalTest, TruncationAcrossAuditedFinalRecordRecovers) {
  const std::vector<par::SweepPoint> points = grid_points(0);
  ASSERT_GE(points.size(), 2u);
  const std::string path = temp_path("torn_audit.fcj");
  auto audited = [&](std::size_t k) {
    JournalRecord record = make_record(k, points[k]);
    audit::AuditStats stats;
    stats.mode = 2;
    stats.slots_audited = 10 + k;
    stats.checks_run = 50 + k;
    stats.violations = k;
    stats.fuel_violations = k;
    if (k != 0) {
      stats.first_violation_slot = 4;
      stats.first_violation = "fuel_integral";
    }
    record.result.audit = stats;
    return record;
  };
  {
    Journal journal = Journal::create(path, {"t", points.size(), 0x7a});
    journal.append(audited(0));
    journal.append(audited(1));
  }
  const std::string full = read_file(path);
  const std::string cut_file = path + ".cut";
  write_file(cut_file, full.substr(0, full.size() - 1));
  const std::size_t final_start = load_journal(cut_file).valid_bytes;
  ASSERT_LT(final_start, full.size());

  for (std::size_t cut = final_start; cut < full.size(); ++cut) {
    write_file(cut_file, full.substr(0, cut));
    const JournalLoad load = load_journal(cut_file);
    ASSERT_EQ(load.records.size(), 1u) << "cut=" << cut;
    ASSERT_EQ(load.torn_tail, cut != final_start) << "cut=" << cut;
    expect_same_record(load.records[0], audited(0));
  }
  std::remove(path.c_str());
  std::remove(cut_file.c_str());
}

// Satellite: a journal truncated at *every byte offset* of its final
// record loads the preceding records and reports the torn tail, across
// three different grid shapes.
TEST(JournalTest, TruncationAtEveryByteOffsetOfFinalRecordRecovers) {
  for (std::size_t shape = 0; shape < 3; ++shape) {
    const std::vector<par::SweepPoint> points = grid_points(shape);
    const std::string path =
        temp_path("torn_" + std::to_string(shape) + ".fcj");
    {
      Journal journal = Journal::create(path, {"t", points.size(), shape});
      for (std::size_t k = 0; k < points.size(); ++k) {
        journal.append(make_record(k, points[k]));
      }
    }
    const std::string full = read_file(path);
    const JournalLoad complete = load_journal(path);
    ASSERT_EQ(complete.records.size(), points.size());
    ASSERT_EQ(complete.valid_bytes, full.size());

    // Find where the final record starts: reload after dropping the
    // last byte — valid_bytes then names the final record's offset.
    std::string cut_file = path + ".cut";
    write_file(cut_file, full.substr(0, full.size() - 1));
    const std::size_t final_start = load_journal(cut_file).valid_bytes;
    ASSERT_LT(final_start, full.size());

    for (std::size_t cut = final_start; cut < full.size(); ++cut) {
      write_file(cut_file, full.substr(0, cut));
      const JournalLoad load = load_journal(cut_file);
      ASSERT_EQ(load.records.size(), points.size() - 1)
          << "shape=" << shape << " cut=" << cut;
      // A cut exactly on the record boundary leaves a *clean* shorter
      // journal; every later cut leaves a torn tail to drop.
      ASSERT_EQ(load.torn_tail, cut != final_start)
          << "shape=" << shape << " cut=" << cut;
      ASSERT_EQ(load.valid_bytes, final_start)
          << "shape=" << shape << " cut=" << cut;
      ASSERT_EQ(load.dropped_bytes, cut - final_start)
          << "shape=" << shape << " cut=" << cut;
    }
    std::remove(path.c_str());
    std::remove(cut_file.c_str());
  }
}

TEST(JournalTest, ChecksumCorruptionDropsTheRecordAndItsTail) {
  const std::vector<par::SweepPoint> points = grid_points(2);
  const std::string path = temp_path("corrupt.fcj");
  {
    Journal journal = Journal::create(path, {"t", points.size(), 9});
    for (std::size_t k = 0; k < points.size(); ++k) {
      journal.append(make_record(k, points[k]));
    }
  }
  std::string bytes = read_file(path);
  // Flip one payload byte inside the *second* record: find the second
  // "R " framing and damage a byte well past its prefix.
  const std::size_t first_nl = bytes.find("\nR ");
  ASSERT_NE(first_nl, std::string::npos);
  const std::size_t second_nl = bytes.find("\nR ", first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::size_t second = second_nl + 1;
  bytes[second + 40] ^= 0x01;
  write_file(path, bytes);

  const JournalLoad load = load_journal(path);
  // Only the record before the corruption survives; everything from the
  // damaged record on is dropped as a torn tail.
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.valid_bytes, second);
  expect_same_record(load.records[0], make_record(0, points[0]));
  std::remove(path.c_str());
}

TEST(JournalTest, OpenForAppendTruncatesTornTailAndContinues) {
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 3u);
  const std::string path = temp_path("resume.fcj");
  {
    Journal journal = Journal::create(path, {"t", points.size(), 4});
    journal.append(make_record(0, points[0]));
    journal.append(make_record(1, points[1]));
  }
  // Tear the second record in half.
  const std::string full = read_file(path);
  const std::size_t first_nl = full.find("\nR ");
  ASSERT_NE(first_nl, std::string::npos);
  const std::size_t second_nl = full.find("\nR ", first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  write_file(path, full.substr(0, second_nl + 1 + 25));

  const JournalLoad torn = load_journal(path);
  ASSERT_EQ(torn.records.size(), 1u);
  ASSERT_TRUE(torn.torn_tail);
  {
    Journal journal = Journal::open_for_append(path, torn.valid_bytes);
    journal.append(make_record(1, points[1]));
    journal.append(make_record(2, points[2]));
  }
  const JournalLoad healed = load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.records.size(), 3u);
  expect_same_record(healed.records[0], make_record(0, points[0]));
  expect_same_record(healed.records[1], make_record(1, points[1]));
  expect_same_record(healed.records[2], make_record(2, points[2]));
  std::remove(path.c_str());
}

// Group commit: append() only buffers, so the file holds the header
// alone until commit() writes the chunk and fsyncs it; a second commit
// with nothing appended makes no syscall and returns false.
TEST(JournalTest, CommitWritesTheAppendedChunk) {
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 3u);
  const std::string path = temp_path("uncommitted.fcj");
  Journal journal = Journal::create(path, {"t", points.size(), 5});
  const std::string header = read_file(path);
  for (std::size_t k = 0; k < 3; ++k) {
    journal.append(make_record(k, points[k]));
  }
  EXPECT_EQ(read_file(path), header) << "an uncommitted chunk is buffered";

  EXPECT_TRUE(journal.commit());
  const JournalLoad load = load_journal(path);  // journal still open
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    SCOPED_TRACE(testing::Message() << "record=" << k);
    expect_same_record(load.records[k], make_record(k, points[k]));
  }

  EXPECT_FALSE(journal.commit()) << "nothing appended since the last commit";
  journal.append(make_record(0, points[0]));
  EXPECT_TRUE(journal.commit());
  EXPECT_EQ(load_journal(path).records.size(), 3u) << "a repeated index";
  std::remove(path.c_str());
}

TEST(JournalTest, DuplicateIndicesKeepTheFirstRecord) {
  const std::vector<par::SweepPoint> points = grid_points(0);
  const std::string path = temp_path("dup.fcj");
  {
    Journal journal = Journal::create(path, {"t", points.size(), 2});
    JournalRecord original = make_record(0, points[0]);
    journal.append(original);
    JournalRecord shadow = make_record(0, points[0]);
    shadow.attempts = 99;
    journal.append(shadow);
  }
  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].attempts, make_record(0, points[0]).attempts);
  std::remove(path.c_str());
}

// A record with a valid checksum but an index outside the header's grid
// is passed through, never used to size the dedup bitmap (index + 1
// wrapped to 0 at 2^64 - 1, and 99999999999 asked for 12.5 GB), and
// resuming from it fails on the grid check with a CsvError.
TEST(JournalTest, OutOfRangeIndexIsPassedThroughToTheGridCheck) {
  const sim::ExperimentConfig base = small_base();
  par::SweepGrid grid;
  grid.policies = {sim::PolicyKind::FcDpm};
  grid.rhos = {0.3, 0.5};
  const std::vector<par::SweepPoint> points = grid.points(base);
  const std::string path = temp_path("out_of_range.fcj");
  for (const std::size_t index :
       {std::size_t{18446744073709551615ull}, std::size_t{99999999999ull}}) {
    SCOPED_TRACE(testing::Message() << "index=" << index);
    {
      Journal journal = Journal::create(
          path, {base.trace.name(), points.size(),
                 grid_fingerprint(base, points, grid.storm_faults)});
      journal.append(make_record(0, points[0]));
      JournalRecord stray = make_record(1, points[1]);
      stray.index = index;
      journal.append(stray);
      journal.append(make_record(1, points[1]));
    }
    const JournalLoad load = load_journal(path);
    EXPECT_FALSE(load.torn_tail);
    ASSERT_EQ(load.records.size(), 3u);
    EXPECT_EQ(load.records[1].index, index);

    ResilienceOptions options;
    options.journal_path = path;
    options.resume = true;
    try {
      (void)run_resilient_sweep(base, grid, options);
      ADD_FAILURE() << "a record outside the grid was replayed";
    } catch (const CsvError& error) {
      EXPECT_NE(std::string(error.what())
                    .find("journal record does not match grid point " +
                          std::to_string(index)),
                std::string::npos)
          << error.what();
    }
  }
  std::remove(path.c_str());
}

/// The journal's record checksum (FNV-1a 64), to frame a hand-made record.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// A hand-made payload framed as one journal record line.
std::string frame(const std::string& payload) {
  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "R %08zx %016llx ", payload.size(),
                static_cast<unsigned long long>(fnv1a(payload)));
  return prefix + payload + "\n";
}

// A buffer past 64 KiB is written before the commit, whole records
// only, so a long commit does not hold every record in memory; the
// commit writes the rest and the bytes are those of the appends.
TEST(JournalTest, AppendWritesABufferPast64KiB) {
  const std::vector<par::SweepPoint> points = grid_points(1);
  const std::string path = temp_path("long_commit.fcj");
  Journal journal = Journal::create(path, {"t", points.size(), 7});
  std::string want = read_file(path);
  const std::size_t appends = 400;
  for (std::size_t a = 0; a < appends; ++a) {
    const std::size_t k = a % points.size();
    journal.append(make_record(k, points[k]));
    want += frame(record_to_json(make_record(k, points[k])));
  }
  ASSERT_GT(want.size(), std::size_t{2} << 16);
  const std::string early = read_file(path);
  EXPECT_GE(early.size(), std::size_t{1} << 16);
  EXPECT_LT(early.size(), want.size());
  EXPECT_EQ(early, want.substr(0, early.size()));
  EXPECT_EQ(early.back(), '\n');
  EXPECT_TRUE(journal.commit());
  EXPECT_EQ(read_file(path), want);
  std::remove(path.c_str());
}

// The append that carries the buffer past 64 KiB writes it out and
// leaves nothing buffered; the commit right after must still fsync
// those records and count as a commit.
TEST(JournalTest, CommitSyncsRecordsTheLastAppendWroteOut) {
  const std::vector<par::SweepPoint> points = grid_points(1);
  const std::string path = temp_path("flushed_then_committed.fcj");
  Journal journal = Journal::create(path, {"t", points.size(), 8});
  std::string want = read_file(path);
  const std::size_t header_bytes = want.size();
  std::size_t appends = 0;
  while (read_file(path).size() == header_bytes) {
    ASSERT_LT(appends, std::size_t{1} << 12);
    const std::size_t k = appends % points.size();
    journal.append(make_record(k, points[k]));
    want += frame(record_to_json(make_record(k, points[k])));
    ++appends;
  }
  EXPECT_GE(want.size() - header_bytes, std::size_t{1} << 16);
  EXPECT_EQ(read_file(path), want);
  EXPECT_TRUE(journal.commit());
  EXPECT_FALSE(journal.commit());
  EXPECT_EQ(read_file(path), want);
  const JournalLoad load = load_journal(path);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.valid_bytes, want.size());
  std::remove(path.c_str());
}

// A journal closed without a commit still leaves every appended record
// in the file, whole and in append order: a sweep that throws before
// its chunk's commit keeps the records it journaled.
TEST(JournalTest, UncommittedRecordsLandWhenTheJournalCloses) {
  const std::vector<par::SweepPoint> points = grid_points(1);
  ASSERT_GE(points.size(), 3u);
  const std::string path = temp_path("closed_uncommitted.fcj");
  {
    Journal journal = Journal::create(path, {"t", points.size(), 6});
    for (std::size_t k = 0; k < 3; ++k) {
      journal.append(make_record(k, points[k]));
    }
  }
  const std::string bytes = read_file(path);
  std::string want = bytes.substr(0, bytes.find('\n') + 1);
  for (std::size_t k = 0; k < 3; ++k) {
    want += frame(record_to_json(make_record(k, points[k])));
  }
  EXPECT_EQ(bytes, want);
  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.header.trace_name, "t");
  EXPECT_EQ(load.header.points, points.size());
  EXPECT_EQ(load.header.fingerprint, 6u);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.valid_bytes, bytes.size());
  ASSERT_EQ(load.records.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    SCOPED_TRACE(testing::Message() << "record=" << k);
    expect_same_record(load.records[k], make_record(k, points[k]));
  }
  std::remove(path.c_str());
}

// Keys are looked up in writer order, but a key written twice keeps its
// first value wherever the decoder's cursor stands. A value of the
// wrong JSON shape in an integer field fails the record even with a
// valid checksum.
TEST(JournalTest, RepeatedKeyKeepsItsFirstValue) {
  const std::vector<par::SweepPoint> points = grid_points(0);
  std::string payload = record_to_json(make_record(0, points[0]));
  // Write "attempts" (and "ok") a second time, before and after the
  // original: only the first one counts.
  const std::string original = R"("attempts":1,)";
  ASSERT_NE(payload.find(original), std::string::npos);
  payload.insert(payload.find(R"("policy")"), R"("attempts":2,)");
  payload.insert(payload.size() - 1, R"(,"attempts":3,"ok":false)");

  const std::string path = temp_path("repeated_key.fcj");
  {
    (void)Journal::create(path, {"t", points.size(), 3});
  }
  const std::string header = read_file(path);
  write_file(path, header + frame(payload));

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.records[0].attempts, 2u);
  EXPECT_TRUE(load.records[0].ok);

  const std::string good = frame(record_to_json(make_record(0, points[0])));
  for (const char* bad : {R"({"n":1})", "[1]", "null", "-1", "1.5", "1e0"}) {
    SCOPED_TRACE(bad);
    std::string forged = record_to_json(make_record(1, points[1]));
    const std::string attempts = R"("attempts":2,)";
    ASSERT_NE(forged.find(attempts), std::string::npos);
    forged.replace(forged.find(attempts), attempts.size(),
                   std::string(R"("attempts":)") + bad + ",");
    write_file(path, header + good + frame(forged));
    const JournalLoad torn = load_journal(path);
    ASSERT_EQ(torn.records.size(), 1u);
    EXPECT_TRUE(torn.torn_tail);
    EXPECT_EQ(torn.valid_bytes, header.size() + good.size());
  }
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileAndGarbageHeaderThrow) {
  EXPECT_THROW((void)load_journal(temp_path("does_not_exist.fcj")),
               CsvError);
  const std::string path = temp_path("garbage.fcj");
  write_file(path, "not a journal header\nR 0000 junk\n");
  EXPECT_THROW((void)load_journal(path), CsvError);
  std::remove(path.c_str());
}

TEST(JournalTest, DirectoryIsNotAJournal) {
  EXPECT_THROW((void)load_journal(::testing::TempDir()), CsvError);
}

TEST(GridFingerprintTest, SensitiveToConfigPointsAndStormSize) {
  const sim::ExperimentConfig base = small_base();
  const std::vector<par::SweepPoint> points = grid_points(0);

  const std::uint64_t reference = grid_fingerprint(base, points, 12);
  EXPECT_EQ(grid_fingerprint(base, points, 12), reference);

  sim::ExperimentConfig other = base;
  other.rho = base.rho + 0.01;
  EXPECT_NE(grid_fingerprint(other, points, 12), reference);

  std::vector<par::SweepPoint> reordered = points;
  std::swap(reordered.front(), reordered.back());
  EXPECT_NE(grid_fingerprint(base, reordered, 12), reference);

  std::vector<par::SweepPoint> tweaked = points;
  tweaked[0].storm_seed += 1;
  EXPECT_NE(grid_fingerprint(base, tweaked, 12), reference);

  EXPECT_NE(grid_fingerprint(base, points, 13), reference);

  // Capping config participates only when enabled: a journal from a
  // capped sweep must not resume an uncapped one (or one with other
  // governor knobs), while the disabled spec leaves the print alone.
  sim::ExperimentConfig capped = base;
  capped.cap.enabled = true;
  const std::uint64_t capped_print = grid_fingerprint(capped, points, 12);
  EXPECT_NE(capped_print, reference);
  capped.cap.hysteresis_slots = 7;
  EXPECT_NE(grid_fingerprint(capped, points, 12), capped_print);

  sim::ExperimentConfig disabled_tweak = base;
  disabled_tweak.cap.hysteresis_slots = 7;  // inert while disabled
  EXPECT_EQ(grid_fingerprint(disabled_tweak, points, 12), reference);

  // Same contract for the multi-stack spec: enabled participates (count,
  // distribution and fade rates all matter), disabled stays inert.
  sim::ExperimentConfig stacked = base;
  stacked.stacks.enabled = true;
  stacked.stacks.count = 3;
  const std::uint64_t stacked_print = grid_fingerprint(stacked, points, 12);
  EXPECT_NE(stacked_print, reference);
  stacked.stacks.distribution = stacks::Distribution::Waterfill;
  EXPECT_NE(grid_fingerprint(stacked, points, 12), stacked_print);
  stacked.stacks.distribution = stacks::Distribution::Proportional;
  stacked.stacks.charge_fade_per_as = 1e-5;
  EXPECT_NE(grid_fingerprint(stacked, points, 12), stacked_print);

  sim::ExperimentConfig stacks_inert = base;
  stacks_inert.stacks.count = 5;  // inert while disabled
  stacks_inert.stacks.cycle_fade = 0.25;
  EXPECT_EQ(grid_fingerprint(stacks_inert, points, 12), reference);

  // Per-point stack axes participate too.
  std::vector<par::SweepPoint> stack_points = points;
  stack_points[0].stacks = 2;
  EXPECT_NE(grid_fingerprint(base, stack_points, 12), reference);
  std::vector<par::SweepPoint> dist_points = stack_points;
  dist_points[0].distribution = stacks::Distribution::Health;
  EXPECT_NE(grid_fingerprint(base, dist_points, 12),
            grid_fingerprint(base, stack_points, 12));

  // Audit spec participates when enabled — so a journal written with
  // auditing on cannot silently resume a sweep run with it off (or in
  // another mode), while audit-off knob tweaks stay inert.
  sim::ExperimentConfig audited = base;
  audited.audit.mode = audit::Mode::Strict;
  const std::uint64_t audited_print = grid_fingerprint(audited, points, 12);
  EXPECT_NE(audited_print, reference);
  audited.audit.mode = audit::Mode::Sample;
  const std::uint64_t sampled_print = grid_fingerprint(audited, points, 12);
  EXPECT_NE(sampled_print, audited_print);
  audited.audit.sample_period = 5;
  EXPECT_NE(grid_fingerprint(audited, points, 12), sampled_print);
  audited.audit.sample_period = 16;
  audited.audit.tamper_slot = 3;
  EXPECT_NE(grid_fingerprint(audited, points, 12), sampled_print);

  sim::ExperimentConfig audit_inert = base;
  audit_inert.audit.sample_period = 5;  // inert while mode is Off
  audit_inert.audit.tamper_slot = 3;
  EXPECT_EQ(grid_fingerprint(audit_inert, points, 12), reference);
}

}  // namespace
}  // namespace fcdpm::resilience
