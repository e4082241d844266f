// hot::LaneState against the reference HybridPowerSource::run_segment,
// one segment at a time. Seeded random segments (setpoints idle, inside
// and outside the load-following range; loads and durations that fill
// and drain the buffer) run over random capacities, efficiencies,
// startup fuels and starting charges. Every field is compared bitwise
// after every segment, and the hybrid again after write_back, so a
// drift fails at the segment that drifted, with its seed.
#include "hot/lane.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>

#include "power/efficiency_model.hpp"
#include "power/hybrid.hpp"
#include "power/storage.hpp"
#include "sim/experiments.hpp"

namespace fcdpm::hot {
namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The lane's state against the hybrid's, field by field, bitwise.
testing::AssertionResult same_state(const LaneState::Snapshot& lane,
                                    power::HybridPowerSource& hybrid) {
  const power::HybridTotals& t = hybrid.totals();
  const std::pair<const char*, bool> fields[] = {
      {"charge", same(lane.q, hybrid.storage().charge().value())},
      {"fuel", same(lane.totals.fuel.value(), t.fuel.value())},
      {"delivered energy", same(lane.totals.delivered_energy.value(),
                                t.delivered_energy.value())},
      {"load energy",
       same(lane.totals.load_energy.value(), t.load_energy.value())},
      {"bled", same(lane.totals.bled.value(), t.bled.value())},
      {"unserved", same(lane.totals.unserved.value(), t.unserved.value())},
      {"duration", same(lane.totals.duration.value(), t.duration.value())},
      {"min storage seen",
       same(lane.q_min, hybrid.min_storage_seen().value())},
      {"max storage seen",
       same(lane.q_max, hybrid.max_storage_seen().value())},
      {"startups", lane.startups == hybrid.startups()},
      // No public accessor: a fresh mirror reads the hybrid's flag.
      {"fc_running",
       lane.fc_running == LaneState(hybrid).snapshot().fc_running},
  };
  for (const auto& [name, equal] : fields) {
    if (!equal) {
      return testing::AssertionFailure() << name << " differs";
    }
  }
  return testing::AssertionSuccess();
}

TEST(LaneStateTest, SegmentsMatchTheReferenceHybridBitwise) {
  const power::LinearEfficiencyModel model =
      sim::experiment1_config().efficiency;
  std::size_t filled = 0;
  std::size_t drained = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const auto uniform = [&](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const Coulomb capacity(uniform(0.5, 20.0));
    const double efficiency = seed % 3 == 0 ? 1.0 : uniform(0.8, 1.0);
    power::HybridPowerSource reference(
        std::make_unique<power::LinearFuelSource>(model),
        std::make_unique<power::SuperCapacitor>(capacity, efficiency));
    reference.storage().set_charge(reference.storage().capacity() *
                                   uniform(0.0, 1.0));
    if (seed % 2 == 0) {
      reference.set_startup_fuel(Coulomb(uniform(0.0, 2.0)));
    }
    power::HybridPowerSource mirrored = reference.clone();
    LaneState lane(mirrored);
    const double if_min = lane.if_min();
    const double if_max = lane.if_max();

    for (std::size_t segment = 0; segment < 64; ++segment) {
      double setpoint = 0.0;
      switch (rng() % 4) {
        case 0:
          break;  // FC idled
        case 1:
          setpoint = uniform(if_min, if_max);
          break;
        case 2:
          setpoint = uniform(0.0, if_min);
          break;
        default:
          setpoint = uniform(if_max, 2.0 * if_max);
          break;
      }
      const double load = rng() % 8 == 0 ? 0.0 : uniform(0.0, 2.0);
      const double duration = rng() % 16 == 0 ? 0.0 : uniform(0.0, 40.0);

      bool capacity_sensitive = false;
      const double i_f =
          lane.run_segment(duration, load, setpoint, capacity_sensitive);
      const power::SegmentResult want = reference.run_segment(
          Seconds(duration), Ampere(load), Ampere(setpoint));
      ASSERT_TRUE(same(i_f, want.actual_if.value()))
          << "seed " << seed << ", segment " << segment << ": IF differs";
      ASSERT_TRUE(same_state(lane.snapshot(), reference))
          << "seed " << seed << ", segment " << segment;
      filled += want.bled.value() > 0.0 ? 1 : 0;
      drained += want.unserved.value() > 0.0 ? 1 : 0;
    }
    lane.write_back();
    ASSERT_TRUE(same_state(lane.snapshot(), mirrored))
        << "seed " << seed << ", after write_back";
  }
  // The generator reaches both buffer limits.
  EXPECT_GT(filled, 100u);
  EXPECT_GT(drained, 100u);
}

}  // namespace
}  // namespace fcdpm::hot
