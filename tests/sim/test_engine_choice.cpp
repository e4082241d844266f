// sim::choose_engine is the one place a run's loop is picked. One table
// crosses every fallback cause with each requested engine.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cap/governor.hpp"
#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "power/hybrid.hpp"
#include "power/storage.hpp"
#include "sim/experiments.hpp"
#include "sim/slot_simulator.hpp"

namespace fcdpm {
namespace {

using sim::Engine;
using sim::EngineChoice;
using sim::EngineReason;

enum class Source {
  Paper,         ///< sim::make_hybrid of the paper configuration
  MultiStack,    ///< a two-stack source
  Battery,       ///< LinearFuelSource over a Li-ion battery
  WithInjector,  ///< paper hybrid with a fault injector attached
  WithObserver,  ///< paper hybrid with its own (metering) observer
};

struct Row {
  std::string name;
  Source source = Source::Paper;
  std::function<void(sim::SimulationOptions&)> set;
  EngineChoice hot;      ///< expected for a Hot request
  EngineChoice batched;  ///< expected for a Batched request
};

TEST(EngineChoice, EveryReasonCrossedWithEveryRequestedEngine) {
  const sim::ExperimentConfig config = sim::experiment1_config();
  sim::ExperimentConfig multi_config = config;
  multi_config.stacks.enabled = true;
  multi_config.stacks.count = 2;

  fault::FaultInjector injector(fault::FaultSchedule::random_storm(
      7, 12, config.trace.stats().total_duration()));
  std::ostringstream stream;
  obs::JsonlTraceSink sink(stream);
  obs::Context traced;
  traced.set_sink(&sink);
  obs::MetricsRegistry metrics;
  obs::Context metered;
  metered.set_metrics(&metrics);
  obs::Profiler profiler;
  obs::Context profiled;
  profiled.set_profiler(&profiler);
  obs::Context idle;  // attached but inactive: counts as no observer
  sim::ExperimentConfig cap_config = config;
  cap_config.cap.enabled = true;
  cap::Governor governor =
      cap::make_governor(cap_config.cap, cap_config.efficiency);
  sim::CancellationToken token;

  const auto make = [&](Source source) {
    switch (source) {
      case Source::MultiStack:
        return sim::make_hybrid(multi_config);
      case Source::Battery:
        return power::HybridPowerSource(
            std::make_unique<power::LinearFuelSource>(config.efficiency),
            std::make_unique<power::LiIonBattery>(
                power::LiIonBattery::Params{}));
      case Source::WithInjector: {
        power::HybridPowerSource hybrid = sim::make_hybrid(config);
        hybrid.set_fault_injector(&injector);
        return hybrid;
      }
      case Source::WithObserver: {
        power::HybridPowerSource hybrid = sim::make_hybrid(config);
        hybrid.set_observer(&metered);
        return hybrid;
      }
      case Source::Paper:
        break;
    }
    return sim::make_hybrid(config);
  };

  const EngineChoice hot{Engine::Hot, EngineReason::Requested};
  const EngineChoice batched{Engine::Batched, EngineReason::Requested};
  const auto to_reference = [](EngineReason reason) {
    return EngineChoice{Engine::Reference, reason};
  };
  const auto to_hot = [](EngineReason reason) {
    return EngineChoice{Engine::Hot, reason};
  };
  const auto none = [](sim::SimulationOptions&) {};

  const std::vector<Row> rows = {
      {"paper configuration", Source::Paper, none, hot, batched},
      {"budget, cancellation, slot records and preserved state",
       Source::Paper,
       [&](sim::SimulationOptions& o) {
         o.cancel = &token;
         o.slot_budget = 10;
         o.keep_slot_records = true;
         o.preserve_source_state = true;
       },
       hot, batched},
      {"inactive observer", Source::Paper,
       [&](sim::SimulationOptions& o) { o.observer = &idle; }, hot,
       batched},
      {"fault injector in the options", Source::Paper,
       [&](sim::SimulationOptions& o) { o.faults = &injector; },
       to_reference(EngineReason::Faults),
       to_reference(EngineReason::Faults)},
      {"fault injector on the hybrid", Source::WithInjector, none,
       to_reference(EngineReason::Faults),
       to_reference(EngineReason::Faults)},
      {"profile recording", Source::Paper,
       [](sim::SimulationOptions& o) {
         o.record_profiles = true;
         o.profile_limit = Seconds(300.0);
       },
       to_reference(EngineReason::ProfileRecording),
       to_reference(EngineReason::ProfileRecording)},
      {"tracing observer", Source::Paper,
       [&](sim::SimulationOptions& o) { o.observer = &traced; },
       to_reference(EngineReason::EventObserver),
       to_reference(EngineReason::EventObserver)},
      {"metering observer", Source::Paper,
       [&](sim::SimulationOptions& o) { o.observer = &metered; },
       to_reference(EngineReason::EventObserver),
       to_reference(EngineReason::EventObserver)},
      {"hybrid observer the run does not replace", Source::WithObserver,
       none, to_reference(EngineReason::HybridObserver),
       to_reference(EngineReason::HybridObserver)},
      {"multi-stack source", Source::MultiStack, none,
       to_reference(EngineReason::NonPaperHybrid),
       to_reference(EngineReason::NonPaperHybrid)},
      {"battery storage", Source::Battery, none,
       to_reference(EngineReason::NonPaperHybrid),
       to_reference(EngineReason::NonPaperHybrid)},
      {"profiler-only observer", Source::Paper,
       [&](sim::SimulationOptions& o) { o.observer = &profiled; }, hot,
       to_hot(EngineReason::Observer)},
      {"hybrid observer replaced by a profiler-only one",
       Source::WithObserver,
       [&](sim::SimulationOptions& o) { o.observer = &profiled; }, hot,
       to_hot(EngineReason::Observer)},
      {"cap governor", Source::Paper,
       [&](sim::SimulationOptions& o) { o.governor = &governor; }, hot,
       to_hot(EngineReason::Governor)},
      {"faults win over a governor", Source::Paper,
       [&](sim::SimulationOptions& o) {
         o.faults = &injector;
         o.governor = &governor;
       },
       to_reference(EngineReason::Faults),
       to_reference(EngineReason::Faults)},
  };

  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const power::HybridPowerSource hybrid = make(row.source);
    sim::SimulationOptions options = config.simulation;
    row.set(options);
    const struct {
      Engine requested;
      EngineChoice want;
    } cases[] = {{Engine::Reference, {}},
                 {Engine::Hot, row.hot},
                 {Engine::Batched, row.batched}};
    for (const auto& c : cases) {
      SCOPED_TRACE("requested " +
                   std::to_string(static_cast<int>(c.requested)));
      const EngineChoice got = sim::choose_engine(c.requested, hybrid, options);
      EXPECT_EQ(got.engine, c.want.engine);
      EXPECT_EQ(got.reason, c.want.reason);
    }
  }
}

}  // namespace
}  // namespace fcdpm
