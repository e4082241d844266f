#include "sim/engine.hpp"

#include "obs/context.hpp"
#include "power/hybrid.hpp"
#include "power/storage.hpp"
#include "sim/slot_simulator.hpp"

namespace fcdpm::sim {

EngineChoice choose_engine(Engine requested,
                           const power::HybridPowerSource& hybrid,
                           const SimulationOptions& options) {
  if (requested == Engine::Reference) {
    return {};
  }
  const obs::Context* obs =
      (options.observer != nullptr && options.observer->active())
          ? options.observer
          : nullptr;
  if (options.faults != nullptr || hybrid.fault_injector() != nullptr) {
    return {Engine::Reference, EngineReason::Faults};
  }
  if (options.record_profiles) {
    return {Engine::Reference, EngineReason::ProfileRecording};
  }
  // A profiler-only observer changes no results (nothing reaches a sink
  // or a registry), so the hot lane keeps it for the per-phase
  // breakdown.
  if (obs != nullptr && (obs->tracing() || obs->metering())) {
    return {Engine::Reference, EngineReason::EventObserver};
  }
  // A pre-attached hybrid observer would emit from inside run_segment;
  // only a run that replaces it (ObserverGuard with a non-null context)
  // can leave the reference loop.
  if (hybrid.observer() != nullptr && obs == nullptr) {
    return {Engine::Reference, EngineReason::HybridObserver};
  }
  if (dynamic_cast<const power::LinearFuelSource*>(&hybrid.source()) ==
          nullptr ||
      dynamic_cast<const power::SuperCapacitor*>(&hybrid.storage()) ==
          nullptr) {
    return {Engine::Reference, EngineReason::NonPaperHybrid};
  }
  // With no active observer the rules above leave no hybrid observer
  // either, so these two are all the batch loop adds.
  if (requested == Engine::Batched && obs != nullptr) {
    return {Engine::Hot, EngineReason::Observer};
  }
  if (requested == Engine::Batched && options.governor != nullptr) {
    return {Engine::Hot, EngineReason::Governor};
  }
  return {requested, EngineReason::Requested};
}

}  // namespace fcdpm::sim
