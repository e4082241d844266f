// Which slot loop runs a simulation, and the one function that decides.
//
// Three loops give bit-identical results: the reference loop
// (sim::simulate, the differential oracle), the hot lane (fcdpm::hot)
// and the batch loop (fcdpm::batch). The compiled loops mirror only the
// paper's configuration, so every dispatcher (hot::simulate, run_batch's
// lane checks, par::run_one and par::run_batch_chunk) asks choose_engine
// where a run goes. Nothing else inspects a hybrid and its options to
// pick a loop. Only par::run_batch_chunk, which runs multi-point sweep
// tasks, asks for Batched; a single run asks for Hot, because at B = 1
// the hot lane is the faster of the two compiled loops.
#pragma once

namespace fcdpm::power {
class HybridPowerSource;
}

namespace fcdpm::sim {

struct SimulationOptions;

/// The slot-loop implementations. The order is the `engine` argument of
/// the sweep trace's point spans.
enum class Engine {
  Reference,  ///< sim::simulate's virtual-dispatch loop (the oracle)
  Hot,        ///< fcdpm::hot — compiled trace, allocation-free slot loop
  Batched,    ///< fcdpm::batch — one slot loop over a multi-point task
};

/// Why a run landed where it did: Requested, or the first fallback
/// cause found. The first five send a compiled request to the reference
/// loop; the last two send a batched request to the hot lane.
enum class EngineReason {
  Requested,         ///< no fallback
  Faults,            ///< a fault injector in the options or on the hybrid
  ProfileRecording,  ///< record_profiles: only the reference loop records
  EventObserver,     ///< a tracing or metering observer
  HybridObserver,    ///< a hybrid observer no active run observer replaces
  NonPaperHybrid,    ///< not LinearFuelSource + SuperCapacitor
  Observer,          ///< any active observer: no batch profile scopes
  Governor,          ///< a cap governor: no batch cap side-car
};

struct EngineChoice {
  Engine engine = Engine::Reference;
  EngineReason reason = EngineReason::Requested;
};

/// The loop a run of `hybrid` under `options` takes when `requested` is
/// asked for. Budgets, cancellation, slot records, preserved state and
/// auditors never move a run.
[[nodiscard]] EngineChoice choose_engine(
    Engine requested, const power::HybridPowerSource& hybrid,
    const SimulationOptions& options);

}  // namespace fcdpm::sim
