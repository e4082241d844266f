// Performance A6: throughput of the per-slot solvers. FC-DPM runs the
// closed-form solve twice per task slot at run time (idle start + active
// start), so it must be cheap enough for an embedded power manager; the
// numerical validator is the reference cost.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/efficiency_estimator.hpp"
#include "core/numerical_solver.hpp"
#include "core/quantized_optimizer.hpp"
#include "core/slot_optimizer.hpp"
#include "dpm/predictors.hpp"
#include "power/fc_system.hpp"
#include "power/hybrid.hpp"

// Global allocation counter: the per-slot hot path must be free of
// heap traffic, and this binary proves it (see main below).
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator new with the in-class free() and
// warns at inlined call sites; the pairing is in fact consistent
// (malloc in, free out) across all replacements below.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace fcdpm;

core::SlotLoad load_for(std::int64_t variant) {
  const double t = static_cast<double>(variant % 7);
  return {Seconds(10.0 + t), Ampere(0.15 + 0.01 * t), Seconds(3.0 + t),
          Ampere(1.0 + 0.02 * t)};
}

void BM_ClosedFormSolve(benchmark::State& state) {
  const core::SlotOptimizer optimizer(
      power::LinearEfficiencyModel::paper_default());
  const core::StorageBounds storage{Coulomb(1.0), Coulomb(1.0),
                                    Coulomb(6.0)};
  std::int64_t k = 0;
  for (auto _ : state) {
    const core::SlotSetting s = optimizer.solve(load_for(k++), storage);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClosedFormSolve);

void BM_ClosedFormSolveWithOverhead(benchmark::State& state) {
  const core::SlotOptimizer optimizer(
      power::LinearEfficiencyModel::paper_default());
  const core::StorageBounds storage{Coulomb(1.0), Coulomb(1.0),
                                    Coulomb(6.0)};
  core::SleepOverhead overhead;
  overhead.sleeps = true;
  overhead.wake_delay = Seconds(0.5);
  overhead.wake_current = Ampere(0.4);
  overhead.powerdown_delay = Seconds(0.5);
  overhead.powerdown_current = Ampere(0.4);
  std::int64_t k = 0;
  for (auto _ : state) {
    const core::SlotSetting s =
        optimizer.solve_with_overhead(load_for(k++), overhead, storage);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClosedFormSolveWithOverhead);

void BM_NumericalSolve(benchmark::State& state) {
  const core::NumericalSlotSolver solver(
      power::LinearEfficiencyModel::paper_default());
  const core::StorageBounds storage{Coulomb(1.0), Coulomb(1.0),
                                    Coulomb(6.0)};
  std::int64_t k = 0;
  for (auto _ : state) {
    const core::NumericalSlotResult s =
        solver.solve(load_for(k++), storage);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NumericalSolve);

void BM_QuantizedSolve(benchmark::State& state) {
  const core::QuantizedSlotOptimizer optimizer =
      core::QuantizedSlotOptimizer::with_uniform_levels(
          power::LinearEfficiencyModel::paper_default(),
          static_cast<std::size_t>(state.range(0)));
  const core::StorageBounds storage{Coulomb(1.0), Coulomb(1.0),
                                    Coulomb(6.0)};
  std::int64_t k = 0;
  for (auto _ : state) {
    const core::QuantizedSetting s =
        optimizer.solve(load_for(k++), storage);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantizedSolve)->Arg(4)->Arg(8)->Arg(16);

void BM_EfficiencyEstimatorObserve(benchmark::State& state) {
  core::EfficiencyEstimator estimator(0.45, 0.13, 0.98);
  double i = 0.1;
  for (auto _ : state) {
    estimator.observe(Ampere(i), 0.45 - 0.13 * i);
    i = (i >= 1.2) ? 0.1 : i + 0.01;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EfficiencyEstimatorObserve);

void BM_FuelRateEvaluation(benchmark::State& state) {
  const power::LinearEfficiencyModel model =
      power::LinearEfficiencyModel::paper_default();
  double i = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.stack_current(Ampere(i)));
    i = (i >= 1.2) ? 0.1 : i + 0.001;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FuelRateEvaluation);

void BM_PhysicalFuelCurrent(benchmark::State& state) {
  const power::PhysicalFuelSource source(power::FcSystem::paper_system(),
                                         Ampere(0.1));
  double i = 0.15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.fuel_current(Ampere(i)));
    i = (i >= 1.2) ? 0.15 : i + 0.001;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhysicalFuelCurrent);

void BM_RegressionPredict(benchmark::State& state) {
  dpm::RegressionPredictor predictor(16, Seconds(0.0));
  for (int k = 0; k < 20; ++k) {
    predictor.observe(Seconds(5.0 + static_cast<double>(k % 7)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegressionPredict);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Self-check (exit 1 on regression): RegressionPredictor::predict is
  // called twice per task slot and must not allocate — it used to build
  // two scratch vectors per call.
  fcdpm::dpm::RegressionPredictor predictor(16, fcdpm::Seconds(0.0));
  for (int k = 0; k < 20; ++k) {
    predictor.observe(fcdpm::Seconds(5.0 + static_cast<double>(k % 7)));
  }
  double sink = 0.0;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int k = 0; k < 1000; ++k) {
    sink += predictor.predict().value();
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  if (after != before) {
    std::fprintf(stderr,
                 "FAIL: RegressionPredictor::predict() allocated %zu "
                 "times over 1000 calls (must be 0)\n",
                 after - before);
    return 1;
  }
  std::printf("predict() allocation-free over 1000 calls (mean %.6g s)\n",
              sink / 1000.0);
  return 0;
}
