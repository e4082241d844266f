// The opt-in observability handle threaded through the simulation
// stack: a trace sink, a metrics registry and a profiler, each
// individually optional, plus the simulated-time clock the emitting
// code keeps advanced so instrumented *policies* (which do not track
// time themselves) can stamp events correctly.
//
// Everything takes a `Context*`; nullptr means "observability off" and
// costs one pointer compare per site — the default simulation path
// stays allocation-free and bit-identical (asserted by
// tests/sim/test_observability.cpp and bench/perf_tracing_overhead).
#pragma once

#include <chrono>
#include <initializer_list>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"

namespace fcdpm::obs {

class Context {
 public:
  Context() = default;
  Context(TraceSink* sink, MetricsRegistry* metrics,
          Profiler* profiler) noexcept
      : metrics_(metrics), profiler_(profiler) {
    set_sink(sink);
  }

  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }
  /// True when events actually reach a sink. Hot call sites check this
  /// before computing event arguments, so a null (or absent) sink skips
  /// even the argument reads.
  [[nodiscard]] bool tracing() const noexcept { return emitting_; }
  /// Same idea for the metric shortcuts.
  [[nodiscard]] bool metering() const noexcept {
    return metrics_ != nullptr;
  }
  /// True when any component can actually record something. The
  /// simulators treat an inactive context exactly like a nullptr
  /// observer (nothing is attached, the clock does not advance), which
  /// is what makes a NullTraceSink-only context truly zero-overhead.
  [[nodiscard]] bool active() const noexcept {
    return emitting_ || metrics_ != nullptr || profiler_ != nullptr;
  }
  [[nodiscard]] MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] Profiler* profiler() const noexcept { return profiler_; }

  /// Caches sink->discards(): a NullTraceSink costs the same as no sink
  /// at all (emit() returns before building the event).
  void set_sink(TraceSink* sink) noexcept {
    sink_ = sink;
    emitting_ = sink != nullptr && !sink->discards();
  }
  void set_metrics(MetricsRegistry* metrics) noexcept {
    metrics_ = metrics;
  }
  void set_profiler(Profiler* profiler) noexcept { profiler_ = profiler; }

  // --- simulated clock -------------------------------------------------------

  [[nodiscard]] Seconds now() const noexcept { return now_; }
  void set_now(Seconds t) noexcept { now_ = t; }
  void advance(Seconds dt) noexcept { now_ += dt; }

  /// Timeline track for subsequent events (Chrome "tid"); lets several
  /// sequential runs share one file without overlapping spans.
  [[nodiscard]] int track() const noexcept { return track_; }
  void set_track(int track) noexcept { track_ = track; }

  // --- event emission (no-ops without a sink) --------------------------------

  void span_begin(const char* category, const char* name,
                  std::initializer_list<TraceArg> args = {}) {
    emit(EventKind::SpanBegin, category, name, args);
  }
  void span_end(const char* category, const char* name) {
    emit(EventKind::SpanEnd, category, name, {});
  }
  void instant(const char* category, const char* name,
               std::initializer_list<TraceArg> args = {}) {
    emit(EventKind::Instant, category, name, args);
  }
  /// One sample on the counter track `name`.
  void counter(const char* name, double value) {
    emit(EventKind::Counter, "counter", name, {{"value", value}});
  }

  // --- metric shortcuts (no-ops without a registry) --------------------------

  void count(const char* name, double amount = 1.0) {
    if (metrics_ != nullptr) {
      metrics_->counter(name).increment(amount);
    }
  }
  void observe(const char* name, double value) {
    if (metrics_ != nullptr) {
      metrics_->histogram(name).observe(value);
    }
  }
  void gauge(const char* name, double value) {
    if (metrics_ != nullptr) {
      metrics_->gauge(name).set(value);
    }
  }

 private:
  void emit(EventKind kind, const char* category, const char* name,
            std::initializer_list<TraceArg> args) {
    if (!emitting_) {
      return;
    }
    TraceEvent event;
    event.kind = kind;
    event.category = category;
    event.name = name;
    event.time = now_;
    event.track = track_;
    for (const TraceArg& arg : args) {
      if (event.arg_count == TraceEvent::kMaxArgs) {
        break;
      }
      event.args[event.arg_count++] = arg;
    }
    sink_->event(event);
  }

  TraceSink* sink_ = nullptr;
  bool emitting_ = false;
  MetricsRegistry* metrics_ = nullptr;
  Profiler* profiler_ = nullptr;
  Seconds now_{0.0};
  int track_ = 0;
};

/// RAII wall-clock timer for one stage of a command: on destruction,
/// sets gauge `name` to the seconds the scope took. Without a context
/// or without a metrics registry it never reads the clock.
class StageTimer {
 public:
  StageTimer(Context* obs, const char* name) noexcept
      : obs_(obs != nullptr && obs->metering() ? obs : nullptr), name_(name) {
    if (obs_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~StageTimer() {
    if (obs_ != nullptr) {
      obs_->gauge(name_, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count());
    }
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Context* obs_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace fcdpm::obs
