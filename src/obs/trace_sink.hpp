// Structured trace events over *simulated* time, and the sinks that
// persist them.
//
// The simulators and policies emit spans (slots, idle/active phases),
// instants (FC setpoint decisions, projection activations, sleep
// transitions) and counter samples (storage charge, FC output). Sinks:
//
//  * NullTraceSink   — swallows everything; the cost of an *attached but
//                      discarded* pipeline, which the overhead bench
//                      (bench/perf_tracing_overhead.cpp) pins at < 2 %.
//  * JsonlTraceSink  — one self-describing JSON object per line; easy to
//                      grep/jq and to stream.
//  * ChromeTraceSink — the Chrome trace-event array format, loadable in
//                      chrome://tracing and https://ui.perfetto.dev for
//                      timeline visualization.
//
// Events carry no owned memory: names/categories must be string
// literals (or otherwise outlive the sink) and arguments are a fixed
// inline array, so building an event never allocates.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "common/units.hpp"

namespace fcdpm::obs {

/// Chrome trace-event phases the pipeline distinguishes.
enum class EventKind {
  SpanBegin,  ///< "B" — a named span opens at `time`
  SpanEnd,    ///< "E" — the innermost open span with this name closes
  Instant,    ///< "i" — a point event
  Counter,    ///< "C" — a sampled value (one timeline track per name)
};

/// One key/value annotation. `key` must have static storage duration.
struct TraceArg {
  const char* key = "";
  double value = 0.0;
};

/// A complete event. Trivially copyable; building one never allocates.
struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 4;

  EventKind kind = EventKind::Instant;
  const char* name = "";      ///< static storage duration required
  const char* category = "";  ///< static storage duration required
  Seconds time{0.0};          ///< simulated time
  /// Timeline track (Chrome "tid"); lets one file hold several
  /// sequential runs side by side (e.g. `compare`'s three policies).
  int track = 0;
  std::size_t arg_count = 0;
  std::array<TraceArg, kMaxArgs> args{};
};

/// Event consumer interface.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void event(const TraceEvent& event) = 0;

  /// Assign a human-readable name to a timeline track (Chrome "tid").
  /// Sinks that support it emit a metadata record (Chrome "M" phase
  /// `thread_name`, which Perfetto renders as the track label); the
  /// default is a no-op. Unlike event names, `name` is copied — it need
  /// not outlive the call.
  virtual void track_name(int /*track*/, const char* /*name*/) {}

  /// Push buffered output to the underlying stream (no-op by default).
  virtual void flush() {}

  /// True when every event is thrown away. obs::Context caches this on
  /// attach and skips event construction entirely, which is what makes
  /// the null sink zero-overhead (bench/perf_tracing_overhead.cpp pins
  /// it at < 2 % over observability disabled).
  [[nodiscard]] virtual bool discards() const noexcept { return false; }
};

/// Swallows events at zero cost: contexts never even build the event.
class NullTraceSink final : public TraceSink {
 public:
  void event(const TraceEvent&) override {}
  [[nodiscard]] bool discards() const noexcept override { return true; }
};

/// One JSON object per line:
///   {"ph":"i","name":"fc.plan","cat":"core","t":12.5,"track":0,
///    "args":{"setpoint":0.53}}
class JsonlTraceSink final : public TraceSink {
 public:
  /// The stream must outlive the sink.
  explicit JsonlTraceSink(std::ostream& out);

  void event(const TraceEvent& event) override;
  void track_name(int track, const char* name) override;
  void flush() override;

 private:
  std::ostream* out_;
};

/// Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
/// Simulated seconds map to trace microseconds. `close()` (or the
/// destructor) completes the document; events after close are dropped.
class ChromeTraceSink final : public TraceSink {
 public:
  /// The stream must outlive the sink.
  explicit ChromeTraceSink(std::ostream& out);
  ~ChromeTraceSink() override;

  ChromeTraceSink(const ChromeTraceSink&) = delete;
  ChromeTraceSink& operator=(const ChromeTraceSink&) = delete;

  void event(const TraceEvent& event) override;
  void track_name(int track, const char* name) override;
  void flush() override;

  /// Write the closing brackets; idempotent.
  void close();

 private:
  std::ostream* out_;
  bool first_ = true;
  bool closed_ = false;
};

/// Escape a string for embedding in a JSON string literal: quote,
/// backslash, \n, \t and \r by name, other control bytes as \u00XX.
[[nodiscard]] std::string json_escape(const char* text);

/// json_escape appended to `out`.
void append_json_escaped(std::string& out, const char* text);

}  // namespace fcdpm::obs
