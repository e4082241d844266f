// The run, batch and resilience statistics of one sweep, each declared
// once: a member of its counter struct and one line of its list. The
// line gives its gauge name, its key in its JSON block, its summary-line
// label, its gate and its merge rule. The `par.sweep.*` and
// `resilience.*` gauges, the BENCH_sweep.json run keys and its `batch`
// and `resilience` blocks, the `batched:` and `resilience:` summary
// lines and perf_batch's `batch` block are written from the lists, so a
// statistic added here reaches each of them. par::SweepRunStats,
// batch::BatchStats and the report structs hold the counter structs as
// base classes.
//
// Each list calls `visit(stat, field...)` once per statistic, in JSON key
// order; passing several instances visits the same field of each side by
// side, as for_each_counter (shard.hpp) does.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fcdpm::telemetry {

/// When an encoder writes a counter: always, only when it is nonzero, or
/// only when a flag of the sweep holds. The gates keep the bytes of
/// streams written before the counter existed.
enum class Gate { Always, Nonzero, Audited, Capped, Journaled };

/// The sweep flags the gates read: `audited_slots` is nonzero, the cap
/// governor ran, a journal was open.
struct GateFlags {
  bool audited = false;
  bool capped = false;
  bool journaled = false;
};

/// True when a counter of `gate` holding `value` is written.
template <typename T>
[[nodiscard]] constexpr bool shown(Gate gate, const T& value,
                                   GateFlags flags) noexcept {
  return gate == Gate::Nonzero     ? value != T{}
         : gate == Gate::Audited   ? flags.audited
         : gate == Gate::Capped    ? flags.capped
         : gate == Gate::Journaled ? flags.journaled
                                   : true;
}

/// How two instances of a statistic (per task, per worker) combine.
enum class Merge { Sum, Max, Last };

/// One statistic's line in its list.
struct Stat {
  constexpr Stat(const char* gauge = nullptr, std::string_view key = {},
                 std::string_view label = {}, Gate gate = Gate::Always,
                 Merge merge = Merge::Sum) noexcept
      : gauge(gauge), key(key), label(label), gate(gate), merge(merge) {}

  const char* gauge;       ///< obs gauge name; nullptr = none
  std::string_view key;    ///< key in its JSON block; empty = none
  std::string_view label;  ///< summary-line label; empty = none
  Gate gate;               ///< when the key and the label are written
  Merge merge;
};

/// A visitor for a list called with two instances: folds the second
/// into the first by each statistic's merge rule.
inline constexpr auto merge_stat = [](const Stat& stat, auto& into,
                                      const auto& from) {
  into = stat.merge == Merge::Sum   ? into + from
         : stat.merge == Merge::Max ? std::max(into, from)
                                    : from;
};

/// A visitor for a list: appends `<separator><value> <label>` to `line`
/// for each labelled statistic its gate shows; the separator is " | "
/// after the first.
struct LabelLine {
  std::string& line;
  const char* separator;
  GateFlags flags;

  template <typename T>
  void operator()(const Stat& stat, const T& value) {
    if (!stat.label.empty() && shown(stat.gate, value, flags)) {
      line += separator;
      line += std::to_string(value) + ' ';
      line += stat.label;
      separator = " | ";
    }
  }
};

/// The run statistics of a sweep: gauges and top-level JSON keys. The
/// points/s rate and the `cache` block derive from them.
struct RunCounters {
  std::size_t points = 0;
  std::size_t jobs = 0;  ///< worker threads, the calling one included
  double wall_seconds = 0.0;
  /// Cache traffic attributable to this run (delta over the run).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Points served a copy of their canonical's result instead of being
  /// simulated (par::SweepTwins): rho twins and capacity twins.
  std::size_t twins = 0;
};

template <typename Visit, typename... C>
void for_each_run_stat(Visit&& visit, C&... c) {
  visit(Stat{"par.sweep.points", "points"}, c.points...);
  visit(Stat{"par.sweep.jobs", "jobs", {}, Gate::Always, Merge::Last},
        c.jobs...);
  visit(Stat{"par.sweep.wall_s", "wall_s", {}, Gate::Always, Merge::Max},
        c.wall_seconds...);
  visit(Stat{"par.sweep.twins", "twins", {}, Gate::Nonzero}, c.twins...);
  visit(Stat{}, c.cache_hits...);
  visit(Stat{}, c.cache_misses...);
}

/// The merge accounting of batched tasks: each task's batch::BatchStats,
/// summed into the sweep's. Written, gauges included, only when the
/// sweep batched a point, after the count of batched points.
struct BatchCounters {
  /// Merge sets formed (>= 2 identical lanes), at batch start or when
  /// lanes re-converge after a split.
  std::size_t batch_merge_sets = 0;
  /// Follower-slots served entirely by a leader's work.
  std::size_t batch_merged_lane_slots = 0;
  /// Leaders that left their set at a capacity clamp and finished the
  /// slot solo.
  std::size_t batch_splits = 0;
  /// Always 0: the per-slot solve journal it counted is gone. Kept for
  /// the `journal_hits` field of the batch block and the bench readers.
  std::uint64_t batch_journal_hits = 0;
};

template <typename Visit, typename... C>
void for_each_batch_stat(Visit&& visit, C&... c) {
  visit(Stat{"par.sweep.batch_merge_sets", "merge_sets", "merge sets"},
        c.batch_merge_sets...);
  visit(Stat{"par.sweep.batch_merged_lane_slots", "merged_lane_slots",
             "merged lane-slots"},
        c.batch_merged_lane_slots...);
  visit(Stat{"par.sweep.batch_splits", "splits", "splits"},
        c.batch_splits...);
  visit(Stat{"par.sweep.batch_journal_hits", "journal_hits", "journal hits"},
        c.batch_journal_hits...);
}

/// The resilient runner's bookkeeping: gauges always; the `resilience`
/// JSON block and summary line when a resilience option was given.
struct ResilienceCounters {
  std::size_t scheduled = 0;    ///< points not replayed, twins included
  std::size_t replayed = 0;     ///< points restored from the journal
  std::size_t retries = 0;      ///< re-attempts beyond each first try
  std::size_t quarantined = 0;  ///< points that exhausted their retries
  std::size_t rounds = 0;       ///< scheduling rounds executed
  std::size_t spot_checks = 0;  ///< replayed points re-verified bitwise
  bool torn_tail_recovered = false;
  std::size_t torn_bytes_dropped = 0;
  std::size_t watchdog_stalls = 0;
  std::size_t journal_commits = 0;  ///< group-commit fsyncs made
  std::size_t capped_ok = 0;  ///< ok points the cap governor throttled
};

template <typename Visit, typename... C>
void for_each_resilience_stat(Visit&& visit, C&... c) {
  visit(Stat{"resilience.scheduled", "scheduled", "scheduled"},
        c.scheduled...);
  visit(Stat{"resilience.replayed", "replayed", "replayed"}, c.replayed...);
  visit(Stat{"resilience.retries", "retries", "retries"}, c.retries...);
  visit(Stat{"resilience.quarantined", "quarantined", "quarantined"},
        c.quarantined...);
  visit(Stat{"resilience.rounds", "rounds", "rounds", Gate::Always,
             Merge::Max},
        c.rounds...);
  visit(Stat{"resilience.spot_checks", "spot_checks", "spot-checks"},
        c.spot_checks...);
  visit(Stat{nullptr, "torn_tail_recovered", {}, Gate::Always, Merge::Last},
        c.torn_tail_recovered...);
  visit(Stat{"resilience.torn_bytes_dropped", "torn_bytes_dropped", {},
             Gate::Always, Merge::Last},
        c.torn_bytes_dropped...);
  visit(Stat{"resilience.watchdog_stalls", "watchdog_stalls", "stalls"},
        c.watchdog_stalls...);
  visit(Stat{"resilience.journal_commits", {}, "journal commits",
             Gate::Journaled},
        c.journal_commits...);
  visit(Stat{"resilience.capped_ok", "capped_ok", {}, Gate::Capped},
        c.capped_ok...);
}

}  // namespace fcdpm::telemetry
