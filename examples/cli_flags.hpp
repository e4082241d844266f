// The flag table of fcdpm_cli (kFlags in cli_flags.cpp): every flag once,
// with the subcommands that take it, its kind, bounds and help line.
// Parsing, validation, unknown-flag rejection, the resilience-runner
// routing and the usage text are all generated from it.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fcdpm::cli {

/// Subcommands as mask bits, in usage order. `merge` takes positional
/// arguments only and is not in the table.
enum Command : unsigned {
  kGen = 1u << 0, kAnalyze = 1u << 1, kRun = 1u << 2, kCompare = 1u << 3,
  kLifetime = 1u << 4, kSweep = 1u << 5, kBisect = 1u << 6,
  kAggregate = 1u << 7,
};

/// The list kinds come last. Their items are comma-separated and trimmed;
/// an empty or a duplicate item (by parsed value) is rejected.
enum class Kind {
  Count, Real, Choice, Text, RealList, CountList, SeedList, ChoiceList,
};

/// Resilience flags engage the journaling/retry/watchdog sweep runner.
enum class Group { Plain, Resilience };

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr std::uint64_t kNoMax =
    std::numeric_limits<std::uint64_t>::max();
/// Bound of a storm's fault count (--storm-faults and --faults
/// storm:SEED:COUNT): random_storm allocates one event per fault.
inline constexpr std::uint64_t kMaxStormFaults = 10000;

/// Reals lie in [0, max], in (0, max] when `positive`, and are finite
/// unless `inf_ok`. Counts (no sign, no fraction) lie in [0, count_max],
/// in [1, count_max] when `positive`. Seeds take no bounds.
struct Bounds {
  double max = kInf;
  bool positive = false;
  bool inf_ok = false;
  std::uint64_t count_max = kNoMax;
};

struct Flag {
  std::string_view name;  // without the leading "--"
  unsigned commands;      // mask of Command
  Kind kind;
  std::string_view arg;   // metavariable; the '|'-separated choices
  std::string_view help;
  Bounds bounds = {};
  std::string_view instead = {};  // named when a command lacks this flag
  Group group = Group::Plain;
};

[[nodiscard]] std::span<const Flag> flags();
/// nullopt for an unknown subcommand (and for merge).
[[nodiscard]] std::optional<Command> parse_command(std::string_view name);
/// One subcommand's summary and every flag it takes.
[[nodiscard]] std::string usage(Command command);
/// Every subcommand, then every flag with its help line and bounds.
[[nodiscard]] std::string usage();

struct StormSpec {
  std::uint64_t seed = 0;
  std::uint64_t count = 12;
};
/// The storm of a `--faults storm:SEED[:COUNT]` value; nullopt for an
/// inline schedule or a schedule file.
[[nodiscard]] std::optional<StormSpec> parse_storm(std::string_view faults);

/// The flags given to one subcommand, parsed and checked against their
/// rows. Reading a name the table lacks, or as another kind than its
/// row's, throws std::logic_error; a flag the subcommand does not take
/// reads as absent.
class Args {
 public:
  /// "--flag value" / "--flag=value" pairs; throws std::runtime_error
  /// naming the flag on any bad input.
  static Args parse(Command command, int argc, const char* const* argv);

  [[nodiscard]] Command command() const { return command_; }
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] bool any(Group group) const;

  std::uint64_t count(std::string_view name, std::uint64_t fallback) const {
    return first(name, Kind::Count, &Value::counts, fallback);
  }
  double real(std::string_view name, double fallback) const {
    return first(name, Kind::Real, &Value::reals, fallback);
  }
  std::string choice(std::string_view name, std::string fallback) const {
    return first(name, Kind::Choice, &Value::items, std::move(fallback));
  }
  std::string text(std::string_view name) const {
    return first(name, Kind::Text, &Value::items, std::string());
  }
  std::vector<double> reals(std::string_view name) const {
    return list(name, Kind::RealList, &Value::reals);
  }
  std::vector<std::uint64_t> counts(std::string_view name) const {
    return list(name, Kind::CountList, &Value::counts);
  }
  std::vector<std::uint64_t> seeds(std::string_view name) const {
    return list(name, Kind::SeedList, &Value::counts);
  }
  std::vector<std::string> choices(std::string_view name) const {
    return list(name, Kind::ChoiceList, &Value::items);
  }

 private:
  /// One given flag; a scalar kind holds a single item.
  struct Value {
    const Flag* flag = nullptr;
    std::vector<double> reals;
    std::vector<std::uint64_t> counts;
    std::vector<std::string> items;  // choices and text
  };

  explicit Args(Command command) : command_(command) {}
  static Value read(const Flag& flag, std::string_view text);
  [[nodiscard]] const Value* find(std::string_view name, Kind kind) const;
  template <typename T>
  std::vector<T> list(std::string_view name, Kind kind,
                      std::vector<T> Value::*field) const {
    const Value* value = find(name, kind);
    return value != nullptr ? value->*field : std::vector<T>();
  }
  template <typename T>
  T first(std::string_view name, Kind kind, std::vector<T> Value::*field,
          T fallback) const {
    const std::vector<T> values = list(name, kind, field);
    return values.empty() ? fallback : values.front();
  }

  Command command_;
  std::vector<Value> values_;
};

}  // namespace fcdpm::cli
