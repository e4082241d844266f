#include "cli_flags.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common/text.hpp"

namespace fcdpm::cli {
namespace {

using enum Kind;

constexpr unsigned kModel = kRun | kCompare | kLifetime | kSweep | kBisect;
constexpr unsigned kLoad = kModel | kGen | kAnalyze | kAggregate;
constexpr unsigned kObserved = kRun | kCompare | kLifetime | kSweep;
constexpr unsigned kFaulted = kRun | kCompare | kLifetime;
constexpr Group kResilience = Group::Resilience;
/// Millisecond windows are compared against steady_clock durations.
constexpr std::uint64_t kMaxMillis =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max())
        .count();

constexpr Flag kFlags[] = {
    // Workload.
    {"trace", kLoad, Text, "f.csv", "workload trace (instead of --kind)"},
    {"kind", kLoad, Choice, "camcorder|synthetic",
     "generated workload and the paper's experiment 1 or 2 (camcorder)"},
    {"seed", kLoad, Count, "N", "generator seed (0 = its default)"},
    {"out", kGen | kAggregate | kSweep, Text, "f",
     "trace CSV (gen and aggregate, required) or BENCH_sweep.json (sweep)"},
    {"defer", kAggregate, Real, "S", "slot deferral budget in seconds (30)"},
    // Model: the paper's knobs.
    {"policy", kRun | kLifetime | kBisect, Choice, "conv|asap|fcdpm|oracle",
     "fuel-cell output policy (fcdpm)", {}, "policies"},
    {"rho", kModel, Real, "R", "predictor weight of the last idle period",
     {.max = 1.0}},
    {"sigma", kModel, Real, "S", "predictor weight of the last active period",
     {.max = 1.0}},
    {"capacity", kModel, Real, "A-s", "storage capacity Cmax",
     {.positive = true}},
    {"initial", kModel, Real, "A-s", "initial charge (clamped to capacity)"},
    {"tank", kLifetime, Real, "A-s", "fuel tank (10000)", {.positive = true}},
    {"engine", kModel, Choice, "reference|hot|batched",
     "simulation engine (reference); hot = compiled-trace fast path, batched "
     "= batch loop for multi-point sweep tasks (single runs take the "
     "hot path), both bit-identical; batched rejects --faults and --audit "
     "strict"},
    // Observability.
    {"trace-out", kObserved, Text, "f.json", "Chrome trace (f.jsonl: JSONL)"},
    {"metrics-out", kObserved, Text, "f.csv", "metrics dump (f.json: JSON)"},
    {"profile-out", kObserved, Text, "f.csv", "wall-clock hot-path profile"},
    // Faults, capping, stacks, auditing.
    {"faults", kFaulted, Text, "SPEC",
     "inline schedule (kind@start[:dur][xmag],...), a seeded random "
     "storm:SEED[:COUNT] (COUNT 12, bounded as --storm-faults) or a CSV "
     "schedule file", {}, "storm-seeds"},
    {"cap", kModel, Choice, "on|off",
     "closed-loop power capping: throttle instead of browning out (off)"},
    {"cap-table", kModel, Text, "f.csv",
     "corecap table (min_budget_w,max_level); default from the processor"},
    {"cap-hysteresis", kModel, Count, "N", "clean slots before a step up (4)"},
    {"cap-draw-fraction", kModel, Real, "F",
     "storage charge fraction spendable per slot (0.5)",
     {.max = 1.0, .positive = true}},
    {"stacks", kRun | kCompare | kLifetime | kBisect, Count, "N",
     "split the fuel cell into N parallel stacks"},
    {"stacks", kSweep, CountList, "N1,N2,...",
     "stack-count axis (0 = the single-stack base source)"},
    {"stacks-config", kModel, Text, "f.csv",
     "heterogeneous stacks, one per row (alpha, beta, if_min_a, if_max_a, "
     "charge_fade_per_as, cycle_fade)"},
    {"distribution", kModel, Choice, "proportional|waterfill|health",
     "power split across stacks", {}, "distributions"},
    {"stack-charge-fade", kModel, Real, "F", "fade per delivered A-s (0)"},
    {"stack-cycle-fade", kModel, Real, "F", "fade per on/off cycle (0)"},
    {"audit", kModel, Choice, "off|sample|strict",
     "runtime invariant auditing (off); a hot-engine violation replays the "
     "run on the reference engine"},
    {"audit-sample-period", kModel, Count, "N",
     "sample mode checks every Nth slot (16)", {.positive = true}},
    {"audit-tamper-slot", kModel, Count, "K",
     "test hook: corrupt the hot lane's audited integral at slot K"},
    // Sweep grid.
    {"jobs", kSweep, Count, "N",
     "workers (1; 0 = all cores); with N != 1 a --jobs 1 reference runs "
     "first for the speedup and the bit-identity check"},
    {"policies", kSweep, ChoiceList, "conv|asap|fcdpm|oracle", "policy axis",
     {}, "policy"},
    {"rhos", kSweep, RealList, "R1,R2,...", "rho axis", {.max = 1.0}, "rho"},
    {"capacities", kSweep, RealList, "C1,C2,...", "capacity axis",
     {.positive = true}, "capacity"},
    {"storm-seeds", kSweep, SeedList, "S1,S2,...", "fault-storm seed axis"},
    {"storm-faults", kSweep, Count, "N", "faults per storm (12)",
     {.count_max = kMaxStormFaults}},
    {"distributions", kSweep, ChoiceList, "proportional|waterfill|health",
     "distribution axis (needs --stacks or --stacks-config)", {},
     "distribution"},
    {"cache-quantum", kSweep, Real, "Q",
     "snap solve inputs to multiples of Q and memoize them (0 = exact)"},
    {"serial-check", kSweep, Choice, "on|off", "the --jobs 1 reference (on)"},
    // Sweep resilience: any of these engages the crash-safe runner.
    {"journal", kSweep, Text, "J.fcj",
     "result journal, fsynced per 64-point chunk", {}, {}, kResilience},
    {"resume", kSweep, Text, "J.fcj",
     "replay the journal and run only the remainder", {}, {}, kResilience},
    {"max-retries", kSweep, Count, "N", "retries before quarantine (2)",
     {.count_max = kNoMax - 1}, {}, kResilience},
    {"point-deadline", kSweep, Count, "SLOTS",
     "per-point simulated-slot budget (0 = none)", {}, {}, kResilience},
    {"watchdog-stall-ms", kSweep, Count, "MS",
     "hung-worker watchdog window (0 = off)", {.count_max = kMaxMillis}, {},
     kResilience},
    {"spot-checks", kSweep, Count, "N", "replayed points re-verified (1)", {},
     {}, kResilience},
    {"inject-fail", kSweep, Count, "K",
     "test hook: grid point K always fails", {}, {}, kResilience},
    {"unserved-budget", kSweep, Real, "A-s",
     "quarantine a point with more unserved charge (power_undeliverable)",
     {.inf_ok = true}, {}, kResilience},
    // Sweep telemetry.
    {"progress", kSweep, Choice, "on|off", "live progress line on stderr"},
    {"progress-out", kSweep, Text, "f.jsonl",
     "one JSON snapshot per line; the last totals the sweep"},
    {"progress-interval-ms", kSweep, Count, "MS", "sampler period (200)",
     {.positive = true, .count_max = kMaxMillis}},
    // Bisection.
    {"perturb-slot", kBisect, Count, "K",
     "test hook: synthetic hot-engine defect at slot K"},
    {"repro-out", kBisect, Text, "prefix",
     "write prefix.json (entry state) and prefix_window.csv (trace window)"},
};

/// Name and summary, indexed by the Command's bit.
constexpr std::string_view kCommands[][2] = {
    {"gen", "write a generated workload trace"},
    {"analyze", "print a trace's statistics"},
    {"run", "simulate one policy"},
    {"compare", "conv, asap and fcdpm on one trace"},
    {"lifetime", "run a policy until the tank is empty"},
    {"sweep", "policy x rho x capacity grid"},
    {"bisect", "first slot where the hot engine diverges from the reference"},
    {"aggregate", "merge short slots within a deferral budget"},
};

std::string name_of(Command command) {
  return std::string(kCommands[std::countr_zero(unsigned{command})][0]);
}

std::string quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

[[noreturn]] void fail(std::string_view flag, const std::string& message) {
  throw std::runtime_error("--" + std::string(flag) + ": " + message);
}

std::string range(const Bounds& bounds) {
  char max[32];
  std::snprintf(max, sizeof max, "%g]", bounds.max);
  return std::string(bounds.positive ? "(0, " : "[0, ") +
         (bounds.max != kInf ? max : bounds.inf_ok ? "inf]" : "inf)");
}

/// `at` is " at position N" for a list item, else "".
std::uint64_t count_at(std::string_view flag, std::string_view text,
                       const Bounds& bounds, const std::string& what,
                       const std::string& at) {
  const std::string_view digits = trim(text);
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(
      digits.data(), digits.data() + digits.size(), value);
  if (error == std::errc::result_out_of_range ||
      (error == std::errc{} && value > bounds.count_max)) {
    fail(flag, quoted(text) + " out of range" + at + " (need a " + what +
                   " <= " + std::to_string(bounds.count_max) + ")");
  }
  if (error != std::errc{} || end != digits.data() + digits.size()) {
    fail(flag, "invalid " + what + " " + quoted(text) + at);
  }
  if (bounds.positive && value == 0) {
    fail(flag, "must be a positive " + what + ", not " + quoted(text) + at);
  }
  return value;
}

double real_at(const Flag& flag, std::string_view text,
               const std::string& at) {
  double value = 0.0;
  if (!parse_double(text, value)) {
    fail(flag.name, "invalid number " + quoted(text) + at);
  }
  const Bounds& b = flag.bounds;
  if (!(b.positive ? value > 0.0 : value >= 0.0) || !(value <= b.max) ||
      (value == kInf && !b.inf_ok)) {
    fail(flag.name, quoted(text) + " out of range" + at +
                        " (need a number in " + range(b) + ")");
  }
  return value;
}

/// The row of `--name` taken by one of `commands`, or nullptr.
const Flag* row(std::string_view name, unsigned commands) {
  const auto it = std::find_if(
      std::begin(kFlags), std::end(kFlags), [&](const Flag& flag) {
        return flag.name == name && (flag.commands & commands) != 0;
      });
  return it != std::end(kFlags) ? it : nullptr;
}

/// The row a read of `--name` checks: the command's own or any other.
const Flag& read_row(std::string_view name, Command command) {
  const Flag* flag = row(name, command);
  flag = flag != nullptr ? flag : row(name, ~0u);
  if (flag == nullptr) {
    throw std::logic_error("fcdpm_cli reads --" + std::string(name) +
                           ", which has no row");
  }
  return *flag;
}

/// Appends the words of `text` and a newline, breaking lines before
/// column 79 and indenting the next to `indent`.
void wrap(std::string& out, std::string_view text, std::size_t indent) {
  std::size_t column = out.size() - out.rfind('\n') - 1;
  for (const std::string& word : split(text, ' ')) {
    if (column > indent && column + 1 + word.size() > 79) {
      out += "\n" + std::string(indent, ' ');
      column = indent;
    } else if (column > indent) {
      out += ' ';
      ++column;
    }
    out += word;
    column += word.size();
  }
  out += '\n';
}

/// `text` padded to `width`; a longer one ends its line.
std::string padded(std::string text, std::size_t width) {
  return text.size() < width ? text.append(width - text.size(), ' ')
                             : text + "\n" + std::string(width, ' ');
}

}  // namespace

std::span<const Flag> flags() { return kFlags; }

std::optional<Command> parse_command(std::string_view name) {
  for (unsigned bit = 0; bit < std::size(kCommands); ++bit) {
    if (kCommands[bit][0] == name) {
      return static_cast<Command>(1u << bit);
    }
  }
  return std::nullopt;
}

std::string usage(Command command) {
  std::string out = "  " + padded(name_of(command), 11);
  wrap(out, kCommands[std::countr_zero(unsigned{command})][1], 13);
  std::string synopsis;
  for (const Flag& flag : kFlags) {
    if ((flag.commands & command) != 0) {
      synopsis += " --" + std::string(flag.name);
    }
  }
  out += std::string(13, ' ');
  wrap(out, synopsis.substr(1), 13);
  return out;
}

std::string usage() {
  std::string out =
      "usage: fcdpm_cli <command> [--flag value | --flag=value ...]\n"
      "exit status: 0 success, 1 usage or unknown command, 2 any error\n";
  for (unsigned bit = 0; bit < std::size(kCommands); ++bit) {
    out += usage(static_cast<Command>(1u << bit));
  }
  out += "  merge      <out.csv> <in1.csv> <in2.csv> [...]\nflags:\n";
  for (const Flag& flag : kFlags) {
    out += padded("  --" + std::string(flag.name) + " " +
                      std::string(flag.arg) +
                      (flag.kind == ChoiceList ? ",..." : ""),
                  26);
    std::string help(flag.help);
    if (flag.kind == Real || flag.kind == RealList) {
      help += "; in " + range(flag.bounds);
    } else if (flag.bounds.positive) {
      help += "; at least 1";
    }
    if (flag.bounds.count_max != kNoMax) {
      help += "; at most " + std::to_string(flag.bounds.count_max);
    }
    wrap(out, help, 26);
  }
  return out;
}

std::optional<StormSpec> parse_storm(std::string_view faults) {
  if (faults.substr(0, 6) != "storm:") {
    return std::nullopt;
  }
  const std::string_view rest = faults.substr(6);
  const std::size_t colon = rest.find(':');
  StormSpec storm;
  storm.seed = count_at("faults", rest.substr(0, colon), {}, "storm seed", "");
  if (colon != std::string_view::npos) {
    storm.count = count_at("faults", rest.substr(colon + 1),
                           {.count_max = kMaxStormFaults}, "storm count", "");
  }
  return storm;
}

Args Args::parse(Command command, int argc, const char* const* argv) {
  Args args(command);
  for (int k = 0; k < argc; ++k) {
    const std::string_view token = argv[k];
    if (token.substr(0, 2) != "--") {
      throw std::runtime_error("expected --option, got: " +
                               std::string(token));
    }
    const std::size_t equals = token.find('=');
    const std::string_view name = token.substr(2, equals - 2);
    const Flag* flag = row(name, command);
    const Flag* other = row(name, ~0u);
    if (other == nullptr) {
      throw std::runtime_error("unknown flag --" + std::string(name) +
                               " (fcdpm_cli with no arguments lists every "
                               "flag)");
    }
    if (flag == nullptr) {
      fail(name, "not a " + name_of(command) + " flag" +
                     (row(other->instead, command) != nullptr
                          ? " (use --" + std::string(other->instead) + ")"
                          : ""));
    }
    if (equals == std::string_view::npos && k + 1 == argc) {
      throw std::runtime_error("dangling option: " + std::string(token));
    }
    if (args.has(name)) {
      fail(name, "given more than once");
    }
    args.values_.push_back(read(
        *flag, equals != std::string_view::npos ? token.substr(equals + 1)
                                                : argv[++k]));
  }
  return args;
}

Args::Value Args::read(const Flag& flag, std::string_view text) {
  const bool list = flag.kind >= RealList;
  const std::vector<std::string> items =
      list ? split(text, ',') : std::vector<std::string>{std::string(text)};
  const std::vector<std::string> choices = split(flag.arg, '|');
  Value value;
  value.flag = &flag;
  for (std::size_t n = 0; n < items.size(); ++n) {
    const std::string item(list ? trim(items[n]) : items[n]);
    const std::string at = list ? " at position " + std::to_string(n + 1) : "";
    if (list && item.empty()) {
      fail(flag.name, "empty value" + at);
    }
    switch (flag.kind) {
      case Count:
      case CountList:
        value.counts.push_back(
            count_at(flag.name, item, flag.bounds, "count", at));
        break;
      case SeedList:
        value.counts.push_back(count_at(flag.name, item, {}, "seed", at));
        break;
      case Real:
      case RealList:
        value.reals.push_back(real_at(flag, item, at));
        break;
      case Choice:
      case ChoiceList:
        if (std::find(choices.begin(), choices.end(), item) ==
            choices.end()) {
          throw std::runtime_error("unknown --" + std::string(flag.name) +
                                   " value: " + quoted(item) + at + " (use " +
                                   std::string(flag.arg) + ")");
        }
        [[fallthrough]];
      case Text:
        value.items.push_back(item);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!value.reals.empty()    ? value.reals[j] == value.reals[n]
          : !value.counts.empty() ? value.counts[j] == value.counts[n]
                                  : value.items[j] == value.items[n]) {
        fail(flag.name, "duplicate value " + quoted(item) + at +
                            " (first at position " + std::to_string(j + 1) +
                            ")");
      }
    }
  }
  return value;
}

const Args::Value* Args::find(std::string_view name, Kind kind) const {
  const Flag& flag = read_row(name, command_);
  if (flag.kind != kind) {
    throw std::logic_error("fcdpm_cli reads --" + std::string(name) +
                           " as another kind than its row's");
  }
  for (const Value& value : values_) {
    if (value.flag == &flag) {
      return &value;
    }
  }
  return nullptr;
}

bool Args::has(std::string_view name) const {
  return find(name, read_row(name, command_).kind) != nullptr;
}

bool Args::any(Group group) const {
  return std::any_of(values_.begin(), values_.end(), [&](const Value& value) {
    return value.flag->group == group;
  });
}

}  // namespace fcdpm::cli
