#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_flags.hpp"

namespace {

namespace cli = fcdpm::cli;

constexpr cli::Command kAllCommands[] = {
    cli::kGen,    cli::kAnalyze, cli::kRun,    cli::kCompare,
    cli::kLifetime, cli::kSweep, cli::kBisect, cli::kAggregate};

cli::Args parse(cli::Command command, const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return cli::Args::parse(command, static_cast<int>(argv.size()),
                          argv.data());
}

/// The parse error for `args`, or "" when they parse.
std::string parse_error(cli::Command command,
                        const std::vector<std::string>& args) {
  try {
    (void)parse(command, args);
    return "";
  } catch (const std::runtime_error& error) {
    return error.what();
  }
}

bool takes(cli::Command command, std::string_view name) {
  for (const cli::Flag& flag : cli::flags()) {
    if (flag.name == name && (flag.commands & command) != 0) {
      return true;
    }
  }
  return false;
}

std::string name_of(cli::Command command) {
  const std::string usage = cli::usage(command);
  const std::size_t begin = usage.find_first_not_of(' ');
  return usage.substr(begin, usage.find(' ', begin) - begin);
}

/// Two distinct valid items of a list row.
std::pair<std::string, std::string> list_items(const cli::Flag& flag) {
  switch (flag.kind) {
    case cli::Kind::RealList:
      return {"0.5", "0.25"};
    case cli::Kind::ChoiceList: {
      const std::string choices(flag.arg);
      const std::size_t bar = choices.find('|');
      const std::size_t next = choices.find('|', bar + 1);
      return {choices.substr(0, bar),
              choices.substr(bar + 1, next - bar - 1)};
    }
    default:
      return {"1", "2"};
  }
}

bool is_list(cli::Kind kind) {
  return kind == cli::Kind::RealList || kind == cli::Kind::CountList ||
         kind == cli::Kind::SeedList || kind == cli::Kind::ChoiceList;
}

TEST(CliFlags, NumericRowsAcceptOrRejectByKindAndBounds) {
  for (const cli::Flag& flag : cli::flags()) {
    const bool count = flag.kind == cli::Kind::Count;
    if (!count && flag.kind != cli::Kind::Real) {
      continue;
    }
    const std::string name = "--" + std::string(flag.name);
    const cli::Bounds& b = flag.bounds;
    // max + 1; an unbounded real gets inf, which only inf_ok rows take.
    std::string above = "inf";
    if (count) {
      above = b.count_max == cli::kNoMax ? "18446744073709551616"
                                         : std::to_string(b.count_max + 1);
    } else if (b.max != cli::kInf) {
      above = std::to_string(b.max + 1.0);
    }
    const struct {
      std::string input;
      bool accepted;
    } cases[] = {
        {"abc", false},
        {"nan", false},
        {"-1", false},
        {"2.7", !count && 2.7 <= b.max},
        {"", false},
        {above, !count && b.max == cli::kInf && b.inf_ok},
        {count ? "1" : "0.5", true},
    };
    for (const cli::Command command : kAllCommands) {
      if ((flag.commands & command) == 0) {
        continue;
      }
      for (const auto& c : cases) {
        SCOPED_TRACE(name_of(command) + " " + name + " '" + c.input + "'");
        const std::string error = parse_error(command, {name, c.input});
        if (c.accepted) {
          EXPECT_EQ(error, "");
        } else {
          EXPECT_NE(error.find(name + ": "), std::string::npos) << error;
          EXPECT_NE(error.find("'" + c.input + "'"), std::string::npos)
              << error;
        }
      }
      const cli::Args args = parse(command, {name, count ? "1" : "0.5"});
      if (count) {
        EXPECT_EQ(args.count(flag.name, 99), 1u);
      } else {
        EXPECT_EQ(args.real(flag.name, 99.0), 0.5);
      }
    }
  }
}

TEST(CliFlags, ListRowsRejectEmptyDuplicateAndBadItemsAtTheirPosition) {
  std::size_t lists = 0;
  for (const cli::Flag& flag : cli::flags()) {
    if (!is_list(flag.kind)) {
      continue;
    }
    ++lists;
    const std::string name = "--" + std::string(flag.name);
    const auto [a, b] = list_items(flag);
    SCOPED_TRACE(name);
    for (const cli::Command command : kAllCommands) {
      if ((flag.commands & command) == 0) {
        continue;
      }
      EXPECT_EQ(parse_error(command, {name, a + ", " + b}), "");
      EXPECT_NE(parse_error(command, {name, a + ",," + b})
                    .find(name + ": empty value at position 2"),
                std::string::npos);
      EXPECT_NE(parse_error(command, {name, ""})
                    .find(name + ": empty value at position 1"),
                std::string::npos);
      EXPECT_NE(parse_error(command, {name, b + "," + a + "," + a})
                    .find(name + ": duplicate value '" + a +
                          "' at position 3 (first at position 2)"),
                std::string::npos);
      for (const std::string bad : {"x", "-1", "2.5e", "nan"}) {
        if (flag.kind == cli::Kind::RealList && bad == "-1") {
          continue;  // checked below: out of range, not invalid
        }
        const std::string error =
            parse_error(command, {name, a + "," + b + "," + bad});
        EXPECT_NE(error.find(name), std::string::npos) << error;
        EXPECT_NE(error.find("'" + bad + "'"), std::string::npos) << error;
        EXPECT_NE(error.find("at position 3"), std::string::npos) << error;
      }
    }
  }
  EXPECT_EQ(lists, 6u);
  // Duplicates compare by parsed value; real items keep their bounds.
  EXPECT_NE(parse_error(cli::kSweep, {"--rhos", "0.5,0.50"})
                .find("--rhos: duplicate value '0.50' at position 2"),
            std::string::npos);
  EXPECT_NE(parse_error(cli::kSweep, {"--rhos", "0.5,1.5"})
                .find("--rhos: '1.5' out of range at position 2"),
            std::string::npos);
  EXPECT_NE(parse_error(cli::kSweep, {"--capacities", "3,-1"})
                .find("--capacities: '-1' out of range at position 2"),
            std::string::npos);
  EXPECT_NE(parse_error(cli::kSweep, {"--storm-seeds", "7,-1"})
                .find("--storm-seeds: invalid seed '-1' at position 2"),
            std::string::npos);
}

TEST(CliFlags, UnknownRepeatedAndMisplacedFlagsAreRejected) {
  EXPECT_NE(parse_error(cli::kRun, {"--rhoo", "0.3"})
                .find("unknown flag --rhoo"),
            std::string::npos);
  EXPECT_NE(parse_error(cli::kRun, {"--rho", "0.3", "--rho=0.9"})
                .find("--rho: given more than once"),
            std::string::npos);
  EXPECT_EQ(parse_error(cli::kSweep, {"--faults", "storm:3"}),
            "--faults: not a sweep flag (use --storm-seeds)");
  EXPECT_EQ(parse_error(cli::kSweep, {"--policy", "fcdpm"}),
            "--policy: not a sweep flag (use --policies)");
  EXPECT_EQ(parse_error(cli::kRun, {"--rho"}), "dangling option: --rho");
  EXPECT_EQ(parse_error(cli::kRun, {"rho", "0.3"}),
            "expected --option, got: rho");
  // Every row, on every command that takes no row of its name.
  for (const cli::Flag& flag : cli::flags()) {
    for (const cli::Command command : kAllCommands) {
      if (takes(command, flag.name)) {
        continue;
      }
      const std::string name = "--" + std::string(flag.name);
      EXPECT_NE(parse_error(command, {name, "1"})
                    .find(name + ": not a " + name_of(command) + " flag"),
                std::string::npos)
          << name << " on " << name_of(command);
    }
  }
}

TEST(CliFlags, UsageListsEveryRowUnderEachCommandThatTakesIt) {
  const std::string all = cli::usage();
  for (const cli::Flag& flag : cli::flags()) {
    const std::string entry = "--" + std::string(flag.name);
    EXPECT_NE(all.find("\n  " + entry + " " + std::string(flag.arg)),
              std::string::npos)
        << entry;
    for (const cli::Command command : kAllCommands) {
      if ((flag.commands & command) != 0) {
        std::string usage = cli::usage(command);
        std::replace(usage.begin(), usage.end(), '\n', ' ');
        EXPECT_NE(usage.find(" " + entry + " "), std::string::npos)
            << entry << " in " << name_of(command);
        EXPECT_NE(all.find(cli::usage(command)), std::string::npos);
      }
    }
  }
  EXPECT_NE(all.find("at most " + std::to_string(cli::kMaxStormFaults)),
            std::string::npos);
}

TEST(CliFlags, ReadersGoThroughTheTable) {
  const cli::Args run = parse(cli::kRun, {"--rho=0.3", "--stacks", "3"});
  EXPECT_EQ(run.real("rho", 0.0), 0.3);
  EXPECT_EQ(run.real("sigma", 0.25), 0.25);
  EXPECT_EQ(run.count("stacks", 0), 3u);
  EXPECT_FALSE(run.has("faults"));
  EXPECT_THROW((void)run.real("rhoo", 0.0), std::logic_error);
  EXPECT_THROW((void)run.count("rho", 0), std::logic_error);
  EXPECT_THROW((void)run.counts("stacks"), std::logic_error);
  EXPECT_THROW((void)run.has("rhoo"), std::logic_error);

  // --stacks is a count list on sweep, where --faults reads as absent.
  const cli::Args sweep = parse(cli::kSweep, {"--stacks", "0, 2"});
  EXPECT_EQ(sweep.counts("stacks"), (std::vector<std::uint64_t>{0, 2}));
  EXPECT_THROW((void)sweep.count("stacks", 0), std::logic_error);
  EXPECT_FALSE(sweep.has("faults"));
  EXPECT_FALSE(sweep.any(cli::Group::Resilience));
  EXPECT_TRUE(parse(cli::kSweep, {"--spot-checks", "3"})
                  .any(cli::Group::Resilience));
  std::vector<std::string> resilience;
  for (const cli::Flag& flag : cli::flags()) {
    if (flag.group == cli::Group::Resilience) {
      resilience.emplace_back(flag.name);
    }
  }
  EXPECT_EQ(resilience, (std::vector<std::string>{
                            "journal", "resume", "max-retries",
                            "point-deadline", "watchdog-stall-ms",
                            "spot-checks", "inject-fail", "unserved-budget"}));
}

TEST(CliFlags, ChoiceRowsTakeExactlyTheirNames) {
  for (const cli::Flag& flag : cli::flags()) {
    if (flag.kind != cli::Kind::Choice) {
      continue;
    }
    const std::string name = "--" + std::string(flag.name);
    for (const cli::Command command : kAllCommands) {
      if ((flag.commands & command) == 0) {
        continue;
      }
      std::string choices(flag.arg);
      for (std::size_t bar; !choices.empty(); choices.erase(0, bar + 1)) {
        bar = std::min(choices.find('|'), choices.size());
        const std::string choice = choices.substr(0, bar);
        EXPECT_EQ(parse(command, {name, choice}).choice(flag.name, ""),
                  choice);
      }
      for (const std::string bad : {"bogus", "", " on", "ON"}) {
        EXPECT_EQ(parse_error(command, {name, bad}),
                  "unknown " + name + " value: '" + bad + "' (use " +
                      std::string(flag.arg) + ")");
      }
    }
  }
  EXPECT_EQ(parse(cli::kRun, {}).choice("engine", "reference"), "reference");
}

TEST(CliFlags, StormSpecsAreStrictCounts) {
  const auto storm = cli::parse_storm("storm:42:10");
  ASSERT_TRUE(storm.has_value());
  EXPECT_EQ(storm->seed, 42u);
  EXPECT_EQ(storm->count, 10u);
  EXPECT_EQ(cli::parse_storm("storm:42")->count, 12u);
  EXPECT_FALSE(cli::parse_storm("converter_dropout@120:30").has_value());
  EXPECT_FALSE(cli::parse_storm("schedule.csv").has_value());
  const auto error = [](const std::string& spec) {
    try {
      (void)cli::parse_storm(spec);
      return std::string();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
  };
  EXPECT_EQ(error("storm:abc"), "--faults: invalid storm seed 'abc'");
  EXPECT_EQ(error("storm:"), "--faults: invalid storm seed ''");
  EXPECT_EQ(error("storm:7:x"), "--faults: invalid storm count 'x'");
  EXPECT_EQ(error("storm:7:-3"), "--faults: invalid storm count '-3'");
  EXPECT_EQ(error("storm:7:2.5"), "--faults: invalid storm count '2.5'");
  EXPECT_EQ(error("storm:7:" + std::to_string(cli::kMaxStormFaults + 1)),
            "--faults: '10001' out of range (need a storm count <= 10000)");
  EXPECT_EQ(error("storm:7:" + std::to_string(cli::kMaxStormFaults)), "");
}

/// Every `./build/examples/fcdpm_cli ...` command in the docs, with `\`
/// continuations joined, split shell-style up to a comment or a pipe.
std::vector<std::vector<std::string>> doc_commands(
    const std::filesystem::path& file) {
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  for (std::size_t at; (at = text.find("\\\n")) != std::string::npos;) {
    text.replace(at, 2, " ");
  }
  const std::string prefix = "./build/examples/fcdpm_cli ";
  std::vector<std::vector<std::string>> commands;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.find(prefix);
    if (at == std::string::npos) {
      continue;
    }
    std::vector<std::string> words;
    std::string word;
    bool in_word = false;
    char quote = 0;
    for (const char c : line.substr(at + prefix.size()) + " ") {
      if (quote != 0) {
        if (c == quote) {
          quote = 0;
        } else {
          word += c;
        }
      } else if (c == '"' || c == '\'') {
        quote = c;
        in_word = true;
      } else if (c == ' ' || c == '\t') {
        if (in_word) {
          words.push_back(word);
        }
        word.clear();
        in_word = false;
      } else if (!in_word && (c == '#' || c == '|' || c == '>' || c == ';' ||
                              c == '&')) {
        break;
      } else {
        word += c;
        in_word = true;
      }
    }
    commands.push_back(words);
  }
  return commands;
}

TEST(CliFlags, EveryDocumentedCommandParses) {
  const std::filesystem::path root = FCDPM_SOURCE_DIR;
  std::vector<std::filesystem::path> files = {root / "README.md",
                                              root / "EXPERIMENTS.md"};
  for (const auto& entry : std::filesystem::directory_iterator(root / "docs")) {
    if (entry.path().extension() == ".md") {
      files.push_back(entry.path());
    }
  }
  std::size_t checked = 0;
  for (const std::filesystem::path& file : files) {
    for (const std::vector<std::string>& words : doc_commands(file)) {
      ++checked;
      std::string command;
      for (const std::string& word : words) {
        command += " " + word;
      }
      SCOPED_TRACE(file.filename().string() + ":" + command);
      ASSERT_FALSE(words.empty());
      if (words[0] == "merge") {
        EXPECT_GE(words.size(), 4u);
        continue;
      }
      const std::optional<cli::Command> parsed = cli::parse_command(words[0]);
      ASSERT_TRUE(parsed.has_value()) << "unknown command " << words[0];
      EXPECT_EQ(parse_error(*parsed, {words.begin() + 1, words.end()}), "");
    }
  }
  EXPECT_GE(checked, 20u);
}

}  // namespace
