#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "e2e.hpp"
#include "obs/trace_sink.hpp"

extern char** environ;

namespace fcdpm::e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// The CPUs this process may run on, in ascending order.
std::vector<int> usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

/// While alive, pins the calling thread to the next `count` usable CPUs
/// in turn (all of them when `count` is at least their number); a child
/// spawned meanwhile inherits the mask. Restores the old mask on exit.
class NextCpus {
 public:
  explicit NextCpus(std::size_t count) {
    static const std::vector<int> cpus = usable_cpus();
    static std::size_t turn = 0;
    restore_ = sched_getaffinity(0, sizeof(old_), &old_) == 0;
    child_ = old_;
    if (!restore_ || cpus.empty() || count >= cpus.size()) {
      return;
    }
    CPU_ZERO(&child_);
    for (std::size_t k = 0; k < count; ++k) {
      CPU_SET(cpus[(turn + k) % cpus.size()], &child_);
    }
    turn = (turn + count) % cpus.size();
    sched_setaffinity(0, sizeof(child_), &child_);
  }
  ~NextCpus() {
    if (restore_) {
      sched_setaffinity(0, sizeof(old_), &old_);
    }
  }
  NextCpus(const NextCpus&) = delete;
  NextCpus& operator=(const NextCpus&) = delete;

  /// The CPUs a child spawned now may run on.
  [[nodiscard]] const cpu_set_t& child_cpus() const { return child_; }

 private:
  cpu_set_t old_{};
  cpu_set_t child_{};
  bool restore_ = false;
};

/// Steal time summed over the CPUs in `set`, in /proc/stat ticks: time
/// the hypervisor gave those virtual CPUs' host cores to something else.
/// 0 where the kernel does not report it.
std::uint64_t steal_ticks(const cpu_set_t& set) {
  std::ifstream in("/proc/stat");
  std::uint64_t total = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 ||
        line[3] < '0' || line[3] > '9') {
      continue;
    }
    // cpuN user nice system idle iowait irq softirq steal ...
    std::istringstream fields(line.substr(3));
    int cpu = 0;
    fields >> cpu;
    std::uint64_t value = 0;
    for (int k = 0; k < 8 && fields >> value; ++k) {
    }
    if (fields && cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set)) {
      total += value;
    }
  }
  return total;
}

}  // namespace

ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& log, std::size_t cpus) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  ChildRun run;
  pid_t pid = 0;
  int spawned = 0;
  std::int64_t start = 0;
  cpu_set_t child_cpus{};
  std::uint64_t steal_before = 0;
  {
    const NextCpus pin(cpus);
    child_cpus = pin.child_cpus();
    steal_before = steal_ticks(child_cpus);
    start = now_ns();
    spawned =
        posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  }
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(spawned));
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
    }
  }
  const std::int64_t end = now_ns();
  const std::uint64_t steal_after = steal_ticks(child_cpus);
  run.steal_ticks = steal_after > steal_before ? steal_after - steal_before : 0;

  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                    : 128 + WTERMSIG(status);
  run.wall_s = static_cast<double>(end - start) * 1e-9;
  run.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string file_tail(const std::string& path, std::size_t lines) {
  std::ifstream in(path);
  std::vector<std::string> tail;
  for (std::string line; std::getline(in, line);) {
    tail.push_back(line);
    if (tail.size() > lines) {
      tail.erase(tail.begin());
    }
  }
  std::string out;
  for (const std::string& line : tail) {
    out += "    " + line + "\n";
  }
  return out;
}

std::vector<std::string> result_rows(const std::string& json) {
  static const std::string key = "\"results\":[";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error("sweep JSON has no results array");
  }
  // Rows are flat objects (no nested '{' and no '}' inside strings), so
  // each one ends at the first '}'.
  std::vector<std::string> rows;
  std::size_t pos = at + key.size();
  while (pos < json.size() && json[pos] == '{') {
    const std::size_t end = json.find('}', pos);
    if (end == std::string::npos) {
      throw std::runtime_error("sweep JSON: unterminated result row");
    }
    rows.push_back(json.substr(pos, end + 1 - pos));
    pos = end + 1;
    if (pos < json.size() && json[pos] == ',') {
      ++pos;
    }
  }
  if (pos >= json.size() || json[pos] != ']') {
    throw std::runtime_error("sweep JSON: malformed results array");
  }
  return rows;
}

namespace {

void erase_member(std::string& row, std::string_view key) {
  const std::size_t at = row.find(key);
  if (at == std::string::npos) {
    return;
  }
  std::size_t end = at + key.size();
  while (end < row.size() && row[end] != ',' && row[end] != '}') {
    ++end;
  }
  row.erase(at, end - at);
}

}  // namespace

std::string normalized_row(std::string row) {
  erase_member(row, ",\"attempts\":");
  erase_member(row, ",\"replayed\":");
  return row;
}

std::uint64_t rows_digest(const std::vector<std::string>& normalized) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  };
  for (const std::string& row : normalized) {
    for (const char c : row) {
      mix(static_cast<unsigned char>(c));
    }
    mix('\n');
  }
  return hash;
}

std::size_t failed_points(const std::vector<std::string>& rows,
                          const std::vector<std::string>& reference) {
  if (rows.size() != reference.size()) {
    return reference.size();
  }
  std::size_t failed = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    failed += normalized_row(rows[k]) == reference[k] ? 0 : 1;
  }
  return failed;
}

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  s.median = median(values);
  if (values.size() == 1) {
    s.q1 = s.q3 = values.front();
    return s;
  }
  // statistics.quantiles(values, n=4), method "exclusive".
  const auto cut = [&values](std::size_t i) {
    const std::size_t n = values.size();
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double least_stolen_median(const std::vector<double>& values,
                           const std::vector<std::uint64_t>& steal_ticks) {
  const double limit = median(
      std::vector<double>(steal_ticks.begin(), steal_ticks.end()));
  std::vector<double> kept;
  for (std::size_t k = 0; k < values.size() && k < steal_ticks.size(); ++k) {
    if (static_cast<double>(steal_ticks[k]) <= limit) {
      kept.push_back(values[k]);
    }
  }
  return median(std::move(kept));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

void append(std::string& out,
            std::initializer_list<std::string_view> parts) {
  for (const std::string_view part : parts) {
    out += part;
  }
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    default: break;
  }
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return buffer;
}

/// Median of five runs of a fixed dependent xorshift chain: it tracks
/// the core clock only, so result files whose calibrations differ by
/// 10 % came from machines (or frequency states) 10 % apart.
double calibration_ns() {
  std::vector<double> runs;
  volatile std::uint64_t sink = 0;
  for (int run = 0; run < 5; ++run) {
    std::uint64_t x = 88172645463325252ull + static_cast<std::uint64_t>(run);
    const std::int64_t start = now_ns();
    for (int i = 0; i < (1 << 24); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    runs.push_back(static_cast<double>(now_ns() - start));
    sink = sink + x;
  }
  return median(runs);
}

std::string quoted(const std::string& text) {
  std::string out;
  append(out, {"\"", obs::json_escape(text.c_str()), "\""});
  return out;
}

}  // namespace

std::string machine_json(const std::string& work_dir,
                         const std::string& git_commit,
                         const std::string& git_dirty) {
  std::string out;
  append(out, {"{\"cpu_model\":", quoted(cpu_model()),
               ",\"nproc\":", std::to_string(usable_cpus().size()),
               ",\"compiler\":", quoted(E2E_COMPILER),
               ",\"cxx_flags\":", quoted(E2E_CXX_FLAGS),
               ",\"build_type\":", quoted(E2E_BUILD_TYPE),
               ",\"git_commit\":", quoted(git_commit),
               ",\"git_dirty\":", quoted(git_dirty),
               ",\"work_fs\":", quoted(filesystem_type(work_dir)),
               ",\"calibration_ns\":", json_number(calibration_ns()), "}"});
  return out;
}

}  // namespace fcdpm::e2e
