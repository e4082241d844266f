#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "e2e.hpp"
#include "workload/camcorder.hpp"
#include "workload/trace_io.hpp"

namespace fcdpm::e2e {

const std::vector<Workload>& workloads() {
  // Why each one exists is in README.md. Grids are sized so one timed
  // run takes 0.03-0.3 s: a measurement then holds dozens to hundreds of
  // processes, so its median is steady and a run rarely overlaps steal
  // time (README "Steal time"), and the untimed reference run stays
  // under ~2 s.
  static const std::vector<Workload> table = {
      {"capacity-merge", "batched", 1, "fcdpm,oracle", 4, 80, 960, true,
       Journal::None},
      {"policy-mix-hot", "hot", 1, "fcdpm,oracle,asap,conv", 1, 8, 240, false,
       Journal::None},
      {"parallel-jobs2", "hot", 2, "fcdpm,oracle,asap,conv", 1, 8, 240, false,
       Journal::None},
      {"journal-write", "batched", 1, "fcdpm,oracle,asap,conv", 1, 16, 112,
       false, Journal::Write},
      {"journal-resume", "batched", 1, "fcdpm,oracle,asap,conv", 1, 16, 112,
       false, Journal::Resume},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

namespace {

void append_item(std::string& list, const char* format, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), format, value);
  if (!list.empty()) {
    list += ',';
  }
  list += buffer;
}

std::string first_item(const std::string& list) {
  return list.substr(0, list.find(','));
}

}  // namespace

Grid workload_grid(const Workload& workload, bool smoke) {
  const std::size_t rho_keep = smoke ? 5 : 1;
  const std::size_t capacity_stride = smoke ? 4 : 1;
  Grid grid;
  grid.policies = workload.policies;
  std::size_t policies = 1;
  for (const char* c = workload.policies; *c != '\0'; ++c) {
    policies += *c == ',' ? 1 : 0;
  }
  std::size_t rhos = 0;
  for (std::size_t k = workload.rho_stride, i = 0; k <= 19;
       k += workload.rho_stride, ++i) {
    if (i % rho_keep == 0) {
      append_item(grid.rhos, "%.2f", 0.05 * static_cast<double>(k));
      ++rhos;
    }
  }
  std::size_t capacities = 0;
  for (std::size_t k = capacity_stride; k <= workload.capacity_steps;
       k += capacity_stride, ++capacities) {
    append_item(grid.capacities, "%g",
                400.0 * static_cast<double>(k) /
                    static_cast<double>(workload.capacity_steps));
  }
  grid.points = policies * rhos * capacities;
  return grid;
}

Grid first_point(const Grid& grid) {
  return {first_item(grid.policies), first_item(grid.rhos),
          first_item(grid.capacities), 1};
}

void write_trace(const std::string& path, std::size_t slots,
                 std::uint64_t seed) {
  wl::CamcorderConfig config;
  config.seed = seed;
  // A camcorder slot never exceeds 16 MB / 0.8 MB/s + 3.03 s < 25 s, so
  // this recording always holds `slots` slots. Cutting every seed's trace
  // to the same slot count keeps the amount of work fixed; seeds change
  // only the content.
  config.recording_length = Seconds(25.0 * static_cast<double>(slots));
  const wl::Trace full = wl::generate_camcorder_trace(config);
  std::vector<wl::TaskSlot> head(
      full.slots().begin(),
      full.slots().begin() + static_cast<std::ptrdiff_t>(slots));
  wl::save_trace_file(path, wl::Trace(full.name(), std::move(head)));
}

std::vector<std::string> sweep_command(const std::string& cli,
                                       const Workload& workload,
                                       const Grid& grid,
                                       const std::string& trace,
                                       const std::string& out,
                                       Journal journal,
                                       const std::string& journal_path,
                                       bool reference) {
  std::vector<std::string> argv = {
      cli,           "sweep",
      "--trace",     trace,
      "--engine",    reference ? "reference" : workload.engine,
      "--jobs",      reference ? "1" : std::to_string(workload.jobs),
      "--policies",  grid.policies,
      "--rhos",      grid.rhos,
      "--capacities", grid.capacities};
  if (workload.initial_one) {
    argv.insert(argv.end(), {"--initial", "1"});
  }
  if (!reference && journal == Journal::Write) {
    argv.insert(argv.end(), {"--journal", journal_path});
  }
  if (!reference && journal == Journal::Resume) {
    argv.insert(argv.end(), {"--resume", journal_path});
  }
  argv.insert(argv.end(), {"--out", out});
  return argv;
}

std::size_t cut_journal(const std::string& full, const std::string& cut) {
  const std::string bytes = read_file(full);
  std::vector<std::size_t> line_starts;
  for (std::size_t pos = 0; pos < bytes.size();) {
    line_starts.push_back(pos);
    const std::size_t newline = bytes.find('\n', pos);
    pos = newline == std::string::npos ? bytes.size() : newline + 1;
  }
  line_starts.push_back(bytes.size());
  if (line_starts.size() < 3) {
    throw std::runtime_error("journal without records: " + full);
  }
  const std::size_t records = line_starts.size() - 2;  // minus header
  const std::size_t kept = records * 9 / 10;
  std::size_t end = line_starts[1 + kept];
  if (kept < records) {
    end += (line_starts[2 + kept] - line_starts[1 + kept]) / 2;
  }
  std::ofstream out(cut, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(end));
  if (!out) {
    throw std::runtime_error("cannot write " + cut);
  }
  return kept;
}

}  // namespace fcdpm::e2e
