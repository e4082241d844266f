#include "fault/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/random.hpp"
#include "common/text.hpp"

namespace fcdpm::fault {

namespace {

/// Kind-specific default magnitude when the spec omits "xM".
double default_magnitude(FaultKind kind) {
  switch (kind) {
    case FaultKind::StackDegradation:
      return 0.8;  // 80 % stack efficiency remains
    case FaultKind::FuelStarvation:
      return 0.5;  // half the output range remains
    case FaultKind::DcdcEfficiencyDrop:
      return 0.85;
    case FaultKind::ConverterDropout:
      return 1.0;  // unused
    case FaultKind::StorageFade:
      return 0.7;
    case FaultKind::Brownout:
      return 0.5;  // half the stored charge lost
    case FaultKind::SensorNoise:
      return 0.2;
    case FaultKind::LoadSpike:
      return 1.5;
  }
  return 1.0;
}

[[noreturn]] void bad_token(const std::string& token,
                            const std::string& why) {
  throw PreconditionError("malformed fault spec token '" + token +
                          "': " + why);
}

FaultEvent parse_token(const std::string& raw) {
  const std::string token{trim(raw)};
  const std::size_t at = token.find('@');
  if (at == std::string::npos) {
    bad_token(token, "expected kind@start[:duration][xmagnitude]");
  }

  FaultEvent event;
  if (!parse_fault_kind(token.substr(0, at), event.kind)) {
    bad_token(token, "unknown fault kind '" + token.substr(0, at) + "'");
  }

  std::string rest = token.substr(at + 1);
  event.magnitude = default_magnitude(event.kind);
  const std::size_t x = rest.find('x');
  if (x != std::string::npos) {
    if (!parse_double(rest.substr(x + 1), event.magnitude)) {
      bad_token(token, "non-numeric magnitude");
    }
    rest = rest.substr(0, x);
  }

  double start = 0.0;
  double duration = 0.0;
  const std::size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    if (!parse_double(rest.substr(colon + 1), duration)) {
      bad_token(token, "non-numeric duration");
    }
    rest = rest.substr(0, colon);
  }
  if (!parse_double(rest, start)) {
    bad_token(token, "non-numeric start time");
  }
  event.start = Seconds(start);
  event.duration = Seconds(duration);
  return event;
}

}  // namespace

void FaultSchedule::add(FaultEvent event) {
  event.validate();
  const auto at = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        return a.start < b.start;
      });
  events_.insert(at, event);
}

FaultSchedule FaultSchedule::parse(const std::string& spec) {
  FaultSchedule schedule;
  std::string normalized = spec;
  std::replace(normalized.begin(), normalized.end(), ';', ',');
  for (const std::string& token : split(normalized, ',')) {
    if (trim(token).empty()) {
      continue;
    }
    schedule.add(parse_token(token));
  }
  return schedule;
}

std::string FaultSchedule::to_spec() const {
  std::string out;
  for (const FaultEvent& event : events_) {
    if (!out.empty()) {
      out += ',';
    }
    out += to_string(event.kind);
    out += '@';
    out += format_fixed(event.start.value(), 6);
    if (event.duration.value() > 0.0) {
      out += ':';
      out += format_fixed(event.duration.value(), 6);
    }
    out += 'x';
    out += format_fixed(event.magnitude, 6);
  }
  return out;
}

FaultSchedule FaultSchedule::load(std::istream& in,
                                  const std::string& name) {
  const CsvDocument doc = read_csv(in, /*has_header=*/true);
  const std::size_t kind_col = doc.column("kind");
  const std::size_t start_col = doc.column("start_s");
  const std::size_t duration_col = doc.column("duration_s");
  const std::size_t magnitude_col = doc.column("magnitude");

  const auto where = [&](std::size_t row) {
    const std::size_t line = doc.line_of(row);
    return name + (line > 0 ? " line " + std::to_string(line)
                            : " row " + std::to_string(row));
  };

  FaultSchedule schedule;
  Seconds previous_start{0.0};
  // Open brownout window from an earlier row: [start, end) plus the row
  // index that opened it, for a two-line overlap message.
  double brownout_end = -1.0;
  std::size_t brownout_row = 0;
  for (std::size_t k = 0; k < doc.rows.size(); ++k) {
    const CsvRow& row = doc.rows[k];
    const std::size_t needed =
        std::max({kind_col, start_col, duration_col, magnitude_col}) + 1;
    if (row.size() < needed) {
      throw CsvError(where(k) + ": fault row has too few fields");
    }

    FaultEvent event;
    if (!parse_fault_kind(row[kind_col], event.kind)) {
      throw CsvError(where(k) + ": unknown fault kind '" + row[kind_col] +
                     "'");
    }
    double start = 0.0;
    double duration = 0.0;
    double magnitude = 0.0;
    if (!parse_double(row[start_col], start) ||
        !parse_double(row[duration_col], duration) ||
        !parse_double(row[magnitude_col], magnitude)) {
      throw CsvError(where(k) + ": non-numeric fault field");
    }
    if (!std::isfinite(start) || !std::isfinite(duration) ||
        !std::isfinite(magnitude)) {
      throw CsvError(where(k) + ": non-finite fault field");
    }
    if (k > 0 && Seconds(start) < previous_start) {
      throw CsvError(where(k) +
                     ": fault start times must be non-decreasing");
    }
    previous_start = Seconds(start);

    // Brownout rows carry the cap governor's worst case, so they get
    // stricter checks than FaultEvent::validate applies: a magnitude of
    // zero is a typo (no charge lost = no brownout), a negative
    // duration is nonsense, and two overlapping brownout windows would
    // double-charge the loss.
    if (event.kind == FaultKind::Brownout) {
      if (magnitude <= 0.0) {
        throw CsvError(where(k) +
                       ": brownout magnitude must be positive (fraction "
                       "of stored charge lost)");
      }
      if (duration < 0.0) {
        throw CsvError(where(k) + ": brownout duration must not be negative");
      }
      if (start < brownout_end) {
        throw CsvError(where(k) + ": brownout window overlaps the one at " +
                       where(brownout_row));
      }
      if (start + duration > brownout_end) {
        brownout_end = start + duration;
        brownout_row = k;
      }
    }

    event.start = Seconds(start);
    event.duration = Seconds(duration);
    event.magnitude = magnitude;
    try {
      schedule.add(event);
    } catch (const PreconditionError& error) {
      throw CsvError(where(k) + ": " + error.what());
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw CsvError("cannot open fault schedule file: " + path);
  }
  return load(in, path);
}

void FaultSchedule::save(std::ostream& out) const {
  CsvDocument doc;
  doc.header = {"kind", "start_s", "duration_s", "magnitude"};
  doc.rows.reserve(events_.size());
  for (const FaultEvent& event : events_) {
    doc.rows.push_back({to_string(event.kind),
                        format_fixed(event.start.value(), 6),
                        format_fixed(event.duration.value(), 6),
                        format_fixed(event.magnitude, 6)});
  }
  write_csv(out, doc);
}

FaultSchedule FaultSchedule::random_storm(std::uint64_t seed,
                                          std::size_t count,
                                          Seconds horizon) {
  FCDPM_EXPECTS(horizon.value() > 0.0, "storm horizon must be positive");

  Rng rng(seed);
  FaultSchedule schedule;
  schedule.set_noise_seed(seed);
  for (std::size_t k = 0; k < count; ++k) {
    FaultEvent event;
    event.kind = static_cast<FaultKind>(rng.uniform_int(0, 7));
    event.start = Seconds(rng.uniform(0.0, horizon.value()));
    // A few percent of the horizon each; some permanent (duration 0).
    event.duration = rng.chance(0.15)
                         ? Seconds(0.0)
                         : Seconds(rng.uniform(0.01, 0.08) *
                                   horizon.value());
    switch (event.kind) {
      case FaultKind::StackDegradation:
      case FaultKind::DcdcEfficiencyDrop:
        event.magnitude = rng.uniform(0.6, 0.95);
        break;
      case FaultKind::FuelStarvation:
      case FaultKind::StorageFade:
        event.magnitude = rng.uniform(0.4, 0.9);
        break;
      case FaultKind::Brownout:
        event.magnitude = rng.uniform(0.2, 0.8);
        break;
      case FaultKind::SensorNoise:
        event.magnitude = rng.uniform(0.05, 0.5);
        break;
      case FaultKind::LoadSpike:
        event.magnitude = rng.uniform(1.1, 2.0);
        break;
      case FaultKind::ConverterDropout:
        event.magnitude = 1.0;
        break;
    }
    schedule.add(event);
  }
  return schedule;
}

}  // namespace fcdpm::fault
