#include "resilience/journal.hpp"

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "audit/audit.hpp"
#include "cap/stats.hpp"
#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "obs/trace_sink.hpp"

namespace fcdpm::resilience {

namespace {

// --- framing ----------------------------------------------------------------
// "R " + 8-hex payload length + " " + 16-hex FNV-1a 64 + " " ... "\n"
constexpr std::size_t kLenDigits = 8;
constexpr std::size_t kSumDigits = 16;
constexpr std::size_t kPrefixBytes = 2 + kLenDigits + 1 + kSumDigits + 1;

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string to_hex(std::uint64_t value, std::size_t digits) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%0*llx", static_cast<int>(digits),
                static_cast<unsigned long long>(value));
  return buffer;
}

bool parse_hex(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) {
    return false;
  }
  out = 0;
  for (const char c : text) {
    out <<= 4;
    if (c >= '0' && c <= '9') {
      out |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  return true;
}

/// C99 hexfloat inside a JSON string: exact binary64 round-trip.
std::string hex_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// --- minimal flat-JSON-object parser ----------------------------------------
// Journal payloads are flat objects of string / integer / bool values,
// emitted by record_to_json below; this parser accepts exactly that.

struct JsonField {
  enum class Kind { String, Integer, Bool } kind = Kind::String;
  std::string text;         // String
  std::uint64_t integer = 0;  // Integer (payloads never need signs)
  bool boolean = false;     // Bool
};

using JsonObject = std::vector<std::pair<std::string, JsonField>>;

class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonObject& out) {
    skip_space();
    if (!consume('{')) {
      return false;
    }
    skip_space();
    if (consume('}')) {
      return true;
    }
    while (true) {
      std::string key;
      if (!parse_string(key)) {
        return false;
      }
      skip_space();
      if (!consume(':')) {
        return false;
      }
      skip_space();
      JsonField field;
      if (!parse_value(field)) {
        return false;
      }
      out.emplace_back(std::move(key), std::move(field));
      skip_space();
      if (consume(',')) {
        skip_space();
        continue;
      }
      return consume('}');
    }
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          std::uint64_t code = 0;
          std::string hex(text_.substr(pos_, 4));
          for (char& h : hex) {
            h = static_cast<char>(std::tolower(h));
          }
          if (!parse_hex(hex, code)) {
            return false;
          }
          pos_ += 4;
          // Journal strings only ever escape control characters; wider
          // code points pass through UTF-8 unescaped.
          out += static_cast<char>(code & 0xff);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool parse_value(JsonField& out) {
    if (pos_ >= text_.size()) {
      return false;
    }
    if (text_[pos_] == '"') {
      out.kind = JsonField::Kind::String;
      return parse_string(out.text);
    }
    if (literal("true")) {
      out.kind = JsonField::Kind::Bool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.kind = JsonField::Kind::Bool;
      out.boolean = false;
      return true;
    }
    out.kind = JsonField::Kind::Integer;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out.integer = std::strtoull(
        std::string(text_.substr(start, pos_ - start)).c_str(), nullptr, 10);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

class FieldMap {
 public:
  explicit FieldMap(const JsonObject& object) : object_(object) {}

  [[nodiscard]] const JsonField* find(std::string_view key) const {
    for (const auto& [name, field] : object_) {
      if (name == key) {
        return &field;
      }
    }
    return nullptr;
  }

  bool string(std::string_view key, std::string& out) const {
    const JsonField* f = find(key);
    if (f == nullptr || f->kind != JsonField::Kind::String) {
      return false;
    }
    out = f->text;
    return true;
  }

  bool integer(std::string_view key, std::uint64_t& out) const {
    const JsonField* f = find(key);
    if (f == nullptr || f->kind != JsonField::Kind::Integer) {
      return false;
    }
    out = f->integer;
    return true;
  }

  bool boolean(std::string_view key, bool& out) const {
    const JsonField* f = find(key);
    if (f == nullptr || f->kind != JsonField::Kind::Bool) {
      return false;
    }
    out = f->boolean;
    return true;
  }

  /// Hexfloat-in-string double.
  bool number(std::string_view key, double& out) const {
    std::string text;
    if (!string(key, text)) {
      return false;
    }
    char* end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != nullptr && *end == '\0' && end != text.c_str();
  }

 private:
  const JsonObject& object_;
};

void hash_double(std::uint64_t& hash, double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (bits >> shift) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

void hash_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

std::string header_to_json(const JournalHeader& header) {
  std::string out = "{\"fcdpm_journal\":1";
  out += ",\"trace\":\"" + obs::json_escape(header.trace_name.c_str()) + "\"";
  out += ",\"points\":" + std::to_string(header.points);
  out += ",\"fingerprint\":\"" + to_hex(header.fingerprint, 16) + "\"";
  out += "}";
  return out;
}

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw CsvError(what + ": " + path + " (" + std::strerror(errno) + ")");
}

}  // namespace

std::uint64_t grid_fingerprint(const sim::ExperimentConfig& base,
                               const std::vector<par::SweepPoint>& points,
                               std::size_t storm_faults) {
  std::uint64_t hash = fnv1a64(base.trace.name());
  hash_u64(hash, base.trace.size());
  for (const wl::TaskSlot& slot : base.trace.slots()) {
    hash_double(hash, slot.idle.value());
    hash_double(hash, slot.active.value());
    hash_double(hash, slot.active_power.value());
  }
  hash_double(hash, base.rho);
  hash_double(hash, base.sigma);
  hash_double(hash, base.initial_idle_estimate.value());
  hash_double(hash, base.initial_active_estimate.value());
  hash_double(hash, base.active_current_estimate.value());
  hash_double(hash, base.storage_capacity.value());
  hash_double(hash, base.initial_storage.value());
  if (base.cap.enabled) {
    // Hashed only when capping is on: cap-off grids keep their pre-cap
    // fingerprints, so journals written before the governor existed
    // still resume.
    hash_u64(hash, 1);
    hash_u64(hash, base.cap.hysteresis_slots);
    hash_double(hash, base.cap.storage_draw_fraction);
    hash_u64(hash, fnv1a64(base.cap.table_csv));
  }
  if (base.stacks.enabled) {
    // Same compatibility rule as the cap block: single-stack grids keep
    // their pre-stacks fingerprints.
    hash_u64(hash, 2);
    hash_u64(hash, base.stacks.count);
    hash_u64(hash, static_cast<std::uint64_t>(base.stacks.distribution));
    hash_double(hash, base.stacks.charge_fade_per_as);
    hash_double(hash, base.stacks.cycle_fade);
    hash_u64(hash, fnv1a64(base.stacks.config_csv));
  }
  if (base.audit.enabled()) {
    // Same compatibility rule again — and a resume that flips the audit
    // mode (or the tamper hook) is a different run: the replayed
    // spot-check would compare strict-mode results against journal rows
    // written without auditing, so the fingerprints must not splice.
    hash_u64(hash, 3);
    hash_u64(hash, static_cast<std::uint64_t>(base.audit.mode));
    hash_u64(hash, static_cast<std::uint64_t>(base.audit.sample_period));
    hash_u64(hash, static_cast<std::uint64_t>(base.audit.tamper_slot));
  }
  hash_u64(hash, storm_faults);
  hash_u64(hash, points.size());
  for (const par::SweepPoint& point : points) {
    hash_u64(hash, static_cast<std::uint64_t>(point.policy));
    hash_double(hash, point.rho);
    hash_double(hash, point.capacity.value());
    hash_u64(hash, point.storm_seed);
    if (point.stacks > 0) {
      hash_u64(hash, point.stacks);
      hash_u64(hash, static_cast<std::uint64_t>(point.distribution));
    }
  }
  return hash;
}

std::string record_to_json(const JournalRecord& record) {
  std::string out = "{";
  out += "\"index\":" + std::to_string(record.index);
  out += ",\"policy\":" +
         std::to_string(static_cast<int>(record.point.policy));
  out += ",\"rho\":\"" + hex_double(record.point.rho) + "\"";
  out += ",\"capacity\":\"" + hex_double(record.point.capacity.value()) +
         "\"";
  out += ",\"seed\":" + std::to_string(record.point.storm_seed);
  if (record.point.stacks > 0) {
    // Multi-stack point coordinates, serialized only on stack points so
    // single-stack journals stay byte-identical to pre-stacks builds.
    out += ",\"stacks\":" + std::to_string(record.point.stacks);
    out += ",\"dist\":" +
           std::to_string(static_cast<int>(record.point.distribution));
  }
  out += ",\"attempts\":" + std::to_string(record.attempts);
  out += ",\"ok\":";
  out += record.ok ? "true" : "false";
  if (!record.ok) {
    out += ",\"error_kind\":\"";
    out += to_string(record.error.kind);
    out += "\",\"error_detail\":\"" +
           obs::json_escape(record.error.detail.c_str()) + "\"";
    out += "}";
    return out;
  }
  const sim::SimulationResult& r = record.result;
  out += ",\"trace\":\"" + obs::json_escape(r.trace_name.c_str()) + "\"";
  out += ",\"dpm\":\"" + obs::json_escape(r.dpm_policy.c_str()) + "\"";
  out += ",\"fc\":\"" + obs::json_escape(r.fc_policy.c_str()) + "\"";
  out += ",\"fuel\":\"" + hex_double(r.totals.fuel.value()) + "\"";
  out += ",\"delivered_j\":\"" +
         hex_double(r.totals.delivered_energy.value()) + "\"";
  out += ",\"load_j\":\"" + hex_double(r.totals.load_energy.value()) + "\"";
  out += ",\"bled\":\"" + hex_double(r.totals.bled.value()) + "\"";
  out += ",\"unserved\":\"" + hex_double(r.totals.unserved.value()) + "\"";
  out += ",\"duration\":\"" + hex_double(r.totals.duration.value()) + "\"";
  out += ",\"slots\":" + std::to_string(r.slots);
  out += ",\"sleeps\":" + std::to_string(r.sleeps);
  out += ",\"latency\":\"" + hex_double(r.latency_added.value()) + "\"";
  out += ",\"storage_initial\":\"" + hex_double(r.storage_initial.value()) +
         "\"";
  out += ",\"storage_end\":\"" + hex_double(r.storage_end.value()) + "\"";
  out += ",\"storage_min\":\"" + hex_double(r.storage_min.value()) + "\"";
  out += ",\"storage_max\":\"" + hex_double(r.storage_max.value()) + "\"";
  if (r.cap.has_value()) {
    // Cap block only when a governor ran: cap-off journals stay
    // byte-identical to pre-cap builds.
    const cap::CapStats& c = *r.cap;
    out += ",\"cap_slots\":" + std::to_string(c.slots_seen);
    out += ",\"cap_capped\":" + std::to_string(c.slots_capped);
    out += ",\"cap_reductions\":" + std::to_string(c.level_reductions);
    out += ",\"cap_restorations\":" + std::to_string(c.level_restorations);
    out += ",\"cap_violations\":" + std::to_string(c.budget_violations);
    out += ",\"cap_deferred_j\":\"" + hex_double(c.energy_deferred.value()) +
           "\"";
    out += ",\"cap_deferred_s\":\"" + hex_double(c.time_deferred.value()) +
           "\"";
    std::string levels;
    for (const double seconds : c.time_at_level_s) {
      if (!levels.empty()) {
        levels += ',';
      }
      levels += hex_double(seconds);  // hexfloats never need escaping
    }
    out += ",\"cap_levels\":\"" + levels + "\"";
  }
  if (r.stacks.has_value()) {
    // Stacks block only when the run's source was multi-stack:
    // single-stack journals stay byte-identical to pre-stacks builds.
    const stacks::StacksStats& s = *r.stacks;
    out += ",\"stk_n\":" + std::to_string(s.stacks.size());
    out += ",\"stk_dist\":" +
           std::to_string(static_cast<int>(s.distribution));
    std::string fuel_list;
    std::string delivered_list;
    std::string startups_list;
    std::string wear_list;
    for (const stacks::StackTotals& t : s.stacks) {
      if (!fuel_list.empty()) {
        fuel_list += ',';
        delivered_list += ',';
        startups_list += ',';
        wear_list += ',';
      }
      fuel_list += hex_double(t.fuel_as);  // hexfloats never need escaping
      delivered_list += hex_double(t.delivered_as);
      startups_list += std::to_string(t.startups);
      wear_list += hex_double(t.wear);
    }
    out += ",\"stk_fuel\":\"" + fuel_list + "\"";
    out += ",\"stk_delivered\":\"" + delivered_list + "\"";
    out += ",\"stk_startups\":\"" + startups_list + "\"";
    out += ",\"stk_wear\":\"" + wear_list + "\"";
  }
  if (r.audit.has_value()) {
    // Audit block only when an auditor ran: audit-off journals stay
    // byte-identical to pre-audit builds.
    const audit::AuditStats& a = *r.audit;
    out += ",\"aud_mode\":" + std::to_string(a.mode);
    out += ",\"aud_slots\":" + std::to_string(a.slots_audited);
    out += ",\"aud_segments\":" + std::to_string(a.segments_audited);
    out += ",\"aud_checks\":" + std::to_string(a.checks_run);
    out += ",\"aud_violations\":" + std::to_string(a.violations);
    out += ",\"aud_fuel\":" + std::to_string(a.fuel_violations);
    out += ",\"aud_storage\":" + std::to_string(a.storage_violations);
    out += ",\"aud_cap\":" + std::to_string(a.cap_violations);
    out += ",\"aud_stacks\":" + std::to_string(a.stacks_violations);
    out += ",\"aud_cache\":" + std::to_string(a.cache_violations);
    out += ",\"aud_fallbacks\":" + std::to_string(a.engine_fallbacks);
    if (!a.first_violation.empty()) {
      out += ",\"aud_first_slot\":" +
             std::to_string(a.first_violation_slot);
      out += ",\"aud_first\":\"" +
             obs::json_escape(a.first_violation.c_str()) + "\"";
    }
  }
  out += "}";
  return out;
}

namespace {

bool record_from_json(std::string_view payload, JournalRecord& record) {
  JsonObject object;
  FlatJsonParser parser(payload);
  if (!parser.parse(object)) {
    return false;
  }
  const FieldMap fields(object);

  std::uint64_t index = 0;
  std::uint64_t policy = 0;
  std::uint64_t seed = 0;
  std::uint64_t attempts = 1;
  double rho = 0.0;
  double capacity = 0.0;
  if (!fields.integer("index", index) ||
      !fields.integer("policy", policy) || !fields.number("rho", rho) ||
      !fields.number("capacity", capacity) ||
      !fields.integer("seed", seed) ||
      !fields.integer("attempts", attempts) ||
      !fields.boolean("ok", record.ok) || policy > 3) {
    return false;
  }
  record.index = static_cast<std::size_t>(index);
  record.point.policy = static_cast<sim::PolicyKind>(policy);
  record.point.rho = rho;
  record.point.capacity = Coulomb(capacity);
  record.point.storm_seed = seed;
  record.attempts = static_cast<std::size_t>(attempts);

  // Multi-stack point coordinates are optional (absent on single-stack
  // points); when the marker is present both fields are required.
  if (fields.find("stacks") != nullptr) {
    std::uint64_t stack_count = 0;
    std::uint64_t dist = 0;
    if (!fields.integer("stacks", stack_count) ||
        !fields.integer("dist", dist) || stack_count == 0 || dist > 2) {
      return false;
    }
    record.point.stacks = static_cast<std::size_t>(stack_count);
    record.point.distribution = static_cast<stacks::Distribution>(dist);
  }

  if (!record.ok) {
    std::string kind;
    if (!fields.string("error_kind", kind) ||
        !fields.string("error_detail", record.error.detail)) {
      return false;
    }
    for (const PointErrorKind candidate :
         {PointErrorKind::solver_diverged, PointErrorKind::non_finite_result,
          PointErrorKind::deadline_exceeded,
          PointErrorKind::contract_violation, PointErrorKind::io_error,
          PointErrorKind::power_undeliverable}) {
      if (kind == to_string(candidate)) {
        record.error.kind = candidate;
        return true;
      }
    }
    return false;
  }

  sim::SimulationResult& r = record.result;
  double fuel = 0.0;
  double delivered = 0.0;
  double load = 0.0;
  double bled = 0.0;
  double unserved = 0.0;
  double duration = 0.0;
  double latency = 0.0;
  double s_initial = 0.0;
  double s_end = 0.0;
  double s_min = 0.0;
  double s_max = 0.0;
  std::uint64_t slots = 0;
  std::uint64_t sleeps = 0;
  if (!fields.string("trace", r.trace_name) ||
      !fields.string("dpm", r.dpm_policy) ||
      !fields.string("fc", r.fc_policy) || !fields.number("fuel", fuel) ||
      !fields.number("delivered_j", delivered) ||
      !fields.number("load_j", load) || !fields.number("bled", bled) ||
      !fields.number("unserved", unserved) ||
      !fields.number("duration", duration) ||
      !fields.integer("slots", slots) ||
      !fields.integer("sleeps", sleeps) ||
      !fields.number("latency", latency) ||
      !fields.number("storage_initial", s_initial) ||
      !fields.number("storage_end", s_end) ||
      !fields.number("storage_min", s_min) ||
      !fields.number("storage_max", s_max)) {
    return false;
  }
  r.totals.fuel = Coulomb(fuel);
  r.totals.delivered_energy = Joule(delivered);
  r.totals.load_energy = Joule(load);
  r.totals.bled = Coulomb(bled);
  r.totals.unserved = Coulomb(unserved);
  r.totals.duration = Seconds(duration);
  r.slots = static_cast<std::size_t>(slots);
  r.sleeps = static_cast<std::size_t>(sleeps);
  r.latency_added = Seconds(latency);
  r.storage_initial = Coulomb(s_initial);
  r.storage_end = Coulomb(s_end);
  r.storage_min = Coulomb(s_min);
  r.storage_max = Coulomb(s_max);

  // Cap block is optional (absent on cap-off runs); when the marker
  // field is present every cap field is required together.
  if (fields.find("cap_slots") != nullptr) {
    std::uint64_t cap_slots = 0;
    std::uint64_t cap_capped = 0;
    std::uint64_t cap_reductions = 0;
    std::uint64_t cap_restorations = 0;
    std::uint64_t cap_violations = 0;
    double deferred_j = 0.0;
    double deferred_s = 0.0;
    std::string levels;
    if (!fields.integer("cap_slots", cap_slots) ||
        !fields.integer("cap_capped", cap_capped) ||
        !fields.integer("cap_reductions", cap_reductions) ||
        !fields.integer("cap_restorations", cap_restorations) ||
        !fields.integer("cap_violations", cap_violations) ||
        !fields.number("cap_deferred_j", deferred_j) ||
        !fields.number("cap_deferred_s", deferred_s) ||
        !fields.string("cap_levels", levels)) {
      return false;
    }
    cap::CapStats stats;
    stats.slots_seen = static_cast<std::size_t>(cap_slots);
    stats.slots_capped = static_cast<std::size_t>(cap_capped);
    stats.level_reductions = static_cast<std::size_t>(cap_reductions);
    stats.level_restorations = static_cast<std::size_t>(cap_restorations);
    stats.budget_violations = static_cast<std::size_t>(cap_violations);
    stats.energy_deferred = Joule(deferred_j);
    stats.time_deferred = Seconds(deferred_s);
    std::size_t pos = 0;
    while (pos < levels.size()) {
      const std::size_t comma = levels.find(',', pos);
      const std::string token = levels.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      char* end = nullptr;
      const double seconds = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0' || !std::isfinite(seconds)) {
        return false;
      }
      stats.time_at_level_s.push_back(seconds);
      pos = comma == std::string::npos ? levels.size() : comma + 1;
    }
    r.cap = std::move(stats);
  }

  // Stacks block is optional (absent on single-stack runs); when the
  // marker field is present every stacks field is required together.
  if (fields.find("stk_n") != nullptr) {
    std::uint64_t stack_count = 0;
    std::uint64_t dist = 0;
    std::string fuel_list;
    std::string delivered_list;
    std::string startups_list;
    std::string wear_list;
    if (!fields.integer("stk_n", stack_count) ||
        !fields.integer("stk_dist", dist) ||
        !fields.string("stk_fuel", fuel_list) ||
        !fields.string("stk_delivered", delivered_list) ||
        !fields.string("stk_startups", startups_list) ||
        !fields.string("stk_wear", wear_list) || stack_count == 0 ||
        dist > 2) {
      return false;
    }
    const auto parse_doubles = [](const std::string& list,
                                  std::vector<double>& out) {
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string token = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0' || !std::isfinite(value)) {
          return false;
        }
        out.push_back(value);
        pos = comma == std::string::npos ? list.size() : comma + 1;
      }
      return true;
    };
    std::vector<double> fuel_values;
    std::vector<double> delivered_values;
    std::vector<double> startup_values;
    std::vector<double> wear_values;
    if (!parse_doubles(fuel_list, fuel_values) ||
        !parse_doubles(delivered_list, delivered_values) ||
        !parse_doubles(startups_list, startup_values) ||
        !parse_doubles(wear_list, wear_values) ||
        fuel_values.size() != stack_count ||
        delivered_values.size() != stack_count ||
        startup_values.size() != stack_count ||
        wear_values.size() != stack_count) {
      return false;
    }
    stacks::StacksStats stats;
    stats.distribution = static_cast<stacks::Distribution>(dist);
    stats.stacks.resize(stack_count);
    for (std::size_t i = 0; i < stack_count; ++i) {
      if (startup_values[i] < 0.0 ||
          startup_values[i] != std::floor(startup_values[i])) {
        return false;
      }
      stats.stacks[i].fuel_as = fuel_values[i];
      stats.stacks[i].delivered_as = delivered_values[i];
      stats.stacks[i].startups = static_cast<std::size_t>(startup_values[i]);
      stats.stacks[i].wear = wear_values[i];
    }
    r.stacks = std::move(stats);
  }

  // Audit block is optional (absent on audit-off runs); when the marker
  // field is present every audit field is required together.
  if (fields.find("aud_mode") != nullptr) {
    std::uint64_t mode = 0;
    audit::AuditStats stats;
    if (!fields.integer("aud_mode", mode) || mode > 2 ||
        !fields.integer("aud_slots", stats.slots_audited) ||
        !fields.integer("aud_segments", stats.segments_audited) ||
        !fields.integer("aud_checks", stats.checks_run) ||
        !fields.integer("aud_violations", stats.violations) ||
        !fields.integer("aud_fuel", stats.fuel_violations) ||
        !fields.integer("aud_storage", stats.storage_violations) ||
        !fields.integer("aud_cap", stats.cap_violations) ||
        !fields.integer("aud_stacks", stats.stacks_violations) ||
        !fields.integer("aud_cache", stats.cache_violations) ||
        !fields.integer("aud_fallbacks", stats.engine_fallbacks)) {
      return false;
    }
    stats.mode = static_cast<int>(mode);
    if (fields.find("aud_first") != nullptr) {
      std::uint64_t first_slot = 0;
      if (!fields.integer("aud_first_slot", first_slot) ||
          !fields.string("aud_first", stats.first_violation)) {
        return false;
      }
      stats.first_violation_slot = static_cast<std::size_t>(first_slot);
    }
    r.audit = std::move(stats);
  }
  return true;
}

bool header_from_json(std::string_view line, JournalHeader& header) {
  JsonObject object;
  FlatJsonParser parser(line);
  if (!parser.parse(object)) {
    return false;
  }
  const FieldMap fields(object);
  std::uint64_t version = 0;
  std::uint64_t points = 0;
  std::string fingerprint;
  if (!fields.integer("fcdpm_journal", version) || version != 1 ||
      !fields.string("trace", header.trace_name) ||
      !fields.integer("points", points) ||
      !fields.string("fingerprint", fingerprint) ||
      !parse_hex(fingerprint, header.fingerprint)) {
    return false;
  }
  header.points = static_cast<std::size_t>(points);
  return true;
}

}  // namespace

// --- writer -----------------------------------------------------------------

Journal::Journal(std::string path, int fd)
    : path_(std::move(path)), fd_(fd),
      mutex_(std::make_unique<std::mutex>()) {}

Journal Journal::create(const std::string& path,
                        const JournalHeader& header) {
  // Header via temp + atomic rename: the journal appears complete or
  // not at all, never half-written.
  write_file_atomic(path, header_to_json(header) + "\n");
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    fail("cannot open journal for append", path);
  }
  return Journal(path, fd);
}

Journal Journal::open_for_append(const std::string& path,
                                 std::size_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    fail("cannot open journal for append", path);
  }
  // Physically drop a torn tail before new records go after it.
  if (::ftruncate(fd, static_cast<::off_t>(valid_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    fail("cannot truncate journal tail", path);
  }
  return Journal(path, fd);
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_),
      mutex_(std::move(other.mutex_)), dirty_(other.dirty_) {
  other.fd_ = -1;
  other.dirty_ = false;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    mutex_ = std::move(other.mutex_);
    dirty_ = other.dirty_;
    other.fd_ = -1;
    other.dirty_ = false;
  }
  return *this;
}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Journal::write_all(const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("cannot append journal record", path_);
    }
    written += static_cast<std::size_t>(n);
  }
}

void Journal::append(const JournalRecord& record) {
  const std::string payload = record_to_json(record);
  std::string line = "R ";
  line += to_hex(payload.size(), kLenDigits);
  line += ' ';
  line += to_hex(fnv1a64(payload), kSumDigits);
  line += ' ';
  line += payload;
  line += '\n';
  const std::lock_guard lock(*mutex_);
  dirty_ = true;  // a partial write still needs the next commit's fsync
  write_all(line);
}

bool Journal::commit() {
  const std::lock_guard lock(*mutex_);
  if (!dirty_) {
    return false;
  }
  if (::fsync(fd_) != 0) {
    fail("cannot fsync journal", path_);
  }
  dirty_ = false;
  return true;
}

// --- loader -----------------------------------------------------------------

JournalLoad load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CsvError("cannot open journal: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  const std::size_t header_end = bytes.find('\n');
  JournalLoad load;
  if (header_end == std::string::npos ||
      !header_from_json(std::string_view(bytes).substr(0, header_end),
                        load.header)) {
    // No committed header means the journal never existed as a valid
    // file (creation is atomic) — this is corruption, not a torn tail.
    throw CsvError("journal missing or invalid header: " + path);
  }

  std::size_t pos = header_end + 1;
  std::vector<bool> seen;
  while (pos < bytes.size()) {
    const std::string_view rest = std::string_view(bytes).substr(pos);
    if (rest.size() < kPrefixBytes || rest[0] != 'R' || rest[1] != ' ' ||
        rest[2 + kLenDigits] != ' ' ||
        rest[2 + kLenDigits + 1 + kSumDigits] != ' ') {
      break;  // torn or foreign tail
    }
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
    if (!parse_hex(rest.substr(2, kLenDigits), length) ||
        !parse_hex(rest.substr(2 + kLenDigits + 1, kSumDigits), checksum)) {
      break;
    }
    if (rest.size() < kPrefixBytes + length + 1) {
      break;  // record cut short
    }
    const std::string_view payload = rest.substr(kPrefixBytes, length);
    if (rest[kPrefixBytes + length] != '\n' ||
        fnv1a64(payload) != checksum) {
      break;  // missing terminator or bit rot
    }
    JournalRecord record;
    if (!record_from_json(payload, record)) {
      break;
    }
    // First record for an index wins (a resumed resume can only append
    // identical data, but stay deterministic regardless).
    if (record.index >= seen.size()) {
      seen.resize(record.index + 1, false);
    }
    if (!seen[record.index]) {
      seen[record.index] = true;
      load.records.push_back(std::move(record));
    }
    pos += kPrefixBytes + length + 1;
  }
  load.valid_bytes = pos;
  load.dropped_bytes = bytes.size() - pos;
  load.torn_tail = load.dropped_bytes > 0;
  return load;
}

}  // namespace fcdpm::resilience
