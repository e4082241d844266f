#include "resilience/journal.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <concepts>
#include <cstring>
#include <string_view>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "audit/audit.hpp"
#include "cap/stats.hpp"
#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/text.hpp"
#include "obs/trace_sink.hpp"
#include "sim/result_fields.hpp"
#include "telemetry/json.hpp"

namespace fcdpm::resilience {

namespace {

namespace json = telemetry::json;

// --- framing ----------------------------------------------------------------
// "R " + 8-hex payload length + " " + 16-hex FNV-1a 64 + " " ... "\n"
constexpr std::size_t kLenDigits = 8;
constexpr std::size_t kSumDigits = 16;
constexpr std::size_t kPrefixBytes = 2 + kLenDigits + 1 + kSumDigits + 1;
/// Buffered bytes that append() writes out before the commit: a commit
/// chunk of 64 records fits, so it takes one write(), while a sweep's
/// trailing commit of served twins does not hold them all in memory.
constexpr std::size_t kPendingBytes = std::size_t{64} << 10;

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
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

/// A parsed payload, looked up in writer order.
class FieldMap {
 public:
  FieldMap(const json::FlatObject& object, std::size_t payload_bytes)
      : fields_(object.members), payload_bytes_(payload_bytes) {}

  /// No list in the payload can be longer than this.
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }

  /// The field named `key`, or nullptr. The decoder asks for keys in
  /// the order record_to_json wrote them, so the position after the
  /// last hit, or the last hit itself when a marker key is asked for
  /// again, nearly always holds it; otherwise every field is scanned.
  /// Keys are unique, so any hit is the first match.
  [[nodiscard]] const json::Scalar* find(std::string_view key) {
    if (next_ < fields_.size() && fields_[next_].first == key) {
      return &fields_[next_++].second;
    }
    if (next_ > 0 && fields_[next_ - 1].first == key) {
      return &fields_[next_ - 1].second;
    }
    for (std::size_t k = 0; k < fields_.size(); ++k) {
      if (fields_[k].first == key) {
        next_ = k + 1;
        return &fields_[k].second;
      }
    }
    return nullptr;
  }

 private:
  const std::vector<std::pair<std::string_view, json::Scalar>>& fields_;
  std::size_t payload_bytes_;
  std::size_t next_ = 0;
};

// --- field codec ------------------------------------------------------------
// encode() and decode() handle every field kind of sim/result_fields.hpp
// (and the record's own point fields). Doubles are C99 hexfloats inside
// JSON strings, an exact binary64 round-trip; lists are comma-separated
// inside one string.

void put_key(std::string& out, std::string_view key) {
  out += ",\"";
  out += key;
  out += "\":";
}

template <typename T>
void put_number(std::string& out, T value) {
  if constexpr (std::integral<T>) {
    append_integer(out, value);
  } else {
    append_hexfloat(out, value);
  }
}

template <typename At>
void put_list(std::string& out, std::string_view key, std::size_t size,
              At at) {
  put_key(out, key);
  out += '"';
  for (std::size_t k = 0; k < size; ++k) {
    if (k != 0) {
      out += ',';
    }
    put_number(out, at(k));
  }
  out += '"';
}

template <typename T>
void encode(std::string& out, std::string_view key, const T& field) {
  if constexpr (requires { field.token; }) {  // FirstViolation
    if (!field.token.empty()) {
      encode(out, std::string(key) + "_slot", field.slot);
      encode(out, key, field.token);
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    put_key(out, key);
    out += '"';
    obs::append_json_escaped(out, field.c_str());
    out += '"';
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    put_list(out, key, field.size(), [&](std::size_t k) { return field[k]; });
  } else if constexpr (requires { field.member; }) {  // StackColumn
    put_list(out, key, field.stacks.size(),
             [&](std::size_t k) { return field.stacks[k].*field.member; });
  } else if constexpr (requires { field.stacks; }) {  // StackCount
    encode(out, key, field.stacks.size());
  } else if constexpr (requires { field.max; }) {  // Ranged
    encode(out, key, static_cast<std::uint64_t>(field.value));
  } else if constexpr (requires { field.value(); }) {  // unit quantity
    encode(out, key, field.value());
  } else if constexpr (std::integral<T>) {
    put_key(out, key);
    put_number(out, field);
  } else {
    static_assert(std::is_same_v<T, double>);
    put_key(out, key);
    out += '"';
    put_number(out, field);
    out += '"';
  }
}

/// Comma list of finite numbers; "" is the empty list.
bool parse_list(std::string_view list, std::vector<double>& out) {
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    double value = 0.0;
    if (!parse_hexfloat(list.substr(pos, comma - pos), value) ||
        !std::isfinite(value)) {
      return false;
    }
    out.push_back(value);
    pos = comma == std::string_view::npos ? list.size() : comma + 1;
  }
  return true;
}

/// False when the key is missing, of the wrong JSON type or out of the
/// field's range.
template <typename T>
bool decode(FieldMap& fields, std::string_view key, T&& field) {
  using F = std::remove_cvref_t<T>;
  if constexpr (requires { field.token; }) {  // FirstViolation
    return fields.find(key) == nullptr ||
           (decode(fields, std::string(key) + "_slot", field.slot) &&
            decode(fields, key, field.token));
  } else if constexpr (std::is_same_v<F, std::vector<double>>) {
    std::string_view list;
    return decode(fields, key, list) && parse_list(list, field);
  } else if constexpr (requires { field.member; }) {  // StackColumn
    std::vector<double> values;
    if (!decode(fields, key, values) || values.size() != field.stacks.size()) {
      return false;
    }
    for (std::size_t k = 0; k < values.size(); ++k) {
      auto& value = field.stacks[k].*field.member;
      using V = std::remove_reference_t<decltype(value)>;
      if (std::integral<V> && (values[k] < 0.0 || values[k] >= 0x1p64 ||
                               values[k] != std::floor(values[k]))) {
        return false;
      }
      value = static_cast<V>(values[k]);
    }
    return true;
  } else if constexpr (requires { field.stacks; }) {  // StackCount
    std::uint64_t count = 0;
    if (!decode(fields, key, count) || count == 0 ||
        count > fields.payload_bytes()) {
      return false;
    }
    field.stacks.resize(static_cast<std::size_t>(count));
    return true;
  } else if constexpr (requires { field.max; }) {  // Ranged
    std::uint64_t raw = 0;
    if (!decode(fields, key, raw) || raw > field.max) {
      return false;
    }
    field.value = static_cast<std::remove_cvref_t<decltype(field.value)>>(raw);
    return true;
  } else if constexpr (requires { field.value(); }) {  // unit quantity
    double raw = 0.0;
    if (!decode(fields, key, raw)) {
      return false;
    }
    field = F(raw);
    return true;
  } else if constexpr (std::is_same_v<F, double>) {
    std::string_view text;
    return decode(fields, key, text) && parse_hexfloat(text, field);
  } else {
    using json::Kind;
    constexpr Kind kind = std::is_same_v<F, std::string> ||
                                  std::is_same_v<F, std::string_view>
                              ? Kind::String
                          : std::is_same_v<F, bool>      ? Kind::Bool
                                                         : Kind::Number;
    const json::Scalar* f = fields.find(key);
    if (f == nullptr || f->kind != kind) {
      return false;
    }
    if constexpr (kind == Kind::String) {
      field = f->text;
    } else if constexpr (kind == Kind::Bool) {
      field = f->boolean;
    } else {
      field = static_cast<F>(f->integer);
    }
    return true;
  }
}

void hash_u64(std::uint64_t& hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

void hash_double(std::uint64_t& hash, double value) {
  hash_u64(hash, std::bit_cast<std::uint64_t>(value));
}

std::string header_to_json(const JournalHeader& header) {
  std::string out = "{\"fcdpm_journal\":1,\"trace\":\"";
  obs::append_json_escaped(out, header.trace_name.c_str());
  out += "\",\"points\":";
  append_integer(out, header.points);
  out += ",\"fingerprint\":\"";
  append_hex(out, header.fingerprint, 16);
  out += "\"}";
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
  std::string out;
  out.reserve(768);  // a record with every block fits
  out += "{\"index\":";
  put_number(out, record.index);
  encode(out, "policy", static_cast<std::uint64_t>(record.point.policy));
  encode(out, "rho", record.point.rho);
  encode(out, "capacity", record.point.capacity);
  encode(out, "seed", record.point.storm_seed);
  if (record.point.stacks > 0) {
    // Multi-stack point coordinates, serialized only on stack points so
    // single-stack journals stay byte-identical to pre-stacks builds.
    encode(out, "stacks", record.point.stacks);
    encode(out, "dist", static_cast<std::uint64_t>(record.point.distribution));
  }
  encode(out, "attempts", record.attempts);
  out += record.ok ? ",\"ok\":true" : ",\"ok\":false";
  if (!record.ok) {
    encode(out, "error_kind", std::string(to_string(record.error.kind)));
    encode(out, "error_detail", record.error.detail);
    out += '}';
    return out;
  }
  if (record.clean_leader) {
    out += ",\"clean_leader\":true";
  }
  // Each optional block only when its run had one, so journals of runs
  // without it stay byte-identical to builds before it existed.
  const auto encode_field = [&out](std::string_view key, const auto& field) {
    encode(out, key, field);
  };
  sim::for_each_core_field(encode_field, record.result);
  sim::for_each_block(
      [&](std::string_view, const auto& block) {
        if (block.has_value()) {
          sim::for_each_field(encode_field, *block);
        }
      },
      record.result);
  out += '}';
  return out;
}

namespace {

/// Decode one payload; `object` is scratch space reused across records.
bool record_from_json(std::string_view payload, JournalRecord& record,
                      json::FlatObject& object) {
  if (!json::parse_flat(payload, object)) {
    return false;
  }
  FieldMap fields(object, payload.size());
  bool ok = true;
  const auto decode_field = [&](std::string_view key, auto&& field) {
    ok = ok && decode(fields, key, field);
  };
  decode_field("index", record.index);
  decode_field("policy", sim::Ranged{record.point.policy, 3});
  decode_field("rho", record.point.rho);
  decode_field("capacity", record.point.capacity);
  decode_field("seed", record.point.storm_seed);
  if (!ok) {
    return false;
  }
  // Multi-stack point coordinates are optional (absent on single-stack
  // points); when the marker is present both fields are required.
  if (fields.find("stacks") != nullptr) {
    decode_field("stacks", record.point.stacks);
    decode_field("dist", sim::Ranged{record.point.distribution, 2});
    if (!ok || record.point.stacks == 0) {
      return false;
    }
  }
  decode_field("attempts", record.attempts);
  decode_field("ok", record.ok);
  if (!ok) {
    return false;
  }

  if (!record.ok) {
    std::string kind;
    decode_field("error_kind", kind);
    decode_field("error_detail", record.error.detail);
    if (!ok) {
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

  record.clean_leader = fields.find("clean_leader") != nullptr;
  sim::for_each_core_field(decode_field, record.result);
  // An optional block is absent without its marker key; with it, every
  // field of the block is required.
  sim::for_each_block(
      [&](std::string_view marker, auto& block) {
        if (ok && fields.find(marker) != nullptr) {
          sim::for_each_field(decode_field, block.emplace());
        }
      },
      record.result);
  return ok;
}

bool header_from_json(std::string_view line, JournalHeader& header) {
  json::FlatObject object;
  if (!json::parse_flat(line, object)) {
    return false;
  }
  FieldMap fields(object, line.size());
  std::uint64_t version = 0;
  std::string_view fingerprint;
  return decode(fields, "fcdpm_journal", version) && version == 1 &&
         decode(fields, "trace", header.trace_name) &&
         decode(fields, "points", header.points) &&
         decode(fields, "fingerprint", fingerprint) &&
         parse_hex(fingerprint, header.fingerprint);
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
      mutex_(std::move(other.mutex_)), pending_(std::move(other.pending_)),
      unsynced_(other.unsynced_) {
  other.fd_ = -1;
  other.pending_.clear();
  other.unsynced_ = false;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    mutex_ = std::move(other.mutex_);
    pending_ = std::move(other.pending_);
    unsynced_ = other.unsynced_;
    other.fd_ = -1;
    other.pending_.clear();
    other.unsynced_ = false;
  }
  return *this;
}

Journal::~Journal() { close(); }

void Journal::close() noexcept {
  if (fd_ < 0) {
    return;
  }
  try {
    write_all();
  } catch (const std::exception&) {
    // A record that cannot be written was never reported durable.
  }
  ::close(fd_);
  fd_ = -1;
}

void Journal::write_all() {
  std::size_t written = 0;
  while (written < pending_.size()) {
    const ::ssize_t n =
        ::write(fd_, pending_.data() + written, pending_.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      pending_.erase(0, written);
      fail("cannot append journal record", path_);
    }
    written += static_cast<std::size_t>(n);
  }
  pending_.clear();
}

void Journal::append(const JournalRecord& record) {
  const std::string payload = record_to_json(record);
  const std::lock_guard lock(*mutex_);
  pending_ += "R ";
  append_hex(pending_, payload.size(), kLenDigits);
  pending_ += ' ';
  append_hex(pending_, fnv1a64(payload), kSumDigits);
  pending_ += ' ';
  pending_ += payload;
  pending_ += '\n';
  unsynced_ = true;
  if (pending_.size() >= kPendingBytes) {
    write_all();
  }
}

bool Journal::commit() {
  const std::lock_guard lock(*mutex_);
  if (!unsynced_) {
    return false;
  }
  write_all();
  if (::fsync(fd_) != 0) {
    fail("cannot fsync journal", path_);
  }
  unsynced_ = false;
  return true;
}

// --- loader -----------------------------------------------------------------

namespace {

/// The whole regular file at `path`, read once.
std::string read_journal_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  struct ::stat status {};
  if (fd < 0 || ::fstat(fd, &status) != 0 || !S_ISREG(status.st_mode)) {
    if (fd >= 0) {
      ::close(fd);
    }
    throw CsvError("cannot open journal: " + path);
  }
  std::string bytes(static_cast<std::size_t>(status.st_size), '\0');
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ::ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      ::close(fd);
      fail("cannot read journal", path);
    }
    if (n == 0) {
      break;  // the file shrank since fstat
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

}  // namespace

JournalLoad load_journal(const std::string& path) {
  const std::string bytes = read_journal_file(path);

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
  // At most one record per line, and a line holds at least a prefix. A
  // JournalRecord is ~1 KB, so growing the vector by doubling would copy
  // the records twice over.
  const auto lines = static_cast<std::size_t>(
      std::count(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                 bytes.end(), '\n'));
  load.records.reserve(
      std::min(lines, (bytes.size() - pos) / (kPrefixBytes + 1)));
  std::vector<bool> seen;
  json::FlatObject object;
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
    // Decoded in place; popped again when it fails or repeats an index.
    JournalRecord& record = load.records.emplace_back();
    if (!record_from_json(payload, record, object)) {
      load.records.pop_back();
      break;
    }
    pos += kPrefixBytes + length + 1;
    // First record for an index wins (a resumed resume can only append
    // identical data, but stay deterministic regardless). An index
    // outside the header's grid is passed through for the caller to
    // reject; it never sizes `seen`.
    if (record.index < load.header.points) {
      if (record.index >= seen.size()) {
        seen.resize(record.index + 1, false);
      }
      if (seen[record.index]) {
        load.records.pop_back();
        continue;
      }
      seen[record.index] = true;
    }
  }
  load.valid_bytes = pos;
  load.dropped_bytes = bytes.size() - pos;
  load.torn_tail = load.dropped_bytes > 0;
  return load;
}

}  // namespace fcdpm::resilience
