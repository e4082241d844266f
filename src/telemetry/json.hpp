// The one JSON reader of the library, for the machine-written JSON it
// reads back: the bench-history ledger (BENCH_*.json outputs and
// BENCH_HISTORY.jsonl rows) and the result journal's records.
//
// One cursor does all the lexing: whitespace, literals, strings (UTF-8
// passed through opaquely, \uXXXX unescaped only for the BMP) and
// number tokens, with the byte position of the first error. Two entry
// points sit on it:
//   - parse() builds a Value tree. Numbers are doubles; objects keep
//     insertion order (a vector of pairs) so round-trips are stable and
//     duplicate keys keep first-wins lookup semantics.
//   - parse_flat() reads one object of scalars into a reusable list of
//     views, with no tree. Its integers are exact std::uint64_t, so
//     journal seeds above 2^53 survive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fcdpm::telemetry::json {

enum class Kind { Null, Bool, Number, String, Array, Object };

class Value {
 public:
  using Member = std::pair<std::string, Value>;

  Value() = default;  ///< null
  explicit Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit Value(double n) : kind_(Kind::Number), number_(n) {}
  explicit Value(std::string s)
      : kind_(Kind::String), string_(std::move(s)) {}
  explicit Value(const char*) = delete;  // would convert to bool
  explicit Value(std::vector<Value> items)
      : kind_(Kind::Array), items_(std::move(items)) {}
  explicit Value(std::vector<Member> members)
      : kind_(Kind::Object), members_(std::move(members)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::Object;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::String;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return string_;
  }
  [[nodiscard]] const std::vector<Value>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const std::vector<Member>& members() const noexcept {
    return members_;
  }

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
  /// Dotted-path lookup, e.g. `at_path("timing.single_run.speedup")`.
  [[nodiscard]] const Value* at_path(std::string_view path) const noexcept;

  /// Convenience: number at a dotted path, or nullopt when the path is
  /// missing or not a number.
  [[nodiscard]] std::optional<double> number_at(
      std::string_view path) const noexcept;
  /// Convenience: string at a dotted path, or empty when missing.
  [[nodiscard]] std::string string_at(std::string_view path) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

struct ParseResult {
  bool ok = false;
  Value value;
  std::string error;       ///< empty on success
  std::size_t error_byte = 0;  ///< byte offset of the failure
};

/// Parse one complete JSON document; trailing whitespace is allowed,
/// any other trailing content is an error.
[[nodiscard]] ParseResult parse(std::string_view text);

/// One member value of a flat object: a String, an unsigned integer
/// (Number) or a Bool.
struct Scalar {
  Kind kind = Kind::String;
  std::string_view text;      ///< String
  std::uint64_t integer = 0;  ///< Number
  bool boolean = false;       ///< Bool
};

/// A flat object's members in document order, the first of each key
/// only. Keys and strings are views into the parsed text; a string with
/// an escape in it is unescaped into `spill`. clear() keeps the
/// capacity, so one object serves many parses.
struct FlatObject {
  std::vector<std::pair<std::string_view, Scalar>> members;
  std::deque<std::string> spill;

  void clear() {
    members.clear();
    spill.clear();
  }
};

/// Parse one complete document that is an object of scalars into `out`;
/// its views stay valid while `text` and `out` do. A number must be an
/// unsigned integer; it is read exactly and saturates at 2^64 - 1.
/// False on anything else: null, a nested object or array, a signed or
/// fractional number, or malformed JSON.
[[nodiscard]] bool parse_flat(std::string_view text, FlatObject& out);

}  // namespace fcdpm::telemetry::json
