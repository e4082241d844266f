#include "telemetry/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>

namespace fcdpm::telemetry::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) {
    return nullptr;
  }
  for (const Member& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const Value* Value::at_path(std::string_view path) const noexcept {
  const Value* current = this;
  while (!path.empty()) {
    const std::size_t dot = path.find('.');
    const std::string_view key =
        dot == std::string_view::npos ? path : path.substr(0, dot);
    current = current->find(key);
    if (current == nullptr) {
      return nullptr;
    }
    path = dot == std::string_view::npos ? std::string_view{}
                                         : path.substr(dot + 1);
  }
  return current;
}

std::optional<double> Value::number_at(std::string_view path) const noexcept {
  const Value* v = at_path(path);
  if (v == nullptr || !v->is_number()) {
    return std::nullopt;
  }
  return v->as_number();
}

std::string Value::string_at(std::string_view path) const {
  const Value* v = at_path(path);
  return v != nullptr && v->is_string() ? v->as_string() : std::string{};
}

namespace {

/// One forward pass over JSON text, the lexer of both entry points. It
/// skips whitespace and reads strings and scalar tokens, and keeps the
/// message of the first failure; pos() is then its byte.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] const char* error() const noexcept { return error_; }

  void skip_ws() noexcept {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  /// Step over `c` when it is next.
  bool consume(char c) noexcept {
    if (!at_end() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool fail(const char* message) noexcept {
    error_ = message;
    return false;
  }

  /// The string whose opening quote is next. Without escapes it is a
  /// view into the text; otherwise `spill()` names the std::string that
  /// receives the unescaped bytes, and `out` views that.
  template <typename Spill>
  bool string(std::string_view& out, Spill&& spill) {
    const std::size_t start = ++pos_;
    while (!at_end() && peek() != '"' && peek() != '\\') {
      ++pos_;
    }
    if (at_end()) {
      return fail("unterminated string");
    }
    if (peek() == '"') {
      out = text_.substr(start, pos_++ - start);
      return true;
    }
    std::string& copy = spill();
    copy.assign(text_.substr(start, pos_ - start));
    if (!unescape_rest(copy)) {
      return false;
    }
    out = copy;
    return true;
  }

  /// A string, literal or number token. A number's `text` is the
  /// longest run of characters a JSON number is made of; its caller
  /// converts it.
  template <typename Spill>
  bool scalar(Scalar& out, Spill&& spill) {
    if (at_end()) {
      return fail("unexpected end of input");
    }
    switch (peek()) {
      case '"':
        out.kind = Kind::String;
        return string(out.text, spill);
      case 't':
      case 'f':
        out.kind = Kind::Bool;
        out.boolean = peek() == 't';
        return literal(out.boolean ? "true" : "false");
      case 'n':
        out.kind = Kind::Null;
        return literal("null");
      default:
        break;
    }
    const std::size_t start = pos_;
    while (!at_end() && number_char(peek())) {
      ++pos_;
    }
    out.kind = Kind::Number;
    out.text = text_.substr(start, pos_ - start);
    return pos_ > start || fail("expected a value");
  }

  /// Fail with "invalid number" at the start of the number token `token`.
  bool invalid_number(std::string_view token) noexcept {
    pos_ = static_cast<std::size_t>(token.data() - text_.data());
    return fail("invalid number");
  }

 private:
  static bool number_char(char c) noexcept {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  /// Continue a string at its first backslash, appending the unescaped
  /// bytes to `out` through the closing quote.
  bool unescape_rest(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kBytes = "\"\\/\b\f\n\r\t";
    while (true) {
      if (at_end()) {
        return fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) {
        return fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      const std::size_t simple = kEscapes.find(esc);
      if (simple != std::string_view::npos) {
        out.push_back(kBytes[simple]);
      } else if (esc != 'u') {
        return fail("invalid escape");
      } else if (!unescape_code_point(out)) {
        return false;
      }
    }
  }

  /// The four hex digits after "\u", appended as UTF-8. BMP only:
  /// surrogate pairs never appear in this repo's machine-written output.
  bool unescape_code_point(std::string& out) {
    if (text_.size() - pos_ < 4) {
      pos_ = text_.size();
      return fail("truncated \\u escape");
    }
    const char* const digits = text_.data() + pos_;
    unsigned code = 0;
    const char* const end = std::from_chars(digits, digits + 4, code, 16).ptr;
    if (end != digits + 4) {
      pos_ = static_cast<std::size_t>(end - text_.data());
      return fail("invalid \\u escape");
    }
    pos_ += 4;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    } else {
      out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
      out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* error_ = "";
};

/// The members of the object whose '{' is next: `member(key)` reads
/// each value, keys unescaped into `spill` when needed.
template <typename Spill, typename Member>
bool read_object(Cursor& in, Spill&& spill, Member&& member) {
  in.consume('{');
  in.skip_ws();
  if (in.consume('}')) {
    return true;
  }
  do {
    in.skip_ws();
    if (in.at_end() || in.peek() != '"') {
      return in.fail("expected object key");
    }
    std::string_view key;
    if (!in.string(key, spill)) {
      return false;
    }
    in.skip_ws();
    if (!in.consume(':')) {
      return in.fail("expected ':' after key");
    }
    in.skip_ws();
    if (!member(key)) {
      return false;
    }
    in.skip_ws();
    if (in.at_end()) {
      return in.fail("unterminated object");
    }
  } while (in.consume(','));
  return in.consume('}') || in.fail("expected ',' or '}' in object");
}

/// The document is done: only whitespace is left.
bool read_end(Cursor& in) {
  in.skip_ws();
  return in.at_end() || in.fail("trailing content after document");
}

bool read_value(Cursor& in, Value& out, std::string& spill) {
  const auto spill_to = [&]() -> std::string& { return spill; };
  if (!in.at_end() && in.peek() == '{') {
    std::vector<Value::Member> members;
    if (!read_object(in, spill_to, [&](std::string_view key) {
          Value& value = members.emplace_back(key, Value{}).second;
          return read_value(in, value, spill);
        })) {
      return false;
    }
    out = Value(std::move(members));
    return true;
  }
  if (in.consume('[')) {
    std::vector<Value> items;
    in.skip_ws();
    if (!in.consume(']')) {
      do {
        in.skip_ws();
        if (!read_value(in, items.emplace_back(), spill)) {
          return false;
        }
        in.skip_ws();
        if (in.at_end()) {
          return in.fail("unterminated array");
        }
      } while (in.consume(','));
      if (!in.consume(']')) {
        return in.fail("expected ',' or ']' in array");
      }
    }
    out = Value(std::move(items));
    return true;
  }
  Scalar scalar;
  if (!in.scalar(scalar, spill_to)) {
    return false;
  }
  switch (scalar.kind) {
    case Kind::String:
      out = Value(std::string(scalar.text));
      break;
    case Kind::Bool:
      out = Value(scalar.boolean);
      break;
    case Kind::Number: {
      const std::string digits(scalar.text);
      char* end = nullptr;
      out = Value(std::strtod(digits.c_str(), &end));
      return end == digits.c_str() + digits.size() ||
             in.invalid_number(scalar.text);
    }
    default:
      out = Value{};  // null
      break;
  }
  return true;
}

/// A number token as an exact unsigned integer, saturated at 2^64 - 1
/// as strtoull does; false when the token is not all digits.
bool read_integer(Scalar& value) {
  const char* const last = value.text.data() + value.text.size();
  const auto [end, ec] = std::from_chars(value.text.data(), last,
                                         value.integer);
  if (ec == std::errc::result_out_of_range) {
    value.integer = std::numeric_limits<std::uint64_t>::max();
  }
  return end == last;
}

/// True when `key` is already in `object`. A 64-bit filter over each
/// key's length and end bytes skips the scan for most keys.
bool repeated(const FlatObject& object, std::string_view key,
              std::uint64_t& filter) {
  const std::size_t hash =
      key.empty() ? 0
                  : key.size() * 7 + static_cast<unsigned char>(key.front()) +
                        static_cast<unsigned char>(key.back()) * 3;
  const std::uint64_t bit = std::uint64_t{1} << (hash & 63);
  if ((filter & bit) == 0) {
    filter |= bit;
    return false;
  }
  return std::any_of(object.members.begin(), object.members.end(),
                     [&](const auto& member) { return member.first == key; });
}

}  // namespace

ParseResult parse(std::string_view text) {
  ParseResult result;
  Cursor in(text);
  std::string spill;
  in.skip_ws();
  result.ok = read_value(in, result.value, spill) && read_end(in);
  if (!result.ok) {
    result.value = Value{};
    result.error = in.error();
    result.error_byte = in.pos();
  }
  return result;
}

bool parse_flat(std::string_view text, FlatObject& out) {
  out.clear();
  Cursor in(text);
  in.skip_ws();
  if (in.at_end() || in.peek() != '{') {
    return false;
  }
  const auto spill = [&]() -> std::string& { return out.spill.emplace_back(); };
  std::uint64_t key_filter = 0;
  return read_object(in, spill,
                     [&](std::string_view key) {
                       Scalar value;
                       if (!in.scalar(value, spill) ||
                           value.kind == Kind::Null ||
                           (value.kind == Kind::Number &&
                            !read_integer(value))) {
                         return false;
                       }
                       if (!repeated(out, key, key_filter)) {
                         out.members.emplace_back(key, value);
                       }
                       return true;
                     }) &&
         read_end(in);
}

}  // namespace fcdpm::telemetry::json
