#include "common/text.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/contracts.hpp"

namespace fcdpm {

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    if (k != 0) {
      out += separator;
    }
    out += parts[k];
  }
  return out;
}

namespace {

void append_general(std::string& out, double value, int precision) {
  char buffer[32];  // "-1.2345678901234567e-308" is the longest
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value,
                                   std::chars_format::general, precision)
                         .ptr);
}

/// A positive subnormal as "%a" spells it after the "0x":
/// "0.<fraction without trailing zeros>p-1022".
void append_subnormal_hexfloat(std::string& out, double value) {
  std::uint64_t fraction =
      std::bit_cast<std::uint64_t>(value) & ((std::uint64_t{1} << 52) - 1);
  std::size_t digits = 13;  // 52 fraction bits
  while ((fraction & 0xf) == 0) {
    fraction >>= 4;
    --digits;
  }
  out += "0.";
  append_hex(out, fraction, digits);
  out += "p-1022";
}

}  // namespace

void append_g17(std::string& out, double value) {
  append_general(out, value, 17);
}

void append_g12(std::string& out, double value) {
  append_general(out, value, 12);
}

void append_hexfloat(std::string& out, double value) {
  char buffer[32];  // "-0x1.fffffffffffffp+1023" is the longest
  char* first = buffer;
  if (std::isfinite(value)) {
    // printf puts "0x" after the sign; to_chars writes neither.
    if (std::signbit(value)) {
      *first++ = '-';
      value = -value;
    }
    *first++ = '0';
    *first++ = 'x';
    if (value != 0.0 && value < DBL_MIN) {
      // printf keeps a subnormal's "0x0.<fraction>p-1022" form, which
      // to_chars would normalise to "0x1...p-10xx".
      out.append(buffer, first);
      append_subnormal_hexfloat(out, value);
      return;
    }
  }
  out.append(buffer, std::to_chars(first, buffer + sizeof buffer, value,
                                   std::chars_format::hex)
                         .ptr);
}

void append_fixed(std::string& out, double value, int decimals, bool trim) {
  FCDPM_EXPECTS(decimals >= 0 && decimals <= 17, "decimals out of range");
  // Sign, the 309 integer digits of DBL_MAX, the point and 17 decimals.
  char buffer[330];
  const char* first = buffer;
  const char* last = std::to_chars(buffer, buffer + sizeof buffer, value,
                                   std::chars_format::fixed, decimals)
                         .ptr;
  if (trim) {
    if (std::find(first, last, '.') != last) {
      while (last[-1] == '0') {
        --last;
      }
      if (last[-1] == '.') {
        --last;
      }
    }
    if (last - first == 2 && first[0] == '-' && first[1] == '0') {
      ++first;
    }
  }
  out.append(first, last);
}

void append_hex(std::string& out, std::uint64_t value, std::size_t digits) {
  char buffer[16];
  const auto used = static_cast<std::size_t>(
      std::to_chars(buffer, buffer + sizeof buffer, value, 16).ptr - buffer);
  if (used < digits) {
    out.append(digits - used, '0');
  }
  out.append(buffer, used);
}

bool parse_hexfloat(std::string_view text, double& out) {
  const bool negative = !text.empty() && text.front() == '-';
  const std::string_view body = text.substr(negative ? 1 : 0);
  if (body.size() > 2 && body[0] == '0' && body[1] == 'x' &&
      (body[2] == '0' || body[2] == '1')) {
    const char* const last = body.data() + body.size();
    const auto [ptr, ec] = std::from_chars(body.data() + 2, last, out,
                                           std::chars_format::hex);
    if (ec == std::errc{} && ptr == last) {
      if (negative) {
        out = -out;
      }
      return true;
    }
  }
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') {
    return false;
  }
  out = value;
  return true;
}

std::string format_g17(double value) {
  std::string text;
  append_g17(text, value);
  return text;
}

std::string format_g12(double value) {
  std::string text;
  append_g12(text, value);
  return text;
}

std::string format_fixed(double value, int max_decimals, bool trim) {
  std::string text;
  append_fixed(text, value, max_decimals, trim);
  return text;
}

std::string format_percent(double fraction, int decimals) {
  return format_fixed(fraction * 100.0, decimals, false) + '%';
}

bool parse_double(std::string_view text, double& out) {
  const std::string_view trimmed = trim(text);
  if (trimmed.empty()) {
    return false;
  }
  const char* begin = trimmed.data();
  const char* end = begin + trimmed.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) {
    return std::string(text);
  }
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) {
    out.append(width - out.size(), ' ');
  }
  return out;
}

}  // namespace fcdpm
