// String utilities shared by the CSV layer and report renderers.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fcdpm {

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Split on a single-character delimiter; adjacent delimiters yield empty
/// fields, and splitting "" yields one empty field (CSV semantics).
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delimiter);

/// Join with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view separator);

// --- number codec -----------------------------------------------------------
// Locale-free number text for the report, export and journal paths. Each
// append_* appends to `out`, with no temporaries, exactly the bytes of the
// printf form named beside it: std::to_chars with a precision is
// specified to print as printf does, so output written through the codec
// is byte-identical to output written with snprintf.

/// "%.17g": 17 significant digits, which round-trip any binary64.
void append_g17(std::string& out, double value);

/// "%.12g": the short form used for timings and rates.
void append_g12(std::string& out, double value);

/// "%a": a C99 hexfloat ("0x1.9a6p+9", "-0x0p+0", "inf", "-nan").
void append_hexfloat(std::string& out, double value);

/// "%.*f" with `decimals` in [0, 17]. With `trim`, trailing fractional
/// zeros and a then-bare '.' are dropped ("1.30" -> "1.3", "2.00" -> "2")
/// and "-0" prints as "0".
void append_fixed(std::string& out, double value, int decimals,
                  bool trim = true);

/// An integer in decimal, as std::to_string prints it.
template <std::integral T>
void append_integer(std::string& out, T value) {
  char buffer[24];
  out.append(buffer,
             std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

/// `value` in lower-case hex, zero-padded to at least `digits` digits
/// ("%0*llx").
void append_hex(std::string& out, std::uint64_t value, std::size_t digits);

/// Parse all of `text` as a double, accepting exactly what strtod accepts
/// over a NUL-terminated copy of it. The canonical hexfloat that
/// append_hexfloat writes ("[-]0x0..." or "[-]0x1...") is read with
/// std::from_chars; any other text, and any text from_chars cannot take
/// whole, falls back to strtod.
[[nodiscard]] bool parse_hexfloat(std::string_view text, double& out);

/// append_g17 / append_g12 / append_fixed as a string, for text built
/// by concatenation (table and CSV cells, small reports).
[[nodiscard]] std::string format_g17(double value);
[[nodiscard]] std::string format_g12(double value);
[[nodiscard]] std::string format_fixed(double value, int max_decimals,
                                       bool trim = true);

/// Render a fraction as a percentage string, e.g. 0.308 -> "30.8%".
[[nodiscard]] std::string format_percent(double fraction, int decimals = 1);

/// True when `text` parses fully as a floating-point number.
[[nodiscard]] bool parse_double(std::string_view text, double& out);

/// Left-pad / right-pad to a minimum width with spaces.
[[nodiscard]] std::string pad_left(std::string_view text, std::size_t width);
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

}  // namespace fcdpm
