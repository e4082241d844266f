// The number codec of common/text against the C library it replaces:
// every append_* must print the bytes snprintf prints, and
// parse_hexfloat must accept what strtod accepts, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/text.hpp"

namespace fcdpm {
namespace {

std::string printf_form(const char* format, double value) {
  char buffer[512];  // "%.3f" of DBL_MAX is 313 bytes
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

/// format_fixed's rule on top of "%.*f", spelled the way it was first
/// written: trim trailing fractional zeros and a bare '.', "-0" -> "0".
std::string trimmed_printf_form(const char* format, double value) {
  std::string text = printf_form(format, value);
  if (text.find('.') != std::string::npos) {
    while (text.back() == '0') {
      text.pop_back();
    }
    if (text.back() == '.') {
      text.pop_back();
    }
  }
  return text == "-0" ? "0" : text;
}

/// The journal's former double decoder: strtod over a NUL-terminated
/// copy, accepted only when it consumed every byte.
bool strtod_whole(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

/// Random bit patterns (every exponent and payload equally likely) plus
/// the values that trip encoders up.
std::vector<double> codec_values() {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0,
                                -0.0,
                                5e-324,
                                -5e-324,
                                2.2250738585072009e-308,  // largest subnormal
                                1.5e-310,
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                inf,
                                -inf,
                                nan,
                                -nan,
                                0.1,
                                1.0 / 3.0,
                                1e21,
                                1e-5,
                                9.9999999999999995e-5,
                                1e16,
                                1e17,
                                123456789012345678.0,
                                0.125,
                                0.0625,
                                1.005,
                                2.675,
                                -0.0004,
                                -0.04,
                                826.82,
                                1.0,
                                -1.0};
  std::mt19937_64 rng(20070604);
  for (int k = 0; k < 100000; ++k) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  return values;
}

std::string g17(double value) {
  std::string out;
  append_g17(out, value);
  return out;
}

std::string g12(double value) {
  std::string out;
  append_g12(out, value);
  return out;
}

std::string hexfloat(double value) {
  std::string out;
  append_hexfloat(out, value);
  return out;
}

std::string fixed(double value, int decimals, bool trim) {
  std::string out;
  append_fixed(out, value, decimals, trim);
  return out;
}

TEST(NumberCodec, EveryAppendMatchesItsPrintfForm) {
  static const char* const kFixed[] = {"%.1f", "%.2f", "%.3f"};
  for (const double value : codec_values()) {
    SCOPED_TRACE(printf_form("%a", value));
    ASSERT_EQ(g17(value), printf_form("%.17g", value));
    ASSERT_EQ(g12(value), printf_form("%.12g", value));
    ASSERT_EQ(hexfloat(value), printf_form("%a", value));
    for (int decimals = 1; decimals <= 3; ++decimals) {
      const char* format = kFixed[decimals - 1];
      ASSERT_EQ(fixed(value, decimals, false), printf_form(format, value));
      ASSERT_EQ(fixed(value, decimals, true),
                trimmed_printf_form(format, value));
    }
  }
}

TEST(NumberCodec, AppendsWithoutTouchingWhatIsThere) {
  std::string out = "x=";
  append_g17(out, 0.5);
  out += ',';
  append_hexfloat(out, -2.0);
  out += ',';
  append_fixed(out, 1.250, 2);
  out += ',';
  append_integer(out, std::uint64_t{18446744073709551615ull});
  out += ',';
  append_integer(out, -7);
  EXPECT_EQ(out, "x=0.5,-0x1p+1,1.25,18446744073709551615,-7");
}

TEST(NumberCodec, ParseHexfloatEqualsStrtodOnEveryHexfloat) {
  for (const double value : codec_values()) {
    const std::string text = printf_form("%a", value);
    SCOPED_TRACE(text);
    double expected = 0.0;
    ASSERT_TRUE(strtod_whole(text, expected));
    double parsed = 1.0;
    ASSERT_TRUE(parse_hexfloat(text, parsed));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(expected));
  }
}

// Text outside the canonical "[-]0x0"/"[-]0x1" form goes to strtod, so
// the loader keeps accepting (and rejecting) exactly what it did: a
// leading space, a decimal and an upper-case prefix parse; trailing or
// partial text does not, and an embedded NUL ends the text for both.
TEST(NumberCodec, ParseHexfloatFallsBackToStrtod) {
  const std::string accepted[] = {" 0x1p+0", "1.5",      "0X1P+0",
                                  "0x1.8",   "0x2p+0",   "0x.8p+1",
                                  "-1e-3",   "inf",      "-nan",
                                  "0x1p+99999", "0x1p-99999", "+0x1p+0",
                                  "0x1.ABCp+0"};
  for (const std::string& text : accepted) {
    SCOPED_TRACE(text);
    double expected = 0.0;
    ASSERT_TRUE(strtod_whole(text, expected));
    double parsed = 0.0;
    ASSERT_TRUE(parse_hexfloat(text, parsed));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(expected));
  }
  const std::string edges[] = {"",       "-",        "0x",
                                  "0x1p",   "0x1p+0 ",  "0x-1p+0",
                                  "--0x1p+0", "0x1p+0,",  "0xinf",
                                  "abc",    std::string("0x1p+0\0x", 8)};
  for (const std::string& text : edges) {
    SCOPED_TRACE(text);
    double expected = 0.0;
    double parsed = 0.0;
    EXPECT_EQ(parse_hexfloat(text, parsed), strtod_whole(text, expected));
  }
  double parsed = 0.0;
  EXPECT_FALSE(parse_hexfloat("0x1p+0 ", parsed));
  EXPECT_FALSE(parse_hexfloat("1.5x", parsed));
  EXPECT_TRUE(parse_hexfloat("1.5", parsed));
  EXPECT_EQ(parsed, 1.5);
}

}  // namespace
}  // namespace fcdpm
