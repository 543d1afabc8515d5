#include "util/strings.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>

namespace omptune::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<long long> parse_int(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  long long value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

char* write_fixed_double(char* first, double value, int precision) {
  if (precision < 0) precision = 6;
  // to_chars renders fixed notation exactly as printf does in the C locale
  // (round-half-even on the exact binary value, "inf"/"nan" spellings), so
  // the only difference from snprintf is that nothing is ever cut short.
  char* const last = first + fixed_double_chars(precision);
  return std::to_chars(first, last, value, std::chars_format::fixed, precision)
      .ptr;
}

double round_fixed_double(double value, int precision) {
  static constexpr std::array<double, 23> kPowers = {
      1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
      1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
  if (precision >= 0 && precision < static_cast<int>(kPowers.size())) {
    // 10^precision is exact, so p is the scaled value rounded once and
    // err the exact rest. Below 2^52 every half-integer is representable:
    // p lands on the other side of a rounding boundary than the exact
    // value only when it lands on the boundary itself, and then the sign
    // of err says which way the exact value lies (zero: a true tie, which
    // nearbyint already broke to even, as printf does).
    const double scale = kPowers[static_cast<std::size_t>(precision)];
    const double p = value * scale;
    if (std::fabs(p) < 0x1p52) {
      double r = std::nearbyint(p);
      const double frac = p - r;  // exact: r is within 0.5 of p
      if (frac == 0.5 || frac == -0.5) {
        const double err = std::fma(value, scale, -p);
        if (frac == 0.5 && err > 0.0) r += 1.0;
        if (frac == -0.5 && err < 0.0) r -= 1.0;
      }
      // r and scale are exact, so one correctly rounded division is the
      // parse of r's decimal text.
      return r / scale;
    }
  }
  return parse_double(format_double(value, precision)).value_or(value);
}

std::string format_double(double value, int precision) {
  std::string out(fixed_double_chars(precision), '\0');
  out.resize(static_cast<std::size_t>(
      write_fixed_double(out.data(), value, precision) - out.data()));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

}  // namespace omptune::util
