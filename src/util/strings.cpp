#include "util/strings.hpp"

#include <cctype>
#include <charconv>

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
