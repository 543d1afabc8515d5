#pragma once

// Small string utilities used across the library. All functions are pure and
// allocation behaviour is explicit in the signatures.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace omptune::util {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// ASCII lower-case copy.
std::string to_lower(std::string_view text);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// Parse a decimal integer; returns nullopt on any trailing garbage.
std::optional<long long> parse_int(std::string_view text);

/// Parse a floating point number; returns nullopt on any trailing garbage.
std::optional<double> parse_double(std::string_view text);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Characters printf("%.*f") needs for any double at `precision`: a sign,
/// up to 309 integer digits, the point and the fraction digits (a negative
/// precision means printf's default of 6).
constexpr std::size_t fixed_double_chars(int precision) {
  return 311 + static_cast<std::size_t>(precision < 0 ? 6 : precision);
}

/// Writes `value` exactly as printf("%.*f", precision, value) would into
/// `first`, which must hold fixed_double_chars(precision) characters, and
/// returns the end of the text (no terminator is written).
char* write_fixed_double(char* first, double value, int precision);

/// printf-style double formatting with fixed precision; never truncates.
std::string format_double(double value, int precision);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

}  // namespace omptune::util
