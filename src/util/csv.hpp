#pragma once

// Minimal CSV reading/writing with RFC-4188-style quoting, used for the open
// dataset files the study produces (one row per collected sample).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace omptune::util {

/// In-memory tabular dataset: a header plus rows of string cells.
/// Small by design; numeric interpretation happens at the point of use.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }

  /// Append a row; throws std::invalid_argument if the width mismatches.
  void add_row(std::vector<std::string> row);

  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

  /// Column index by name; throws std::out_of_range if absent.
  std::size_t col_index(std::string_view name) const;

  /// Cell accessor by row index and column name.
  const std::string& cell(std::size_t row, std::string_view col) const;

  /// Numeric accessor; throws std::invalid_argument on non-numeric cells.
  double cell_as_double(std::size_t row, std::string_view col) const;

  /// Serialize to CSV with quoting where needed.
  void write(std::ostream& os) const;

  /// Write to a file; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  /// Parse from a stream; throws std::runtime_error on malformed input.
  static CsvTable read(std::istream& is);

  /// Read from a file; throws std::runtime_error on I/O failure.
  static CsvTable read_file(const std::string& path);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quote a single CSV field if it contains separators, quotes or newlines.
std::string csv_quote(std::string_view field);

/// Append `field` to `out`, quoted exactly as csv_quote would, without an
/// intermediate string.
void csv_append_field(std::string& out, std::string_view field);

/// Split one CSV line honouring quotes (one trailing CR is dropped) into
/// `fields`. Fields without quotes are views into `line`; quoted fields are
/// unescaped into `scratch`, which is reset per line and never outgrows its
/// reservation, so every view stays valid until the next call. Returns false
/// on an unterminated quote.
bool csv_split_view(std::string_view line, std::string& scratch,
                    std::vector<std::string_view>& fields);

/// Split one CSV line honouring quotes. Throws on unterminated quotes.
std::vector<std::string> csv_split_line(std::string_view line);

}  // namespace omptune::util
