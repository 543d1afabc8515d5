#include "util/csv.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace omptune::util {

CsvTable::CsvTable(std::vector<std::string> header) : header_(std::move(header)) {}

void CsvTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("CsvTable::add_row: expected " +
                                std::to_string(header_.size()) + " cells, got " +
                                std::to_string(row.size()));
  }
  rows_.push_back(std::move(row));
}

std::size_t CsvTable::col_index(std::string_view name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw std::out_of_range("CsvTable: no column named '" + std::string(name) + "'");
}

const std::string& CsvTable::cell(std::size_t row, std::string_view col) const {
  return rows_.at(row).at(col_index(col));
}

double CsvTable::cell_as_double(std::size_t row, std::string_view col) const {
  const std::string& text = cell(row, col);
  const auto value = parse_double(text);
  if (!value) {
    throw std::invalid_argument("CsvTable: cell '" + text + "' in column '" +
                                std::string(col) + "' is not numeric");
  }
  return *value;
}

void CsvTable::write(std::ostream& os) const {
  auto write_row = [&os](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) os << ',';
      os << csv_quote(row[i]);
    }
    os << '\n';
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
}

void CsvTable::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("CsvTable: cannot open '" + path + "' for writing");
  write(os);
  if (!os) throw std::runtime_error("CsvTable: write to '" + path + "' failed");
}

CsvTable CsvTable::read(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("CsvTable: empty input");
  }
  CsvTable table(csv_split_line(line));
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    table.add_row(csv_split_line(line));
  }
  return table;
}

CsvTable CsvTable::read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("CsvTable: cannot open '" + path + "'");
  return read(is);
}

std::string csv_quote(std::string_view field) {
  std::string out;
  csv_append_field(out, field);
  return out;
}

void csv_append_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

bool csv_split_view(std::string_view line, std::string& scratch,
                    std::vector<std::string_view>& fields) {
  // Strip a trailing CR from CRLF input.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  fields.clear();
  scratch.clear();
  // Unescaping only ever drops characters, so one line's worth of capacity
  // holds every quoted field of the line without a reallocation.
  if (line.find('"') != std::string_view::npos) scratch.reserve(line.size());

  std::size_t begin = 0;
  for (;;) {
    // Every quote toggles the state ("" inside quotes leaves and re-enters),
    // so the first comma seen outside quotes ends the field.
    std::size_t end = begin;
    bool in_quotes = false;
    bool quoted = false;
    for (; end < line.size(); ++end) {
      const char c = line[end];
      if (c == '"') {
        in_quotes = !in_quotes;
        quoted = true;
      } else if (c == ',' && !in_quotes) {
        break;
      }
    }
    if (in_quotes) return false;
    const std::string_view raw = line.substr(begin, end - begin);
    if (!quoted) {
      fields.push_back(raw);
    } else {
      const std::size_t at = scratch.size();
      bool inside = false;
      for (std::size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        if (c != '"') {
          scratch.push_back(c);
        } else if (inside && i + 1 < raw.size() && raw[i + 1] == '"') {
          scratch.push_back('"');
          ++i;
        } else {
          inside = !inside;
        }
      }
      fields.emplace_back(scratch.data() + at, scratch.size() - at);
    }
    if (end == line.size()) return true;
    begin = end + 1;
  }
}

std::vector<std::string> csv_split_line(std::string_view line) {
  std::string scratch;
  std::vector<std::string_view> views;
  if (!csv_split_view(line, scratch, views)) {
    throw std::runtime_error("csv_split_line: unterminated quote");
  }
  return {views.begin(), views.end()};
}

}  // namespace omptune::util
