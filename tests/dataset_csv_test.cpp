// The Dataset CSV encoder and decoder against the CsvTable-based writer and
// parser they replaced. Both references below are kept verbatim, apart from
// becoming free functions of this file, so any byte the new code writes
// differently, and any input it accepts or rejects differently, fails here:
// journal entries, study CSVs and every store compacted from them depend on
// those bytes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "apps/application.hpp"
#include "arch/cpu_arch.hpp"
#include "sim/executor.hpp"
#include "sweep/harness.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace omptune {
namespace {

using sweep::Dataset;
using sweep::Sample;
using sweep::SampleStatus;

// ---- reference: the CsvTable-based writer and parser, verbatim -------------

namespace reference {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string csv_quote(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::vector<std::string> csv_split_line(std::string_view line) {
  // Strip a trailing CR from CRLF input.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) {
    throw std::runtime_error("csv_split_line: unterminated quote");
  }
  fields.push_back(std::move(current));
  return fields;
}

class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header) : header_(std::move(header)) {}

  const std::vector<std::string>& header() const { return header_; }
  std::size_t num_rows() const { return rows_.size(); }

  void add_row(std::vector<std::string> row) {
    if (row.size() != header_.size()) {
      throw std::invalid_argument("CsvTable::add_row: expected " +
                                  std::to_string(header_.size()) + " cells, got " +
                                  std::to_string(row.size()));
    }
    rows_.push_back(std::move(row));
  }

  std::size_t col_index(std::string_view name) const {
    for (std::size_t i = 0; i < header_.size(); ++i) {
      if (header_[i] == name) return i;
    }
    throw std::out_of_range("CsvTable: no column named '" + std::string(name) + "'");
  }

  const std::string& cell(std::size_t row, std::string_view col) const {
    return rows_.at(row).at(col_index(col));
  }

  double cell_as_double(std::size_t row, std::string_view col) const {
    const std::string& text = cell(row, col);
    const auto value = util::parse_double(text);
    if (!value) {
      throw std::invalid_argument("CsvTable: cell '" + text + "' in column '" +
                                  std::string(col) + "' is not numeric");
    }
    return *value;
  }

  void write(std::ostream& os) const {
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

  static CsvTable read(std::istream& is) {
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

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string blocktime_to_string(std::int64_t ms) {
  return ms == rt::kBlocktimeInfinite ? "infinite" : std::to_string(ms);
}

std::int64_t blocktime_from_string(const std::string& text) {
  if (text == "infinite") return rt::kBlocktimeInfinite;
  const auto value = util::parse_int(text);
  if (!value) throw std::invalid_argument("bad blocktime '" + text + "'");
  return *value;
}

/// Numeric field that must be finite (runtime/speedup columns).
double finite_cell(const CsvTable& table, std::size_t row,
                   const std::string& col) {
  const double value = table.cell_as_double(row, col);
  if (!std::isfinite(value)) {
    throw std::invalid_argument("column '" + col + "' has non-finite value '" +
                                table.cell(row, col) + "'");
  }
  return value;
}

CsvTable to_csv(const Dataset& dataset) {
  const std::vector<Sample>& samples_ = dataset.samples();
  // Fixed repetition count across a dataset.
  std::size_t reps = 0;
  for (const Sample& s : samples_) reps = std::max(reps, s.runtimes.size());

  std::vector<std::string> header = {
      "arch",   "app",      "suite",     "kind",      "input",
      "threads", "places",  "proc_bind", "schedule",  "library",
      "blocktime", "reduction", "align", "mean_runtime", "default_runtime",
      "speedup", "is_default", "status", "attempts", "error"};
  for (std::size_t r = 0; r < reps; ++r) {
    header.push_back("runtime_" + std::to_string(r));
  }

  CsvTable table(std::move(header));
  for (const Sample& s : samples_) {
    std::vector<std::string> row = {
        s.arch,
        s.app,
        s.suite,
        s.kind,
        s.input,
        std::to_string(s.threads),
        arch::to_string(s.config.places),
        arch::to_string(s.config.bind),
        rt::to_string(s.config.schedule),
        rt::to_string(s.config.library),
        blocktime_to_string(s.config.blocktime_ms),
        rt::to_string(s.config.reduction),
        std::to_string(s.config.align_alloc),
        format_double(s.mean_runtime, 9),
        format_double(s.default_runtime, 9),
        format_double(s.speedup, 6),
        s.is_default ? "1" : "0",
        to_string(s.status),
        std::to_string(s.attempts),
        s.error,
    };
    for (std::size_t r = 0; r < reps; ++r) {
      row.push_back(r < s.runtimes.size()
                        ? format_double(s.runtimes[r], 9)
                        : std::string("0"));
    }
    table.add_row(std::move(row));
  }
  return table;
}

Dataset from_csv(const CsvTable& table, const std::string& source) {
  Dataset out;
  const auto has_col = [&table](const std::string& name) {
    const auto& header = table.header();
    return std::find(header.begin(), header.end(), name) != header.end();
  };
  const bool has_status = has_col("status");
  const bool has_attempts = has_col("attempts");
  const bool has_error = has_col("error");

  const std::string label =
      source.empty() ? std::string("<dataset>") : source;
  std::vector<std::size_t> rep_cols;
  for (std::size_t c = 0; c < table.header().size(); ++c) {
    if (util::starts_with(table.header()[c], "runtime_")) rep_cols.push_back(c);
  }
  if (!rep_cols.empty()) {
    const std::size_t first = rep_cols.front();
    if (first + rep_cols.size() != table.header().size()) {
      throw util::DataCorruptionError(
          label + ": runtime column block is not contiguous at the end of "
                  "the header (a repetition column would be silently dropped)");
    }
    for (std::size_t r = 0; r < rep_cols.size(); ++r) {
      const std::string expected = "runtime_" + std::to_string(r);
      if (table.header()[first + r] != expected) {
        throw util::DataCorruptionError(
            label + ": runtime column " + std::to_string(r) + " is named '" +
            table.header()[first + r] + "', expected '" + expected + "'");
      }
    }
  }
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    try {
      Sample s;
      s.arch = table.cell(i, "arch");
      s.app = table.cell(i, "app");
      s.suite = table.cell(i, "suite");
      s.kind = table.cell(i, "kind");
      s.input = table.cell(i, "input");
      s.threads = static_cast<int>(table.cell_as_double(i, "threads"));
      s.config.num_threads = s.threads;
      s.config.places = arch::places_from_string(table.cell(i, "places"));
      s.config.bind = arch::bind_from_string(table.cell(i, "proc_bind"));
      s.config.schedule = rt::schedule_from_string(table.cell(i, "schedule"));
      s.config.library = rt::library_from_string(table.cell(i, "library"));
      s.config.blocktime_ms = blocktime_from_string(table.cell(i, "blocktime"));
      s.config.reduction = rt::reduction_from_string(table.cell(i, "reduction"));
      s.config.align_alloc = static_cast<int>(table.cell_as_double(i, "align"));
      s.mean_runtime = finite_cell(table, i, "mean_runtime");
      s.default_runtime = finite_cell(table, i, "default_runtime");
      s.speedup = finite_cell(table, i, "speedup");
      s.is_default = table.cell(i, "is_default") == "1";
      s.status = has_status ? sweep::sample_status_from_string(table.cell(i, "status"))
                            : SampleStatus::Ok;
      s.attempts = has_attempts
                       ? static_cast<int>(table.cell_as_double(i, "attempts"))
                       : 1;
      s.error = has_error ? table.cell(i, "error") : std::string();
      for (const std::size_t c : rep_cols) {
        s.runtimes.push_back(finite_cell(table, i, table.header()[c]));
      }
      out.add(std::move(s));
    } catch (const util::DataCorruptionError&) {
      throw;
    } catch (const std::exception& error) {
      throw util::DataCorruptionError(label + " row " + std::to_string(i + 1) +
                                      ": " + error.what());
    }
  }
  return out;
}

/// load_csv_file over in-memory text.
Dataset load_csv_text(const std::string& text, const std::string& path) {
  try {
    std::istringstream is(text);
    return from_csv(CsvTable::read(is), path);
  } catch (const util::DataCorruptionError&) {
    throw;
  } catch (const std::exception& error) {
    throw util::DataCorruptionError(path + ": " + error.what());
  }
}

std::string write(const Dataset& dataset) {
  std::ostringstream os;
  to_csv(dataset).write(os);
  return os.str();
}

}  // namespace reference

// ---- helpers ----------------------------------------------------------------

Dataset mini_study() {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, 5);
  return harness.run_study(sweep::StudyPlan::mini_plan(3, 12));
}

Dataset one_setting(const char* app, std::size_t configs) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, 3);
  const auto& cpu = arch::architecture(arch::ArchId::A64FX);
  const apps::Application& application = apps::find_application(app);
  const sweep::StudySetting setting{&application,
                                    application.input_sizes().front(), 0};
  return harness.run_setting(cpu, setting, configs);
}

/// Rows the writer must handle beyond what a clean study produces.
Dataset crafted_rows() {
  const Dataset base = one_setting("cg", 6);
  std::vector<Sample> samples(base.samples().begin(), base.samples().end());
  const double neg_zero = std::copysign(0.0, -1.0);

  samples[0].error = "timeout, node 3";
  samples[0].status = SampleStatus::Retried;
  samples[0].attempts = 3;
  samples[1].error = "said \"no\"";
  samples[2].error = "line one\nline two\r";
  samples[2].status = SampleStatus::Quarantined;
  samples[2].runtimes.assign(samples[2].runtimes.size(), 0.0);
  samples[2].mean_runtime = 0.0;
  samples[2].speedup = 0.0;
  samples[3].runtimes.resize(1);  // ragged: padded with "0"
  samples[3].config.blocktime_ms = rt::kBlocktimeInfinite;
  samples[4].config.blocktime_ms = 0;
  samples[4].config.align_alloc = 0;  // the derived default
  samples[4].mean_runtime = neg_zero;
  samples[4].runtimes.front() = neg_zero;
  samples[4].speedup = neg_zero;
  samples[5].config.align_alloc = 256;
  samples[5].runtimes.push_back(1.0e52);  // widest value the old buffer held
  samples[5].default_runtime = 5e-324;
  samples[5].speedup = 123456.0000005;
  Sample odd = samples[1];
  odd.arch = "a,b";
  odd.input = "\"quoted\"";
  odd.error = ",";
  odd.mean_runtime = std::numeric_limits<double>::infinity();
  odd.default_runtime = -std::numeric_limits<double>::infinity();
  odd.speedup = std::numeric_limits<double>::quiet_NaN();
  odd.runtimes.front() = -std::numeric_limits<double>::quiet_NaN();
  samples.push_back(odd);
  return Dataset(std::move(samples));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same(const Dataset& expected, const Dataset& actual,
                 const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Sample& a = expected.samples()[i];
    const Sample& b = actual.samples()[i];
    const std::string at = what + " sample " + std::to_string(i);
    EXPECT_EQ(sweep::sample_identity(a), sweep::sample_identity(b)) << at;
    EXPECT_EQ(a.suite, b.suite) << at;
    EXPECT_EQ(a.kind, b.kind) << at;
    EXPECT_EQ(a.config.num_threads, b.config.num_threads) << at;
    EXPECT_TRUE(same_bits(a.mean_runtime, b.mean_runtime)) << at;
    EXPECT_TRUE(same_bits(a.default_runtime, b.default_runtime)) << at;
    EXPECT_TRUE(same_bits(a.speedup, b.speedup)) << at;
    EXPECT_EQ(a.is_default, b.is_default) << at;
    EXPECT_EQ(a.status, b.status) << at;
    EXPECT_EQ(a.attempts, b.attempts) << at;
    EXPECT_EQ(a.error, b.error) << at;
    ASSERT_EQ(a.runtimes.size(), b.runtimes.size()) << at;
    for (std::size_t r = 0; r < a.runtimes.size(); ++r) {
      EXPECT_TRUE(same_bits(a.runtimes[r], b.runtimes[r])) << at;
    }
  }
}

/// First " row N:" a loader error names, if any.
std::optional<std::string> row_of(const std::string& message) {
  static const std::regex kRow(" row ([0-9]+): ");
  std::smatch match;
  if (!std::regex_search(message, match, kRow)) return std::nullopt;
  return match[1].str();
}

/// Feeds `text` to both loaders and demands the same verdict: equal
/// datasets on acceptance; on rejection a DataCorruptionError naming the
/// source, and the reference's row number whenever it named one.
void expect_same_verdict(const std::string& text, const std::string& what) {
  const std::string source = "corpus.csv";
  std::optional<Dataset> expected;
  std::string expected_error;
  try {
    expected = reference::load_csv_text(text, source);
  } catch (const util::DataCorruptionError& error) {
    expected_error = error.what();
  }
  std::optional<Dataset> actual;
  std::string actual_error;
  try {
    actual = Dataset::from_csv_text(text, source);
  } catch (const util::DataCorruptionError& error) {
    actual_error = error.what();
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << ": untyped error: " << error.what();
    return;
  }
  ASSERT_EQ(expected.has_value(), actual.has_value())
      << what << "\n  reference: " << expected_error
      << "\n  decoder:   " << actual_error;
  if (expected) {
    expect_same(*expected, *actual, what);
    return;
  }
  EXPECT_NE(actual_error.find(source), std::string::npos) << actual_error;
  if (const auto row = row_of(expected_error)) {
    EXPECT_EQ(row_of(actual_error), row)
        << what << "\n  reference: " << expected_error
        << "\n  decoder:   " << actual_error;
  }
}

/// The text with one header cell renamed.
std::string rename_column(const std::string& text, const std::string& from,
                          const std::string& to) {
  const std::size_t nl = text.find('\n');
  std::string header = text.substr(0, nl);
  const std::size_t at = ("," + header + ",").find("," + from + ",");
  EXPECT_NE(at, std::string::npos) << from;
  header.replace(at, from.size(), to);
  return header + text.substr(nl);
}

/// The text with one cell of data row `row` (1-based) replaced.
std::string replace_cell(const std::string& text, std::size_t row,
                         std::size_t col, const std::string& value) {
  std::istringstream is(text);
  std::ostringstream os;
  std::string line;
  for (std::size_t i = 0; std::getline(is, line); ++i) {
    if (i == row) {
      std::vector<std::string> cells = reference::csv_split_line(line);
      cells.at(col) = value;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        os << (c ? "," : "") << reference::csv_quote(cells[c]);
      }
      os << '\n';
    } else {
      os << line << '\n';
    }
  }
  return os.str();
}

// ---- writer -----------------------------------------------------------------

TEST(DatasetCsvWriter, MiniStudyMatchesTheReferenceByteForByte) {
  const Dataset dataset = mini_study();
  ASSERT_GT(dataset.size(), 100u);
  const std::string expected = reference::write(dataset);
  EXPECT_EQ(dataset.csv_text(), expected);
  std::ostringstream os;
  dataset.to_csv().write(os);
  EXPECT_EQ(os.str(), expected);
}

TEST(DatasetCsvWriter, CraftedRowsMatchTheReferenceByteForByte) {
  const Dataset dataset = crafted_rows();
  const std::string expected = reference::write(dataset);
  // The crafted rows do exercise quoting, padding and the odd spellings.
  EXPECT_NE(expected.find("\"timeout, node 3\""), std::string::npos);
  EXPECT_NE(expected.find("\"said \"\"no\"\"\""), std::string::npos);
  EXPECT_NE(expected.find("\"line one\nline two\r\""), std::string::npos);
  EXPECT_NE(expected.find(",infinite,"), std::string::npos);
  EXPECT_NE(expected.find("-0.000000000"), std::string::npos);
  EXPECT_NE(expected.find("-nan"), std::string::npos);
  EXPECT_NE(expected.find(",0\n"), std::string::npos);
  EXPECT_EQ(dataset.csv_text(), expected);
  std::ostringstream os;
  dataset.to_csv().write(os);
  EXPECT_EQ(os.str(), expected);
}

TEST(DatasetCsvWriter, EmptyDatasetIsTheBareHeader) {
  const Dataset empty;
  EXPECT_EQ(empty.csv_text(), reference::write(empty));
}

// ---- reader -----------------------------------------------------------------

TEST(DatasetCsvReader, CleanFilesDecodeLikeTheReference) {
  for (const Dataset& dataset : {mini_study(), one_setting("nqueens", 20)}) {
    const std::string text = reference::write(dataset);
    expect_same_verdict(text, "clean");
    EXPECT_EQ(Dataset::from_csv_text(text).csv_text(), text);
  }
  // The crafted rows minus the ones the reference itself cannot read back
  // (a quoted newline splits the line; non-finite values are refused).
  const Dataset crafted = crafted_rows();
  std::vector<Sample> readable;
  for (const Sample& s : crafted.samples()) {
    if (s.error.find('\n') == std::string::npos && std::isfinite(s.mean_runtime)) {
      readable.push_back(s);
    }
  }
  expect_same_verdict(reference::write(Dataset(std::move(readable))), "crafted");
  expect_same_verdict(reference::write(crafted), "crafted with newline");
}

TEST(DatasetCsvReader, RandomCorruptionGetsTheSameVerdict) {
  // The mutation corpus of DatasetCsvFuzz (truncations and byte
  // replacements), at a larger count and over two source files.
  int rejected = 0;
  int accepted = 0;
  for (const Dataset& dataset : {one_setting("nqueens", 20), mini_study()}) {
    const std::string text = reference::write(dataset);
    util::Xoshiro256 rng(1234);
    for (int i = 0; i < 400; ++i) {
      std::string mutated = text;
      const std::size_t at = rng.uniform_index(mutated.size());
      if (rng.uniform() < 0.4) {
        mutated.resize(at);
      } else {
        mutated[at] = static_cast<char>(rng.uniform_index(256));
      }
      SCOPED_TRACE("mutation " + std::to_string(i));
      expect_same_verdict(mutated, "mutation " + std::to_string(i));
      try {
        (void)Dataset::from_csv_text(mutated, "m.csv");
        ++accepted;
      } catch (const util::DataCorruptionError&) {
        ++rejected;
      }
    }
  }
  // Both outcomes occur, so both halves of the comparison were exercised.
  EXPECT_GT(rejected, 50);
  EXPECT_GT(accepted, 50);
}

TEST(DatasetCsvReader, StructuredDamageGetsTheSameVerdict) {
  const std::string text = reference::write(mini_study());
  const reference::CsvTable table = [&] {
    std::istringstream is(text);
    return reference::CsvTable::read(is);
  }();
  const auto col = [&](const char* name) { return table.col_index(name); };

  // Poisoned values (fuzz_test NonFiniteNumericFieldsAreRejected and
  // ParseErrorsNameFileAndRow), in row 1 and deep in the file.
  for (const std::size_t row : {std::size_t{1}, std::size_t{7}}) {
    for (const char* poison : {"nan", "inf", "-inf", "NaN", "1e999"}) {
      expect_same_verdict(replace_cell(text, row, col("speedup"), poison),
                          std::string("speedup=") + poison);
      expect_same_verdict(replace_cell(text, row, col("runtime_2"), poison),
                          std::string("runtime_2=") + poison);
      expect_same_verdict(replace_cell(text, row, col("mean_runtime"), poison),
                          std::string("mean_runtime=") + poison);
    }
    for (const auto& [name, value] : std::map<std::string, std::string>{
             {"blocktime", "soonish"}, {"blocktime", ""}, {"threads", "x"},
             {"threads", " 12 "}, {"threads", "1e1"}, {"align", "64.9"},
             {"places", "nowhere"}, {"proc_bind", ""}, {"schedule", "?"},
             {"library", "x"}, {"reduction", "x"}, {"status", "lost"},
             {"status", ""}, {"attempts", "two"}, {"is_default", "yes"},
             {"default_runtime", ""}, {"runtime_0", "0x1p3"}}) {
      expect_same_verdict(replace_cell(text, row, col(name.c_str()), value),
                          name + "=" + value);
    }
  }
  // Garbled, swapped and shifted runtime columns (store_test
  // CsvHardening), and swapped ordinary columns.
  expect_same_verdict(rename_column(text, "runtime_1", "runtime_x"), "runtime_x");
  expect_same_verdict(rename_column(text, "runtime_1", "runtimX_1"), "runtimX_1");
  expect_same_verdict(
      rename_column(rename_column(text, "runtime_0", "tmp"), "runtime_1", "runtime_0"),
      "runtime_0 renamed over runtime_1");
  {
    std::string swapped = rename_column(text, "runtime_0", "tmp");
    swapped = rename_column(swapped, "runtime_1", "runtime_0");
    swapped = rename_column(swapped, "tmp", "runtime_1");
    expect_same_verdict(swapped, "runtime_0 <-> runtime_1");
  }
  expect_same_verdict(rename_column(text, "attempts", "runtime_9"),
                      "runtime column inside the header");
  {
    std::string swapped = rename_column(text, "arch", "tmp");
    swapped = rename_column(swapped, "app", "arch");
    swapped = rename_column(swapped, "tmp", "app");
    expect_same_verdict(swapped, "arch <-> app");
  }
  expect_same_verdict(rename_column(text, "arch", "archh"), "missing arch");
  expect_same_verdict(rename_column(text, "error", "err"), "missing error");
  expect_same_verdict(rename_column(text, "status", "stat"), "missing status");
  expect_same_verdict(rename_column(text, "speedup", "arch"), "duplicate arch");
  expect_same_verdict(rename_column(text, "error", "arch"),
                      "duplicate arch, nothing missing");

  // Short, long and broken rows; the reference reports their shape ahead of
  // an earlier bad value.
  {
    std::string short_row = text;
    const std::size_t row3 = [&] {
      std::size_t at = 0;
      for (int i = 0; i < 4; ++i) at = short_row.find('\n', at) + 1;
      return at - 1;
    }();
    const std::size_t last_comma = short_row.rfind(',', row3);
    short_row.erase(last_comma, row3 - last_comma);
    expect_same_verdict(short_row, "short row 3");
    expect_same_verdict(replace_cell(short_row, 1, col("speedup"), "nan"),
                        "bad value in row 1, short row 3");
    std::string long_row = text;
    long_row.insert(row3, ",9");
    expect_same_verdict(long_row, "long row 3");
    std::string open_quote = text;
    open_quote.insert(row3, "\"");
    expect_same_verdict(open_quote, "unterminated quote in row 3");
  }
  expect_same_verdict(rename_column(text, "arch", "\"arch"), "unterminated header");
  expect_same_verdict(rename_column(text, "runtime_2", "runtime_x") + "x\n",
                      "bad header block and a short row");

  // Whole-file shapes.
  const std::string header = text.substr(0, text.find('\n') + 1);
  for (const std::string& shape :
       {std::string(), std::string("\n"), std::string("\r\n"), header,
        header.substr(0, header.size() - 1), rename_column(header, "arch", "x"),
        std::string("arch\n\n\n"), std::string("a,b\n1,2\n"),
        std::string("\n\n"), header + "\n\n", header + "\r\n"}) {
    expect_same_verdict(shape, "shape '" + shape.substr(0, 20) + "'");
  }
  {
    std::string crlf;
    for (const char c : text) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    expect_same_verdict(crlf, "CRLF");
    std::string blank_lines;
    for (const char c : text) {
      blank_lines += c;
      if (c == '\n') blank_lines += '\n';
    }
    expect_same_verdict(blank_lines, "blank lines");
    expect_same_verdict(text.substr(0, text.size() - 1), "no final newline");
    std::string nul = text;
    nul[header.size() + 1] = '\0';  // inside row 1's arch
    expect_same_verdict(nul, "NUL byte");
  }
  // A file written before the resilience layer (no status/attempts/error).
  {
    std::istringstream is(text);
    std::ostringstream os;
    std::string line;
    const std::size_t first = col("status");
    while (std::getline(is, line)) {
      std::vector<std::string> cells = reference::csv_split_line(line);
      cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(first),
                  cells.begin() + static_cast<std::ptrdiff_t>(first + 3));
      for (std::size_t c = 0; c < cells.size(); ++c) {
        os << (c ? "," : "") << reference::csv_quote(cells[c]);
      }
      os << '\n';
    }
    expect_same_verdict(os.str(), "legacy schema");
    EXPECT_EQ(Dataset::from_csv_text(os.str()).size(), table.num_rows());
  }
}

TEST(DatasetCsvReader, FileErrorsNameThePath) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_dataset_csv_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  const std::string path = util::path_join(dir, "entry.csv");
  try {
    (void)Dataset::load_csv_file(path);
    FAIL() << "a missing file loaded";
  } catch (const util::DataCorruptionError& error) {
    EXPECT_NE(std::string(error.what()).find("entry.csv"), std::string::npos);
  }
  const Dataset dataset = one_setting("cg", 4);
  const std::string text = dataset.csv_text();
  util::atomic_write_file(path, text);
  expect_same(reference::load_csv_text(text, path), Dataset::load_csv_file(path),
              "file");
  util::atomic_write_file(path, "");
  EXPECT_THROW((void)Dataset::load_csv_file(path), util::DataCorruptionError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace omptune
