#include "sweep/dataset.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "store/reader.hpp"
#include "store/writer.hpp"
#include "util/errors.hpp"
#include "util/mmap_file.hpp"
#include "util/strings.hpp"

namespace omptune::sweep {

namespace {

/// Columns of the open-data CSV schema ahead of the runtime_N block.
enum Col : std::size_t {
  kArch, kApp, kSuite, kKind, kInput, kThreads, kPlaces, kProcBind, kSchedule,
  kLibrary, kBlocktime, kReduction, kAlign, kMeanRuntime, kDefaultRuntime,
  kSpeedup, kIsDefault, kStatus, kAttempts, kError, kColumnCount
};

constexpr std::array<std::string_view, kColumnCount> kColumns = {
    "arch",      "app",       "suite",        "kind",
    "input",     "threads",   "places",       "proc_bind",
    "schedule",  "library",   "blocktime",    "reduction",
    "align",     "mean_runtime", "default_runtime", "speedup",
    "is_default", "status",   "attempts",     "error"};

constexpr std::string_view kRuntimePrefix = "runtime_";

/// Decimals the CSV prints, and so the precision of the published form:
/// runtimes (mean and default included) and speedups.
constexpr int kRuntimeDecimals = 9;
constexpr int kSpeedupDecimals = 6;

std::string runtime_column(std::size_t r) {
  return std::string(kRuntimePrefix) + std::to_string(r);
}

/// Repetition columns a dataset's CSV carries: the longest runtime list.
std::size_t repetition_count(const std::vector<Sample>& samples) {
  std::size_t reps = 0;
  for (const Sample& s : samples) reps = std::max(reps, s.runtimes.size());
  return reps;
}

// ---- the one encoder --------------------------------------------------------

template <typename Field>
void encode_header(std::size_t reps, Field&& field) {
  for (const std::string_view name : kColumns) field(name);
  for (std::size_t r = 0; r < reps; ++r) field(runtime_column(r));
}

/// Hands `field` every cell of `s` in column order. Numbers are formatted
/// into a stack buffer, so a cell never costs an allocation.
template <typename Field>
void encode_row(const Sample& s, std::size_t reps, Field&& field) {
  char buf[util::fixed_double_chars(kRuntimeDecimals)];
  const auto integer = [&](std::int64_t value) {
    const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    field(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  };
  const auto fixed = [&](double value, int precision) {
    const char* end = util::write_fixed_double(buf, value, precision);
    field(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  };
  field(s.arch);
  field(s.app);
  field(s.suite);
  field(s.kind);
  field(s.input);
  integer(s.threads);
  field(arch::to_string(s.config.places));
  field(arch::to_string(s.config.bind));
  field(rt::to_string(s.config.schedule));
  field(rt::to_string(s.config.library));
  if (s.config.blocktime_ms == rt::kBlocktimeInfinite) {
    field("infinite");
  } else {
    integer(s.config.blocktime_ms);
  }
  field(rt::to_string(s.config.reduction));
  integer(s.config.align_alloc);
  fixed(s.mean_runtime, kRuntimeDecimals);
  fixed(s.default_runtime, kRuntimeDecimals);
  fixed(s.speedup, kSpeedupDecimals);
  field(s.is_default ? "1" : "0");
  field(to_string(s.status));
  integer(s.attempts);
  field(s.error);
  for (std::size_t r = 0; r < reps; ++r) {
    if (r < s.runtimes.size()) {
      fixed(s.runtimes[r], kRuntimeDecimals);
    } else {
      field("0");
    }
  }
}

// ---- the one decoder --------------------------------------------------------

using Fields = std::vector<std::string_view>;

/// Decodes data rows against a header whose column indices it resolves
/// once. Columns may come in any order; the status/attempts/error columns
/// are optional (datasets written before the resilience layer lack them).
class RowDecoder {
 public:
  /// Throws util::DataCorruptionError if the runtime_N block is garbled.
  RowDecoder(const Fields& header, const std::string& label) : label_(label) {
    col_.fill(kAbsent);
    for (std::size_t c = header.size(); c-- > 0;) {
      const auto known = std::find(kColumns.begin(), kColumns.end(), header[c]);
      if (known != kColumns.end()) col_[known - kColumns.begin()] = c;
    }
    // Repetition columns are the trailing runtime_N columns. The block must
    // be exactly runtime_0..runtime_{k-1}, contiguous, at the end of the
    // header: a garbled column name used to silently shrink the block and
    // every row lost a repetition without any error (the short-read path)
    // — now the whole file is rejected as corrupt instead.
    std::size_t found = 0;
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (!util::starts_with(header[c], kRuntimePrefix)) continue;
      if (found++ == 0) first_rep_ = c;
    }
    if (found == 0) return;
    if (first_rep_ + found != header.size()) {
      throw util::DataCorruptionError(
          label + ": runtime column block is not contiguous at the end of "
                  "the header (a repetition column would be silently dropped)");
    }
    for (std::size_t r = 0; r < found; ++r) {
      rep_names_.push_back(runtime_column(r));
      if (header[first_rep_ + r] != rep_names_.back()) {
        throw util::DataCorruptionError(
            label + ": runtime column " + std::to_string(r) + " is named '" +
            std::string(header[first_rep_ + r]) + "', expected '" +
            rep_names_.back() + "'");
      }
    }
  }

  /// Decodes one data row; `row` is its 1-based number. Every failure is a
  /// util::DataCorruptionError naming the source and the row.
  Sample decode(const Fields& fields, std::size_t row) const {
    try {
      return decode_unchecked(fields);
    } catch (const std::exception& error) {
      throw util::DataCorruptionError(label_ + " row " + std::to_string(row) +
                                      ": " + error.what());
    }
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  Sample decode_unchecked(const Fields& f) const {
    const auto text = [&](Col c) -> std::string_view {
      if (col_[c] == kAbsent) {
        throw std::out_of_range("no column named '" +
                                std::string(kColumns[c]) + "'");
      }
      return f[col_[c]];
    };
    const auto present = [&](Col c) { return col_[c] != kAbsent; };
    const auto number = [](std::string_view cell, std::string_view column) {
      const auto value = util::parse_double(cell);
      if (!value) {
        throw std::invalid_argument("cell '" + std::string(cell) +
                                    "' in column '" + std::string(column) +
                                    "' is not numeric");
      }
      return *value;
    };
    // Runtime/speedup fields must be finite.
    const auto finite = [&](std::string_view cell, std::string_view column) {
      const double value = number(cell, column);
      if (!std::isfinite(value)) {
        throw std::invalid_argument("column '" + std::string(column) +
                                    "' has non-finite value '" +
                                    std::string(cell) + "'");
      }
      return value;
    };
    const auto numeric = [&](Col c) { return number(text(c), kColumns[c]); };

    Sample s;
    s.arch = text(kArch);
    s.app = text(kApp);
    s.suite = text(kSuite);
    s.kind = text(kKind);
    s.input = text(kInput);
    s.threads = static_cast<int>(numeric(kThreads));
    s.config.num_threads = s.threads;
    s.config.places = arch::places_from_string(std::string(text(kPlaces)));
    s.config.bind = arch::bind_from_string(std::string(text(kProcBind)));
    s.config.schedule = rt::schedule_from_string(std::string(text(kSchedule)));
    s.config.library = rt::library_from_string(std::string(text(kLibrary)));
    s.config.blocktime_ms = blocktime_from_string(text(kBlocktime));
    s.config.reduction =
        rt::reduction_from_string(std::string(text(kReduction)));
    s.config.align_alloc = static_cast<int>(numeric(kAlign));
    s.mean_runtime = finite(text(kMeanRuntime), kColumns[kMeanRuntime]);
    s.default_runtime = finite(text(kDefaultRuntime), kColumns[kDefaultRuntime]);
    s.speedup = finite(text(kSpeedup), kColumns[kSpeedup]);
    s.is_default = text(kIsDefault) == "1";
    if (present(kStatus)) {
      s.status = sample_status_from_string(std::string(text(kStatus)));
    }
    if (present(kAttempts)) s.attempts = static_cast<int>(numeric(kAttempts));
    if (present(kError)) s.error = text(kError);
    s.runtimes.reserve(rep_names_.size());
    for (std::size_t r = 0; r < rep_names_.size(); ++r) {
      s.runtimes.push_back(finite(f[first_rep_ + r], rep_names_[r]));
    }
    return s;
  }

  static std::int64_t blocktime_from_string(std::string_view text) {
    if (text == "infinite") return rt::kBlocktimeInfinite;
    const auto value = util::parse_int(text);
    if (!value) {
      throw std::invalid_argument("bad blocktime '" + std::string(text) + "'");
    }
    return *value;
  }

  std::array<std::size_t, kColumnCount> col_{};
  std::size_t first_rep_ = 0;
  std::vector<std::string> rep_names_;  ///< runtime_0 .. runtime_{k-1}
  std::string label_;
};

std::string source_label(const std::string& source) {
  return source.empty() ? std::string("<dataset>") : source;
}

}  // namespace

std::string to_string(SampleStatus status) {
  switch (status) {
    case SampleStatus::Ok: return "ok";
    case SampleStatus::Retried: return "retried";
    case SampleStatus::Quarantined: return "quarantined";
  }
  return "ok";
}

SampleStatus sample_status_from_string(const std::string& text) {
  if (text == "ok" || text.empty()) return SampleStatus::Ok;
  if (text == "retried") return SampleStatus::Retried;
  if (text == "quarantined") return SampleStatus::Quarantined;
  throw std::invalid_argument("bad sample status '" + text + "'");
}

int status_preference(SampleStatus status) {
  switch (status) {
    case SampleStatus::Ok: return 0;
    case SampleStatus::Retried: return 1;
    case SampleStatus::Quarantined: return 2;
  }
  return 2;
}

std::string sample_identity(const Sample& sample) {
  return sample.arch + "/" + sample.app + "/" + sample.input + "/" +
         std::to_string(sample.threads) + "/" + sample.config.key();
}

SampleKey::SampleKey(std::string_view arch, std::string_view app,
                     std::string_view input, int threads,
                     const rt::RtConfig& config)
    : arch(arch),
      app(app),
      input(input),
      threads(threads),
      num_threads(std::max(config.num_threads, 0)),
      chunk(std::max(config.chunk, 0)),
      align_alloc(std::max(config.align_alloc, 0)),
      blocktime_ms(config.blocktime_ms),
      places(config.places),
      bind(config.bind),
      schedule(config.schedule),
      library(config.library),
      reduction(config.reduction),
      barrier(config.barrier) {}

std::size_t SampleKey::hash() const {
  const std::hash<std::string_view> text;
  std::uint64_t h = text(arch);
  const auto mix = [&h](std::uint64_t value) {
    h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(text(app));
  mix(text(input));
  mix(static_cast<std::uint32_t>(threads) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(num_threads)) << 32);
  mix(static_cast<std::uint32_t>(chunk) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(align_alloc)) << 32);
  mix(static_cast<std::uint64_t>(blocktime_ms));
  mix(static_cast<std::uint64_t>(places) | static_cast<std::uint64_t>(bind) << 8 |
      static_cast<std::uint64_t>(schedule) << 16 |
      static_cast<std::uint64_t>(library) << 24 |
      static_cast<std::uint64_t>(reduction) << 32 |
      static_cast<std::uint64_t>(barrier) << 40);
  // splitmix64 finaliser: the table indexes by the low bits.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

void Deduper::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(64, 2 * old.size()), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (!slot.used) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void Dataset::append(Dataset other) {
  if (samples_.empty()) {
    samples_ = std::move(other.samples_);
    return;
  }
  // A range insert grows the capacity geometrically. Never reserve the exact
  // sum here: a loop of appends would then move the whole dataset each call.
  samples_.insert(samples_.end(),
                  std::make_move_iterator(other.samples_.begin()),
                  std::make_move_iterator(other.samples_.end()));
}

std::size_t Dataset::quarantined_count() const {
  return static_cast<std::size_t>(
      std::count_if(samples_.begin(), samples_.end(),
                    [](const Sample& s) { return s.is_quarantined(); }));
}

void Dataset::publish() {
  const std::size_t reps = repetition_count(samples_);
  const rt::RtConfig defaults;
  const auto runtime = [](double value) {
    return util::round_fixed_double(value, kRuntimeDecimals);
  };
  for (Sample& s : samples_) {
    s.config.num_threads = s.threads;
    s.config.chunk = defaults.chunk;
    s.config.barrier = defaults.barrier;
    s.mean_runtime = runtime(s.mean_runtime);
    s.default_runtime = runtime(s.default_runtime);
    s.speedup = util::round_fixed_double(s.speedup, kSpeedupDecimals);
    for (double& r : s.runtimes) r = runtime(r);
    s.runtimes.resize(reps, 0.0);
  }
}

std::string Dataset::csv_text() const {
  const std::size_t reps = repetition_count(samples_);
  std::string out;
  bool first = true;
  const auto field = [&](std::string_view cell) {
    if (!first) out.push_back(',');
    first = false;
    util::csv_append_field(out, cell);
  };
  encode_header(reps, field);
  out.push_back('\n');
  for (const Sample& s : samples_) {
    first = true;
    encode_row(s, reps, field);
    out.push_back('\n');
  }
  return out;
}

util::CsvTable Dataset::to_csv() const {
  const std::size_t reps = repetition_count(samples_);
  std::vector<std::string> cells;
  const auto field = [&cells](std::string_view cell) { cells.emplace_back(cell); };
  encode_header(reps, field);
  util::CsvTable table(std::move(cells));
  for (const Sample& s : samples_) {
    cells.clear();
    encode_row(s, reps, field);
    table.add_row(std::move(cells));
  }
  return table;
}

Dataset Dataset::from_csv_text(std::string_view text, const std::string& source) {
  const std::string label = source_label(source);
  if (text.empty()) throw util::DataCorruptionError(label + ": empty input");

  std::size_t pos = 0;
  const auto next_line = [&text, &pos] {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  std::string scratch;
  Fields fields;
  if (!util::csv_split_view(next_line(), scratch, fields)) {
    throw util::DataCorruptionError(label + ": header: unterminated quote");
  }
  const std::size_t width = fields.size();
  const RowDecoder decoder(fields, label);
  Dataset out;
  std::size_t row = 0;
  while (pos < text.size()) {
    const std::string_view line = next_line();
    if (line.empty()) continue;
    ++row;
    if (!util::csv_split_view(line, scratch, fields)) {
      throw util::DataCorruptionError(label + " row " + std::to_string(row) +
                                      ": unterminated quote");
    }
    if (fields.size() != width) {
      throw util::DataCorruptionError(
          label + " row " + std::to_string(row) + ": expected " +
          std::to_string(width) + " cells, got " +
          std::to_string(fields.size()));
    }
    out.add(decoder.decode(fields, row));
  }
  return out;
}

Dataset Dataset::from_csv(const util::CsvTable& table,
                          const std::string& source) {
  const Fields header(table.header().begin(), table.header().end());
  const RowDecoder decoder(header, source_label(source));
  Dataset out;
  out.reserve(table.num_rows());
  Fields fields;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    fields.assign(table.row(i).begin(), table.row(i).end());
    out.add(decoder.decode(fields, i + 1));
  }
  return out;
}

Dataset Dataset::load_csv_file(const std::string& path) {
  try {
    // A buffered read, not a mapping: a file shrunk underneath a mapping
    // raises SIGBUS instead of a typed error.
    const util::MappedFile file(path, util::MappedFile::Mode::ForceBuffered);
    return from_csv_text(
        std::string_view(reinterpret_cast<const char*>(file.data()),
                         file.size()),
        path);
  } catch (const util::DataCorruptionError&) {
    throw;
  } catch (const std::exception& error) {
    throw util::DataCorruptionError(path + ": " + error.what());
  }
}

void Dataset::save_store(const std::string& path) const {
  store::write_store(path, *this);
}

Dataset Dataset::load_store(const std::string& path) {
  return store::StoreReader(path).load();
}

}  // namespace omptune::sweep
