#include "store/reader.hpp"

#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "store/format.hpp"
#include "store/writer.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace omptune::store {

namespace {

/// Human name of a section kind, for error messages.
const char* section_name(std::size_t zero_based_kind) {
  static const char* const names[kSectionCount] = {
      "dictionaries", "key-columns", "config-columns", "stat-columns",
      "runtimes",     "errors",      "index"};
  return zero_based_kind < kSectionCount ? names[zero_based_kind] : "unknown";
}

constexpr std::size_t kDictCount = 6;

const char* dict_name(std::size_t dict) {
  static const char* const names[kDictCount] = {"arch", "app",  "input",
                                                "suite", "kind", "error"};
  return dict < kDictCount ? names[dict] : "unknown";
}

/// Message for an enum byte outside its range. Kept out of the row
/// materializer so its per-value check stays small enough to inline.
std::string enum_out_of_range(const char* what, unsigned value,
                              std::size_t row, unsigned bound) {
  return std::string(what) + " value " + std::to_string(value) + " in row " +
         std::to_string(row) + " is outside [0, " + std::to_string(bound) +
         ")";
}

}  // namespace

void StoreReader::corrupt(std::uint64_t offset, const std::string& message) const {
  if (generation_ != 0) {
    throw util::DataCorruptionError(
        file_.path(), offset,
        "generation " + std::to_string(generation_) + ": " + message);
  }
  throw util::DataCorruptionError(file_.path(), offset, message);
}

const unsigned char* StoreReader::at(const Section& section,
                                     std::size_t offset) const {
  return file_.data() + section.offset + offset;
}

void StoreReader::verify_checksums(
    std::initializer_list<SectionKind> kinds) const {
  std::span<const unsigned char> buffers[kSectionCount];
  std::uint64_t actual[kSectionCount] = {};
  std::size_t count = 0;
  for (const SectionKind kind : kinds) {
    const Section& section = sections_[static_cast<std::size_t>(kind) - 1];
    buffers[count++] = {file_.data() + section.offset, section.bytes};
  }
  checksum_many({buffers, count}, actual);
  count = 0;
  for (const SectionKind kind : kinds) {
    const std::size_t i = static_cast<std::size_t>(kind) - 1;
    const Section& section = sections_[i];
    if (actual[count++] != section.checksum) {
      corrupt(section.offset,
              std::string(section_name(i)) + " section checksum mismatch " +
                  "(declared at offset " +
                  std::to_string(section.table_entry_offset + 24) + ")");
    }
  }
}

namespace {

/// Open the backing file, converting any open/stat/read failure into the
/// typed StoreOpenError so callers (most importantly the serving layer's
/// hot-swap) can attribute it to a path and generation without string
/// matching. Validation failures are NOT converted — those carry byte
/// offsets and stay DataCorruptionError.
util::MappedFile open_store_file(const std::string& path,
                                 std::uint64_t generation) {
  try {
    return util::MappedFile(path);
  } catch (const std::runtime_error& error) {
    throw util::StoreOpenError(path, generation, error.what());
  }
}

}  // namespace

StoreReader::StoreReader(const std::string& path) : StoreReader(path, 0) {}

StoreReader::StoreReader(const std::string& path, std::uint64_t generation)
    : StoreReader(open_store_file(path, generation), generation) {}

StoreReader::StoreReader(const sweep::Dataset& dataset)
    : StoreReader(util::MappedFile("<in-memory dataset>", serialize_store(dataset)),
                  0) {}

StoreReader::StoreReader(util::MappedFile file, std::uint64_t generation)
    : file_(std::move(file)), generation_(generation) {
  const unsigned char* data = file_.data();
  const std::size_t size = file_.size();

  // ---- header ----
  if (size < kHeaderBytes) {
    corrupt(0, "file is " + std::to_string(size) +
                   " bytes, smaller than the " + std::to_string(kHeaderBytes) +
                   "-byte header");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    corrupt(0, "bad magic (not an .omps store)");
  }
  const auto version = load_scalar<std::uint32_t>(data + 8);
  if (version != kVersion) {
    corrupt(8, "unsupported store version " + std::to_string(version) +
                   " (this reader handles version " + std::to_string(kVersion) +
                   ")");
  }
  const auto header_bytes = load_scalar<std::uint32_t>(data + 12);
  const auto declared_file_bytes = load_scalar<std::uint64_t>(data + 16);
  const auto sample_count = load_scalar<std::uint64_t>(data + 24);
  const auto reps = load_scalar<std::uint32_t>(data + 32);
  const auto section_count = load_scalar<std::uint32_t>(data + 36);
  const auto declared_header_checksum = load_scalar<std::uint64_t>(data + 40);

  if (section_count != kSectionCount) {
    corrupt(36, "version-1 store must have " + std::to_string(kSectionCount) +
                    " sections, header declares " + std::to_string(section_count));
  }
  if (header_bytes != kHeaderBytes + kSectionCount * kSectionEntryBytes) {
    corrupt(12, "header_bytes is " + std::to_string(header_bytes) +
                    ", expected " +
                    std::to_string(kHeaderBytes +
                                   kSectionCount * kSectionEntryBytes));
  }
  if (declared_file_bytes != size) {
    corrupt(16, "header declares " + std::to_string(declared_file_bytes) +
                    " file bytes but the file is " + std::to_string(size) +
                    " (truncated or padded)");
  }
  if (size < header_bytes) {
    corrupt(12, "file ends inside the section table");
  }
  // Sanity-bound the counts before any size arithmetic: key columns cost 10
  // bytes per sample and a runtime slot 8, so counts beyond these bounds
  // cannot be honest and would otherwise risk overflow in the checks below.
  if (sample_count > size / 10) {
    corrupt(24, "sample_count " + std::to_string(sample_count) +
                    " exceeds what a " + std::to_string(size) +
                    "-byte file can hold");
  }
  if (sample_count > 0 && reps > size / (8 * sample_count)) {
    corrupt(32, "reps " + std::to_string(reps) +
                    " exceeds what the file can hold for " +
                    std::to_string(sample_count) + " samples");
  }
  sample_count_ = static_cast<std::size_t>(sample_count);
  reps_ = reps;

  {
    std::string header_copy(reinterpret_cast<const char*>(data), header_bytes);
    const std::uint64_t zero = 0;
    std::memcpy(header_copy.data() + 40, &zero, sizeof(zero));
    const std::uint64_t actual =
        checksum_bytes(header_copy.data(), header_copy.size());
    if (actual != declared_header_checksum) {
      corrupt(40, "header checksum mismatch");
    }
  }

  // ---- section table: the 7 kinds in order, packed with no gaps ----
  std::uint64_t expected_offset = header_bytes;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    const std::uint64_t entry = kHeaderBytes + i * kSectionEntryBytes;
    const auto kind = load_scalar<std::uint32_t>(data + entry);
    if (kind != i + 1) {
      corrupt(entry, "section table entry " + std::to_string(i) +
                         " has kind " + std::to_string(kind) + ", expected " +
                         std::to_string(i + 1) + " (" + section_name(i) + ")");
    }
    Section& section = sections_[i];
    section.table_entry_offset = entry;
    section.offset = load_scalar<std::uint64_t>(data + entry + 8);
    section.bytes = load_scalar<std::uint64_t>(data + entry + 16);
    section.checksum = load_scalar<std::uint64_t>(data + entry + 24);
    if (section.offset != expected_offset) {
      corrupt(entry + 8, std::string(section_name(i)) + " section at offset " +
                             std::to_string(section.offset) + ", expected " +
                             std::to_string(expected_offset) +
                             " (sections must be packed back-to-back)");
    }
    if (section.offset % 8 != 0) {
      corrupt(entry + 8, std::string(section_name(i)) +
                             " section offset is not 8-byte aligned");
    }
    if (section.bytes > size - section.offset) {
      corrupt(entry + 16, std::string(section_name(i)) +
                              " section overruns the file");
    }
    expected_offset += section.bytes;
  }
  if (expected_offset != size) {
    corrupt(size - 1 < kHeaderBytes ? 0 : size - 1,
            "sections cover " + std::to_string(expected_offset) + " of " +
                std::to_string(size) + " file bytes");
  }

  // ---- fixed-layout section sizes are fully determined by (n, reps) ----
  const std::size_t n = sample_count_;
  const struct {
    SectionKind kind;
    std::uint64_t expected;
  } expected_sizes[] = {
      {SectionKind::KeyColumns, key_columns_layout(n).bytes},
      {SectionKind::ConfigColumns, config_columns_layout(n).bytes},
      {SectionKind::StatColumns, stat_columns_layout(n).bytes},
      {SectionKind::Runtimes, runtimes_bytes(n, reps_)},
      {SectionKind::Errors, errors_bytes(n)},
  };
  for (const auto& check : expected_sizes) {
    const std::size_t i = static_cast<std::size_t>(check.kind) - 1;
    if (sections_[i].bytes != check.expected) {
      corrupt(sections_[i].table_entry_offset + 16,
              std::string(section_name(i)) + " section is " +
                  std::to_string(sections_[i].bytes) + " bytes, expected " +
                  std::to_string(check.expected) + " for " + std::to_string(n) +
                  " samples");
    }
  }

  // ---- metadata sections a query depends on: checksum, then parse ----
  const Section& dict_section =
      sections_[static_cast<std::size_t>(SectionKind::Dictionaries) - 1];
  const Section& key_section =
      sections_[static_cast<std::size_t>(SectionKind::KeyColumns) - 1];
  const Section& index_section =
      sections_[static_cast<std::size_t>(SectionKind::Index) - 1];
  verify_checksums(
      {SectionKind::Dictionaries, SectionKind::KeyColumns, SectionKind::Index});

  // Dictionaries: six length-prefixed string tables, then zero padding.
  {
    std::size_t cursor = 0;
    const auto need = [&](std::size_t bytes, const char* what) {
      if (bytes > dict_section.bytes - cursor) {
        corrupt(dict_section.offset + cursor,
                std::string("dictionary section ends inside ") + what);
      }
    };
    for (std::size_t d = 0; d < kDictCount; ++d) {
      need(4, "a table count");
      const auto count = load_scalar<std::uint32_t>(at(dict_section, cursor));
      cursor += 4;
      if (d < 5 && count > 0x10000u) {
        corrupt(dict_section.offset + cursor - 4,
                std::string(dict_name(d)) + " dictionary declares " +
                    std::to_string(count) + " entries, above the u16 code space");
      }
      dicts_[d].reserve(count);
      for (std::uint32_t e = 0; e < count; ++e) {
        need(4, "a string length");
        const auto len = load_scalar<std::uint32_t>(at(dict_section, cursor));
        cursor += 4;
        need(len, "a string body");
        dicts_[d].emplace_back(
            reinterpret_cast<const char*>(at(dict_section, cursor)), len);
        cursor += len;
      }
    }
    for (; cursor < dict_section.bytes; ++cursor) {
      if (*at(dict_section, cursor) != 0) {
        corrupt(dict_section.offset + cursor,
                "non-zero byte in dictionary section padding");
      }
    }
  }

  // Key columns: every code must resolve in its dictionary.
  {
    const KeyColumnsLayout layout = key_columns_layout(n);
    const struct {
      std::size_t column;
      std::size_t dict;
    } columns[] = {{layout.arch, 0}, {layout.app, 1}, {layout.input, 2}};
    for (const auto& col : columns) {
      for (std::size_t row = 0; row < n; ++row) {
        const auto code =
            load_scalar<std::uint16_t>(at(key_section, col.column + 2 * row));
        if (code >= dicts_[col.dict].size()) {
          corrupt(key_section.offset + col.column + 2 * row,
                  std::string(dict_name(col.dict)) + " code " +
                      std::to_string(code) + " in row " + std::to_string(row) +
                      " is outside the " + std::to_string(dicts_[col.dict].size()) +
                      "-entry dictionary");
        }
      }
    }
  }

  // Index: runs must partition [0, n) in order with in-range codes.
  {
    if (index_section.bytes < 8) {
      corrupt(index_section.offset, "index section too small for its count");
    }
    const auto group_count = load_scalar<std::uint64_t>(at(index_section, 0));
    if (index_section.bytes != 8 + group_count * kIndexEntryBytes) {
      corrupt(index_section.offset,
              "index declares " + std::to_string(group_count) +
                  " entries but the section is " +
                  std::to_string(index_section.bytes) + " bytes");
    }
    index_.reserve(static_cast<std::size_t>(group_count));
    std::uint64_t next_row = 0;
    for (std::uint64_t g = 0; g < group_count; ++g) {
      const std::size_t entry = 8 + static_cast<std::size_t>(g) * kIndexEntryBytes;
      IndexRun run{};
      run.arch = load_scalar<std::uint16_t>(at(index_section, entry));
      run.app = load_scalar<std::uint16_t>(at(index_section, entry + 2));
      run.input = load_scalar<std::uint16_t>(at(index_section, entry + 4));
      run.threads = load_scalar<std::int32_t>(at(index_section, entry + 8));
      run.first_row = load_scalar<std::uint64_t>(at(index_section, entry + 16));
      run.row_count = load_scalar<std::uint64_t>(at(index_section, entry + 24));
      if (run.arch >= dicts_[0].size() || run.app >= dicts_[1].size() ||
          run.input >= dicts_[2].size()) {
        corrupt(index_section.offset + entry,
                "index entry " + std::to_string(g) +
                    " has an out-of-range dictionary code");
      }
      if (run.first_row != next_row || run.row_count == 0 ||
          run.row_count > n - run.first_row) {
        corrupt(index_section.offset + entry,
                "index entry " + std::to_string(g) + " covers rows [" +
                    std::to_string(run.first_row) + ", " +
                    std::to_string(run.first_row + run.row_count) +
                    "), expected the partition to resume at row " +
                    std::to_string(next_row));
      }
      next_row = run.first_row + run.row_count;
      index_.push_back(run);
    }
    if (next_row != n) {
      corrupt(index_section.offset,
              "index covers " + std::to_string(next_row) + " of " +
                  std::to_string(n) + " rows");
    }
  }
}

std::vector<SettingEntry> StoreReader::settings() const {
  std::vector<SettingEntry> out;
  out.reserve(index_.size());
  for (const IndexRun& run : index_) {
    SettingEntry entry;
    entry.arch = dicts_[0][run.arch];
    entry.app = dicts_[1][run.app];
    entry.input = dicts_[2][run.input];
    entry.threads = run.threads;
    entry.first_row = static_cast<std::size_t>(run.first_row);
    entry.rows = static_cast<std::size_t>(run.row_count);
    out.push_back(std::move(entry));
  }
  return out;
}

std::uint16_t StoreReader::dict_code(const Section& section,
                                     std::size_t column_offset, std::size_t row,
                                     std::size_t dict, const char* what) const {
  const std::size_t offset = column_offset + 2 * row;
  const auto code = load_scalar<std::uint16_t>(at(section, offset));
  if (code >= dicts_[dict].size()) {
    corrupt(section.offset + offset,
            std::string(what) + " code " + std::to_string(code) + " in row " +
                std::to_string(row) + " is outside the " +
                std::to_string(dicts_[dict].size()) + "-entry dictionary");
  }
  return code;
}

double StoreReader::stat_at(std::size_t column, std::size_t row,
                            const char* what) const {
  const Section& section =
      sections_[static_cast<std::size_t>(SectionKind::StatColumns) - 1];
  const std::size_t offset = column + 8 * row;
  const double value = load_scalar<double>(at(section, offset));
  if (!std::isfinite(value)) {
    corrupt(section.offset + offset,
            std::string(what) + " in row " + std::to_string(row) +
                " is not finite");
  }
  return value;
}

std::uint16_t StoreReader::runtime_count_at(std::size_t row) const {
  const Section& section =
      sections_[static_cast<std::size_t>(SectionKind::ConfigColumns) - 1];
  const std::size_t offset =
      config_columns_layout(sample_count_).runtime_count + 2 * row;
  const auto count = load_scalar<std::uint16_t>(at(section, offset));
  if (count > reps_) {
    corrupt(section.offset + offset,
            "row " + std::to_string(row) + " declares " +
                std::to_string(count) + " runtimes, store holds " +
                std::to_string(reps_) + " slots per row");
  }
  return count;
}

double StoreReader::runtime_at(std::size_t row, std::size_t r) const {
  const Section& section =
      sections_[static_cast<std::size_t>(SectionKind::Runtimes) - 1];
  const std::size_t offset = 8 * (row * reps_ + r);
  const double value = load_scalar<double>(at(section, offset));
  if (!std::isfinite(value)) {
    corrupt(section.offset + offset, "runtime " + std::to_string(r) +
                                         " in row " + std::to_string(row) +
                                         " is not finite");
  }
  return value;
}

std::uint32_t StoreReader::error_code_at(std::size_t row) const {
  const Section& section =
      sections_[static_cast<std::size_t>(SectionKind::Errors) - 1];
  const auto code = load_scalar<std::uint32_t>(at(section, 4 * row));
  if (code >= dicts_[5].size()) {
    corrupt(section.offset + 4 * row,
            "error code " + std::to_string(code) + " in row " +
                std::to_string(row) + " is outside the " +
                std::to_string(dicts_[5].size()) + "-entry dictionary");
  }
  return code;
}

std::size_t StoreReader::materialize_row(std::size_t row,
                                        sweep::Sample& s) const {
  const std::size_t n = sample_count_;
  const Section& key_section =
      sections_[static_cast<std::size_t>(SectionKind::KeyColumns) - 1];
  const Section& config_section =
      sections_[static_cast<std::size_t>(SectionKind::ConfigColumns) - 1];
  const KeyColumnsLayout keys = key_columns_layout(n);
  const ConfigColumnsLayout cfg = config_columns_layout(n);
  const StatColumnsLayout stats = stat_columns_layout(n);

  // Key columns were fully validated at open; load without rechecking.
  s.arch = dicts_[0][load_scalar<std::uint16_t>(at(key_section, keys.arch + 2 * row))];
  s.app = dicts_[1][load_scalar<std::uint16_t>(at(key_section, keys.app + 2 * row))];
  s.input =
      dicts_[2][load_scalar<std::uint16_t>(at(key_section, keys.input + 2 * row))];
  s.threads = load_scalar<std::int32_t>(at(key_section, keys.threads + 4 * row));

  // Config columns are outside the open-time checksums (a query skips the
  // bulk blocks), so every value materialized here is range-checked.
  s.suite = dicts_[3][dict_code(config_section, cfg.suite, row, 3, "suite")];
  s.kind = dicts_[4][dict_code(config_section, cfg.kind, row, 4, "kind")];
  s.config.blocktime_ms =
      load_scalar<std::int64_t>(at(config_section, cfg.blocktime + 8 * row));
  s.config.num_threads =
      load_scalar<std::int32_t>(at(config_section, cfg.num_threads + 4 * row));
  s.config.chunk = load_scalar<std::int32_t>(at(config_section, cfg.chunk + 4 * row));
  s.config.align_alloc =
      load_scalar<std::int32_t>(at(config_section, cfg.align + 4 * row));
  s.attempts = load_scalar<std::int32_t>(at(config_section, cfg.attempts + 4 * row));

  const auto enum_byte = [&](std::size_t column, std::uint8_t bound,
                             const char* what) {
    const std::size_t offset = column + row;
    const std::uint8_t value = *at(config_section, offset);
    if (value >= bound) {
      corrupt(config_section.offset + offset,
              enum_out_of_range(what, value, row, bound));
    }
    return value;
  };
  s.config.places =
      static_cast<arch::PlacesKind>(enum_byte(cfg.places, kPlacesKinds, "places"));
  s.config.bind =
      static_cast<arch::BindKind>(enum_byte(cfg.bind, kBindKinds, "bind"));
  s.config.schedule = static_cast<rt::ScheduleKind>(
      enum_byte(cfg.schedule, kScheduleKinds, "schedule"));
  s.config.library = static_cast<rt::LibraryMode>(
      enum_byte(cfg.library, kLibraryModes, "library"));
  s.config.reduction = static_cast<rt::ReductionMethod>(
      enum_byte(cfg.reduction, kReductionMethods, "reduction"));
  s.status = static_cast<sweep::SampleStatus>(
      enum_byte(cfg.status, kSampleStatuses, "status"));
  s.is_default = enum_byte(cfg.is_default, 2, "is_default") != 0;

  s.mean_runtime = stat_at(stats.mean, row, "mean_runtime");
  s.default_runtime = stat_at(stats.deflt, row, "default_runtime");
  s.speedup = stat_at(stats.speedup, row, "speedup");

  const std::uint16_t runtime_count = runtime_count_at(row);
  s.runtimes.resize(runtime_count);
  for (std::uint16_t r = 0; r < runtime_count; ++r) {
    s.runtimes[r] = runtime_at(row, r);
  }

  s.error = dicts_[5][error_code_at(row)];
  return 8u * runtime_count;
}

sweep::Dataset StoreReader::load(const util::ThreadPool* pool) const {
  verify_checksums({SectionKind::Dictionaries, SectionKind::KeyColumns,
                    SectionKind::ConfigColumns, SectionKind::StatColumns,
                    SectionKind::Runtimes, SectionKind::Errors,
                    SectionKind::Index});
  std::vector<sweep::Sample> samples;
  if (pool == nullptr) {
    // Build each sample in place while its memory is still in cache:
    // pre-sizing would write the whole vector once, then again per row.
    samples.reserve(sample_count_);
    std::uint64_t runtime_bytes = 0;
    for (std::size_t row = 0; row < sample_count_; ++row) {
      runtime_bytes += materialize_row(row, samples.emplace_back());
    }
    runtime_bytes_touched_.fetch_add(runtime_bytes, std::memory_order_relaxed);
    return sweep::Dataset(std::move(samples));
  }
  samples.resize(sample_count_);
  util::parallel_for(pool, sample_count_, 1024,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       std::uint64_t runtime_bytes = 0;
                       for (std::size_t row = begin; row < end; ++row) {
                         runtime_bytes += materialize_row(row, samples[row]);
                       }
                       runtime_bytes_touched_.fetch_add(
                           runtime_bytes, std::memory_order_relaxed);
                     });
  return sweep::Dataset(std::move(samples));
}

void StoreReader::ensure_scan_validated() const {
  std::call_once(scan_validated_, [this] {
    // The metadata sections (dictionaries, key columns, index) were
    // verified at open; scan additionally needs the bulk blocks its slices
    // alias to be trustworthy — in particular the enum bytes SettingSlice
    // casts without per-value range checks.
    verify_checksums({SectionKind::ConfigColumns, SectionKind::StatColumns,
                      SectionKind::Runtimes, SectionKind::Errors});
    // A checksummed store can still have been *written* with out-of-range
    // codes only by a buggy writer, never by bit rot — but the cost of
    // closing that hole is one linear pass over 7 byte columns, so close it.
    const ConfigColumnsLayout cfg = config_columns_layout(sample_count_);
    const Section& config_section =
        sections_[static_cast<std::size_t>(SectionKind::ConfigColumns) - 1];
    const struct {
      std::size_t column;
      std::uint8_t bound;
      const char* what;
    } enum_columns[] = {
        {cfg.places, kPlacesKinds, "places"},
        {cfg.bind, kBindKinds, "bind"},
        {cfg.schedule, kScheduleKinds, "schedule"},
        {cfg.library, kLibraryModes, "library"},
        {cfg.reduction, kReductionMethods, "reduction"},
        {cfg.status, kSampleStatuses, "status"},
        {cfg.is_default, 2, "is_default"},
    };
    for (const auto& col : enum_columns) {
      for (std::size_t row = 0; row < sample_count_; ++row) {
        const std::uint8_t value = *at(config_section, col.column + row);
        if (value >= col.bound) {
          corrupt(config_section.offset + col.column + row,
                  enum_out_of_range(col.what, value, row, col.bound));
        }
      }
    }
    // The same holds for every per-value check load() makes; run them all,
    // so a store that passes holds nothing load() would reject.
    const StatColumnsLayout stats = stat_columns_layout(sample_count_);
    for (std::size_t row = 0; row < sample_count_; ++row) {
      const std::uint16_t count = runtime_count_at(row);
      for (std::size_t r = 0; r < count; ++r) runtime_at(row, r);
      stat_at(stats.mean, row, "mean_runtime");
      stat_at(stats.deflt, row, "default_runtime");
      stat_at(stats.speedup, row, "speedup");
      dict_code(config_section, cfg.suite, row, 3, "suite");
      dict_code(config_section, cfg.kind, row, 4, "kind");
      error_code_at(row);
    }
    // The checksum pass read the whole runtime section; count it once.
    runtime_bytes_touched_.fetch_add(
        sections_[static_cast<std::size_t>(SectionKind::Runtimes) - 1].bytes,
        std::memory_order_relaxed);
  });
}

SettingSlice StoreReader::setting_slice(std::size_t i) const {
  const IndexRun& run = index_.at(i);
  const std::size_t n = sample_count_;
  const std::size_t first = static_cast<std::size_t>(run.first_row);
  const Section& config_section =
      sections_[static_cast<std::size_t>(SectionKind::ConfigColumns) - 1];
  const Section& stat_section =
      sections_[static_cast<std::size_t>(SectionKind::StatColumns) - 1];
  const Section& runtime_section =
      sections_[static_cast<std::size_t>(SectionKind::Runtimes) - 1];
  const Section& error_section =
      sections_[static_cast<std::size_t>(SectionKind::Errors) - 1];
  const ConfigColumnsLayout cfg = config_columns_layout(n);
  const StatColumnsLayout stats = stat_columns_layout(n);

  const auto f64 = [&](const Section& s, std::size_t column, std::size_t stride) {
    return reinterpret_cast<const double*>(at(s, column + stride * first));
  };

  SettingSlice slice;
  slice.arch = &dicts_[0][run.arch];
  slice.app = &dicts_[1][run.app];
  slice.input = &dicts_[2][run.input];
  slice.threads = run.threads;
  slice.setting_index = i;
  slice.first_row = first;
  slice.rows = static_cast<std::size_t>(run.row_count);
  slice.reps = reps_;
  slice.mean_runtime = f64(stat_section, stats.mean, 8);
  slice.default_runtime = f64(stat_section, stats.deflt, 8);
  slice.speedup = f64(stat_section, stats.speedup, 8);
  slice.runtimes =
      reinterpret_cast<const double*>(at(runtime_section, 8 * first * reps_));
  slice.runtime_count = reinterpret_cast<const std::uint16_t*>(
      at(config_section, cfg.runtime_count + 2 * first));
  slice.blocktime = reinterpret_cast<const std::int64_t*>(
      at(config_section, cfg.blocktime + 8 * first));
  slice.num_threads = reinterpret_cast<const std::int32_t*>(
      at(config_section, cfg.num_threads + 4 * first));
  slice.chunk = reinterpret_cast<const std::int32_t*>(
      at(config_section, cfg.chunk + 4 * first));
  slice.align = reinterpret_cast<const std::int32_t*>(
      at(config_section, cfg.align + 4 * first));
  slice.attempts = reinterpret_cast<const std::int32_t*>(
      at(config_section, cfg.attempts + 4 * first));
  slice.suite = reinterpret_cast<const std::uint16_t*>(
      at(config_section, cfg.suite + 2 * first));
  slice.kind = reinterpret_cast<const std::uint16_t*>(
      at(config_section, cfg.kind + 2 * first));
  slice.places = at(config_section, cfg.places + first);
  slice.bind = at(config_section, cfg.bind + first);
  slice.schedule = at(config_section, cfg.schedule + first);
  slice.library = at(config_section, cfg.library + first);
  slice.reduction = at(config_section, cfg.reduction + first);
  slice.status = at(config_section, cfg.status + first);
  slice.is_default = at(config_section, cfg.is_default + first);
  slice.error =
      reinterpret_cast<const std::uint32_t*>(at(error_section, 4 * first));
  return slice;
}

sweep::Dataset StoreReader::query(const StoreQuery& query) const {
  // Resolve query strings to dictionary codes once; a value absent from a
  // dictionary matches no row, which is an empty result, not an error.
  const auto resolve = [&](const std::optional<std::string>& value,
                           std::size_t dict) -> std::optional<std::uint32_t> {
    if (!value) return std::nullopt;
    for (std::size_t i = 0; i < dicts_[dict].size(); ++i) {
      if (dicts_[dict][i] == *value) return static_cast<std::uint32_t>(i);
    }
    return std::uint32_t{0x10000};  // outside the u16 code space: matches nothing
  };
  const auto arch_code = resolve(query.arch, 0);
  const auto app_code = resolve(query.app, 1);
  const auto input_code = resolve(query.input, 2);

  sweep::Dataset out;
  for (const IndexRun& run : index_) {
    if (arch_code && run.arch != *arch_code) continue;
    if (app_code && run.app != *app_code) continue;
    if (input_code && run.input != *input_code) continue;
    if (query.threads && run.threads != *query.threads) continue;
    const std::size_t first = static_cast<std::size_t>(run.first_row);
    const std::size_t rows = static_cast<std::size_t>(run.row_count);
    for (std::size_t row = first; row < first + rows; ++row) {
      sweep::Sample s;
      runtime_bytes_touched_.fetch_add(materialize_row(row, s),
                                       std::memory_order_relaxed);
      out.add(std::move(s));
    }
  }
  return out;
}

}  // namespace omptune::store
