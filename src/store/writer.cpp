#include "store/writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "store/format.hpp"
#include "util/fs.hpp"

namespace omptune::store {

namespace {

using sweep::Dataset;
using sweep::Sample;

std::uint16_t narrow16(std::uint32_t code, const char* what) {
  if (code > 0xFFFFu) {
    throw std::invalid_argument(std::string("write_store: more than 65535 distinct ") +
                                what + " values");
  }
  return static_cast<std::uint16_t>(code);
}

double finite_or_throw(double value, const char* what, std::size_t row) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("write_store: non-finite " + std::string(what) +
                                " in sample " + std::to_string(row));
  }
  return value;
}

/// Pad the section that began at `start` to a multiple of `align` bytes.
void pad_section(std::string& out, std::size_t start, std::size_t align) {
  while ((out.size() - start) % align != 0) out.push_back('\0');
}

/// A column's bytes as they sit in memory (the format is little-endian, as
/// is every host the store runs on; format.hpp asserts it).
template <typename T>
void append_column(std::string& out, const std::vector<T>& column) {
  out.append(reinterpret_cast<const char*>(column.data()),
             column.size() * sizeof(T));
}

template <typename T>
void append_finite_column(std::string& out, const std::vector<T>& column,
                          const char* what) {
  for (std::size_t i = 0; i < column.size(); ++i) {
    finite_or_throw(column[i], what, i);
  }
  append_column(out, column);
}

constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;
constexpr const char* kDictNames[5] = {"arch", "app", "input", "suite", "kind"};

}  // namespace

std::uint32_t StoreBuilder::Interner::code(const std::string& value) {
  const auto it = codes.find(value);
  if (it != codes.end()) return it->second;
  const auto next = static_cast<std::uint32_t>(values.size());
  values.push_back(value);
  codes.emplace(values.back(), next);
  return next;
}

sweep::SampleKey StoreBuilder::key_at(std::size_t row) const {
  rt::RtConfig config;
  config.num_threads = num_threads_[row];
  config.places = static_cast<arch::PlacesKind>(places_[row]);
  config.bind = static_cast<arch::BindKind>(bind_[row]);
  config.schedule = static_cast<rt::ScheduleKind>(schedule_[row]);
  config.chunk = chunk_[row];
  config.library = static_cast<rt::LibraryMode>(library_[row]);
  config.blocktime_ms = blocktime_[row];
  config.reduction = static_cast<rt::ReductionMethod>(reduction_[row]);
  config.align_alloc = align_[row];
  config.barrier = static_cast<rt::BarrierKind>(barrier_[row]);
  return sweep::SampleKey(names_[0].values[codes_[0][row]],
                          names_[1].values[codes_[1][row]],
                          names_[2].values[codes_[2][row]], threads_[row],
                          config);
}

void StoreBuilder::add(const Sample& sample) {
  std::size_t row = rows();
  if (duplicates_ == Duplicates::Resolve &&
      deduper_.admit(sweep::SampleKey(sample), sample.status, row,
                     [this](std::size_t r) { return key_at(r); }) ==
          sweep::Deduper::Verdict::Dropped) {
    return;
  }
  store_row(row, sample);
}

void StoreBuilder::store_row(std::size_t row, const Sample& s) {
  const bool append = row == rows();
  const auto put = [&](auto& column, auto value) {
    using T = typename std::decay_t<decltype(column)>::value_type;
    if (append) {
      column.push_back(static_cast<T>(value));
    } else {
      column[row] = static_cast<T>(value);
    }
  };
  if (!append && status_[row] == static_cast<std::uint8_t>(sweep::SampleStatus::Quarantined)) {
    --quarantined_;
  }
  if (s.is_quarantined()) ++quarantined_;

  const std::string* names[6] = {&s.arch, &s.app, &s.input,
                                 &s.suite, &s.kind, &s.error};
  for (std::size_t d = 0; d < 6; ++d) put(codes_[d], names_[d].code(*names[d]));
  put(threads_, s.threads);
  put(blocktime_, s.config.blocktime_ms);
  put(num_threads_, s.config.num_threads);
  put(chunk_, s.config.chunk);
  put(align_, s.config.align_alloc);
  put(attempts_, s.attempts);
  put(places_, s.config.places);
  put(bind_, s.config.bind);
  put(schedule_, s.config.schedule);
  put(library_, s.config.library);
  put(reduction_, s.config.reduction);
  put(status_, s.status);
  put(is_default_, s.is_default ? 1 : 0);
  put(barrier_, s.config.barrier);
  put(mean_, s.mean_runtime);
  put(default_, s.default_runtime);
  put(speedup_, s.speedup);

  // A replacement reuses its row's runtime slots when they are enough.
  std::size_t at = runtime_pool_.size();
  if (append || s.runtimes.size() > runtime_count_[row]) {
    runtime_pool_.insert(runtime_pool_.end(), s.runtimes.begin(),
                         s.runtimes.end());
  } else {
    at = runtime_at_[row];
    std::copy(s.runtimes.begin(), s.runtimes.end(),
              runtime_pool_.begin() + static_cast<std::ptrdiff_t>(at));
  }
  put(runtime_at_, at);
  put(runtime_count_, s.runtimes.size());
}

std::string StoreBuilder::finish() && {
  const std::size_t n = rows();
  std::size_t reps = 0;
  for (const std::size_t count : runtime_count_) reps = std::max(reps, count);

  // ---- dictionaries: renumber in first appearance over the kept rows ----
  std::vector<std::string_view> dicts[6];
  {
    std::vector<std::uint32_t> remap[6];
    for (std::size_t d = 0; d < 6; ++d) {
      remap[d].assign(names_[d].values.size(), kUnassigned);
    }
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t d = 0; d < 6; ++d) {
        std::uint32_t& code = codes_[d][r];
        std::uint32_t& final_code = remap[d][code];
        if (final_code == kUnassigned) {
          final_code = static_cast<std::uint32_t>(dicts[d].size());
          dicts[d].push_back(names_[d].values[code]);
        }
        code = final_code;
        if (d < 5) narrow16(code, kDictNames[d]);
      }
    }
  }

  // ---- index: runs of identical (arch, app, input, threads) keys ----
  struct Run {
    std::uint32_t arch, app, input;
    std::int32_t threads;
    std::uint64_t first_row, row_count;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < n; ++i) {
    const bool extends = !runs.empty() && runs.back().arch == codes_[0][i] &&
                         runs.back().app == codes_[1][i] &&
                         runs.back().input == codes_[2][i] &&
                         runs.back().threads == threads_[i];
    if (extends) {
      ++runs.back().row_count;
    } else {
      runs.push_back(Run{codes_[0][i], codes_[1][i], codes_[2][i], threads_[i], i, 1});
    }
  }

  // ---- section sizes, all known before a byte is written ----
  std::size_t dict_bytes = 0;
  for (const auto& dict : dicts) {
    dict_bytes += 4;
    for (const std::string_view value : dict) dict_bytes += 4 + value.size();
  }
  const std::size_t section_bytes[kSectionCount] = {
      pad8(dict_bytes),
      key_columns_layout(n).bytes,
      config_columns_layout(n).bytes,
      stat_columns_layout(n).bytes,
      runtimes_bytes(n, reps),
      errors_bytes(n),
      8 + runs.size() * kIndexEntryBytes};
  const std::size_t header_bytes =
      kHeaderBytes + kSectionCount * kSectionEntryBytes;
  std::size_t file_bytes = header_bytes;
  for (const std::size_t bytes : section_bytes) file_bytes += bytes;

  // ---- header + section table (checksums patched at the end) ----
  std::string out;
  out.reserve(file_bytes);
  out.append(kMagic, sizeof(kMagic));
  append_scalar<std::uint32_t>(out, kVersion);
  append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(header_bytes));
  append_scalar<std::uint64_t>(out, file_bytes);
  append_scalar<std::uint64_t>(out, n);
  append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(reps));
  append_scalar<std::uint32_t>(out, kSectionCount);
  const std::size_t checksum_at = out.size();
  append_scalar<std::uint64_t>(out, 0);
  std::size_t section_offset[kSectionCount];
  std::size_t offset = header_bytes;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    section_offset[i] = offset;
    append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(i + 1));
    append_scalar<std::uint32_t>(out, 0);
    append_scalar<std::uint64_t>(out, offset);
    append_scalar<std::uint64_t>(out, section_bytes[i]);
    append_scalar<std::uint64_t>(out, 0);
    offset += section_bytes[i];
  }

  // ---- sections, in file order ----
  std::size_t start = out.size();
  for (const auto& dict : dicts) {
    append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(dict.size()));
    for (const std::string_view value : dict) {
      append_scalar<std::uint32_t>(out, static_cast<std::uint32_t>(value.size()));
      out.append(value);
    }
  }
  pad_section(out, start, 8);

  start = out.size();
  for (std::size_t d = 0; d < 3; ++d) {
    for (const std::uint32_t code : codes_[d]) {
      append_scalar(out, static_cast<std::uint16_t>(code));
    }
  }
  pad_section(out, start, 4);
  append_column(out, threads_);
  pad_section(out, start, 8);

  // Widest first so every array stays aligned.
  start = out.size();
  append_column(out, blocktime_);
  append_column(out, num_threads_);
  append_column(out, chunk_);
  append_column(out, align_);
  append_column(out, attempts_);
  for (const std::size_t count : runtime_count_) {
    append_scalar(out, static_cast<std::uint16_t>(count));
  }
  for (std::size_t d = 3; d < 5; ++d) {
    for (const std::uint32_t code : codes_[d]) {
      append_scalar(out, static_cast<std::uint16_t>(code));
    }
  }
  for (const auto* column :
       {&places_, &bind_, &schedule_, &library_, &reduction_, &status_, &is_default_}) {
    append_column(out, *column);
  }
  pad_section(out, start, 8);

  append_finite_column(out, mean_, "mean_runtime");
  append_finite_column(out, default_, "default_runtime");
  append_finite_column(out, speedup_, "speedup");

  // Fixed stride, zero-padded like the CSV schema.
  for (std::size_t i = 0; i < n; ++i) {
    const double* runtimes = runtime_pool_.data() + runtime_at_[i];
    for (std::size_t r = 0; r < reps; ++r) {
      append_scalar(out, r < runtime_count_[i]
                             ? finite_or_throw(runtimes[r], "runtime", i)
                             : 0.0);
    }
  }

  start = out.size();
  append_column(out, codes_[5]);
  pad_section(out, start, 8);

  append_scalar<std::uint64_t>(out, runs.size());
  for (const Run& run : runs) {
    append_scalar(out, static_cast<std::uint16_t>(run.arch));
    append_scalar(out, static_cast<std::uint16_t>(run.app));
    append_scalar(out, static_cast<std::uint16_t>(run.input));
    append_scalar<std::uint16_t>(out, 0);
    append_scalar(out, run.threads);
    append_scalar<std::uint32_t>(out, 0);
    append_scalar(out, run.first_row);
    append_scalar(out, run.row_count);
  }

  // The append order and the shared layout helpers must agree; catching a
  // drift here turns a subtle reader bug into a loud writer one.
  if (out.size() != file_bytes) {
    throw std::logic_error("write_store: section layout drifted from format.hpp");
  }

  // ---- checksums: every section, then the header over the table ----
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    const std::uint64_t checksum =
        checksum_bytes(out.data() + section_offset[i], section_bytes[i]);
    std::memcpy(out.data() + kHeaderBytes + i * kSectionEntryBytes + 24,
                &checksum, sizeof(checksum));
  }
  const std::uint64_t header_checksum = checksum_bytes(out.data(), header_bytes);
  std::memcpy(out.data() + checksum_at, &header_checksum, sizeof(header_checksum));
  return out;
}

std::string serialize_store(const Dataset& dataset) {
  StoreBuilder builder(StoreBuilder::Duplicates::Keep);
  for (const Sample& sample : dataset.samples()) builder.add(sample);
  return std::move(builder).finish();
}

void write_store(const std::string& path, const Dataset& dataset) {
  util::atomic_write_file(path, serialize_store(dataset));
}

}  // namespace omptune::store

namespace omptune::sweep {

// Declared in sweep/dataset.hpp, implemented here so the base sweep library
// carries no dependency on the store format.
void Dataset::save_store(const std::string& path) const {
  store::write_store(path, *this);
}

}  // namespace omptune::sweep
