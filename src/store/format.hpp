#pragma once

// On-disk layout of the .omps binary columnar sample store (version 1).
//
// Why a binary store: the study's knowledge base is a >240k-sample tabular
// dataset, and the journal multiplies it into hundreds of per-setting CSV
// files. Re-parsing text on every `analyze`/`recommend` dominates their
// runtime; a recommendation for one (app, arch) pair does not need the
// other ~99% of the rows at all. The store keeps each variable in its own
// typed contiguous block with an embedded setting index, so an mmap-backed
// reader materializes exactly the rows a query touches.
//
// Layout (all integers little-endian, every section 8-byte aligned, packed
// back-to-back with no gaps — every file byte is covered by exactly one
// checksum):
//
//   [0, 48)               FileHeader
//   [48, 48 + 32*S)       section table, S entries
//   [header_bytes, ...)   sections, in table order
//
// FileHeader (48 bytes):
//   u8  magic[8]     "OMPSTORE"
//   u32 version      1
//   u32 header_bytes 48 + 32 * section_count
//   u64 file_bytes   declared total size (truncation check)
//   u64 sample_count rows
//   u32 reps         runtime slots per row (R0..Rk, zero-padded)
//   u32 section_count
//   u64 header_checksum   FNV-1a over [0, header_bytes) with this field 0
//
// Section table entry (32 bytes):
//   u32 kind, u32 reserved(0), u64 offset, u64 bytes, u64 checksum
//
// Sections (each present exactly once, sizes fully determined by
// sample_count and reps — any disagreement is corruption):
//   kDictionaries  six string tables (arch, app, input, suite, kind, error):
//                  u32 count, then count x { u32 len, bytes }
//   kKeyColumns    u16 arch[n], u16 app[n], u16 input[n], (pad) i32 threads[n]
//   kConfigColumns i64 blocktime[n]; i32 num_threads[n], chunk[n], align[n],
//                  attempts[n]; u16 runtime_count[n], suite[n], kind[n];
//                  u8 places[n], bind[n], schedule[n], library[n],
//                  reduction[n], status[n], is_default[n]
//   kStatColumns   f64 mean[n], f64 default[n], f64 speedup[n]
//   kRuntimes      f64[n * reps], row-major (sample i at i*reps)
//   kErrors        u32 error-dictionary code[n]
//   kIndex         u64 group_count, then 32-byte entries
//                  { u16 arch, u16 app, u16 input, u16 pad, i32 threads,
//                    u32 pad, u64 first_row, u64 row_count } — runs of
//                  identical setting keys in row order, partitioning [0, n)
//
// The reader validates the header, dictionaries, key columns and index on
// open (cheap, metadata-sized); a full load() additionally verifies every
// section checksum; an indexed query() deliberately skips the bulk
// checksums — the point is to not read non-matching rows — and instead
// range/finiteness-checks every value it materializes. Corruption always
// surfaces as util::DataCorruptionError naming the file and byte offset.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace omptune::store {

// The zero-copy column views below alias raw file bytes; a big-endian host
// would need byte-swapping reads instead (no such target exists for this
// reproduction's toolchain, so it is excluded up front rather than half
// supported).
static_assert(std::endian::native == std::endian::little,
              "the .omps reader/writer assumes a little-endian host");

inline constexpr char kMagic[8] = {'O', 'M', 'P', 'S', 'T', 'O', 'R', 'E'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 48;
inline constexpr std::size_t kSectionEntryBytes = 32;
inline constexpr std::size_t kIndexEntryBytes = 32;

/// Section kinds, in their on-disk table order.
enum class SectionKind : std::uint32_t {
  Dictionaries = 1,
  KeyColumns = 2,
  ConfigColumns = 3,
  StatColumns = 4,
  Runtimes = 5,
  Errors = 6,
  Index = 7,
};

inline constexpr std::uint32_t kSectionCount = 7;

/// Exclusive upper bounds of the packed enum columns; codes at or above the
/// bound are corruption (an enum cast from a garbled byte is UB-adjacent,
/// so the reader range-checks before casting).
inline constexpr std::uint8_t kPlacesKinds = 6;
inline constexpr std::uint8_t kBindKinds = 6;
inline constexpr std::uint8_t kScheduleKinds = 4;
inline constexpr std::uint8_t kLibraryModes = 3;
inline constexpr std::uint8_t kReductionMethods = 4;
inline constexpr std::uint8_t kSampleStatuses = 3;

/// Section checksum: FNV-1a-style xor-multiply over 64-bit words (with the
/// length folded in up front so a truncated-but-zero-padded block cannot
/// collide with the original). Word-wise instead of byte-wise because a full
/// load() checksums every section — ~80 bytes per sample — and the byte-serial
/// multiply chain of textbook FNV would dominate the load time the store
/// exists to eliminate. Any flipped byte changes its word and therefore the
/// digest: each step is h = (h ^ w) * odd-constant, injective in w.
inline std::uint64_t checksum_bytes(const void* data, std::size_t bytes) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (kPrime * bytes);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kPrime;
  }
  if (i < bytes) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, bytes - i);
    h = (h ^ tail) * kPrime;
  }
  return h;
}

namespace detail {

/// One checksum_bytes step: fold the word at `at` into `h`.
inline std::uint64_t checksum_step(std::uint64_t h, const unsigned char* at) {
  std::uint64_t word = 0;
  std::memcpy(&word, at, 8);
  return (h ^ word) * 0x100000001b3ULL;
}

/// Advance checksum chains 0..K-1 over their words [from, to) in lockstep.
template <std::size_t... K>
void checksum_lockstep(const std::span<const unsigned char>* buffers,
                       std::uint64_t* h, std::size_t from, std::size_t to,
                       std::index_sequence<K...>) {
  std::uint64_t x[] = {h[K]...};
  for (std::size_t i = 8 * from; i < 8 * to; i += 8) {
    ((x[K] = checksum_step(x[K], buffers[K].data() + i)), ...);
  }
  ((h[K] = x[K]), ...);
}

}  // namespace detail

/// checksum_bytes of every buffer: out[i] == checksum_bytes(buffers[i]).
/// One digest is a serial chain of multiplies, so it runs at the multiply's
/// latency; stepping up to four chains in one loop overlaps them, which
/// verifies a store's sections about 2.5x faster than one after another.
inline void checksum_many(std::span<const std::span<const unsigned char>> buffers,
                          std::uint64_t* out) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const std::size_t n = buffers.size();
  // Longest first: each group of four drops its chains as they run out.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return buffers[a].size() > buffers[b].size();
  });
  std::vector<std::span<const unsigned char>> sorted(n);
  std::vector<std::uint64_t> h(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i] = buffers[order[i]];
    h[i] = 0xcbf29ce484222325ULL ^ (kPrime * sorted[i].size());
  }
  for (std::size_t group = 0; group < n; group += 4) {
    std::size_t done = 0;
    for (std::size_t active = std::min<std::size_t>(4, n - group); active > 0;
         --active) {
      const std::size_t end = sorted[group + active - 1].size() / 8;
      const auto* b = &sorted[group];
      std::uint64_t* hg = &h[group];
      using std::make_index_sequence;
      switch (active) {
        case 4:
          detail::checksum_lockstep(b, hg, done, end, make_index_sequence<4>{});
          break;
        case 3:
          detail::checksum_lockstep(b, hg, done, end, make_index_sequence<3>{});
          break;
        case 2:
          detail::checksum_lockstep(b, hg, done, end, make_index_sequence<2>{});
          break;
        default:
          detail::checksum_lockstep(b, hg, done, end, make_index_sequence<1>{});
          break;
      }
      done = end;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t tail_at = sorted[i].size() / 8 * 8;
    if (tail_at < sorted[i].size()) {
      std::uint64_t tail = 0;
      std::memcpy(&tail, sorted[i].data() + tail_at, sorted[i].size() - tail_at);
      h[i] = (h[i] ^ tail) * kPrime;
    }
    out[order[i]] = h[i];
  }
}

/// Round `bytes` up to the section alignment.
inline std::size_t pad8(std::size_t bytes) { return (bytes + 7u) & ~std::size_t{7}; }

// ---- column-array offsets within the fixed-layout sections -----------------
// One definition shared by the writer and the reader, so the two can never
// disagree about where an array lives. All offsets are relative to the
// section start; `bytes` is the exact (padded) section size for n samples.

struct KeyColumnsLayout {
  std::size_t arch, app, input, threads, bytes;
};

inline KeyColumnsLayout key_columns_layout(std::size_t n) {
  KeyColumnsLayout l{};
  l.arch = 0;
  l.app = 2 * n;
  l.input = 4 * n;
  l.threads = (6 * n + 3u) & ~std::size_t{3};
  l.bytes = pad8(l.threads + 4 * n);
  return l;
}

struct ConfigColumnsLayout {
  std::size_t blocktime, num_threads, chunk, align, attempts;
  std::size_t runtime_count, suite, kind;
  std::size_t places, bind, schedule, library, reduction, status, is_default;
  std::size_t bytes;
};

inline ConfigColumnsLayout config_columns_layout(std::size_t n) {
  ConfigColumnsLayout l{};
  std::size_t at = 0;
  l.blocktime = at;      at += 8 * n;
  l.num_threads = at;    at += 4 * n;
  l.chunk = at;          at += 4 * n;
  l.align = at;          at += 4 * n;
  l.attempts = at;       at += 4 * n;
  l.runtime_count = at;  at += 2 * n;
  l.suite = at;          at += 2 * n;
  l.kind = at;           at += 2 * n;
  l.places = at;         at += n;
  l.bind = at;           at += n;
  l.schedule = at;       at += n;
  l.library = at;        at += n;
  l.reduction = at;      at += n;
  l.status = at;         at += n;
  l.is_default = at;     at += n;
  l.bytes = pad8(at);
  return l;
}

struct StatColumnsLayout {
  std::size_t mean, deflt, speedup, bytes;
};

inline StatColumnsLayout stat_columns_layout(std::size_t n) {
  return StatColumnsLayout{0, 8 * n, 16 * n, 24 * n};
}

inline std::size_t runtimes_bytes(std::size_t n, std::size_t reps) {
  return 8 * n * reps;
}

inline std::size_t errors_bytes(std::size_t n) { return pad8(4 * n); }

// ---- little-endian scalar append/load helpers -------------------------------
// On the (asserted) little-endian host these are plain memcpys, but keeping
// them funneled through one place documents the on-disk byte order.

template <typename T>
void append_scalar(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

template <typename T>
T load_scalar(const unsigned char* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

}  // namespace omptune::store
