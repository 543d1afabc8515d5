// EXT — columnar store: what does the .omps binary format buy over the CSV
// the journal writes?
//
// Builds a synthetic 100k-sample study dataset, persists it both ways, and
// times the three read paths an operator actually uses:
//   csv load     Dataset::load_csv_file   (parse + validate every cell)
//   store load   Dataset::load_store      (checksum-verify + materialize)
//   store query  StoreReader::query       (index one (app, arch) pair)
//
// Acceptance gates (exit code 1 on miss):
//   - store load at least 10x faster than the CSV parse, comparing the
//     medians of kLoadRuns loads of each format (one ~13 ms store load is
//     too short to gate on alone on a shared host);
//   - an indexed query reads ONLY the matching rows' runtime bytes — the
//     other ~99% of the runtime block is never touched.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "store/reader.hpp"
#include "sweep/dataset.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace {

using namespace omptune;

/// Synthetic study-shaped dataset: realistic dictionaries and cardinalities
/// (a few archs/apps/inputs, hundreds of configs per setting), sized to
/// `target` samples.
sweep::Dataset synthetic_dataset(std::size_t target) {
  const char* archs[] = {"a64fx", "milan", "skylake"};
  const char* apps[] = {"alignment", "bt", "cg", "ep", "ft", "health",
                        "lu", "lulesh", "mg", "nqueens", "rsbench", "xsbench"};
  const char* inputs[] = {"small", "medium", "large"};
  const std::size_t settings = 3 * 12 * 3;
  const std::size_t configs = (target + settings - 1) / settings;

  util::Xoshiro256 rng(42);
  sweep::Dataset dataset;
  for (const char* arch : archs) {
    for (const char* app : apps) {
      for (const char* input : inputs) {
        for (std::size_t c = 0; c < configs; ++c) {
          sweep::Sample s;
          s.arch = arch;
          s.app = app;
          s.suite = "synthetic";
          s.kind = c % 2 == 0 ? "loop" : "task";
          s.input = input;
          s.threads = 48;
          s.config.num_threads = 48;
          s.config.places = static_cast<arch::PlacesKind>(rng.uniform_index(6));
          s.config.bind = static_cast<arch::BindKind>(rng.uniform_index(6));
          s.config.schedule = static_cast<rt::ScheduleKind>(rng.uniform_index(4));
          s.config.chunk = static_cast<int>(rng.uniform_index(4)) * 8;
          s.config.library = static_cast<rt::LibraryMode>(rng.uniform_index(3));
          s.config.blocktime_ms = static_cast<std::int64_t>(rng.uniform_index(5)) * 100;
          s.config.reduction =
              static_cast<rt::ReductionMethod>(rng.uniform_index(4));
          s.config.align_alloc = 64 << rng.uniform_index(4);
          for (int r = 0; r < 4; ++r) {
            s.runtimes.push_back(rng.uniform(0.1, 4.0));
          }
          s.mean_runtime = (s.runtimes[0] + s.runtimes[1] + s.runtimes[2] +
                            s.runtimes[3]) / 4.0;
          s.default_runtime = 1.7;
          s.speedup = s.default_runtime / s.mean_runtime;
          s.is_default = c == 0;
          dataset.add(std::move(s));
          if (dataset.size() == target) return dataset;
        }
      }
    }
  }
  return dataset;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

constexpr int kLoadRuns = 5;

/// Median wall time of kLoadRuns calls of `load`; the last dataset loaded
/// is left in `out`. Freeing the previous result is not timed.
template <typename Load>
double median_load_seconds(const Load& load, sweep::Dataset& out) {
  std::vector<double> times;
  for (int i = 0; i < kLoadRuns; ++i) {
    const auto start = std::chrono::steady_clock::now();
    sweep::Dataset loaded = load();
    times.push_back(seconds_since(start));
    out = std::move(loaded);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  bench::print_header("EXT-STORE",
                      "binary columnar store vs CSV on a 100k-sample dataset");

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_bench_store_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  const std::string csv_path = util::path_join(dir, "study.csv");
  const std::string store_path = util::path_join(dir, "study.omps");

  const sweep::Dataset dataset = synthetic_dataset(100000);
  dataset.to_csv().write_file(csv_path);
  dataset.save_store(store_path);
  std::printf("\n%zu samples, %zu settings\n", dataset.size(),
              store::StoreReader(store_path).settings().size());
  std::printf("  %-24s %9.2f MiB\n", "csv file",
              static_cast<double>(std::filesystem::file_size(csv_path)) /
                  (1024.0 * 1024.0));
  std::printf("  %-24s %9.2f MiB\n", "store file",
              static_cast<double>(std::filesystem::file_size(store_path)) /
                  (1024.0 * 1024.0));

  // Warm both files into the page cache so the comparison is parse cost,
  // not first-touch disk latency.
  (void)sweep::Dataset::load_csv_file(csv_path);
  (void)sweep::Dataset::load_store(store_path);

  sweep::Dataset from_csv;
  const double csv_seconds = median_load_seconds(
      [&] { return sweep::Dataset::load_csv_file(csv_path); }, from_csv);
  sweep::Dataset from_store;
  const double store_seconds = median_load_seconds(
      [&] { return sweep::Dataset::load_store(store_path); }, from_store);

  if (from_csv.size() != dataset.size() || from_store.size() != dataset.size()) {
    std::printf("SAMPLE COUNT MISMATCH — loads are not comparable\n");
    return 1;
  }

  const double speedup = csv_seconds / store_seconds;
  std::printf("\nfull-dataset load (parse + validate all %zu samples, "
              "median of %d):\n",
              dataset.size(), kLoadRuns);
  std::printf("  %-24s %9.3f s\n", "csv", csv_seconds);
  std::printf("  %-24s %9.3f s  (%.1fx faster)\n", "store", store_seconds,
              speedup);

  // Indexed query: one (app, arch) pair out of 36.
  const store::StoreReader reader(store_path);
  store::StoreQuery query;
  query.app = "nqueens";
  query.arch = "milan";
  const auto start = std::chrono::steady_clock::now();
  const sweep::Dataset slice = reader.query(query);
  const double query_seconds = seconds_since(start);

  std::uint64_t matched_runtime_bytes = 0;
  for (const sweep::Sample& s : slice.samples()) {
    matched_runtime_bytes += 8u * s.runtimes.size();
  }
  const std::uint64_t total_runtime_bytes =
      static_cast<std::uint64_t>(reader.size()) * reader.repetitions() * 8;
  const double touched_pct = 100.0 *
                             static_cast<double>(reader.runtime_bytes_touched()) /
                             static_cast<double>(total_runtime_bytes);
  std::printf("\nindexed query (nqueens on milan, %zu of %zu samples):\n",
              slice.size(), reader.size());
  std::printf("  %-24s %9.3f ms\n", "query time", query_seconds * 1000.0);
  std::printf("  %-24s %9llu of %llu (%.2f%%)\n", "runtime bytes read",
              static_cast<unsigned long long>(reader.runtime_bytes_touched()),
              static_cast<unsigned long long>(total_runtime_bytes), touched_pct);

  std::filesystem::remove_all(dir);

  const bool load_ok = speedup >= 10.0;
  const bool query_ok =
      slice.size() > 0 &&
      reader.runtime_bytes_touched() == matched_runtime_bytes;
  std::printf("\nstore load >= 10x csv: %s   query reads only matching "
              "runtime blocks: %s\n",
              load_ok ? "PASS" : "FAIL", query_ok ? "PASS" : "FAIL");
  return load_ok && query_ok ? 0 : 1;
}
