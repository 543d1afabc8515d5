#pragma once

// Shared plumbing of the perfbench binary: run options, the result record
// that becomes the final JSON line, the in-memory span tracer, resource
// usage, order-independent dataset digests and the recorded references.
//
// Everything here belongs to the benchmark, not to the system under test:
// helpers deliberately avoid the repository's own stats/rng code so that a
// change to those layers cannot change how the benchmark measures.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured-phase budget (whole passes, >= 1)
  bool trace = false;
  bool mini = false;          ///< reduced-size inputs (self-test)
  bool inject_fault = false;  ///< corrupt one output before checking it
  bool record = false;        ///< print reference lines instead of checking
  std::string work_dir;       ///< scratch directory, removed at exit
  std::string trace_out;      ///< where the traced run writes its spans
  std::string references;     ///< recorded reference digests
  unsigned nproc = 1;
};

/// Metrics, output checks and counters of one workload run.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one output check; a failed one is reported on stderr.
  void check(bool ok, const std::string& what);
  /// Count operations checked elsewhere (the server's replies).
  void add(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::uint64_t failed() const { return failed_; }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory spans recorded by the benchmark around its calls into each
/// layer's public functions, written out once at the end of the run.
/// Single-threaded: only the benchmark's main thread opens spans. When
/// disabled every call is a branch and nothing is stored.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span named `name` (child of the innermost open span); returns
  /// its index, or -1 when tracing is off.
  int begin(const std::string& name);
  void end(int index);

  /// Total duration in seconds of every closed span named `name`.
  double total_s(const std::string& name) const;

  std::size_t span_count() const { return spans_.size(); }

  /// Write the spans as JSON lines: name, start/end ns from the tracer's
  /// origin, parent index.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
  };
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// User + system CPU seconds of this process and of its waited-for
/// children.
struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
  double total() const { return self_s + children_s; }
};
CpuTimes cpu_times();

/// Peak resident set of this process, in MB.
double peak_rss_mb();

// ---- deterministic helpers -------------------------------------------------

std::uint64_t mix64(std::uint64_t x);

/// FNV-1a based incremental digest over strings, integers and the exact bit
/// patterns of doubles.
class Digest {
 public:
  Digest& add(std::string_view text);
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  std::uint64_t value() const { return mix64(state_); }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t value);

/// Order-independent digest of a dataset as a set of samples: every
/// sample's identity (sweep::sample_identity), status, runtimes and derived
/// statistics are hashed, and the per-sample hashes are summed, so two
/// datasets holding the same samples in any row order digest equally. With
/// a non-empty `arch` only that architecture's samples are digested.
std::uint64_t dataset_set_digest(const omptune::sweep::Dataset& dataset,
                                 const std::string& arch = "");

/// Small deterministic generator for benchmark inputs (request mixes, run
/// orders).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ull); }
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ---- inputs and references -------------------------------------------------

/// Seeds whose collection outputs are recorded in references.txt; a run
/// with --seed n collects the study under reference seed n % kReferenceSeeds.
inline constexpr std::uint64_t kReferenceSeeds = 16;

/// Repetitions of a cheap set-up; the median is reported as setup_s.
inline constexpr int kSetupRepeats = 101;
/// A cheap set-up is also repeated for at least this long, so that its
/// median is taken once the core runs at its steady clock.
inline constexpr double kSetupMinSeconds = 0.2;

/// Calls `setup` at least kSetupRepeats times and for at least
/// kSetupMinSeconds, each call after an untimed `undo` of the previous one;
/// returns the median seconds of one call.
template <class Setup, class Undo>
double median_setup_s(Setup&& setup, Undo&& undo) {
  std::vector<double> times;
  const Clock::time_point first = Clock::now();
  while (times.size() < static_cast<std::size_t>(kSetupRepeats) ||
         seconds_since(first) < kSetupMinSeconds) {
    undo();
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(std::move(times));
}

/// The study seed a workload seed maps to (reference seed k -> study seed).
std::uint64_t study_seed(std::uint64_t reference_seed);

/// The collection plan at the run's size: the paper's Table II plan, or the
/// miniature plan of the self-test.
omptune::sweep::StudyPlan study_plan(bool mini);

/// The architecture whose slice of the plan fleet-collect collects, and the
/// references.txt field holding that slice's digest.
inline constexpr const char* kFleetArch = "a64fx";
inline constexpr const char* kFleetField = "dataset.a64fx";

/// study_plan(mini) restricted to kFleetArch (53,822 samples at full size).
omptune::sweep::StudyPlan fleet_plan(bool mini);

/// Recorded reference digests: lines "<size> <seed> <field> <hex>".
class References {
 public:
  /// Loads `path`; a missing or unreadable file leaves the table empty
  /// (every lookup then fails its check).
  explicit References(const std::string& path);
  /// The recorded value, or an empty string when none is recorded.
  std::string get(bool mini, std::uint64_t seed, const std::string& field) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Print one reference line (record mode) to stdout.
void print_reference(bool mini, std::uint64_t seed, const std::string& field,
                     const std::string& value);

// ---- workloads -------------------------------------------------------------

void run_table2(const Options& options, Result& result);
void run_fleet(const Options& options, Result& result);
void run_serve(const Options& options, Result& result);
void run_native(const Options& options, Result& result);

}  // namespace perfbench
