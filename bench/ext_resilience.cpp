// EXT — resilience overhead: what does fault tolerance cost on a healthy
// sweep?
//
// Runs the same fault-free mini-plan three ways and compares wall time:
//   bare        the seed harness (direct runner calls, no persistence)
//   resilient   retry/quarantine guard, no journal
//   journaled   guard + write-ahead journal (one atomic .omps entry per
//               setting)
//   supervised  StudySupervisor with --workers=1: a forked worker process,
//               lease/heartbeat pipe protocol, entries recorded into the
//               study journal — the full isolation stack on one worker
//
// Two runners frame the cost:
//   native  real kernels through the runtime substrate — per-sample times
//           resemble actual collection, and this is where the < 10%
//           acceptance target applies;
//   model   microsecond-scale analytic samples — a deliberate stress test
//           where per-setting fsyncs and entry serialization have nothing
//           to hide behind (reported for transparency, no target).
//
// A fourth leg bounds the crash-consistency injection seam (util::IoHooks,
// DESIGN.md §14). An end-to-end A/B cannot resolve it — the seam costs
// nanoseconds per operation against tens-of-microsecond fsyncs, far below
// run-to-run disk noise — so the gate compares per-operation costs
// directly: the seam consult (measured worst-case, with a pass-through
// hook installed so the consult pays the virtual dispatch; the production
// disabled path pays strictly less) against the measured per-operation
// cost of the journal write path it guards. Gated at < 5%.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "bench_common.hpp"
#include "sim/executor.hpp"
#include "sim/storage_chaos.hpp"
#include "sweep/harness.hpp"
#include "sweep/supervisor.hpp"
#include "util/fs.hpp"
#include "util/io_hooks.hpp"

namespace {

using namespace omptune;

double time_run(const std::function<sweep::Dataset()>& fn,
                std::size_t* samples) {
  const auto start = std::chrono::steady_clock::now();
  const sweep::Dataset dataset = fn();
  const auto end = std::chrono::steady_clock::now();
  *samples = dataset.size();
  return std::chrono::duration<double>(end - start).count();
}

struct Comparison {
  double bare = 0, resilient = 0, journaled = 0, supervised = 0;
  std::size_t samples = 0;
};

/// Time the three collection modes over `plan` with a fresh runner per run
/// (mirroring independent batch jobs).
Comparison compare(const std::function<std::unique_ptr<sim::Runner>()>& make,
                   const sweep::StudyPlan& plan, int repetitions) {
  const std::uint64_t seed = 0x0417D5EEDull;
  const std::string journal_dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_bench_journal_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(journal_dir);

  Comparison c;
  std::size_t resilient_samples = 0, journaled_samples = 0,
              supervised_samples = 0;
  c.bare = time_run(
      [&] {
        auto runner = make();
        sweep::SweepHarness harness(*runner, repetitions, seed);
        return harness.run_study(plan);
      },
      &c.samples);
  c.resilient = time_run(
      [&] {
        auto runner = make();
        sweep::SweepHarness harness(*runner, repetitions, seed);
        sweep::StudyRunOptions options;
        options.resilient = true;
        options.resilience.max_retries = 2;
        return harness.run_study(plan, options);
      },
      &resilient_samples);
  c.journaled = time_run(
      [&] {
        auto runner = make();
        sweep::SweepHarness harness(*runner, repetitions, seed);
        sweep::StudyRunOptions options;
        options.resilient = true;
        options.resilience.max_retries = 2;
        options.journal_dir = journal_dir;
        return harness.run_study(plan, options);
      },
      &journaled_samples);
  c.supervised = time_run(
      [&] {
        sweep::SupervisorOptions options;
        options.workers = 1;
        options.repetitions = repetitions;
        options.seed = seed;
        options.resilient = true;
        options.resilience.max_retries = 2;
        sweep::StudySupervisor supervisor(make, options);
        return supervisor.run(plan);
      },
      &supervised_samples);

  std::filesystem::remove_all(journal_dir);
  if (c.samples != resilient_samples || c.samples != journaled_samples ||
      c.samples != supervised_samples) {
    std::printf("SAMPLE COUNT MISMATCH — runs are not comparable\n");
    std::exit(1);
  }
  return c;
}

/// Pass-through hook: every operation proceeds untouched. Installing it
/// isolates the cost of the seam itself — the production (disabled) path
/// pays strictly less, so gating this bounds both configurations.
class PassThroughHooks : public util::IoHooks {
 public:
  int before(const util::IoSite& site) override {
    (void)site;
    return 0;
  }
};

/// One round of journal-style durability work: `files` small atomic
/// replacements plus one durable append per file — the same fs primitives
/// the write-ahead journal and incident log exercise per setting.
double time_hook_shim_round(const std::string& dir, int files) {
  const std::string payload(256, 'x');
  const std::string log_path = dir + "/append.log";
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < files; ++i) {
    util::atomic_write_file(dir + "/rec_" + std::to_string(i % 16) + ".omps",
                            payload);
    util::append_line_durable(log_path, "sample line for the shim bench",
                              /*rotate_at_bytes=*/1 << 16);
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Per-operation seam cost vs per-operation journal cost. Deterministic by
/// construction: the numerator is a tight loop over the consult itself
/// (worst case — hook installed, so every consult pays the virtual
/// dispatch), the denominator a fault-free counting pass over the real
/// write path. Returns the ratio as a percentage.
double measure_hook_shim_overhead() {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_bench_hooks_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);

  constexpr int kFiles = 150;

  // Counting pass (doubles as warm-up): how many hooked operations does
  // one round of journal-style work perform?
  sim::StorageChaos counter;  // empty plan: counts ops, injects nothing
  {
    util::ScopedIoHooks scoped(&counter);
    time_hook_shim_round(dir, kFiles);
  }
  const double ops = static_cast<double>(counter.ops_seen());

  // Per-op cost of the real work, hooks disabled (best of 3 rounds).
  double journal = 1e300;
  for (int round = 0; round < 3; ++round) {
    journal = std::min(journal, time_hook_shim_round(dir, kFiles));
  }
  const double journal_per_op = journal / ops;
  std::filesystem::remove_all(dir);

  // Per-op cost of the seam: the atomic load + branch every fs operation
  // pays, plus the virtual dispatch only an installed hook pays.
  PassThroughHooks hook;
  const std::string label = "seam";
  constexpr long kConsults = 20'000'000;
  volatile int sink = 0;
  double seam_per_op = 0;
  {
    util::ScopedIoHooks scoped(&hook);
    const auto start = std::chrono::steady_clock::now();
    for (long i = 0; i < kConsults; ++i) {
      if (util::IoHooks* hooks = util::io_hooks()) {
        util::IoSite site{util::IoOp::Write, label, -1, nullptr, 0};
        sink = sink + hooks->before(site);
      }
    }
    const auto end = std::chrono::steady_clock::now();
    seam_per_op = std::chrono::duration<double>(end - start).count() /
                  static_cast<double>(kConsults);
  }
  (void)sink;

  const double overhead = 100.0 * seam_per_op / journal_per_op;
  std::printf("\nio-hook seam, per hooked operation (%.0f ops per journal "
              "round)\n",
              ops);
  std::printf("  %-28s %10.3f us\n", "journal op (write path)",
              journal_per_op * 1e6);
  std::printf("  %-28s %10.4f us  (hook installed — disabled path is "
              "cheaper)\n",
              "seam consult", seam_per_op * 1e6);
  return overhead;
}

void print_comparison(const char* label, const Comparison& c, int repetitions) {
  std::printf("\n%s — %zu samples per run (%d repetitions each)\n", label,
              c.samples, repetitions);
  std::printf("  %-28s %8.3f s\n", "bare harness", c.bare);
  std::printf("  %-28s %8.3f s  (%+.2f%%)\n", "retry/quarantine guard",
              c.resilient, 100.0 * (c.resilient - c.bare) / c.bare);
  std::printf("  %-28s %8.3f s  (%+.2f%%)\n", "guard + write-ahead journal",
              c.journaled, 100.0 * (c.journaled - c.bare) / c.bare);
  std::printf("  %-28s %8.3f s  (%+.2f%%)\n", "supervisor, --workers=1",
              c.supervised, 100.0 * (c.supervised - c.bare) / c.bare);
}

}  // namespace

int main() {
  bench::print_header("EXT-RESILIENCE",
                      "journal + retry overhead on a fault-free sweep");

  // Warm-up (page in code/data so the first timed run is not penalized).
  {
    sim::ModelRunner runner;
    sweep::SweepHarness harness(runner, 2, 1);
    harness.run_study(sweep::StudyPlan::mini_plan(1, 20));
  }

  // Native mode: wall-clock kernels, the realistic collection cost.
  const Comparison native = compare(
      [] {
        return std::make_unique<sim::NativeRunner>(/*native_scale=*/0.02,
                                                   /*max_threads=*/4);
      },
      sweep::StudyPlan::mini_plan(2, 10), /*repetitions=*/2);
  print_comparison("native runner (acceptance target)", native, 2);

  // Model mode: per-sample cost is microseconds, so journaling has nothing
  // to amortize against — the honest worst case.
  const Comparison model = compare(
      [] { return std::make_unique<sim::ModelRunner>(); },
      sweep::StudyPlan::mini_plan(4, 300), /*repetitions=*/4);
  print_comparison("model runner (stress, no target)", model, 4);

  const double overhead = 100.0 * (native.journaled - native.bare) / native.bare;
  std::printf("\njournaled overhead vs bare, native collection: %.2f%% "
              "(target < 10%%)\n",
              overhead);
  // The process-isolation stack (fork, pipes, heartbeats, leases) is
  // measured against the single-process journaled harness, which does the
  // same persistence work — the delta is pure supervision cost.
  const double supervision =
      100.0 * (native.supervised - native.journaled) / native.journaled;
  std::printf("supervisor --workers=1 vs single-process journaled harness: "
              "%+.2f%% (target < 10%%)\n",
              supervision);
  const double shim = measure_hook_shim_overhead();
  std::printf("io-hook seam cost per journal write-path operation: %.4f%% "
              "(target < 5%%)\n",
              shim);
  return overhead < 10.0 && supervision < 10.0 && shim < 5.0 ? 0 : 1;
}
