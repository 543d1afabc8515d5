// Crash-point enumeration over every durability layer (DESIGN.md §14).
//
// For each torture workload below, the harness first counts the hooked I/O
// operations of an uninterrupted run (N), then — for every enumerated crash
// point k in [1, N], in clean and torn-write modes — forks a child that
// installs sim::StorageChaos{crash_at_op = k} and runs the workload. The
// child dies by genuine SIGKILL at the k-th operation (no destructor, no
// cleanup path), exactly like a power cut. The parent then runs the
// workload's recovery procedure UNHOOKED and asserts the durability
// contract:
//
//   1. recovery never crashes and never throws,
//   2. the recovered directory is byte-identical to the uninterrupted
//      golden run (resume converges),
//   3. no stale "*.tmp.<pid>" files survive recovery,
//   4. workload-specific atomicity invariants hold mid-crash (a published
//      store always loads; a WAL/state file always parses as some
//      checkpoint — never a tear, never a mix).
//
// Error-injection legs run in-process on the same crash points: ENOSPC and
// EIO at the k-th op must surface as a typed util::TuneError (or be
// absorbed by a documented degradation path) — never a crash, never
// silence — and recovery must still converge; injected short writes must
// be completed transparently by the fs write loops.
//
// Budget: OMPTUNE_TORTURE_BUDGET (or --torture-budget=N) bounds the crash
// points sampled per workload/mode; 0 means exhaustive. The default keeps
// local ctest fast; CI's release leg runs exhaustive.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sim/storage_chaos.hpp"
#include "store/compact.hpp"
#include "sweep/dataset.hpp"
#include "sweep/harness.hpp"
#include "sweep/journal.hpp"
#include "sweep/lease.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/io_hooks.hpp"

namespace omptune {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Harness plumbing

std::size_t torture_budget() {
  const char* env = std::getenv("OMPTUNE_TORTURE_BUDGET");
  if (env == nullptr) return 24;  // modest default: local ctest stays fast
  const long value = std::atol(env);
  if (value <= 0) return static_cast<std::size_t>(-1);  // 0 = exhaustive
  return static_cast<std::size_t>(value);
}

/// Evenly sampled crash points in [1, total], always including 1 and
/// `total` (the first and last op are where off-by-one recovery bugs live).
std::vector<std::uint64_t> sampled_points(std::uint64_t total,
                                          std::size_t budget) {
  std::vector<std::uint64_t> points;
  if (total == 0) return points;
  if (total <= budget) {
    for (std::uint64_t k = 1; k <= total; ++k) points.push_back(k);
    return points;
  }
  for (std::size_t i = 0; i < budget; ++i) {
    const std::uint64_t k =
        1 + (i * (total - 1)) / (budget > 1 ? budget - 1 : 1);
    if (points.empty() || points.back() != k) points.push_back(k);
  }
  return points;
}

/// Relative path -> file bytes for every regular file under `dir`.
std::map<std::string, std::string> snapshot(const std::string& dir) {
  std::map<std::string, std::string> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel = fs::relative(entry.path(), dir).string();
    const std::optional<std::string> bytes =
        util::read_file(entry.path().string());
    files[rel] = bytes ? *bytes : "<unreadable>";
  }
  return files;
}

/// Human-readable diff of two snapshots (keys and size mismatches only).
std::string describe_diff(const std::map<std::string, std::string>& golden,
                          const std::map<std::string, std::string>& got) {
  std::string out;
  for (const auto& [path, bytes] : golden) {
    const auto it = got.find(path);
    if (it == got.end()) {
      out += "  missing: " + path + "\n";
    } else if (it->second != bytes) {
      out += "  differs: " + path + " (" + std::to_string(bytes.size()) +
             " vs " + std::to_string(it->second.size()) + " bytes)\n";
    }
  }
  for (const auto& [path, bytes] : got) {
    if (golden.find(path) == golden.end()) {
      out += "  extra: " + path + " (" + std::to_string(bytes.size()) +
             " bytes)\n";
    }
  }
  return out.empty() ? "  (bytes differ)\n" : out;
}

std::vector<std::string> stale_temps(const std::string& dir) {
  std::vector<std::string> temps;
  if (!fs::exists(dir)) return temps;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      temps.push_back(entry.path().string());
    }
  }
  return temps;
}

/// One durability workload. `run` is the hooked phase and must be
/// idempotent over a crashed directory (that is the property under test);
/// `setup` runs unhooked before every execution; `recover` runs unhooked
/// after a crash and throws on any violated atomicity invariant.
struct Workload {
  std::string name;
  std::function<void(const std::string&)> setup;  // may be null
  std::function<void(const std::string&)> run;
  /// Default recovery: assert invariants (none), sweep stale temps at the
  /// top level, then re-run to convergence. Workloads override to add
  /// atomicity checks.
  std::function<void(const std::string&)> recover;
};

std::string workload_dir(const std::string& name) {
  return (fs::temp_directory_path() /
          ("omptune_crash_" + name + "_" + std::to_string(::getpid())))
      .string();
}

void fresh_dir(const Workload& w, const std::string& dir) {
  fs::remove_all(dir);
  util::create_directories(dir);
  if (w.setup) w.setup(dir);
}

void default_recover(const Workload& w, const std::string& dir) {
  util::remove_stale_temp_files(dir);
  w.run(dir);
}

void recover(const Workload& w, const std::string& dir) {
  if (w.recover) {
    w.recover(dir);
  } else {
    default_recover(w, dir);
  }
}

/// Count the hooked ops of one uninterrupted run (fault-free chaos hook).
std::uint64_t count_ops(const Workload& w, const std::string& dir) {
  fresh_dir(w, dir);
  sim::StorageChaos counter{sim::StorageFaultPlan{}};
  util::ScopedIoHooks scope(&counter);
  w.run(dir);
  return counter.ops_seen();
}

/// The full enumeration: golden run, then every sampled crash point in
/// clean and torn modes, then the errno-injection and short-write legs.
void torture(const Workload& w) {
  const std::string dir = workload_dir(w.name);

  const std::uint64_t total = count_ops(w, dir);
  ASSERT_GT(total, 0u) << w.name << ": workload performs no hooked I/O";

  fresh_dir(w, dir);
  w.run(dir);
  const std::map<std::string, std::string> golden = snapshot(dir);
  ASSERT_FALSE(golden.empty()) << w.name << ": golden run left no files";
  ASSERT_TRUE(stale_temps(dir).empty())
      << w.name << ": golden run left temp files";

  const std::vector<std::uint64_t> points =
      sampled_points(total, torture_budget());

  // -- crash legs: SIGKILL at op k, clean and torn ------------------------
  for (const bool torn : {false, true}) {
    for (const std::uint64_t k : points) {
      const std::string context = w.name + " crash_at_op=" +
                                  std::to_string(k) + "/" +
                                  std::to_string(total) +
                                  (torn ? " (torn)" : "");
      fresh_dir(w, dir);
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0) << context << ": fork failed";
      if (pid == 0) {
        // Child: arm the crash and run. Reaching either _Exit is a bug —
        // the k-th op must SIGKILL us first.
        sim::StorageFaultPlan plan;
        plan.crash_at_op = k;
        plan.torn_crash = torn;
        sim::StorageChaos chaos(plan);
        util::install_io_hooks(&chaos);
        try {
          w.run(dir);
        } catch (...) {
          std::_Exit(42);
        }
        std::_Exit(43);
      }
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid) << context;
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << context << ": child did not die at the crash point (status "
          << status << "; exit 42 = threw before it, 43 = ran past it)";

      try {
        recover(w, dir);
      } catch (const std::exception& error) {
        FAIL() << context << ": recovery threw: " << error.what();
      }
      const std::map<std::string, std::string> recovered = snapshot(dir);
      ASSERT_EQ(recovered, golden)
          << context << ": recovered state diverges from golden\n"
          << describe_diff(golden, recovered);
      const std::vector<std::string> temps = stale_temps(dir);
      ASSERT_TRUE(temps.empty())
          << context << ": stale temp survived recovery: " << temps.front();
    }
  }

  // -- errno-injection legs: typed failure or documented degradation ------
  struct ErrnoLeg {
    int error_number;
    const char* label;
    std::size_t stride;  // sample every stride-th point
  };
  for (const ErrnoLeg leg : {ErrnoLeg{ENOSPC, "ENOSPC", 1},
                             ErrnoLeg{EIO, "EIO", 3}}) {
    for (std::size_t i = 0; i < points.size(); i += leg.stride) {
      const std::uint64_t k = points[i];
      const std::string context = w.name + " " + leg.label + " at_op=" +
                                  std::to_string(k);
      fresh_dir(w, dir);
      sim::StorageFaultPlan plan;
      plan.fail_at_op = k;
      plan.fail_errno = leg.error_number;
      sim::StorageChaos chaos(plan);
      {
        util::ScopedIoHooks scope(&chaos);
        try {
          w.run(dir);  // completing under degradation is acceptable
        } catch (const util::TuneError&) {
          // Typed failure is the contract; anything else escapes and
          // fails the test.
        }
      }
      try {
        recover(w, dir);
      } catch (const std::exception& error) {
        FAIL() << context << ": recovery threw: " << error.what();
      }
      const std::map<std::string, std::string> recovered = snapshot(dir);
      ASSERT_EQ(recovered, golden)
          << context << ": recovery diverges from golden\n"
          << describe_diff(golden, recovered);
    }
  }

  // -- short-write leg: the fs write loops must finish the job ------------
  for (std::size_t i = 0; i < points.size(); i += 3) {
    const std::uint64_t k = points[i];
    const std::string context =
        w.name + " short_write_at_op=" + std::to_string(k);
    fresh_dir(w, dir);
    sim::StorageFaultPlan plan;
    plan.short_write_at_op = k;
    sim::StorageChaos chaos(plan);
    {
      util::ScopedIoHooks scope(&chaos);
      try {
        w.run(dir);
      } catch (const std::exception& error) {
        FAIL() << context << ": a short write must be transparent, got: "
               << error.what();
      }
    }
    const std::map<std::string, std::string> got = snapshot(dir);
    ASSERT_EQ(got, golden) << context << ": short write changed the output\n"
                           << describe_diff(golden, got);
  }

  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Deterministic dataset builders (per-setting seeds derive from setting
// keys, so the same seed always yields the same bytes).

sweep::Dataset small_dataset(std::uint64_t seed) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 2, seed);
  return harness.run_study(sweep::StudyPlan::mini_plan(1, 2));
}

// ---------------------------------------------------------------------------
// Workload 1: journal append + compact (write-ahead study journal).

Workload journal_workload() {
  Workload w;
  w.name = "journal";
  w.run = [](const std::string& dir) {
    sim::ModelRunner runner;
    sweep::SweepHarness harness(runner, 2, 7);
    sweep::StudyRunOptions options;
    options.journal_dir = util::path_join(dir, "journal");
    options.resume = true;  // a crashed run resumes what the journal holds
    harness.run_study(sweep::StudyPlan::mini_plan(1, 3), options);
    sweep::StudyJournal journal(util::path_join(dir, "journal"));
    journal.compact(util::path_join(dir, "out.omps"));
  };
  w.recover = [w_run = w.run](const std::string& dir) {
    // Atomicity: a published compact output always loads.
    const std::string out = util::path_join(dir, "out.omps");
    if (util::file_exists(out)) sweep::Dataset::load_store(out);
    util::remove_stale_temp_files(dir);
    w_run(dir);
  };
  return w;
}

// ---------------------------------------------------------------------------
// Workload 2: store save (the atomic .omps publish).

Workload store_workload() {
  Workload w;
  w.name = "store";
  w.run = [](const std::string& dir) {
    small_dataset(11).save_store(util::path_join(dir, "data.omps"));
  };
  w.recover = [w_run = w.run](const std::string& dir) {
    // Atomicity: if the target exists at all, it is a complete store.
    const std::string path = util::path_join(dir, "data.omps");
    if (util::file_exists(path)) sweep::Dataset::load_store(path);
    util::remove_stale_temp_files(dir);
    w_run(dir);
  };
  return w;
}

// ---------------------------------------------------------------------------
// Workload 3: store compaction (one streaming merge of 4 stores + atomic
// publish).

Workload compact_workload() {
  Workload w;
  w.name = "compact";
  w.setup = [](const std::string& dir) {
    util::create_directories(util::path_join(dir, "in"));
    for (std::uint64_t i = 0; i < 4; ++i) {
      small_dataset(100 + i).save_store(
          util::path_join(dir, "in/s" + std::to_string(i) + ".omps"));
    }
  };
  w.run = [](const std::string& dir) {
    std::vector<std::string> inputs;
    for (std::uint64_t i = 0; i < 4; ++i) {
      inputs.push_back(
          util::path_join(dir, "in/s" + std::to_string(i) + ".omps"));
    }
    store::compact(inputs, util::path_join(dir, "merged.omps"));
  };
  w.recover = [w_run = w.run](const std::string& dir) {
    const std::string merged = util::path_join(dir, "merged.omps");
    if (util::file_exists(merged)) sweep::Dataset::load_store(merged);
    util::remove_stale_temp_files(dir);
    w_run(dir);
  };
  return w;
}

// ---------------------------------------------------------------------------
// Workload 4: lease-table WAL (atomic checkpoint per transition). The
// recovery invariant is the strongest of the set: the state file on disk
// is byte-identical to SOME checkpoint of the transition sequence — never
// a tear, never a blend of two checkpoints.

const char kLeaseHeader[] = "torture-lease v1";

/// The checkpoint sequence, pure in-memory: returns every state-file
/// content the workload persists, in order.
std::vector<std::string> lease_checkpoints() {
  std::vector<std::string> checkpoints;
  sweep::LeaseTable table(4);
  const auto checkpoint = [&] {
    checkpoints.push_back(std::string(kLeaseHeader) + "\n" +
                          table.serialize());
  };
  table.at(0).state = sweep::ShardState::Leased;
  checkpoint();
  table.at(0).state = sweep::ShardState::Completed;
  checkpoint();
  table.at(1).state = sweep::ShardState::Leased;
  checkpoint();
  table.at(1).state = sweep::ShardState::Pending;
  table.at(1).attempts = 1;
  table.at(1).evidence = "worker died";
  checkpoint();
  table.at(1).state = sweep::ShardState::Leased;
  checkpoint();
  table.at(1).state = sweep::ShardState::Completed;
  checkpoint();
  table.at(2).state = sweep::ShardState::Quarantined;
  table.at(2).attempts = 3;
  table.at(2).evidence = "spin crash";
  checkpoint();
  table.at(3).state = sweep::ShardState::Completed;
  checkpoint();
  return checkpoints;
}

Workload lease_workload() {
  Workload w;
  w.name = "lease";
  w.run = [](const std::string& dir) {
    const std::string state = util::path_join(dir, "lease.state");
    for (const std::string& checkpoint : lease_checkpoints()) {
      util::atomic_write_file(state, checkpoint);
    }
  };
  w.recover = [w_run = w.run](const std::string& dir) {
    const std::string state = util::path_join(dir, "lease.state");
    if (const std::optional<std::string> text = util::read_file(state)) {
      // Parse must succeed...
      const std::size_t nl = text->find('\n');
      if (nl == std::string::npos ||
          text->substr(0, nl) != kLeaseHeader) {
        throw std::runtime_error("lease state header torn: " + *text);
      }
      sweep::LeaseTable::parse(text->substr(nl + 1));
      // ...and the bytes must be exactly some checkpoint of the sequence.
      const std::vector<std::string> checkpoints = lease_checkpoints();
      if (std::find(checkpoints.begin(), checkpoints.end(), *text) ==
          checkpoints.end()) {
        throw std::runtime_error(
            "lease state is not any checkpoint of the sequence: " + *text);
      }
    }
    util::remove_stale_temp_files(dir);
    w_run(dir);
  };
  return w;
}

// ---------------------------------------------------------------------------
// Workload 5: coordinator-style WAL checkpoint + shard stores + resume
// reconciliation — the miniature of sweep::Coordinator's protocol: lease a
// shard (checkpoint), publish its store, complete it (checkpoint); on
// re-entry adopt whatever valid stores and checkpoints survived.

const char kCoordHeader[] = "torture-coordinator v1 shards=3";

Workload coordinator_workload() {
  Workload w;
  w.name = "coordinator";
  w.run = [](const std::string& dir) {
    const std::string state = util::path_join(dir, "coordinator.state");
    const std::string shards = util::path_join(dir, "shards");
    util::create_directories(shards);

    sweep::LeaseTable table(3);
    if (const std::optional<std::string> text = util::read_file(state)) {
      const std::size_t nl = text->find('\n');
      if (nl != std::string::npos && text->substr(0, nl) == kCoordHeader) {
        table = sweep::LeaseTable::parse(text->substr(nl + 1));
      }
    }
    const auto save_state = [&] {
      util::atomic_write_file(state,
                              std::string(kCoordHeader) + "\n" +
                                  table.serialize());
    };
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::string store_path =
          util::path_join(shards, "s" + std::to_string(i) + ".omps");
      bool store_valid = false;
      if (util::file_exists(store_path)) {
        try {
          sweep::Dataset::load_store(store_path);
          store_valid = true;
        } catch (const util::DataCorruptionError&) {
          util::remove_file(store_path);  // cannot happen if publish is atomic
        }
      }
      if (table.at(i).state == sweep::ShardState::Completed && store_valid) {
        continue;  // resumed: the WAL and the store agree
      }
      table.at(i).state = sweep::ShardState::Leased;
      save_state();
      if (!store_valid) small_dataset(200 + i).save_store(store_path);
      table.at(i).state = sweep::ShardState::Completed;
      save_state();
    }
  };
  w.recover = [w_run = w.run](const std::string& dir) {
    // The WAL, whenever present, must parse — resume never guesses.
    const std::string state = util::path_join(dir, "coordinator.state");
    if (const std::optional<std::string> text = util::read_file(state)) {
      const std::size_t nl = text->find('\n');
      if (nl == std::string::npos || text->substr(0, nl) != kCoordHeader) {
        throw std::runtime_error("coordinator WAL header torn: " + *text);
      }
      sweep::LeaseTable::parse(text->substr(nl + 1));
    }
    util::remove_stale_temp_files(dir);
    util::remove_stale_temp_files(util::path_join(dir, "shards"));
    w_run(dir);
  };
  return w;
}

// ---------------------------------------------------------------------------
// Workload 6: durable incident log — append-only with tear-repair and
// size-capped rotation. Appends may tear mid-line by design; recovery
// truncates the torn tail and re-appends exactly the missing lines.

Workload incident_log_workload() {
  Workload w;
  w.name = "incidentlog";
  w.run = [](const std::string& dir) {
    const std::string log = util::path_join(dir, "incidents.log");
    util::repair_appended_log(log);
    // 30-byte lines against a 100-byte cap: rotation fires exactly before
    // the fourth line, in the golden run and in every resumed one.
    std::vector<std::string> lines;
    for (int i = 0; i < 5; ++i) {
      lines.push_back("incident-" + std::to_string(i) + " " +
                      std::string(19, static_cast<char>('a' + i)));
    }
    std::set<std::string> present;
    for (const std::string& path : {log + ".1", log}) {
      if (const std::optional<std::string> text = util::read_file(path)) {
        std::size_t start = 0;
        while (start < text->size()) {
          const std::size_t nl = text->find('\n', start);
          if (nl == std::string::npos) break;
          present.insert(text->substr(start, nl - start));
          start = nl + 1;
        }
      }
    }
    for (const std::string& line : lines) {
      if (present.count(line) != 0) continue;
      util::append_line_durable(log, line, /*rotate_at_bytes=*/100);
    }
  };
  // Default recovery (sweep + re-run) is exactly the contract: run()
  // already repairs the torn tail and appends only what is missing.
  return w;
}

// ---------------------------------------------------------------------------

TEST(CrashConsistency, JournalAppendAndCompact) { torture(journal_workload()); }

TEST(CrashConsistency, StoreSaveIsAtomic) { torture(store_workload()); }

TEST(CrashConsistency, StoreCompaction) { torture(compact_workload()); }

TEST(CrashConsistency, LeaseTableWal) { torture(lease_workload()); }

TEST(CrashConsistency, CoordinatorWalCheckpointResume) {
  torture(coordinator_workload());
}

TEST(CrashConsistency, IncidentLogAppendAndRotate) {
  torture(incident_log_workload());
}

}  // namespace
}  // namespace omptune

int main(int argc, char** argv) {
  // --torture-budget=N (0 = exhaustive) mirrors OMPTUNE_TORTURE_BUDGET for
  // CI command lines; strip it before gtest sees the argv.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--torture-budget=";
    if (arg.rfind(prefix, 0) == 0) {
      ::setenv("OMPTUNE_TORTURE_BUDGET", arg.c_str() + prefix.size(), 1);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
