#pragma once

// Fault-tolerant multi-host sweep coordinator (DESIGN.md §11).
//
// The supervisor (§9) contains faults at the worker-process boundary on ONE
// machine; the coordinator contains them at the HOST boundary: it partitions
// the setting lattice into shard manifests (sweep/sharding) and leases one
// manifest at a time to each of N host agents — forked processes standing in
// for cluster nodes, run by the same process fleet as supervisor workers
// (sweep/fleet.hpp) with task_index = shard index. A struck shard is
// re-leased under exponential backoff with decorrelated jitter
// (sweep/lease), with an attempt cap after which the shard's settings are
// quarantined via the resilience taxonomy, exactly like a poisonous setting
// under the supervisor.
//
// Durability model, end to end:
//   - Agents collect through per-shard write-ahead journals (sweep/journal)
//     that survive agent death; a re-leased shard RESUMES, never restarts.
//   - A finished shard is published as a per-shard .omps store (atomic
//     replace), validated by the coordinator before the shard is marked
//     Completed: checksums, then its setting index against the shard plan
//     (sweep/sharding). A truncated, garbled or mismatched store is a
//     strike, not a result.
//   - The coordinator persists its own write-ahead state (lease table +
//     shard status, atomic_write_file) before acting on any transition, so
//     a coordinator killed at ANY point resumes with --resume.
//   - Completed shard stores merge in one streaming pass through
//     store/compact, validated in memory and published atomically. That
//     store is the run's only result: the coordinator assembles no Dataset.
// Because per-setting RNG seeds derive from setting identity, the final
// compacted store of a chaos-ridden, killed-and-resumed run is BYTE
// IDENTICAL to a fault-free run's — the property the tests and CI cmp.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault_runner.hpp"
#include "store/compact.hpp"
#include "sweep/harness.hpp"
#include "sweep/lease.hpp"
#include "sweep/worker.hpp"

namespace omptune::sweep {

struct CoordinatorOptions {
  /// Host agent processes; clamped to the shard count.
  int hosts = 2;
  /// Shard manifests to partition the plan into; 0 = 2 * hosts. Clamped to
  /// the number of settings. NOTE: the shard count shapes the row order of
  /// the published store (shards merge in shard order), so runs that must
  /// produce byte-identical stores must agree on it (host count is free to
  /// differ).
  std::size_t shards = 0;
  /// Coordinator working directory (write-ahead state, per-shard journals
  /// and stores). Empty = private temp directory, removed after a
  /// completed run — resumability then only spans agent deaths, not
  /// coordinator death.
  std::string work_dir;
  /// Resume from work_dir's write-ahead state (requires work_dir).
  bool resume = false;
  int repetitions = 4;
  std::uint64_t seed = 0x0417D5EEDull;
  /// Guard agent measurements with the retry/quarantine policy.
  bool resilient = true;
  ResilienceOptions resilience;
  /// Wall-clock budget for one leased shard. 0 disables lease expiry.
  std::int64_t lease_ttl_ms = 300000;
  /// An agent silent for this long is presumed wedged and killed. 0
  /// disables the check.
  std::int64_t heartbeat_timeout_ms = 10000;
  /// Agent heartbeat throttle (rides on sample completion).
  std::int64_t heartbeat_interval_ms = 25;
  /// Re-lease pacing for failed shards and respawn pacing for dead agents
  /// (decorrelated jitter).
  BackoffPolicy backoff;
  /// Failed collection attempts before a shard's settings are quarantined.
  int max_shard_attempts = 5;
  /// Let the final compaction skip (and name) shard stores it cannot
  /// open or validate instead of aborting.
  bool lenient = false;
  /// Host-level fault injection executed inside the agents.
  sim::ChaosSpec chaos;
  std::function<void(const std::string&)> progress;
};

/// Evidence trail of a shard that exhausted its attempt cap.
struct QuarantinedShard {
  std::size_t shard = 0;
  int attempts = 0;
  std::string evidence;                   ///< last failure description
  std::vector<std::string> setting_keys;  ///< settings quarantined with it
};

struct CoordinatorReport {
  std::size_t shards_total = 0;
  std::size_t shards_completed = 0;  ///< includes resumed + quarantined
  std::size_t shards_resumed = 0;    ///< adopted from a previous run's state
  std::size_t host_crashes = 0;      ///< unexpected agent deaths
  std::size_t hang_kills = 0;        ///< heartbeat-timeout reclaims
  std::size_t lease_expiries = 0;    ///< lease-TTL reclaims
  std::size_t protocol_errors = 0;   ///< garbled agent result streams
  /// Delivered stores that failed to open or validate.
  std::size_t truncated_stores = 0;
  /// Valid delivered stores not holding their shard plan's settings.
  std::size_t mismatched_stores = 0;
  std::size_t duplicate_deliveries = 0;  ///< done reports for settled shards
  std::size_t re_leases = 0;         ///< shards re-leased after a strike
  std::size_t respawns = 0;          ///< agents spawned beyond the pool
  std::int64_t backoff_ms_total = 0; ///< re-lease delay scheduled in total
  /// WAL checkpoints lost to storage faults (ENOSPC, EIO...). The run
  /// continues — a later --resume simply reconciles from an older
  /// checkpoint, re-validating shard stores — but resume granularity is
  /// degraded; warned once per run.
  std::size_t wal_write_failures = 0;
  /// Quarantine placeholder stores that could not be written. The shard
  /// stays quarantined in the report; a lenient compaction skips the
  /// missing store (compaction.skipped_inputs names it), and a resume
  /// re-synthesizes the placeholder.
  std::size_t quarantine_store_failures = 0;
  std::vector<QuarantinedShard> quarantined_shards;
  /// Final compaction tally: samples and quarantined samples published,
  /// and under lenient the shard stores skipped.
  store::CompactReport compaction;
  bool interrupted = false;          ///< stopped by signal / request_stop
  std::string work_dir;              ///< where coordinator state lives
  std::string store_path;            ///< the published compacted store
};

/// Runs a StudyPlan across a pool of forked host agents and publishes the
/// compacted .omps store at `store_path`. Single-shot: construct,
/// run(), read report().
class Coordinator {
 public:
  /// `make_runner` is invoked inside each host agent after fork.
  Coordinator(RunnerFactory make_runner, CoordinatorOptions options);

  /// Collect the plan and publish the compacted store; returns report().
  /// The store is only published on completion (see report().interrupted).
  /// Throws std::runtime_error if agents cannot be spawned or fail
  /// repeatedly before becoming ready; std::invalid_argument on option
  /// misuse or a resume-state fingerprint mismatch.
  const CoordinatorReport& run(const StudyPlan& plan,
                               const std::string& store_path);

  const CoordinatorReport& report() const { return report_; }
  const CoordinatorOptions& options() const { return options_; }

  /// Ask a running run() to stop as a SIGINT would (reclaim leases, keep
  /// all state, report interrupted). Safe to call from another thread.
  void request_stop() { stop_requested_.store(true); }

 private:
  RunnerFactory make_runner_;
  CoordinatorOptions options_;
  CoordinatorReport report_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace omptune::sweep
