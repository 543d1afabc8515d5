#include "sweep/coordinator.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "arch/cpu_arch.hpp"
#include "store/compact.hpp"
#include "store/reader.hpp"
#include "sweep/fleet.hpp"
#include "sweep/journal.hpp"
#include "sweep/sharding.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace omptune::sweep {

namespace {

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

std::size_t plan_sample_count(const StudyPlan& plan) {
  std::size_t total = 0;
  for (const ArchPlan& arch_plan : plan.arch_plans) {
    total += arch_plan.total_samples();
  }
  return total;
}

std::string shard_key_name(std::size_t shard) {
  return "shard-" + std::to_string(shard);
}

// ---- host agent (child process) ---------------------------------------------

/// Shave the tail off a published shard store: the "lying host" fault —
/// the store is torn on disk, yet the agent still reports `done`.
void truncate_store_tail(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return;
  const off_t new_size = st.st_size / 2;
  [[maybe_unused]] const int rc = ::truncate(path.c_str(), new_size);
}

/// One collection pass over a leased shard. Runs the journaled resilient
/// study for the shard's slice of the plan (resuming whatever a previous
/// holder journaled), compacts the journal into the shard's .omps store
/// (atomic replace), and applies the shard-level chaos fault drawn for this
/// (shard, attempt). Returns the shard's sample count for `done`.
std::uint64_t collect_shard(LeaseLink& link, sim::Runner& runner,
                            const CoordinatorOptions& options,
                            const StudyPlan& slice, const std::string& work_dir,
                            std::size_t shard, int attempt) {
  const sim::ChaosMonkey monkey(options.chaos);

  sim::ShardFault fault =
      monkey.draw_shard_fault(shard_key_name(shard), attempt);
  bool sticky = false;
  if (!options.chaos.sticky_kill_substr.empty()) {
    // A shard holding a poisonous setting kills its holder on EVERY
    // attempt — the deterministic path that must end in shard quarantine.
    for (const SettingTask& task : flatten_plan(slice)) {
      if (task.key.find(options.chaos.sticky_kill_substr) != std::string::npos) {
        fault = sim::ShardFault::KillHolder;
        sticky = true;
        break;
      }
    }
  }

  // Kill/stall faults fire at a deterministic position in the shard's
  // sample stream, so a fault schedule reproduces exactly across runs. A
  // sticky (poisonous-shard) kill fires on the FIRST measured sample of
  // every attempt: journal progress must never let the shard slip past the
  // poison, or the attempt cap would not be reached.
  std::uint64_t trigger = sticky ? 1 : 0;
  if (!sticky && (fault == sim::ShardFault::KillHolder ||
                  fault == sim::ShardFault::StallHeartbeat)) {
    std::uint64_t h = util::hash_combine(
        options.chaos.seed, util::stable_hash("trigger/" + shard_key_name(shard)));
    h = util::hash_combine(h, static_cast<std::uint64_t>(attempt) + 1);
    const std::uint64_t span =
        std::max<std::uint64_t>(plan_sample_count(slice), 1);
    trigger = 1 + util::SplitMix64(h).next() % span;
  }

  SweepHarness harness(runner, options.repetitions, options.seed);
  std::uint64_t samples_in_shard = 0;
  harness.set_sample_observer([&] {
    if (trigger != 0 && ++samples_in_shard == trigger) {
      if (fault == sim::ShardFault::KillHolder) ::raise(SIGKILL);
      // StallHeartbeat: stay alive, stop all progress — only the
      // coordinator's liveness checks can reclaim the lease.
      for (;;) ::pause();
    }
    link.sample();
  });

  StudyRunOptions run_options;
  run_options.journal_dir =
      util::path_join(work_dir, "shardwork/s" + std::to_string(shard));
  // Always resume: a re-leased shard continues where its previous holder's
  // journal ends, never recollects finished settings.
  run_options.resume = true;
  run_options.resilient = options.resilient;
  run_options.resilience = options.resilience;
  const Dataset batch = harness.run_study(slice, run_options);

  const std::string store_path = util::path_join(
      work_dir, "shards/" + shard_key_name(shard) + ".omps");
  StudyJournal(run_options.journal_dir).compact(store_path);
  if (fault == sim::ShardFault::TruncateStore) {
    truncate_store_tail(store_path);
  }
  if (fault == sim::ShardFault::DuplicateDelivery) {
    link.send(protocol::format_done(shard, batch.size()));  // and again below
  }
  return batch.size();
}

}  // namespace

Coordinator::Coordinator(RunnerFactory make_runner, CoordinatorOptions options)
    : make_runner_(std::move(make_runner)), options_(std::move(options)) {
  if (!make_runner_) {
    throw std::invalid_argument("Coordinator: runner factory required");
  }
  if (options_.hosts < 1) {
    throw std::invalid_argument("Coordinator: hosts must be >= 1");
  }
  if (options_.max_shard_attempts < 1) {
    throw std::invalid_argument("Coordinator: max_shard_attempts must be >= 1");
  }
  if (options_.resume && options_.work_dir.empty()) {
    throw std::invalid_argument(
        "Coordinator: --resume requires a persistent work directory");
  }
}

const CoordinatorReport& Coordinator::run(const StudyPlan& plan,
                                          const std::string& store_path) {
  report_ = CoordinatorReport{};
  stop_requested_.store(false);

  const std::vector<SettingTask> tasks = flatten_plan(plan);
  if (tasks.empty()) {
    Dataset().save_store(store_path);
    report_.store_path = store_path;
    return report_;
  }
  // One guard from before the fleet until the store is published: a signal
  // drains the fleet, and one landing after it (in the final compaction)
  // lets the publish finish instead of killing it.
  const util::ShutdownSignalGuard signals;

  std::size_t shard_count = options_.shards != 0
                                ? options_.shards
                                : 2 * static_cast<std::size_t>(options_.hosts);
  shard_count = std::min(std::max<std::size_t>(shard_count, 1), tasks.size());
  report_.shards_total = shard_count;

  std::string work_dir = options_.work_dir;
  const bool private_dir = work_dir.empty();
  if (private_dir) work_dir = make_private_temp_dir("coordinator");
  report_.work_dir = work_dir;
  const std::string state_path = util::path_join(work_dir, "coordinator.state");
  const std::string shards_dir = util::path_join(work_dir, "shards");
  const std::string shardwork_root = util::path_join(work_dir, "shardwork");
  util::create_directories(shards_dir);
  util::create_directories(shardwork_root);

  const auto say = [&](const std::string& message) {
    if (options_.progress) options_.progress(message);
  };
  const auto shard_store_path = [&](std::size_t shard) {
    return util::path_join(shards_dir, shard_key_name(shard) + ".omps");
  };
  const auto shard_work_dir = [&](std::size_t shard) {
    return util::path_join(shardwork_root,
                           std::string("s").append(std::to_string(shard)));
  };

  // Per-shard plans (what a delivered store must hold) and the plan
  // fingerprint guarding --resume against a mismatched plan.
  std::vector<StudyPlan> shard_plans;
  for (std::size_t i = 0; i < shard_count; ++i) {
    shard_plans.push_back(shard_plan(plan, i, shard_count));
  }
  std::uint64_t plan_hash = 0x0c00d1a7e5eedULL;
  for (const SettingTask& task : tasks) {
    plan_hash = util::hash_combine(plan_hash, util::stable_hash(task.key));
    plan_hash = util::hash_combine(plan_hash, task.config_count);
  }
  const std::string header =
      "omptune-coordinator v1 plan=" + hex16(plan_hash) +
      " shards=" + std::to_string(shard_count) +
      " reps=" + std::to_string(options_.repetitions) +
      " seed=" + std::to_string(options_.seed);

  LeaseTable table(shard_count);
  bool wal_degraded_warned = false;
  const auto save_state = [&] {
    // Write-ahead: the state file always reflects the table BEFORE the
    // coordinator acts on a transition, so a kill at any point resumes to a
    // consistent view (atomic replace + dir fsync). A checkpoint lost to a
    // storage fault only degrades resume granularity (reconciliation
    // re-validates shard stores against an older table), so the run
    // continues; say so once.
    try {
      util::atomic_write_file(state_path, header + "\n" + table.serialize());
    } catch (const util::StorageError& error) {
      ++report_.wal_write_failures;
      if (!wal_degraded_warned) {
        wal_degraded_warned = true;
        say("coordinator WAL unwritable, continuing with degraded resume: " +
            std::string(error.what()));
      }
    }
  };

  /// Why a delivered shard store was refused.
  struct StoreFlaw {
    bool mismatch = false;  ///< valid store, wrong settings for its plan
    std::string reason;
  };
  /// nullopt when shard `i`'s store is a valid delivery of its shard plan.
  const auto validate_shard = [&](std::size_t i) -> std::optional<StoreFlaw> {
    try {
      const store::StoreReader delivered(shard_store_path(i));
      delivered.ensure_scan_validated();
      if (std::optional<std::string> reason =
              shard_store_mismatch(shard_plans[i], delivered)) {
        return StoreFlaw{true, std::move(*reason)};
      }
      return std::nullopt;
    } catch (const std::exception& error) {
      return StoreFlaw{false, error.what()};
    }
  };

  /// Deterministic all-quarantined placeholder store for a shard that
  /// exhausted its attempts; also the resume path for a Quarantined shard
  /// whose store did not survive.
  const auto write_quarantine_store = [&](std::size_t i) {
    const ShardLease& lease = table.at(i);
    const std::string full = shard_key_name(i) + " failed " +
                             std::to_string(lease.attempts) +
                             " collection attempts; last evidence: " +
                             lease.evidence;
    Dataset placeholder;
    for (const SettingTask& task : flatten_plan(shard_plans[i])) {
      placeholder.append(quarantined_setting_dataset(
          arch::architecture(task.arch), task.setting, task.config_count,
          options_.repetitions, options_.seed, full));
    }
    try {
      placeholder.save_store(shard_store_path(i));
    } catch (const util::StorageError& error) {
      // The shard stays parked as Quarantined in the lease table; a lenient
      // compaction skips the missing store and a resume re-synthesizes it.
      ++report_.quarantine_store_failures;
      say(shard_key_name(i) +
          " quarantine store unwritable (shard stays parked): " +
          std::string(error.what()));
    }
  };

  const auto strike_shard = [&](std::size_t i, const std::string& evidence) {
    ShardLease& lease = table.at(i);
    lease.state = ShardState::Pending;
    ++lease.attempts;
    lease.evidence = evidence;
    if (lease.attempts >= options_.max_shard_attempts) {
      // WAL first, store second: a kill between the two resumes as
      // Quarantined-with-bad-store and re-synthesizes deterministically.
      lease.state = ShardState::Quarantined;
      save_state();
      write_quarantine_store(i);
      remove_flat_dir(shard_work_dir(i));
      say(shard_key_name(i) + " quarantined after " +
          std::to_string(lease.attempts) + " attempts: " + evidence);
    } else {
      const std::int64_t delay = options_.backoff.next_delay_ms(
          options_.seed, shard_key_name(i), lease.attempts,
          lease.prev_delay_ms);
      lease.prev_delay_ms = delay;
      lease.eligible_at_ms = util::monotonic_ms() + delay;
      ++report_.re_leases;
      report_.backoff_ms_total += delay;
      save_state();
      say(shard_key_name(i) + " re-lease in " + std::to_string(delay) +
          "ms (attempt " + std::to_string(lease.attempts) + "): " + evidence);
    }
  };

  /// A delivered store that fails validation is a strike: the shard is
  /// recollected, or quarantined once its attempts run out.
  const auto reject_store = [&](std::size_t i, const StoreFlaw& flaw) {
    ++(flaw.mismatch ? report_.mismatched_stores : report_.truncated_stores);
    strike_shard(i, "delivered store failed validation: " + flaw.reason);
  };

  // -- startup: fresh wipe or resume reconciliation ---------------------------
  if (!options_.resume) {
    util::remove_file(state_path);
    for (const std::string& name : util::list_files(shards_dir)) {
      util::remove_file(util::path_join(shards_dir, name));
    }
    for (const std::string& sub : list_subdirs(shardwork_root)) {
      remove_flat_dir(util::path_join(shardwork_root, sub));
    }
  } else if (const std::optional<std::string> text = util::read_file(state_path)) {
    // A kill mid-atomic-write leaves "<target>.tmp.<pid>" orphans behind;
    // sweep them before reconciliation so they can never be mistaken for
    // deliveries and never accumulate across crash/resume cycles.
    util::remove_stale_temp_files(work_dir);
    util::remove_stale_temp_files(shards_dir);
    const std::size_t nl = text->find('\n');
    const std::string found_header =
        nl == std::string::npos ? *text : text->substr(0, nl);
    if (found_header != header) {
      throw std::invalid_argument(
          "Coordinator: " + state_path +
          " was written for a different plan/configuration (found '" +
          found_header + "', expected '" + header + "')");
    }
    LeaseTable persisted =
        LeaseTable::parse(nl == std::string::npos ? "" : text->substr(nl + 1));
    if (persisted.size() != shard_count) {
      throw std::invalid_argument(
          "Coordinator: " + state_path + " holds " +
          std::to_string(persisted.size()) + " shards, expected " +
          std::to_string(shard_count));
    }
    table = std::move(persisted);
    for (std::size_t i = 0; i < shard_count; ++i) {
      ShardLease& lease = table.at(i);
      if (lease.state == ShardState::Completed) {
        if (const std::optional<StoreFlaw> flaw = validate_shard(i)) {
          // The WAL promised a validated store but it does not hold up.
          reject_store(i, *flaw);
        } else {
          ++report_.shards_resumed;
          say(shard_key_name(i) + " resumed (completed)");
        }
      } else if (lease.state == ShardState::Quarantined) {
        if (validate_shard(i)) write_quarantine_store(i);
        ++report_.shards_resumed;
        say(shard_key_name(i) + " resumed (quarantined)");
      } else if (!validate_shard(i)) {
        // The agent published a full valid store but died (or the
        // coordinator did) before the WAL recorded the completion.
        lease.state = ShardState::Completed;
        ++report_.shards_resumed;
        say(shard_key_name(i) + " resumed (store adopted)");
      }
    }
    // Shardwork of settled shards is dead weight from an interrupted
    // completion; clear it so a fresh lease can never adopt stale entries.
    for (std::size_t i = 0; i < shard_count; ++i) {
      const ShardState state = table.at(i).state;
      if (state == ShardState::Completed || state == ShardState::Quarantined) {
        remove_flat_dir(shard_work_dir(i));
      }
    }
  }
  save_state();

  // -- agent fleet ------------------------------------------------------------
  const auto settled = [&] {
    return table.count(ShardState::Completed) +
           table.count(ShardState::Quarantined);
  };

  const auto complete_shard = [&](std::size_t i, const std::string& how) {
    table.at(i).state = ShardState::Completed;
    save_state();
    remove_flat_dir(shard_work_dir(i));
    say(shard_key_name(i) + " completed (" + how + ", " +
        std::to_string(plan_sample_count(shard_plans[i])) + " samples)");
  };

  FleetOptions fleet_options;
  fleet_options.name = "Coordinator";
  fleet_options.noun = "agents";
  fleet_options.slot_prefix = "h";
  fleet_options.processes = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(options_.hosts), shard_count - settled()));
  fleet_options.item_count = shard_count;
  fleet_options.heartbeat_timeout_ms = options_.heartbeat_timeout_ms;
  fleet_options.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  fleet_options.lease_ms = options_.lease_ttl_ms;
  fleet_options.respawn_backoff = options_.backoff;
  fleet_options.seed = options_.seed;

  FleetHooks hooks;
  hooks.child_main = [&](int, LeaseLink& link) {
    // Built once, before `ready`: a broken factory fails the handshake (and
    // trips the spawn-failure cap) instead of striking every shard.
    const std::unique_ptr<sim::Runner> runner = make_runner_();
    link.serve(shard_count, [&](const protocol::LeaseItem& item) {
      return collect_shard(link, *runner, options_,
                           shard_plans[item.task_index], work_dir,
                           item.task_index, item.attempt);
    });
  };
  hooks.next_lease = [&](int slot) -> std::vector<protocol::LeaseItem> {
    const std::optional<std::size_t> next =
        table.next_leasable(util::monotonic_ms());
    if (!next) return {};
    ShardLease& lease = table.at(*next);
    lease.state = ShardState::Leased;
    say(shard_key_name(*next) + " leased to h" + std::to_string(slot) +
        " (attempt " + std::to_string(lease.attempts) + ")");
    return {protocol::LeaseItem{*next, lease.attempts}};
  };
  hooks.on_done = [&](int slot, std::size_t i, std::uint64_t) {
    const ShardState state = table.at(i).state;
    if (state == ShardState::Completed || state == ShardState::Quarantined) {
      ++report_.duplicate_deliveries;
      say(shard_key_name(i) + " duplicate delivery ignored (h" +
          std::to_string(slot) + ")");
    } else if (const std::optional<StoreFlaw> flaw = validate_shard(i)) {
      reject_store(i, *flaw);
    } else {
      complete_shard(i, "delivered by h" + std::to_string(slot));
    }
  };
  hooks.on_death = [&](const FleetDeath& death) {
    for (const std::size_t i : death.leased) {
      if (table.at(i).state != ShardState::Leased) continue;
      if (!validate_shard(i)) {
        // Killed between store publish and `done`: the work is on disk and
        // valid — adopt it, exactly like the supervisor salvaging a dead
        // worker's journal.
        complete_shard(i, "salvaged from dead h" + std::to_string(death.slot));
      } else if (!death.clean && death.inflight == i) {
        strike_shard(i, death.evidence);
      } else {
        table.at(i).state = ShardState::Pending;  // never started: no strike
      }
    }
  };
  hooks.finished = [&] { return table.all_settled(); };
  hooks.pending = [&] { return table.count(ShardState::Pending) > 0; };
  hooks.on_interrupt = [&] {
    say("coordinator interrupted: draining agents (settled " +
        std::to_string(settled()) + "/" + std::to_string(shard_count) +
        " shards)");
  };

  Fleet fleet(std::move(fleet_options), std::move(hooks), stop_requested_,
              signals);
  report_.interrupted = fleet.run();
  const FleetCounters& counters = fleet.counters();
  report_.host_crashes = counters.crashes;
  report_.hang_kills = counters.hang_kills;
  report_.lease_expiries = counters.lease_expiries;
  report_.protocol_errors = counters.protocol_errors;
  report_.respawns = counters.respawns;

  // -- report + publish -------------------------------------------------------
  report_.shards_completed = settled();
  for (std::size_t i = 0; i < shard_count; ++i) {
    const ShardLease& lease = table.at(i);
    if (lease.state != ShardState::Quarantined) continue;
    QuarantinedShard entry;
    entry.shard = i;
    entry.attempts = lease.attempts;
    entry.evidence = lease.evidence;
    for (const SettingTask& task : flatten_plan(shard_plans[i])) {
      entry.setting_keys.push_back(task.key);
    }
    report_.quarantined_shards.push_back(std::move(entry));
  }

  if (report_.interrupted) {
    // The store is NOT published: an interrupted run must never overwrite a
    // complete one.
    say("resume with --dir=" + work_dir + " --resume");
    return report_;
  }

  std::vector<std::string> shard_paths;
  for (std::size_t i = 0; i < shard_count; ++i) {
    shard_paths.push_back(shard_store_path(i));
  }
  report_.compaction = store::compact(
      shard_paths, store_path, {options_.lenient, options_.progress});
  report_.store_path = store_path;

  if (private_dir) {
    util::remove_file(state_path);
    remove_flat_dir(shards_dir);
    for (const std::string& sub : list_subdirs(shardwork_root)) {
      remove_flat_dir(util::path_join(shardwork_root, sub));
    }
    ::rmdir(shardwork_root.c_str());
    ::rmdir(work_dir.c_str());
    report_.work_dir.clear();
  }
  return report_;
}

}  // namespace omptune::sweep
