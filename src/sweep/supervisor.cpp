#include "sweep/supervisor.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>

#include "arch/cpu_arch.hpp"
#include "sweep/fleet.hpp"
#include "sweep/journal.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace omptune::sweep {

namespace {

enum class TaskState { Queued, Done };

/// Settings per lease: enough to amortize a round trip, few enough that a
/// reclaimed lease rebalances quickly.
constexpr std::size_t kSettingsPerLease = 2;
/// Wall-clock budget of a lease, renewed on every completed setting.
constexpr std::int64_t kLeaseMs = 300000;

[[noreturn]] void apply_chaos(sim::ChaosAction action, int result_fd) {
  switch (action) {
    case sim::ChaosAction::Kill:
      ::raise(SIGKILL);
      break;
    case sim::ChaosAction::Segv:
      ::raise(SIGSEGV);
      break;
    case sim::ChaosAction::Wedge:
      // Stop making progress but stay alive: heartbeats cease, the pipe
      // stays open — only the supervisor's liveness checks can reap us.
      for (;;) ::pause();
    case sim::ChaosAction::Garble: {
      util::write_all(result_fd, "\x01\x02 this is not the protocol \xff\n");
      // Keep "working": the supervisor must kill us on the garbage, we
      // must not conveniently exit on our own.
      for (;;) ::pause();
    }
    case sim::ChaosAction::None:
      break;
  }
  // raise(SIGKILL/SIGSEGV) does not return control here under normal
  // delivery; if a sanitizer or blocked signal interferes, die loudly.
  ::_exit(13);
}

/// The setting worker: measures each leased setting and records it into
/// the study journal BEFORE `done` — the report is a promise that the entry
/// is durably on disk. `journal` is the supervisor's, inherited through
/// fork: a worker must not build its own, whose constructor would sweep a
/// sibling's in-flight temp file.
void collect_settings(LeaseLink& link, const StudyJournal& journal,
                      const std::vector<SettingTask>& tasks,
                      const SupervisorOptions& options,
                      const RunnerFactory& make_runner) {
  const std::unique_ptr<sim::Runner> runner = make_runner();
  SweepHarness harness(*runner, options.repetitions, options.seed);
  std::unique_ptr<ResiliencePolicy> policy;
  if (options.resilient) {
    policy = std::make_unique<ResiliencePolicy>(options.resilience);
  }
  const sim::ChaosMonkey monkey(options.chaos);
  // The in-flight setting and how far along it is, for deterministic chaos.
  const protocol::LeaseItem* current = nullptr;
  std::uint64_t samples_in_setting = 0;
  harness.set_sample_observer([&] {
    const sim::ChaosAction action = monkey.draw(
        tasks[current->task_index].key, current->attempt, ++samples_in_setting);
    if (action != sim::ChaosAction::None) apply_chaos(action, link.result_fd());
    link.sample();
  });
  link.serve(tasks.size(), [&](const protocol::LeaseItem& item) {
    current = &item;
    samples_in_setting = 0;
    const SettingTask& task = tasks[item.task_index];
    const Dataset batch =
        harness.run_setting(arch::architecture(task.arch), task.setting,
                            task.config_count, policy.get());
    journal.record(task.key, batch);
    return static_cast<std::uint64_t>(batch.size());
  });
}

}  // namespace

StudySupervisor::StudySupervisor(RunnerFactory make_runner,
                                 SupervisorOptions options)
    : make_runner_(std::move(make_runner)), options_(std::move(options)) {
  if (!make_runner_) {
    throw std::invalid_argument("StudySupervisor: runner factory required");
  }
  if (options_.workers < 1) {
    throw std::invalid_argument("StudySupervisor: workers must be >= 1");
  }
}

Dataset StudySupervisor::run(const StudyPlan& plan) {
  report_ = SupervisorReport{};
  stop_requested_.store(false);

  const std::vector<SettingTask> tasks = flatten_plan(plan);
  report_.settings_total = tasks.size();
  if (tasks.empty()) return Dataset{};
  // One guard from before the fleet until the dataset is assembled: a
  // signal drains the fleet, and one landing after it lets the assembly
  // finish instead of killing it.
  const util::ShutdownSignalGuard signals;

  std::string journal_dir = options_.journal_dir;
  const bool private_dir = journal_dir.empty();
  if (private_dir) journal_dir = make_private_temp_dir("supervisor");
  report_.journal_dir = journal_dir;
  // Built once, before the first fork: its constructor sweeps stale temp
  // files, which must never race a worker's write.
  const StudyJournal journal(journal_dir);

  const auto say = [&](const std::string& message) {
    if (options_.progress) options_.progress(message);
  };

  std::vector<TaskState> state(tasks.size(), TaskState::Queued);
  std::vector<int> crashes(tasks.size(), 0);
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SettingTask& task = tasks[i];
    if (journal.discard_legacy(task.key)) {
      say(task.key + " legacy CSV journal entry discarded, recollecting");
    }
    if (options_.resume && journal.contains(task.key)) {
      try {
        journal.load(task.key, task.config_count);  // validate before trusting
        state[i] = TaskState::Done;
        ++report_.settings_resumed;
        ++report_.settings_completed;
        say(task.key + " resumed from journal");
        continue;
      } catch (const util::DataCorruptionError& error) {
        journal.discard(task.key);
        say(task.key + " journal entry invalid, recollecting (" + error.what() +
            ")");
      }
    } else if (!options_.resume) {
      journal.discard(task.key);  // a stale entry must not merge into this run
    }
    queue.push_back(i);
  }

  const auto mark_done = [&](std::size_t idx) {
    state[idx] = TaskState::Done;
    ++report_.settings_completed;
  };

  const auto quarantine_task = [&](std::size_t idx,
                                   const std::string& evidence) {
    const SettingTask& task = tasks[idx];
    const std::string full = "crashed " + std::to_string(crashes[idx]) +
                             " worker processes; last evidence: " + evidence;
    journal.record(task.key, quarantined_setting_dataset(
                                 arch::architecture(task.arch), task.setting,
                                 task.config_count, options_.repetitions,
                                 options_.seed, full));
    mark_done(idx);
    report_.quarantined_settings.push_back(
        SupervisedQuarantine{task.key, crashes[idx], evidence});
    say(task.key + " quarantined: " + full);
  };

  // -- worker fleet -----------------------------------------------------------
  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(options_.workers), queue.size()));

  FleetOptions fleet_options;
  fleet_options.name = "StudySupervisor";
  fleet_options.noun = "workers";
  fleet_options.slot_prefix = "w";
  fleet_options.processes = workers;
  fleet_options.item_count = tasks.size();
  fleet_options.heartbeat_timeout_ms = options_.heartbeat_timeout_ms;
  fleet_options.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  fleet_options.lease_ms = kLeaseMs;
  fleet_options.respawn_backoff = options_.respawn_backoff;
  fleet_options.seed = options_.seed;

  FleetHooks hooks;
  hooks.child_main = [&](int, LeaseLink& link) {
    collect_settings(link, journal, tasks, options_, make_runner_);
  };
  hooks.next_lease = [&](int) {
    std::vector<protocol::LeaseItem> items;
    while (!queue.empty() && items.size() < kSettingsPerLease) {
      const std::size_t idx = queue.front();
      queue.pop_front();
      if (state[idx] != TaskState::Done) {
        items.push_back(protocol::LeaseItem{idx, crashes[idx]});
      }
    }
    return items;
  };
  hooks.on_done = [&](int slot, std::size_t idx, std::uint64_t count) {
    if (state[idx] != TaskState::Done) mark_done(idx);
    say(tasks[idx].key + " -> " + std::to_string(count) + " samples (w" +
        std::to_string(slot) + ")");
  };
  hooks.on_death = [&](const FleetDeath& death) {
    // Salvage before blame: the journal may hold an entry the worker
    // recorded but whose `done` never made it out (killed between record
    // and report). Only the in-flight setting of an unclean death is
    // charged; the untouched rest of the lease goes back to the queue
    // without a strike.
    std::optional<std::size_t> blamed;
    std::vector<std::size_t> requeue;
    for (const std::size_t idx : death.leased) {
      if (state[idx] == TaskState::Done) continue;
      if (journal.contains(tasks[idx].key)) {
        mark_done(idx);
        say(tasks[idx].key + " salvaged from dead worker w" +
            std::to_string(death.slot));
      } else if (!death.clean && death.inflight == idx) {
        blamed = idx;
      } else {
        requeue.push_back(idx);
      }
    }
    for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
      queue.push_front(*it);
      ++report_.reassigned_settings;
    }
    if (!blamed) return;
    ++crashes[*blamed];
    if (crashes[*blamed] >= options_.max_setting_crashes) {
      quarantine_task(*blamed, death.evidence);
    } else {
      queue.push_front(*blamed);
      ++report_.reassigned_settings;
      say(tasks[*blamed].key + " reassigned (attempt " +
          std::to_string(crashes[*blamed]) + "): " + death.evidence);
    }
  };
  hooks.finished = [&] {
    return report_.settings_completed == report_.settings_total;
  };
  hooks.pending = [&] { return !queue.empty(); };
  hooks.on_interrupt = [&] {
    say("study interrupted: draining workers (completed " +
        std::to_string(report_.settings_completed) + "/" +
        std::to_string(report_.settings_total) + ")");
  };

  Fleet fleet(std::move(fleet_options), std::move(hooks), stop_requested_,
              signals);
  report_.interrupted = fleet.run();
  const FleetCounters& counters = fleet.counters();
  report_.worker_crashes = counters.crashes;
  report_.hang_kills = counters.hang_kills;
  report_.lease_expiries = counters.lease_expiries;
  report_.protocol_errors = counters.protocol_errors;
  report_.respawns = counters.respawns;
  report_.respawn_waits = counters.respawn_waits;
  report_.respawn_backoff_ms = counters.respawn_backoff_ms;
  // Every child is reaped: a temp file left now belongs to a worker killed
  // mid-write and can never be renamed into an entry.
  util::remove_stale_temp_files(journal_dir);

  // -- assembly ---------------------------------------------------------------
  // Tasks are loaded in flatten_plan order — the single-process run_study
  // iteration order — which is what makes the assembled dataset (and any
  // compacted store built from the journal) byte-identical to an
  // undisturbed run.
  Dataset dataset;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (state[i] != TaskState::Done) continue;
    dataset.append(journal.load(tasks[i].key, tasks[i].config_count));
  }

  if (report_.interrupted) {
    say("resume with --journal=" + journal_dir + " --resume");
  } else if (private_dir) {
    remove_flat_dir(journal_dir);
    report_.journal_dir.clear();
  }
  return dataset;
}

}  // namespace omptune::sweep
