#pragma once

// The fleet wire protocol, and the plan's leasable work units.
//
// Both collection front-ends run forked children over one process fleet
// (sweep/fleet.hpp) and speak this line protocol with them: the study
// supervisor (§9) leases settings to workers, with task index = position in
// flatten_plan; the coordinator (§11) leases shard manifests to host agents,
// with task index = shard number.
//
//   parent -> child           child -> parent
//   ------------------        -----------------------
//   lease N i:a i:a ...       ready
//   exit                      hb <total-samples>
//                             start <task-index>
//                             done <task-index> <samples>
//                             bye
//
// Each lease item is "<task index>:<attempt>", attempt being the number of
// failures already charged to that item — the chaos monkey keys its
// deterministic draws on it, so a re-leased item does not replay the exact
// fault that killed its previous owner. A child makes each item durable
// BEFORE reporting `done` (a worker journals the setting; an agent publishes
// the shard store), so results travel through crash-safe files and the pipe
// carries only control traffic. Heartbeats are progress signals emitted from
// the harness's sample observer, not from a timer thread: a wedged
// measurement stops the heartbeat stream, which is exactly what lets the
// parent tell a hung child from a slow one.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/executor.hpp"
#include "sweep/harness.hpp"

namespace omptune::sweep {

/// One unit of leasable work: a (architecture, setting) pair of the plan.
struct SettingTask {
  arch::ArchId arch;
  StudySetting setting;
  std::size_t config_count = 0;
  std::string key;  ///< setting_key(arch, setting) — journal + merge identity
};

/// The plan flattened to the supervisor's work-queue order (identical to
/// the single-process run_study iteration order, which is what makes the
/// assembled dataset byte-identical).
std::vector<SettingTask> flatten_plan(const StudyPlan& plan);

/// Creates the runner a child measures with. Invoked in the CHILD after
/// fork, once before `ready`, so stateful runners are never shared across
/// processes.
using RunnerFactory = std::function<std::unique_ptr<sim::Runner>()>;

// ---- wire protocol ----------------------------------------------------------
// Exposed so the fleet's two ends and the tests parse/format messages with
// the same code, and so garbled-input handling is unit-testable without
// forking anything.

namespace protocol {

struct LeaseItem {
  std::size_t task_index = 0;
  int attempt = 0;  ///< failures already charged to this item
};

struct Command {
  enum class Kind { Lease, Exit };
  Kind kind = Kind::Exit;
  std::vector<LeaseItem> items;  ///< Lease only
};

struct WorkerMessage {
  enum class Kind { Ready, Heartbeat, Start, Done, Bye };
  Kind kind = Kind::Ready;
  std::size_t task_index = 0;  ///< Start/Done
  std::uint64_t count = 0;     ///< Heartbeat: total samples; Done: samples
};

std::string format_lease(const std::vector<LeaseItem>& items);
std::string format_exit();
std::string format_ready();
std::string format_heartbeat(std::uint64_t total_samples);
std::string format_start(std::size_t task_index);
std::string format_done(std::size_t task_index, std::uint64_t samples);
std::string format_bye();

/// nullopt on anything that is not a well-formed message — the caller
/// treats that as a protocol violation, never as something to guess about.
std::optional<Command> parse_command(const std::string& line,
                                     std::size_t task_count);
std::optional<WorkerMessage> parse_worker_message(const std::string& line,
                                                  std::size_t task_count);

}  // namespace protocol

}  // namespace omptune::sweep
