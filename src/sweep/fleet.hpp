#pragma once

// The process fleet under both collection front-ends (DESIGN.md §9).
//
// StudySupervisor (§9) leases settings to forked workers; Coordinator (§11)
// leases shard manifests to forked host agents. Both run the same engine:
// Fleet forks a fixed pool of children, speaks the worker line protocol
// (sweep/worker.hpp) with each over two pipes, grants leases to idle ready
// children, and watches three liveness signals —
//
//   - death:   waitpid status (exit code / termination signal),
//   - silence: no message for heartbeat_timeout_ms from a child that owes
//              progress (not yet ready, holding a lease, or draining),
//   - stall:   a lease held past lease_ms, renewed on every `done`,
//
// killing the child on silence, stall or a garbled result stream. A dead
// child's pipe is drained first, so `done` lines written before death still
// count; the front-end then salvages what the child left on disk before any
// item is blamed. Replacements wait behind a per-slot backoff gate (a slot's
// consecutive deaths grow the delay; a `ready` handshake resets it), and
// more than kMaxSpawnFailures consecutive deaths before `ready` abort the
// run as a broken environment. SIGINT/SIGTERM or the caller's stop flag drain the
// fleet: every child is told to `exit`, finishes its in-flight item and says
// `bye`; a child still alive after the grace period is killed.
//
// What differs between the front-ends is policy, passed in as FleetHooks:
// which items are granted next, what `done` means, and what a death leaves
// behind. On the child side, LeaseLink::serve is the one lease-serving loop;
// the front-ends pass a per-item collector.

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sweep/lease.hpp"
#include "sweep/worker.hpp"
#include "util/process.hpp"

namespace omptune::sweep {

/// Children dying repeatedly before their `ready` handshake indicate a broken
/// environment (fork bomb guard), not a poisonous item.
constexpr int kMaxSpawnFailures = 5;

/// The child's end of the protocol: the command and result pipes plus the
/// shared heartbeat throttle. Every write failure means the parent is gone,
/// and the child exits quietly (_exit(0)).
class LeaseLink {
 public:
  LeaseLink(int command_fd, int result_fd, std::int64_t heartbeat_interval_ms);

  /// Count one measured sample; emits `hb <total>` at most once per
  /// heartbeat interval (a throttle riding on progress, not a timer).
  void sample();
  /// Write one formatted protocol line.
  void send(const std::string& line);
  int result_fd() const { return result_fd_; }

  /// Announce `ready`, then serve leases: `collect` runs each leased item
  /// between `start` and `done` and returns its sample count. A pending
  /// `exit` is honoured between items (the parent requeues the rest).
  /// Returns after answering `exit` with `bye`, or on the parent's EOF.
  void serve(std::size_t item_count,
             const std::function<std::uint64_t(const protocol::LeaseItem&)>&
                 collect);

 private:
  util::BlockingLineReader commands_;
  int result_fd_;
  std::int64_t heartbeat_interval_ms_;
  std::int64_t last_heartbeat_;
  std::uint64_t total_samples_ = 0;
};

struct FleetOptions {
  std::string name = "Fleet";   ///< prefixes error messages
  std::string noun = "children";  ///< "workers", "agents" in error messages
  std::string slot_prefix = "c";  ///< slot i is "<prefix><i>" in backoff keys
  int processes = 1;              ///< pool size
  std::size_t item_count = 0;     ///< valid task indices are [0, item_count)
  std::int64_t heartbeat_timeout_ms = 10000;  ///< 0 disables silence kills
  std::int64_t heartbeat_interval_ms = 25;    ///< child-side throttle
  std::int64_t lease_ms = 0;                  ///< 0 disables lease expiry
  BackoffPolicy respawn_backoff;
  std::uint64_t seed = 0;  ///< keys the respawn backoff draws
};

/// Engine-owned liveness tallies.
struct FleetCounters {
  std::size_t crashes = 0;          ///< unexpected deaths (not engine kills)
  std::size_t hang_kills = 0;       ///< heartbeat-silence kills
  std::size_t lease_expiries = 0;   ///< lease-deadline kills
  std::size_t protocol_errors = 0;  ///< garbled result streams
  std::size_t respawns = 0;         ///< children spawned beyond the pool
  std::size_t respawn_waits = 0;    ///< respawns gated behind backoff
  std::int64_t respawn_backoff_ms = 0;  ///< total scheduled backoff delay
};

/// What a reaped child leaves to its front-end.
struct FleetDeath {
  int slot = 0;
  std::deque<std::size_t> leased;      ///< granted, `done` not seen (in order)
  std::optional<std::size_t> inflight;  ///< `start` seen, `done` not
  bool clean = false;    ///< said `bye`, or exited 0 after `exit`
  std::string evidence;  ///< kill reason or decoded exit status
};

/// The front-end policy. Every hook runs in the parent except child_main.
struct FleetHooks {
  /// The child body. Builds what it measures with, then link.serve(...);
  /// an escaping exception exits the child with code 11.
  std::function<void(int slot, LeaseLink& link)> child_main;
  /// Items to grant an idle ready child; empty = nothing right now.
  std::function<std::vector<protocol::LeaseItem>(int slot)> next_lease;
  std::function<void(int slot, std::size_t item, std::uint64_t count)> on_done;
  std::function<void(const FleetDeath& death)> on_death;
  /// All work settled: drain the fleet.
  std::function<bool()> finished;
  /// Work waits for a process: dead slots are respawned.
  std::function<bool()> pending;
  /// The drain started before finished() (signal or stop flag). Optional.
  std::function<void()> on_interrupt;
};

class Fleet {
 public:
  /// `stop` is polled once per loop pass; setting it drains like SIGINT.
  Fleet(FleetOptions options, FleetHooks hooks, const std::atomic<bool>& stop);

  /// Run until finished() or a drain completes; true when interrupted.
  /// Throws std::runtime_error on fork failure or kMaxSpawnFailures; any
  /// exception kills and reaps every child first.
  bool run();

  const FleetCounters& counters() const { return counters_; }

 private:
  /// Parent-side handle on one forked child.
  struct Child {
    pid_t pid = -1;
    int slot = 0;
    util::Pipe cmd;  ///< parent keeps write_fd
    util::Pipe res;  ///< parent keeps read_fd
    util::LineReader reader{-1};
    bool ready = false;
    bool exit_sent = false;
    bool saw_bye = false;
    std::deque<std::size_t> leased;       ///< granted, `done` not yet seen
    std::optional<std::size_t> inflight;  ///< `start` seen, `done` not yet
    std::int64_t last_signal = 0;         ///< monotonic_ms of last message
    std::int64_t lease_deadline = 0;      ///< renewed on every `done`
    std::string kill_reason;  ///< set when the engine killed on purpose

    bool alive() const { return pid >= 0; }
  };
  /// Per-slot respawn pacing: consecutive deaths grow the backoff window,
  /// a completed `ready` handshake resets it.
  struct Gate {
    std::int64_t eligible_at = 0;  ///< monotonic_ms before which no respawn
    std::int64_t prev_delay = 0;   ///< decorrelated-jitter state
    int streak = 0;                ///< consecutive deaths without a handshake
  };

  Child spawn(int slot);
  bool process_lines(Child& child);
  void reap(Child& child, const util::ExitStatus& status);

  FleetOptions options_;
  FleetHooks hooks_;
  const std::atomic<bool>& stop_;
  FleetCounters counters_;
  std::vector<Child> pool_;
  std::vector<Gate> gates_;
  int spawn_failures_ = 0;
};

/// mkdtemp under $TMPDIR (or /tmp) named "omptune-<tag>-XXXXXX".
std::string make_private_temp_dir(const std::string& tag);
/// Subdirectories directly inside `dir`, sorted; empty if it does not exist.
std::vector<std::string> list_subdirs(const std::string& dir);
/// Remove a directory holding only regular files (a journal directory).
void remove_flat_dir(const std::string& dir);

}  // namespace omptune::sweep
