#pragma once

// serve::Keeper — the self-healing wrapper around the recommendation
// server (DESIGN.md §13). The Keeper forks the server as a child process
// and watches it over a heartbeat pipe:
//
//   keeper ──fork──▶ server child (loads, binds the socket, serves)
//          ◀──pipe── "boot" every heartbeat_interval_ms while it loads
//                    "hb" every heartbeat_interval_ms once it serves
//                    "gen <g>\t<shard>..." at boot and after every swap
//
// Three failure modes, one recovery path:
//   crash  — the child is reaped (EOF on the pipe, waitpid says signaled
//            or nonzero exit),
//   hang   — the pipe stays silent past hang_timeout_ms (the IO loop is
//            wedged even though the process lives): the Keeper SIGKILLs it,
//   both   — append a cause line to the write-ahead incident log (durable
//            BEFORE the restart, so a crash loop is diagnosable even if the
//            Keeper itself dies), wait out a decorrelated-jitter backoff
//            delay (util::BackoffPolicy — the same schedule as sweep worker
//            respawns), then fork a replacement onto the SAME socket path.
//
// The replacement serves the last-known-good shard set: every "gen" line
// updates the Keeper's record, so a hot-swap that landed before a crash is
// what the restarted server boots from — a swap is never silently rolled
// back by a restart.
//
// A child that exits 0 drained deliberately (wire Shutdown); the Keeper
// treats that as "the operator asked us to stop" and exits 0 itself.

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "util/backoff.hpp"
#include "util/process.hpp"

namespace omptune::serve {

struct KeeperOptions {
  /// Template for every server incarnation. socket_path is required;
  /// heartbeat_fd / heartbeat_interval_ms / handle_signals are overwritten
  /// by the Keeper per child.
  ServerOptions server;
  /// Shard set the FIRST child boots from; later incarnations boot from
  /// whatever "gen" line the pipe last reported (last-known-good).
  std::vector<std::string> store_paths;
  /// Child heartbeat cadence; the hang detector needs several missed
  /// beats before it fires.
  std::int64_t heartbeat_interval_ms = 200;
  /// Silence on the heartbeat pipe past this marks the child wedged.
  /// Must comfortably exceed the longest legitimate poll-round (a huge
  /// batch keeps the IO thread busy and silent; snapshot builds, at boot
  /// or for a swap, do not silence it).
  std::int64_t hang_timeout_ms = 2000;
  /// Delay schedule between restarts.
  util::BackoffPolicy restart_backoff{/*base_ms=*/100, /*max_ms=*/5000};
  std::uint64_t seed = 0;
  /// A child that survives this long resets the backoff streak (the
  /// supervisor notion of "it was actually healthy, the next crash is a
  /// fresh incident, not a boot loop").
  std::int64_t stable_after_ms = 10000;
  /// Give up after this many restarts without reaching stability; < 0
  /// restarts forever. The CLI default is forever; tests bound it.
  int max_restarts = -1;
  /// Write-ahead incident log: one appended line per crash/hang, fsynced
  /// before the restart happens. "" disables.
  std::string incident_log_path;
  /// Rotate the incident log (rename to "<path>.1") once it would exceed
  /// this many bytes, bounding a crash loop's disk footprint to roughly
  /// twice the cap. 0 disables rotation.
  std::uint64_t incident_log_max_bytes = 1 << 20;
  /// Current child pid, rewritten atomically after every (re)spawn.
  /// "" disables.
  std::string pid_file;
  std::function<void(const std::string&)> log;
};

struct KeeperCounters {
  std::uint64_t spawns = 0;      ///< children forked (first boot included)
  std::uint64_t restarts = 0;    ///< spawns - 1, but only after failures
  std::uint64_t crashes = 0;     ///< reaped with a signal or nonzero exit
  std::uint64_t hangs = 0;       ///< SIGKILLed for heartbeat silence
  std::uint64_t generations_seen = 0;  ///< "gen" lines observed
  /// Incident lines lost because the log was unwritable (ENOSPC, EIO...).
  /// Serving continues; the degradation is logged once per outage.
  std::uint64_t incidents_dropped = 0;
};

class Keeper {
 public:
  explicit Keeper(KeeperOptions options);

  /// Supervise until request_stop() (or a clean child exit). Returns the
  /// process exit code: 0 for a deliberate stop, 1 when the restart budget
  /// was exhausted. Runs the watch loop on the calling thread.
  int run();

  /// Thread-safe stop: SIGTERM the child, wait for its drain (bounded),
  /// then return from run().
  void request_stop();

  /// True while a child is believed live and has sent a line other than
  /// "boot" since its spawn (its listeners are bound by then).
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Current child pid (tests aim SIGKILL/SIGSTOP here); -1 between
  /// incarnations.
  pid_t child_pid() const { return child_pid_.load(std::memory_order_acquire); }

  /// Last-known-good shard set: what the next restart would serve.
  std::vector<std::string> current_store_paths() const;

  /// Generation number the child last reported serving.
  std::uint64_t reported_generation() const {
    return reported_generation_.load(std::memory_order_acquire);
  }

  KeeperCounters counters() const;

 private:
  struct Child {
    pid_t pid = -1;
    util::Pipe heartbeat;  ///< read end lives here; write end in the child
    std::int64_t spawned_at_ms = 0;
    std::int64_t last_beat_ms = 0;
  };

  Child spawn();
  void note_incident(const std::string& cause, const std::string& detail);
  void consume_line(const std::string& line);
  void log_line(const std::string& line) const;

  KeeperOptions options_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> ready_{false};
  std::atomic<pid_t> child_pid_{-1};
  std::atomic<std::uint64_t> reported_generation_{0};
  util::Pipe stop_pipe_;  ///< wakes the watch poll from request_stop()

  mutable std::mutex store_mutex_;
  std::vector<std::string> store_paths_;  ///< last-known-good shard set

  struct Atomics {
    std::atomic<std::uint64_t> spawns{0}, restarts{0}, crashes{0}, hangs{0},
        generations_seen{0}, incidents_dropped{0};
  };
  mutable Atomics counters_;
  /// True while the incident log is unwritable; gates the log-once warning
  /// and the recovery line. Only touched from the watch thread.
  bool incident_log_degraded_ = false;
};

}  // namespace omptune::serve
