#include "serve/keeper.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace omptune::serve {

namespace {

/// Bounded-grace child termination: SIGTERM (the child's signal guard
/// drains), then SIGKILL when the grace expires.
util::ExitStatus terminate_child(pid_t pid, std::int64_t grace_ms) {
  ::kill(pid, SIGTERM);
  const std::int64_t deadline = util::monotonic_ms() + grace_ms;
  while (util::monotonic_ms() < deadline) {
    if (std::optional<util::ExitStatus> status = util::try_wait(pid)) {
      return *status;
    }
    pollfd none{-1, 0, 0};
    ::poll(&none, 1, 20);  // portable 20 ms sleep that ignores signals
  }
  ::kill(pid, SIGKILL);
  return util::wait_for(pid);
}

}  // namespace

Keeper::Keeper(KeeperOptions options) : options_(std::move(options)) {
  if (options_.server.socket_path.empty()) {
    throw std::runtime_error("keeper: socket path is required");
  }
  store_paths_ = options_.store_paths;
}

std::vector<std::string> Keeper::current_store_paths() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return store_paths_;
}

KeeperCounters Keeper::counters() const {
  KeeperCounters c;
  c.spawns = counters_.spawns.load(std::memory_order_relaxed);
  c.restarts = counters_.restarts.load(std::memory_order_relaxed);
  c.crashes = counters_.crashes.load(std::memory_order_relaxed);
  c.hangs = counters_.hangs.load(std::memory_order_relaxed);
  c.generations_seen =
      counters_.generations_seen.load(std::memory_order_relaxed);
  c.incidents_dropped =
      counters_.incidents_dropped.load(std::memory_order_relaxed);
  return c;
}

void Keeper::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(stop_pipe_.write_fd, &byte, 1);
}

void Keeper::log_line(const std::string& line) const {
  if (options_.log) options_.log("keeper: " + line);
}

void Keeper::note_incident(const std::string& cause,
                           const std::string& detail) {
  log_line("incident: " + cause + ": " + detail);
  if (options_.incident_log_path.empty()) return;
  try {
    // Write-ahead: the line is durable BEFORE the restart it explains.
    // Size-capped rotation keeps a crash-looping child from growing the
    // log without bound.
    util::append_line_durable(options_.incident_log_path,
                              std::to_string(util::monotonic_ms()) + " " +
                                  cause + " " + detail,
                              options_.incident_log_max_bytes);
    if (incident_log_degraded_) {
      incident_log_degraded_ = false;
      log_line("incident log writable again: " + options_.incident_log_path);
    }
  } catch (const util::StorageError& error) {
    // An unwritable incident log must never take the service down with it:
    // keep serving, count the loss, and say so exactly once per outage.
    counters_.incidents_dropped.fetch_add(1, std::memory_order_relaxed);
    if (!incident_log_degraded_) {
      incident_log_degraded_ = true;
      log_line("incident log unwritable, serving continues without incident "
               "durability: " +
               std::string(error.what()));
    }
  }
}

void Keeper::consume_line(const std::string& line) {
  if (line == "hb" || line == "boot") return;
  if (line.rfind("gen ", 0) == 0) {
    const std::vector<std::string> fields = util::split(line.substr(4), '\t');
    if (fields.empty()) return;
    const std::optional<int> gen = util::parse_int(fields.front());
    if (!gen || *gen < 0) return;
    reported_generation_.store(static_cast<std::uint64_t>(*gen),
                               std::memory_order_release);
    counters_.generations_seen.fetch_add(1, std::memory_order_relaxed);
    if (fields.size() > 1) {
      std::lock_guard<std::mutex> lock(store_mutex_);
      store_paths_.assign(fields.begin() + 1, fields.end());
    }
    return;
  }
  if (line.rfind("err ", 0) == 0) {
    log_line("child reported: " + line.substr(4));
    return;
  }
  log_line("unrecognized heartbeat line: " + line);
}

Keeper::Child Keeper::spawn() {
  Child child;
  const std::vector<std::string> paths = current_store_paths();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("keeper: fork failed");
  }
  if (pid == 0) {
    // Child: become the server. Nothing below may return to the caller's
    // stack — the child exits via _Exit in every path.
    util::die_with_parent();
    // A Keeper embedded in a CLI that already holds a ShutdownSignalGuard
    // (omptune serve --supervised) leaks the guard's singleton flag into
    // this child; clear it so the server below can install its own.
    util::reset_shutdown_guard_after_fork();
    util::fresh_thread_stacks_after_fork();
    ::signal(SIGPIPE, SIG_IGN);  // a dead keeper must surface as EPIPE
    child.heartbeat.close_read();
    int exit_code = 0;
    try {
      ServerOptions server_options = options_.server;
      server_options.heartbeat_fd = child.heartbeat.write_fd;
      server_options.heartbeat_interval_ms = options_.heartbeat_interval_ms;
      server_options.handle_signals = true;  // SIGTERM from the Keeper drains
      Server server(paths, server_options);
      server.run();
    } catch (const std::exception& error) {
      // Boot/serve failure: say why over the pipe so the incident log can
      // carry a cause better than "exited with code 1".
      util::write_all(child.heartbeat.write_fd,
                      std::string("err ") + error.what() + "\n");
      exit_code = 1;
    }
    std::_Exit(exit_code);
  }
  child.pid = pid;
  child.heartbeat.close_write();
  util::set_nonblocking(child.heartbeat.read_fd);
  child.spawned_at_ms = util::monotonic_ms();
  child.last_beat_ms = child.spawned_at_ms;
  return child;
}

int Keeper::run() {
  const auto final_cleanup = [&] {
    // Zero stale-socket leaks: a SIGKILLed child leaves its socket file
    // behind; the keeper owns the path once no child is alive.
    ::unlink(options_.server.socket_path.c_str());
    if (!options_.pid_file.empty()) {
      ::unlink(options_.pid_file.c_str());
    }
  };

  int attempt = 0;
  std::int64_t prev_delay = 0;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    Child child = spawn();
    counters_.spawns.fetch_add(1, std::memory_order_relaxed);
    child_pid_.store(child.pid, std::memory_order_release);
    if (!options_.pid_file.empty()) {
      try {
        util::atomic_write_file(options_.pid_file,
                                std::to_string(child.pid) + "\n");
      } catch (const util::StorageError& error) {
        // Same degradation rule as the incident log: a full disk costs
        // observability, never the service.
        log_line("pid file unwritable, continuing: " +
                 std::string(error.what()));
      }
    }
    log_line("spawned server pid " + std::to_string(child.pid) + " serving " +
             std::to_string(current_store_paths().size()) + " shard(s)");

    util::LineReader reader(child.heartbeat.read_fd);
    std::optional<util::ExitStatus> status;
    bool hang = false;
    std::string hang_detail;
    while (!status) {
      pollfd fds[2] = {{child.heartbeat.read_fd, POLLIN, 0},
                       {stop_pipe_.read_fd, POLLIN, 0}};
      const std::int64_t budget = child.last_beat_ms +
                                  options_.hang_timeout_ms -
                                  util::monotonic_ms();
      const int timeout = static_cast<int>(
          std::clamp<std::int64_t>(budget, 10, 1000));
      const int rc = ::poll(fds, 2, timeout);
      if (rc < 0 && errno != EINTR) {
        throw std::runtime_error("keeper: poll failed");
      }
      const std::vector<std::string> lines = reader.drain();
      if (!lines.empty()) {
        child.last_beat_ms = util::monotonic_ms();
        for (const std::string& line : lines) {
          // "boot" proves the child alive while it loads; any other line
          // comes from its IO loop, so its listeners are bound.
          if (line != "boot") ready_.store(true, std::memory_order_release);
          consume_line(line);
        }
      }
      if (stop_requested_.load(std::memory_order_acquire)) {
        status = terminate_child(child.pid,
                                 options_.server.drain_timeout_ms + 2000);
        break;
      }
      if (reader.eof()) {
        status = util::wait_for(child.pid);
        break;
      }
      const std::int64_t silent = util::monotonic_ms() - child.last_beat_ms;
      if (silent > options_.hang_timeout_ms) {
        hang = true;
        hang_detail = "no heartbeat for " + std::to_string(silent) + " ms";
        ::kill(child.pid, SIGKILL);
        status = util::wait_for(child.pid);
        break;
      }
    }
    ready_.store(false, std::memory_order_release);
    child_pid_.store(-1, std::memory_order_release);
    const std::int64_t uptime = util::monotonic_ms() - child.spawned_at_ms;

    if (stop_requested_.load(std::memory_order_acquire)) {
      log_line("stopped: child " + status->describe());
      final_cleanup();
      return 0;
    }
    if (hang) {
      counters_.hangs.fetch_add(1, std::memory_order_relaxed);
      note_incident("hang", hang_detail + "; " + status->describe() +
                                "; uptime " + std::to_string(uptime) + " ms");
    } else if (status->exited && status->exit_code == 0) {
      log_line("child drained deliberately; keeper exiting");
      final_cleanup();
      return 0;
    } else {
      counters_.crashes.fetch_add(1, std::memory_order_relaxed);
      note_incident("crash", status->describe() + "; uptime " +
                                 std::to_string(uptime) + " ms");
    }

    if (uptime >= options_.stable_after_ms) {
      attempt = 0;  // it was healthy; this is a fresh incident, not a loop
      prev_delay = 0;
    }
    ++attempt;
    if (options_.max_restarts >= 0 &&
        counters_.restarts.load(std::memory_order_relaxed) >=
            static_cast<std::uint64_t>(options_.max_restarts)) {
      log_line("restart budget exhausted (" +
               std::to_string(options_.max_restarts) + "); giving up");
      final_cleanup();
      return 1;
    }
    const std::int64_t delay = options_.restart_backoff.next_delay_ms(
        options_.seed, "keeper", attempt, prev_delay);
    prev_delay = delay;
    counters_.restarts.fetch_add(1, std::memory_order_relaxed);
    log_line("restarting in " + std::to_string(delay) + " ms (attempt " +
             std::to_string(attempt) + ")");
    pollfd stop_fd{stop_pipe_.read_fd, POLLIN, 0};
    ::poll(&stop_fd, 1, static_cast<int>(delay));
  }
  final_cleanup();
  return 0;
}

}  // namespace omptune::serve
