#include "sweep/fleet.hpp"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/fs.hpp"

namespace omptune::sweep {

namespace {

constexpr int kPollIntervalMs = 25;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

// ---- child side -------------------------------------------------------------

LeaseLink::LeaseLink(int command_fd, int result_fd,
                     std::int64_t heartbeat_interval_ms)
    : commands_(command_fd),
      result_fd_(result_fd),
      heartbeat_interval_ms_(heartbeat_interval_ms),
      last_heartbeat_(util::monotonic_ms()) {}

void LeaseLink::sample() {
  ++total_samples_;
  const std::int64_t now = util::monotonic_ms();
  if (now - last_heartbeat_ >= heartbeat_interval_ms_) {
    last_heartbeat_ = now;
    send(protocol::format_heartbeat(total_samples_));
  }
}

void LeaseLink::send(const std::string& line) {
  if (!util::write_all(result_fd_, line)) ::_exit(0);  // nobody to report to
}

void LeaseLink::serve(
    std::size_t item_count,
    const std::function<std::uint64_t(const protocol::LeaseItem&)>& collect) {
  const auto parse = [&](const std::string& line) {
    const std::optional<protocol::Command> command =
        protocol::parse_command(line, item_count);
    if (!command) ::_exit(12);  // a garbled parent is unrecoverable
    return *command;
  };
  send(protocol::format_ready());
  for (;;) {
    const std::optional<std::string> line = commands_.next();
    if (!line) return;  // command pipe EOF: the parent is gone
    const protocol::Command command = parse(*line);
    if (command.kind == protocol::Command::Kind::Exit) break;
    for (const protocol::LeaseItem& item : command.items) {
      // Drain: between items, a pending `exit` abandons the rest of the
      // lease (the parent requeues it) so shutdown never waits for a whole
      // lease. Anything else mid-lease is a parent bug.
      if (const std::optional<std::string> pending = commands_.poll_line()) {
        if (parse(*pending).kind != protocol::Command::Kind::Exit) ::_exit(12);
        send(protocol::format_bye());
        return;
      }
      if (commands_.eof()) return;
      send(protocol::format_start(item.task_index));
      const std::uint64_t samples = collect(item);
      send(protocol::format_done(item.task_index, samples));
    }
  }
  send(protocol::format_bye());
}

// ---- parent side ------------------------------------------------------------

Fleet::Fleet(FleetOptions options, FleetHooks hooks,
             const std::atomic<bool>& stop)
    : options_(std::move(options)),
      hooks_(std::move(hooks)),
      stop_(stop),
      gates_(static_cast<std::size_t>(std::max(options_.processes, 0))) {}

Fleet::Child Fleet::spawn(int slot) {
  Child child;
  child.slot = slot;
  const pid_t pid = ::fork();
  if (pid < 0) throw_errno(options_.name + ": fork()");
  if (pid == 0) {
    // Drop every parent-side fd inherited from the pool, so a sibling
    // holding a pipe end can never mask a peer's EOF.
    for (Child& other : pool_) {
      other.cmd.close_read();
      other.cmd.close_write();
      other.res.close_read();
      other.res.close_write();
    }
    child.cmd.close_write();
    child.res.close_read();
    util::die_with_parent();
    // Shutdown is coordinated over the command pipe; a terminal SIGINT aimed
    // at the process group must not take children down mid-journal-write.
    ::signal(SIGINT, SIG_IGN);
    ::signal(SIGTERM, SIG_IGN);
    ::signal(SIGPIPE, SIG_IGN);
    try {
      LeaseLink link(child.cmd.read_fd, child.res.write_fd,
                     options_.heartbeat_interval_ms);
      hooks_.child_main(slot, link);
    } catch (...) {
      // Anything escaping the child (runner construction, journal I/O) is a
      // casualty with a distinct code; the parent blames the in-flight item.
      ::_exit(11);
    }
    // _exit skips the atexit/leak machinery inherited from the parent.
    ::_exit(0);
  }
  child.pid = pid;
  child.cmd.close_read();
  child.res.close_write();
  util::set_nonblocking(child.res.read_fd);
  child.reader = util::LineReader(child.res.read_fd);
  child.last_signal = util::monotonic_ms();
  return child;
}

bool Fleet::process_lines(Child& child) {
  for (const std::string& line : child.reader.drain()) {
    const std::optional<protocol::WorkerMessage> msg =
        protocol::parse_worker_message(line, options_.item_count);
    if (!msg) return false;
    child.last_signal = util::monotonic_ms();
    switch (msg->kind) {
      case protocol::WorkerMessage::Kind::Ready:
        child.ready = true;
        spawn_failures_ = 0;
        gates_[static_cast<std::size_t>(child.slot)] = Gate{};
        break;
      case protocol::WorkerMessage::Kind::Heartbeat:
        break;  // liveness is the timestamp update above
      case protocol::WorkerMessage::Kind::Start:
        child.inflight = msg->task_index;
        break;
      case protocol::WorkerMessage::Kind::Done: {
        const std::size_t item = msg->task_index;
        const auto it =
            std::find(child.leased.begin(), child.leased.end(), item);
        if (it != child.leased.end()) child.leased.erase(it);
        if (child.inflight == item) child.inflight.reset();
        child.lease_deadline = child.last_signal + options_.lease_ms;
        hooks_.on_done(child.slot, item, msg->count);
        break;
      }
      case protocol::WorkerMessage::Kind::Bye:
        child.saw_bye = true;
        break;
    }
  }
  return !child.reader.garbled();
}

void Fleet::reap(Child& child, const util::ExitStatus& status) {
  child.pid = -1;  // reaped: never signal or wait on this pid again
  // Salvage first: the pipe may still hold `done` lines written before death.
  process_lines(child);
  FleetDeath death;
  death.slot = child.slot;
  death.leased = child.leased;
  death.inflight = child.inflight;
  death.clean = child.saw_bye ||
                (child.exit_sent && status.exited && status.exit_code == 0);
  death.evidence =
      !child.kill_reason.empty() ? child.kill_reason : status.describe();
  if (!death.clean && child.kill_reason.empty()) ++counters_.crashes;
  if (!death.clean && !child.ready && ++spawn_failures_ > kMaxSpawnFailures) {
    throw std::runtime_error(
        options_.name + ": " + std::to_string(spawn_failures_) +
        " consecutive " + options_.noun +
        " died before becoming ready (last: " + death.evidence + ")");
  }
  hooks_.on_death(death);
}

bool Fleet::run() {
  if (hooks_.finished()) return false;
  util::ShutdownSignalGuard guard;
  const auto kill = [](Child& child, const std::string& reason) {
    if (child.kill_reason.empty()) child.kill_reason = reason;
    ::kill(child.pid, SIGKILL);
  };
  try {
    pool_.reserve(gates_.size());
    for (std::size_t slot = 0; slot < gates_.size(); ++slot) {
      pool_.push_back(spawn(static_cast<int>(slot)));
    }
    const std::int64_t grace_ms =
        options_.heartbeat_timeout_ms > 0
            ? std::max<std::int64_t>(options_.heartbeat_timeout_ms, 1000)
            : 10000;
    bool shutting_down = false;
    bool interrupted = false;
    std::int64_t drain_deadline = 0;

    for (;;) {
      if (!shutting_down &&
          (hooks_.finished() || guard.triggered() || stop_.load())) {
        shutting_down = true;
        interrupted = !hooks_.finished();
        for (Child& child : pool_) {
          if (!child.alive()) continue;
          child.exit_sent = true;
          util::write_all(child.cmd.write_fd, protocol::format_exit());
        }
        drain_deadline = util::monotonic_ms() + grace_ms;
        if (interrupted && hooks_.on_interrupt) hooks_.on_interrupt();
      }
      if (shutting_down &&
          std::none_of(pool_.begin(), pool_.end(),
                       [](const Child& child) { return child.alive(); })) {
        pool_.clear();
        return interrupted;
      }

      for (Child& child : pool_) {
        if (shutting_down || !child.alive() || !child.ready ||
            child.exit_sent || !child.leased.empty()) {
          continue;
        }
        const std::vector<protocol::LeaseItem> items =
            hooks_.next_lease(child.slot);
        if (items.empty()) continue;
        for (const protocol::LeaseItem& item : items) {
          child.leased.push_back(item.task_index);
        }
        // A failed write means the child died under us: the items stay
        // leased to it, and the reaper hands them back unblamed.
        util::write_all(child.cmd.write_fd, protocol::format_lease(items));
        child.last_signal = util::monotonic_ms();
        child.lease_deadline = child.last_signal + options_.lease_ms;
      }

      std::vector<struct pollfd> fds;
      fds.push_back({guard.wake_fd(), POLLIN, 0});
      for (const Child& child : pool_) {
        if (child.alive() && !child.reader.eof()) {
          fds.push_back({child.reader.fd(), POLLIN, 0});
        }
      }
      ::poll(fds.data(), fds.size(), kPollIntervalMs);
      // Drain the wake pipe so a delivered signal does not turn the poll
      // loop into a busy spin (the triggered() flag is authoritative).
      char sink[64];
      while (::read(guard.wake_fd(), sink, sizeof(sink)) > 0) {
      }

      for (Child& child : pool_) {
        if (child.alive() && !process_lines(child) &&
            child.kill_reason.empty()) {
          ++counters_.protocol_errors;
          kill(child, "garbled result stream (protocol violation)");
        }
      }

      for (Child& child : pool_) {
        if (!child.alive()) continue;
        const std::optional<util::ExitStatus> status = util::try_wait(child.pid);
        if (!status) continue;
        reap(child, *status);
        if (shutting_down) continue;
        // Do NOT respawn immediately: a persistently crashing environment
        // would hot-loop fork(). Gate the replacement behind backoff.
        Gate& gate = gates_[static_cast<std::size_t>(child.slot)];
        ++gate.streak;
        const std::int64_t delay = options_.respawn_backoff.next_delay_ms(
            options_.seed, options_.slot_prefix + std::to_string(child.slot),
            gate.streak, gate.prev_delay);
        gate.prev_delay = delay;
        gate.eligible_at = util::monotonic_ms() + delay;
        ++counters_.respawn_waits;
        counters_.respawn_backoff_ms += delay;
      }

      if (!shutting_down && hooks_.pending()) {
        const std::int64_t now = util::monotonic_ms();
        for (std::size_t slot = 0; slot < pool_.size(); ++slot) {
          if (pool_[slot].alive() || now < gates_[slot].eligible_at) continue;
          pool_[slot] = spawn(static_cast<int>(slot));
          ++counters_.respawns;
        }
      }

      const std::int64_t now = util::monotonic_ms();
      for (Child& child : pool_) {
        if (!child.alive() || !child.kill_reason.empty()) continue;
        // Idle ready children are parked on a blocking command read; only a
        // child that owes progress is held to the heartbeat clock.
        const bool owes_progress =
            !child.ready || !child.leased.empty() || child.exit_sent;
        if (options_.heartbeat_timeout_ms > 0 && owes_progress &&
            now - child.last_signal > options_.heartbeat_timeout_ms) {
          ++counters_.hang_kills;
          kill(child, "no heartbeat for " +
                          std::to_string(now - child.last_signal) +
                          "ms (hung)");
        } else if (options_.lease_ms > 0 && !child.leased.empty() &&
                   now > child.lease_deadline) {
          ++counters_.lease_expiries;
          kill(child, "lease expired after " +
                          std::to_string(options_.lease_ms) + "ms");
        } else if (shutting_down && now > drain_deadline) {
          kill(child, "shutdown grace period expired");
        }
      }
    }
  } catch (...) {
    for (Child& child : pool_) {
      if (!child.alive()) continue;
      ::kill(child.pid, SIGKILL);
      util::wait_for(child.pid);
      child.pid = -1;
    }
    pool_.clear();
    throw;
  }
}

// ---- directories ------------------------------------------------------------

std::string make_private_temp_dir(const std::string& tag) {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = base != nullptr && *base != '\0' ? base : "/tmp";
  tmpl += "/omptune-" + tag + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) throw_errno("mkdtemp(" + tmpl + ")");
  return std::string(buf.data());
}

std::vector<std::string> list_subdirs(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    const std::string path = util::path_join(dir, name);
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      out.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

void remove_flat_dir(const std::string& dir) {
  for (const std::string& name : util::list_files(dir)) {
    util::remove_file(util::path_join(dir, name));
  }
  ::rmdir(dir.c_str());
}

}  // namespace omptune::sweep
