#include "serve/server.hpp"

#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/errors.hpp"
#include "util/process.hpp"

namespace omptune::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
  return -1;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long for AF_UNIX: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket(AF_UNIX)");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // the server owns its socket path
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close_quiet(fd);
    sys_fail("bind(" + path + ")");
  }
  if (::listen(fd, 256) != 0) {
    close_quiet(fd);
    sys_fail("listen(" + path + ")");
  }
  return fd;
}

int listen_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close_quiet(fd);
    sys_fail("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 256) != 0) {
    close_quiet(fd);
    sys_fail("listen(tcp)");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close_quiet(fd);
    sys_fail("getsockname(tcp)");
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

/// Whether `in` starts with a complete frame, or with bytes that can never
/// become one (the frame-cutting loop then drops the connection).
bool frame_ready(std::string_view in) {
  try {
    return frame_size(in) != 0;
  } catch (const WireError&) {
    return true;
  }
}

/// Threads start with the CPU affinity of the thread that creates them.
/// For its scope this holds the calling thread at `cpus`, so the threads it
/// creates meanwhile start there however the caller itself is pinned; the
/// caller's own set is restored on exit. Best effort: a set the kernel
/// refuses leaves the affinity alone.
class AffinityScope {
 public:
  explicit AffinityScope(const cpu_set_t& cpus) {
    restore_ =
        ::pthread_getaffinity_np(::pthread_self(), sizeof saved_, &saved_) == 0 &&
        ::pthread_setaffinity_np(::pthread_self(), sizeof cpus, &cpus) == 0;
  }
  ~AffinityScope() {
    if (restore_) ::pthread_setaffinity_np(::pthread_self(), sizeof saved_, &saved_);
  }
  AffinityScope(const AffinityScope&) = delete;
  AffinityScope& operator=(const AffinityScope&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

}  // namespace

/// One accepted connection: its fd plus the partial-frame input buffer and
/// the unsent-reply output buffer. Touched only by the IO thread.
struct Server::Conn {
  int fd = -1;
  std::string in;
  std::string out;
  /// Slowloris clock: monotonic ms when the pending partial frame started
  /// waiting (0 = no partial pending). Only a COMPLETED frame resets it —
  /// trickling one byte per poll round does not keep the slot alive.
  std::int64_t stall_since_ms = 0;
  /// A Swap from this connection waits for (or runs) its build: no frame
  /// is cut from `in` until the Swap is answered, so the replies to the
  /// frames behind it follow its reply and see its generation.
  bool awaiting_swap = false;

  ~Conn() { close_quiet(fd); }
};

/// One request taken from a connection this round. `raw` is the payload as
/// received (the cache key material); `out` receives the framed reply.
struct Server::Work {
  enum class Kind : std::uint8_t {
    Query,      ///< execute on the pool against the round's snapshot
    Admin,      ///< Stats/Shutdown: IO thread, after the pool round
    Swap,       ///< answered when its build finishes (see SwapBuild)
    Prefilled,  ///< reply already encoded (shed / malformed request)
  };

  Conn* conn = nullptr;
  Kind kind = Kind::Prefilled;
  std::string raw;
  Request request;
  std::string out;
  /// Monotonic deadline stamped when the frame was cut; 0 = no deadline.
  std::int64_t deadline_at_ms = 0;
};

/// One wire Swap: queued behind earlier ones, then built on its own thread
/// while the IO loop keeps serving. The thread runs Server::swap() — the
/// build and install of a direct call — then writes one byte to `done`;
/// the loop joins it and answers the Swap on its connection.
struct Server::SwapBuild {
  Conn* conn = nullptr;  ///< null once the connection closed
  std::vector<std::string> store_paths;
  util::Pipe done;
  Response reply;  ///< filled by the build thread, read after the join
  std::thread thread;

  ~SwapBuild() {
    if (thread.joinable()) thread.join();
  }
};

Server::Server(std::vector<std::string> store_paths, ServerOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      cache_(options_.cache_capacity) {
  if (options_.socket_path.empty()) {
    throw std::runtime_error("serve: socket path is required");
  }
  CPU_ZERO(&build_cpus_);  // stays empty (no pinning) if the query fails
  ::pthread_getaffinity_np(::pthread_self(), sizeof build_cpus_, &build_cpus_);
  util::set_nonblocking(stop_pipe_.read_fd);
  util::set_nonblocking(stop_pipe_.write_fd);
  snapshot_ = boot(store_paths);
  generation_.store(1, std::memory_order_release);
  log_line("loaded generation 1: " + std::to_string(snapshot_->rows()) +
           " rows across " + std::to_string(snapshot_->shard_count()) +
           " shard(s)");
}

Server::~Server() = default;

std::shared_ptr<const Snapshot> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::shared_ptr<const Snapshot> Server::build(
    const std::vector<std::string>& store_paths,
    std::uint64_t generation) const {
  std::unique_ptr<const util::ThreadPool> lanes;
  {
    const AffinityScope spawn_under(build_cpus_);
    lanes = std::make_unique<const util::ThreadPool>(
        util::ThreadPool::default_thread_count());
  }
  return Snapshot::load(store_paths, generation, lanes.get());
}

std::shared_ptr<const Snapshot> Server::boot(
    const std::vector<std::string>& store_paths) const {
  if (options_.heartbeat_fd < 0) return build(store_paths, 1);
  // Under a Keeper a helper thread writes "boot" lines while this one
  // builds, so a load longer than the hang timeout is not taken for a
  // wedge. The lines prove the process alive, not the build progressing;
  // a deadlock that stops every thread still reads as silence.
  std::promise<void> built;
  std::thread beats([this, done = built.get_future()] {
    do {
      [[maybe_unused]] const bool ok =
          util::write_all(options_.heartbeat_fd, "boot\n");
    } while (done.wait_for(std::chrono::milliseconds(
                 options_.heartbeat_interval_ms)) == std::future_status::timeout);
  });
  const auto stop_beats = [&] {
    built.set_value();
    beats.join();
  };
  try {
    std::shared_ptr<const Snapshot> booted = build(store_paths, 1);
    stop_beats();
    return booted;
  } catch (...) {
    stop_beats();
    throw;
  }
}

std::uint64_t Server::swap(const std::vector<std::string>& store_paths) {
  std::lock_guard<std::mutex> serialize(swap_mutex_);
  const std::uint64_t next = generation_.load(std::memory_order_acquire) + 1;
  std::shared_ptr<const Snapshot> incoming;
  try {
    incoming = build(store_paths, next);
  } catch (...) {
    counters_.swap_failures.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = incoming;
  }
  generation_.store(next, std::memory_order_release);
  cache_.purge_below(next);
  counters_.swaps.fetch_add(1, std::memory_order_relaxed);
  log_line("swapped to generation " + std::to_string(next) + ": " +
           std::to_string(incoming->rows()) + " rows across " +
           std::to_string(incoming->shard_count()) + " shard(s)");
  return next;
}

void Server::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(stop_pipe_.write_fd, &byte, 1);
}

Response Server::answer(const Request& request, const Snapshot& snapshot) {
  Response reply;
  reply.generation = snapshot.generation();
  switch (request.type) {
    case MsgType::Recommend: {
      reply.type = MsgType::RecommendReply;
      if (const BestConfig* best =
              snapshot.best_for_pair(request.app, request.arch)) {
        reply.found = true;
        reply.speedup = best->speedup;
        reply.config_key = best->config_key;
      }
      if (const auto* priority = snapshot.priority(request.app, request.arch)) {
        reply.variable_priority = *priority;
      }
      break;
    }
    case MsgType::BestSetting: {
      reply.type = MsgType::BestSettingReply;
      if (const BestConfig* best = snapshot.best_for_setting(
              request.arch, request.app, request.input, request.threads)) {
        reply.found = true;
        reply.speedup = best->speedup;
        reply.config_key = best->config_key;
      }
      break;
    }
    case MsgType::Marginal: {
      reply.type = MsgType::MarginalReply;
      if (const analysis::MarginalRow* row = snapshot.marginal(
              request.arch, request.variable, request.value)) {
        reply.found = true;
        reply.samples = row->samples;
        reply.mean_speedup = row->mean_speedup;
        reply.median_speedup = row->median_speedup;
        reply.p95_speedup = row->p95_speedup;
        reply.optimal_share = row->optimal_share;
      }
      break;
    }
    default: {
      reply.type = MsgType::Error;
      reply.message = std::string("not a query type: ") +
                      to_string(request.type);
      break;
    }
  }
  return reply;
}

Response Server::stats_response() const {
  const ServerCounters c = counters();
  Response reply;
  reply.type = MsgType::StatsReply;
  reply.generation = c.generation;
  reply.found = true;
  reply.served = c.served;
  reply.batches = c.batches;
  reply.cache_hits = c.cache_hits;
  reply.cache_misses = c.cache_misses;
  reply.shed = c.shed;
  reply.deadline_exceeded = c.deadline_exceeded;
  reply.evicted_slow = c.evicted_slow;
  reply.swaps = c.swaps;
  reply.connections_accepted = c.connections_accepted;
  reply.connections_active = c.connections_active;
  reply.store_rows = c.store_rows;
  reply.shards = c.shards;
  return reply;
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.served = counters_.served.load(std::memory_order_relaxed);
  c.batches = counters_.batches.load(std::memory_order_relaxed);
  c.shed = counters_.shed.load(std::memory_order_relaxed);
  c.deadline_exceeded =
      counters_.deadline_exceeded.load(std::memory_order_relaxed);
  c.evicted_slow = counters_.evicted_slow.load(std::memory_order_relaxed);
  c.wire_errors = counters_.wire_errors.load(std::memory_order_relaxed);
  c.protocol_errors = counters_.protocol_errors.load(std::memory_order_relaxed);
  c.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  c.connections_closed =
      counters_.connections_closed.load(std::memory_order_relaxed);
  c.connections_active =
      counters_.connections_active.load(std::memory_order_relaxed);
  c.swaps = counters_.swaps.load(std::memory_order_relaxed);
  c.swap_failures = counters_.swap_failures.load(std::memory_order_relaxed);
  c.cache_hits = cache_.hits();
  c.cache_misses = cache_.misses();
  c.drained_cleanly = counters_.drained_cleanly.load(std::memory_order_relaxed);
  const std::shared_ptr<const Snapshot> snap = snapshot();
  c.generation = snap->generation();
  c.store_rows = snap->rows();
  c.shards = static_cast<std::uint32_t>(snap->shard_count());
  return c;
}

void Server::handle_admin(Work& work) {
  Response reply;
  reply.generation = generation();
  if (work.request.type == MsgType::Stats) {
    reply = stats_response();
  } else if (!options_.allow_admin) {
    reply.type = MsgType::Error;
    reply.message = "admin messages are disabled on this server";
  } else if (work.request.type == MsgType::Shutdown) {
    reply.type = MsgType::ShutdownReply;
    reply.found = true;
    reply.message = "draining";
    draining_ = true;
  } else {
    reply.type = MsgType::Error;
    reply.message = std::string("unexpected admin type: ") +
                    to_string(work.request.type);
  }
  encode_response(work.out, reply);
}

void Server::execute_round(std::vector<Work>& works,
                           const std::shared_ptr<const Snapshot>& snap) {
  // Query works run concurrently: cache probe, then answer + encode + fill.
  pool_.parallel_for(
      works.size(), 4,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t i = begin; i < end; ++i) {
          Work& work = works[i];
          if (work.kind != Work::Kind::Query) continue;
          if (options_.debug_execute_delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options_.debug_execute_delay_ms));
          }
          if (past_deadline(util::monotonic_ms(), work.deadline_at_ms)) {
            Response late;
            late.type = MsgType::DeadlineExceeded;
            late.generation = snap->generation();
            encode_response(work.out, late);
            counters_.deadline_exceeded.fetch_add(1,
                                                  std::memory_order_relaxed);
            continue;  // never cached: the miss is about THIS execution
          }
          const std::string key =
              ReplyCache::make_key(snap->generation(), work.raw);
          if (cache_.lookup(key, work.out)) continue;
          std::string frame;
          encode_response(frame, answer(work.request, *snap));
          work.out += frame;
          cache_.insert(key, std::move(frame));
        }
      });
  // Admin works run on the IO thread, in arrival order, after the round's
  // queries (Stats then counts them).
  for (Work& work : works) {
    if (work.kind == Work::Kind::Admin) handle_admin(work);
  }
}

void Server::log_line(const std::string& line) const {
  if (options_.log) options_.log("serve: " + line);
}

void Server::run() {
  const int unix_fd = listen_unix(options_.socket_path);
  int tcp_fd = -1;
  if (options_.tcp_port >= 0) {
    int bound = 0;
    try {
      tcp_fd = listen_tcp(options_.tcp_port, &bound);
    } catch (...) {
      close_quiet(unix_fd);
      ::unlink(options_.socket_path.c_str());
      throw;
    }
    tcp_port_.store(bound, std::memory_order_release);
  }

  std::unique_ptr<util::ShutdownSignalGuard> signals;
  if (options_.handle_signals) {
    signals = std::make_unique<util::ShutdownSignalGuard>();
  }
  std::deque<std::unique_ptr<Conn>> conns;
  draining_ = false;
  // Wire swaps in arrival order; the front one builds, the rest wait.
  std::deque<std::unique_ptr<SwapBuild>> swaps;

  // Keeper liveness: "hb" every interval, "gen <g>\t<path>..." whenever the
  // served generation changes (boot counts). The pipe writes happen only on
  // the IO thread, so a swap() from any thread is picked up next round. A
  // failed write means the supervisor is gone — not our problem to solve.
  std::int64_t next_heartbeat_ms = 0;
  std::uint64_t heartbeat_gen = 0;
  const auto emit_heartbeats = [&](std::int64_t now) {
    if (options_.heartbeat_fd < 0) return;
    const std::uint64_t gen = generation();
    if (gen != heartbeat_gen) {
      std::string line = "gen " + std::to_string(gen);
      for (const std::string& path : snapshot()->shard_paths()) {
        line += '\t';
        line += path;
      }
      line += '\n';
      if (util::write_all(options_.heartbeat_fd, line)) heartbeat_gen = gen;
    }
    if (now >= next_heartbeat_ms) {
      [[maybe_unused]] const bool ok =
          util::write_all(options_.heartbeat_fd, "hb\n");
      next_heartbeat_ms = now + options_.heartbeat_interval_ms;
    }
  };
  emit_heartbeats(util::monotonic_ms());

  ready_.store(true, std::memory_order_release);
  log_line("listening on " + options_.socket_path +
           (tcp_fd >= 0
                ? " and 127.0.0.1:" + std::to_string(tcp_port())
                : std::string()));

  const auto close_conn = [&](std::size_t index) {
    for (const auto& swap : swaps) {
      if (swap->conn == conns[index].get()) swap->conn = nullptr;
    }
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(index));
    counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  };

  // Flush as much of conn.out as the socket accepts right now; false means
  // the peer is gone.
  const auto try_flush = [](Conn& conn) -> bool {
    while (!conn.out.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    return true;
  };

  // Start the front swap's build unless it is already running. The build
  // thread spawns under build_cpus_, so neither it nor its pool inherits a
  // pinning of the IO thread.
  const auto start_swap = [&] {
    if (swaps.empty() || swaps.front()->thread.joinable()) return;
    SwapBuild& next = *swaps.front();
    const AffinityScope spawn_under(build_cpus_);
    next.thread = std::thread([this, &next] {
      next.reply.type = MsgType::SwapReply;
      try {
        next.reply.generation = swap(next.store_paths);
        next.reply.found = true;
        next.reply.message =
            "swapped to generation " + std::to_string(next.reply.generation);
      } catch (const std::exception& error) {
        next.reply.found = false;
        next.reply.generation = generation();
        next.reply.message = error.what();
      }
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(next.done.write_fd, &byte, 1);
    });
  };
  // Join the front swap's finished build and answer its Swap; the frames
  // queued behind it on its connection are cut again from this round on.
  const auto finish_swap = [&] {
    const std::unique_ptr<SwapBuild> done = std::move(swaps.front());
    swaps.pop_front();
    done->thread.join();
    if (done->conn != nullptr) {
      encode_response(done->conn->out, done->reply);
      done->conn->awaiting_swap = false;
      counters_.served.fetch_add(1, std::memory_order_relaxed);
    }
  };

  while (!draining_) {
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (signals && signals->triggered()) break;

    std::vector<pollfd> fds;
    fds.push_back({stop_pipe_.read_fd, POLLIN, 0});
    if (signals) fds.push_back({signals->wake_fd(), POLLIN, 0});
    const std::size_t listeners_at = fds.size();
    fds.push_back({unix_fd, POLLIN, 0});
    if (tcp_fd >= 0) fds.push_back({tcp_fd, POLLIN, 0});
    const bool building = !swaps.empty() && swaps.front()->thread.joinable();
    if (building) fds.push_back({swaps.front()->done.read_fd, POLLIN, 0});
    const std::size_t conns_at = fds.size();
    for (const auto& conn : conns) {
      short events = 0;
      // Backpressure: a connection over its output budget (or mid-flood on
      // input) is not read until it drains; one waiting for its Swap is not
      // read until the Swap is answered (a hangup still shows).
      if (!conn->awaiting_swap &&
          conn->out.size() < options_.max_output_bytes &&
          conn->in.size() < options_.max_input_bytes) {
        events |= POLLIN;
      }
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }

    // The loop may no longer sleep forever: the next heartbeat and the
    // earliest stall eviction both bound the poll timeout, and a frame
    // already buffered on a connection that may be cut (one left over by
    // max_batch, or queued behind a Swap just answered) means no wait.
    std::int64_t wake_at = std::numeric_limits<std::int64_t>::max();
    for (const auto& conn : conns) {
      if (!conn->awaiting_swap && frame_ready(conn->in)) wake_at = 0;
    }
    if (options_.heartbeat_fd >= 0) {
      wake_at = std::min(wake_at, next_heartbeat_ms);
    }
    if (options_.stall_timeout_ms > 0) {
      for (const auto& conn : conns) {
        if (conn->stall_since_ms > 0) {
          wake_at = std::min(
              wake_at, conn->stall_since_ms + options_.stall_timeout_ms + 1);
        }
      }
    }
    int poll_timeout = -1;
    if (wake_at != std::numeric_limits<std::int64_t>::max()) {
      poll_timeout = static_cast<int>(std::clamp<std::int64_t>(
          wake_at - util::monotonic_ms(), 0, 60'000));
    }

    const int rc = ::poll(fds.data(), fds.size(), poll_timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    const std::int64_t round_now = util::monotonic_ms();
    emit_heartbeats(round_now);

    // A finished build is answered before frames are cut, so the frames
    // queued behind its Swap are served this round.
    if (building && (fds[conns_at - 1].revents & POLLIN)) {
      finish_swap();
      start_swap();
    }

    // Accept everything pending on the listeners. Connections accepted
    // here have no pollfd this round — they are served from the next
    // round's poll, so the frame-cutting loop below must only walk the
    // connections that were actually polled.
    const std::size_t polled_conns = fds.size() - conns_at;
    const std::size_t listeners_end = conns_at - (building ? 1 : 0);
    for (std::size_t i = listeners_at; i < listeners_end; ++i) {
      if (!(fds[i].revents & POLLIN)) continue;
      for (;;) {
        const int fd = ::accept4(fds[i].fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN, or transient accept failure: next round
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conns.push_back(std::move(conn));
        counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
        counters_.connections_active.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Read every readable connection, then cut frames into the round's
    // work list. The snapshot is pinned once for the whole round.
    const std::shared_ptr<const Snapshot> snap = snapshot();
    std::vector<Work> works;
    std::vector<std::size_t> dead;
    std::size_t admitted = 0;
    for (std::size_t c = 0; c < polled_conns; ++c) {
      Conn& conn = *conns[c];
      const pollfd& pfd = fds[conns_at + c];
      if (pfd.revents & POLLOUT) {
        if (!try_flush(conn)) {
          dead.push_back(c);
          continue;
        }
      }
      bool peer_gone = false;
      if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
        for (;;) {
          char buf[65536];
          const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            if (conn.in.size() >= options_.max_input_bytes) break;
            continue;
          }
          if (n == 0) {
            peer_gone = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          peer_gone = true;
          break;
        }
      }

      // Cut complete frames (bounded per connection per round; none while
      // the connection waits for a Swap, and none after one).
      const bool was_awaiting_swap = conn.awaiting_swap;
      std::size_t consumed = 0;
      std::size_t taken = 0;
      bool framing_broken = false;
      while (!conn.awaiting_swap && taken < options_.max_batch) {
        std::size_t total = 0;
        try {
          total = frame_size(
              std::string_view(conn.in).substr(consumed));
        } catch (const WireError&) {
          framing_broken = true;
          break;
        }
        if (total == 0) break;
        Work work;
        work.conn = &conn;
        work.raw = conn.in.substr(consumed + 4, total - 4);
        consumed += total;
        ++taken;
        if (options_.request_deadline_ms > 0) {
          work.deadline_at_ms = round_now + options_.request_deadline_ms;
        }
        try {
          work.request = decode_request(work.raw);
          if (!is_request_type(work.request.type)) {
            throw WireError(std::string("reply type sent as request: ") +
                            to_string(work.request.type));
          }
          switch (work.request.type) {
            case MsgType::Swap:
              if (options_.allow_admin) {
                work.kind = Work::Kind::Swap;
                conn.awaiting_swap = true;
                break;
              }
              work.kind = Work::Kind::Admin;  // refused by handle_admin
              break;
            case MsgType::Stats:
            case MsgType::Shutdown:
              work.kind = Work::Kind::Admin;
              break;
            default:
              // Admission control: the bounded queue. Everything past
              // max_pending this round is shed with a typed reply.
              if (admitted < options_.max_pending) {
                work.kind = Work::Kind::Query;
                ++admitted;
              } else {
                Response overloaded;
                overloaded.type = MsgType::Overloaded;
                overloaded.generation = snap->generation();
                overloaded.message = "queue full, retry";
                encode_response(work.out, overloaded);
                counters_.shed.fetch_add(1, std::memory_order_relaxed);
              }
              break;
          }
        } catch (const std::exception& error) {
          // Well-framed but undecodable: answer with Error, keep the
          // connection (the framing is still in sync).
          work.kind = Work::Kind::Prefilled;
          work.out.clear();
          Response bad;
          bad.type = MsgType::Error;
          bad.generation = snap->generation();
          bad.message = error.what();
          encode_response(work.out, bad);
          counters_.wire_errors.fetch_add(1, std::memory_order_relaxed);
        }
        works.push_back(std::move(work));
      }
      conn.in.erase(0, consumed);
      if (taken > 0) {
        counters_.batches.fetch_add(1, std::memory_order_relaxed);
      }
      // A connection waiting for its Swap is neither read nor cut, so a
      // partial frame it holds is not stalling meanwhile.
      if (was_awaiting_swap) {
        conn.stall_since_ms = 0;
        if (peer_gone) dead.push_back(c);
        continue;
      }
      if (framing_broken ||
          (conn.in.size() >= options_.max_input_bytes && taken == 0)) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        peer_gone = true;
      }
      if (framing_broken) {
        // Protocol violation: drop the connection now, voiding any replies
        // this round would have owed it.
        for (Work& work : works) {
          if (work.conn == &conn) work.conn = nullptr;
        }
      }
      if (options_.stall_timeout_ms > 0 && !peer_gone) {
        if (conn.in.empty()) {
          conn.stall_since_ms = 0;
        } else if (taken > 0 || conn.stall_since_ms == 0) {
          conn.stall_since_ms = round_now;
        } else if (round_now - conn.stall_since_ms >
                   options_.stall_timeout_ms) {
          counters_.evicted_slow.fetch_add(1, std::memory_order_relaxed);
          log_line("evicted stalled connection: partial frame pending " +
                   std::to_string(round_now - conn.stall_since_ms) + " ms");
          peer_gone = true;
        }
      }
      if (peer_gone) dead.push_back(c);
    }

    if (!works.empty()) {
      execute_round(works, snap);
      for (Work& work : works) {
        if (work.kind == Work::Kind::Swap) {
          auto queued = std::make_unique<SwapBuild>();
          queued->conn = work.conn;
          queued->store_paths = std::move(work.request.store_paths);
          swaps.push_back(std::move(queued));
          continue;
        }
        if (!work.conn) continue;
        work.conn->out += work.out;
        counters_.served.fetch_add(1, std::memory_order_relaxed);
      }
      start_swap();
    }

    // Opportunistic flush so small batches complete in one round trip.
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = *conns[c];
      if (!conn.out.empty() && !try_flush(conn)) dead.push_back(c);
    }

    // Close dead connections, highest index first (erase shifts the tail).
    std::sort(dead.begin(), dead.end());
    dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
    for (std::size_t i = dead.size(); i > 0; --i) close_conn(dead[i - 1]);

    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (signals && signals->triggered()) break;
  }

  // Drain: stop accepting, flush what each connection is owed, close all.
  ready_.store(false, std::memory_order_release);
  close_quiet(unix_fd);
  if (tcp_fd >= 0) close_quiet(tcp_fd);
  ::unlink(options_.socket_path.c_str());

  // A swap build in flight completes and its Swap is answered like any
  // other reply owed; heartbeats go on meanwhile, so a Keeper does not
  // take the wait for a wedge. Swaps still queued behind it are refused.
  if (!swaps.empty() && swaps.front()->thread.joinable()) {
    pollfd done{swaps.front()->done.read_fd, POLLIN, 0};
    for (;;) {
      int timeout = -1;
      if (options_.heartbeat_fd >= 0) {
        timeout = static_cast<int>(std::clamp<std::int64_t>(
            next_heartbeat_ms - util::monotonic_ms(), 0, 60'000));
      }
      const int rc = ::poll(&done, 1, timeout);
      if (rc < 0 && errno != EINTR) sys_fail("poll");
      emit_heartbeats(util::monotonic_ms());
      if (rc > 0) break;
    }
    finish_swap();
    emit_heartbeats(util::monotonic_ms());  // the new generation's line
  }
  for (const auto& refused : swaps) {
    if (refused->conn == nullptr) continue;
    Response reply;
    reply.type = MsgType::SwapReply;
    reply.generation = generation();
    reply.message = "server draining; swap not started";
    encode_response(refused->conn->out, reply);
    counters_.served.fetch_add(1, std::memory_order_relaxed);
  }
  swaps.clear();

  const std::int64_t deadline =
      util::monotonic_ms() + options_.drain_timeout_ms;
  bool flushed_all = true;
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> pending;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!conns[c]->out.empty()) {
        fds.push_back({conns[c]->fd, POLLOUT, 0});
        pending.push_back(c);
      }
    }
    if (pending.empty()) break;
    const std::int64_t budget = deadline - util::monotonic_ms();
    if (budget <= 0) {
      flushed_all = false;
      break;
    }
    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(budget < 100 ? budget : 100));
    if (rc < 0 && errno != EINTR) break;
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLOUT | POLLERR | POLLHUP))) continue;
      if (!try_flush(*conns[pending[i]])) dead.push_back(pending[i]);
    }
    std::sort(dead.begin(), dead.end());
    for (std::size_t i = dead.size(); i > 0; --i) close_conn(dead[i - 1]);
  }
  const std::size_t still_open = conns.size();
  while (!conns.empty()) close_conn(conns.size() - 1);

  counters_.drained_cleanly.store(flushed_all, std::memory_order_relaxed);

  const ServerCounters c = counters();
  log_line("drained: served " + std::to_string(c.served) + " replies in " +
           std::to_string(c.batches) + " batches, shed " +
           std::to_string(c.shed) + "; connections " +
           std::to_string(c.connections_accepted) + " accepted / " +
           std::to_string(c.connections_closed) + " closed (" +
           std::to_string(still_open) + " open at drain), " +
           (flushed_all ? "all replies flushed" : "drain deadline hit"));
}

}  // namespace omptune::serve
