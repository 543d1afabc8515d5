// serve-mixed: an in-process serve::Server over a Table II store, driven by
// a seeded sequence of tuning sessions (Recommend, BestSetting, then
// Marginal probes in variable-priority order; see build_traffic) over every
// studied setting, with one probe per session for a value the store lacks.
// The stores are built in a forked child. A second store comes from the
// same plan under another study seed. Three phases:
//
//   1. closed loop: `clients` pipelining connections (batches of
//      kPipelineDepth), each keeping kClosedWindow batches outstanding and
//      sending the next only when the oldest is answered — saturation
//      throughput (serve.qps), in replies per CPU second with the client
//      and the server's thread sharing one CPU (see closed_loop). It runs
//      in two blocks, one at each end of the measured phase;
//   2. open loop at kOfferedRate requests/s over kOpenConnections
//      connections, no swaps — every request timed from when it was due;
//   3. the same open loop while kSwaps wire Swap requests alternate the
//      served store between the two (the swap runs on the server's IO
//      thread, so its stall shows as open-loop latency).
//
// Every reply must equal Server::answer on the store of the generation it
// names (odd generations serve store A, even ones store B); Overloaded,
// DeadlineExceeded, Error and a lost connection count as failures. Client
// connections plus server threads stay within nproc (see run_serve).

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/marginals.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace omptune;
namespace fs = std::filesystem;

constexpr std::size_t kPipelineDepth = 64;
/// Closed-loop batches a connection keeps outstanding: the server always
/// has the next batch queued, so the rate measures serving rather than the
/// wake-up round trip between client and server threads (with one batch
/// outstanding a loaded host halved the rate for minutes at a time).
constexpr std::size_t kClosedWindow = 4;
constexpr double kOfferedRate = 10000.0;  ///< open-loop requests per second
constexpr std::size_t kOpenConnections = 2;
constexpr int kSwaps = 2;
constexpr double kSwapGap = 1.0;  ///< seconds between a swap reply and the next swap
constexpr std::size_t kSequenceLength = 1 << 16;
constexpr double kRateWindow = 0.25;  ///< seconds per closed-loop rate sample

/// One distinct request of the mix with its reference answers under store
/// A (index 0) and store B (index 1).
struct Key {
  serve::Request request;
  std::string frame;  ///< encoded request frame
  serve::Response expected[2];
};

bool same_answer(const serve::Response& a, const serve::Response& b) {
  return a.type == b.type && a.found == b.found && a.speedup == b.speedup &&
         a.config_key == b.config_key &&
         a.variable_priority == b.variable_priority && a.samples == b.samples &&
         a.mean_speedup == b.mean_speedup &&
         a.median_speedup == b.median_speedup &&
         a.p95_speedup == b.p95_speedup && a.optimal_share == b.optimal_share;
}

/// Checks a reply against the key's reference for the generation it names.
/// Thread-safe: only reads `key`.
bool reply_ok(const serve::Response& reply, const Key& key) {
  if (reply.generation == 0) return false;
  return same_answer(reply, key.expected[(reply.generation + 1) % 2]);
}

/// Failure tally shared by the client threads; the first few failures are
/// described on stderr.
class Failures {
 public:
  void add(const std::string& what) {
    const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
    if (n < 5) {
      std::lock_guard<std::mutex> lock(mutex_);
      std::fprintf(stderr, "perfbench: serve check failed: %s\n", what.c_str());
    }
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::mutex mutex_;
};

/// A raw client connection to the server's unix socket: the benchmark
/// writes pre-encoded frames and cuts reply frames itself, so the client
/// side stays cheap and the open loop can pipeline without blocking.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string error = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect(" + path + "): " + error);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void set_nonblocking() { util::set_nonblocking(fd_); }

  /// Read what the socket has (blocking sockets wait for at least one
  /// byte). False when the peer closed or failed.
  bool receive() {
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        in_.append(buffer, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }

  /// Decode the next buffered reply frame, if one is complete.
  bool next(serve::Response& reply) {
    const std::string_view rest = std::string_view(in_).substr(consumed_);
    const std::size_t size = serve::frame_size(rest);
    if (size == 0) {
      in_.erase(0, consumed_);
      consumed_ = 0;
      return false;
    }
    reply = serve::decode_response(rest.substr(4, size - 4));
    consumed_ += size;
    return true;
  }

  /// Queue bytes and write as much as the socket takes now.
  bool send(std::string_view bytes) {
    out_.append(bytes);
    return flush();
  }
  bool flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    return true;
  }
  bool pending_output() const { return !out_.empty(); }

 private:
  int fd_ = -1;
  std::string in_;
  std::size_t consumed_ = 0;
  std::string out_;
};

/// Restrict `thread` to `cpu`, or to the CPU set `allowed` if cpu < 0.
void pin_thread(pthread_t thread, int cpu, const cpu_set_t& allowed) {
  cpu_set_t set = allowed;
  if (cpu >= 0) {
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
  }
  if (::pthread_setaffinity_np(thread, sizeof set, &set) != 0) {
    throw std::runtime_error("pthread_setaffinity_np failed");
  }
}

/// A Server serving on its own thread. Every exit path stops the server
/// and joins the thread; stop() rethrows a failure of Server::run.
class RunningServer {
 public:
  RunningServer(const std::string& store, serve::ServerOptions options)
      : server_({store}, std::move(options)), thread_([this] {
          try {
            server_.run();
          } catch (...) {
            error_ = std::current_exception();
            failed_.store(true);
          }
        }) {}
  ~RunningServer() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  serve::Server& server() { return server_; }

  /// Restrict the server's thread to `cpu`, or to `allowed` if cpu < 0.
  void pin(int cpu, const cpu_set_t& allowed) {
    pin_thread(thread_.native_handle(), cpu, allowed);
  }

  /// Block until the server listens; throws if run() failed first.
  void wait_ready() {
    while (!server_.ready()) {
      if (failed_.load()) stop();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void stop() {
    server_.request_stop();
    if (thread_.joinable()) thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  serve::Server server_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  std::thread thread_;  ///< last: starts once the members it uses exist
};

/// The distinct requests of the traffic and the tuning sessions made of
/// them.
struct Traffic {
  std::vector<Key> keys;
  /// One session per studied setting: indices into `keys`, in request
  /// order.
  std::vector<std::vector<std::uint32_t>> sessions;
};

/// One tuning session per studied setting, shaped like the iterative tuner
/// loop of bench/ext_serve.cpp: Recommend for the setting's (app, arch)
/// pair, then a Marginal probe for every value of every variable in the
/// reply's variable priority, in priority order. Two choices are the
/// benchmark's own: the session also asks BestSetting for its setting (the
/// client's current best), and it ends with one probe of a value the store
/// lacks for its first variable (ext_serve's tuner probes values outside a
/// variable's domain; here one per session, so absent keys stay few). The
/// probes use the session's architecture, so every per-arch marginal row of
/// the store is requested. Priorities come from store A.
Traffic build_traffic(const store::StoreReader& reader, const serve::Snapshot& a,
                      const util::ThreadPool& pool) {
  Traffic traffic;
  std::map<std::string, std::uint32_t> index_of;  // encoded frame -> key
  const auto key_of = [&](serve::Request request) {
    std::string frame;
    serve::encode_request(frame, request);
    const auto [it, added] =
        index_of.emplace(frame, static_cast<std::uint32_t>(traffic.keys.size()));
    if (added) {
      Key key;
      key.request = std::move(request);
      key.frame = std::move(frame);
      key.expected[0] = serve::Server::answer(key.request, a);
      traffic.keys.push_back(std::move(key));
    }
    return it->second;
  };
  // Values each (arch, variable) takes in the store, in store order.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>> domain;
  for (const analysis::MarginalRow& row : analysis::value_marginals(reader, true, &pool)) {
    domain[{row.arch, row.variable}].push_back(row.value);
  }
  const auto marginal = [](const std::string& arch, const std::string& variable,
                           const std::string& value) {
    serve::Request request;
    request.type = serve::MsgType::Marginal;
    request.arch = arch;
    request.variable = variable;
    request.value = value;
    return request;
  };
  for (const store::SettingEntry& entry : reader.settings()) {
    std::vector<std::uint32_t> session;
    serve::Request recommend;
    recommend.type = serve::MsgType::Recommend;
    recommend.app = entry.app;
    recommend.arch = entry.arch;
    session.push_back(key_of(recommend));
    const std::vector<std::string> priority =
        traffic.keys[session.back()].expected[0].variable_priority;

    serve::Request best;
    best.type = serve::MsgType::BestSetting;
    best.arch = entry.arch;
    best.app = entry.app;
    best.input = entry.input;
    best.threads = entry.threads;
    session.push_back(key_of(best));

    for (const std::string& variable : priority) {
      for (const std::string& value : domain[{entry.arch, variable}]) {
        session.push_back(key_of(marginal(entry.arch, variable, value)));
      }
    }
    if (!priority.empty()) {
      session.push_back(key_of(marginal(entry.arch, priority.front(), "no-such-value")));
    }
    traffic.sessions.push_back(std::move(session));
  }
  return traffic;
}

/// Fill in every key's reference answer under store B.
void answer_with(Traffic& traffic, const serve::Snapshot& b) {
  for (Key& key : traffic.keys) key.expected[1] = serve::Server::answer(key.request, b);
}

/// The seeded request sequence: sessions drawn uniformly at random, each
/// sent whole, until kSequenceLength requests.
std::vector<std::uint32_t> request_sequence(const Traffic& traffic, std::uint64_t seed) {
  Rng rng(mix64(seed ^ 0x5e77e));
  std::vector<std::uint32_t> sequence;
  sequence.reserve(kSequenceLength);
  while (sequence.size() < kSequenceLength) {
    for (const std::uint32_t key : traffic.sessions[rng.index(traffic.sessions.size())]) {
      if (sequence.size() == kSequenceLength) break;
      sequence.push_back(key);
    }
  }
  return sequence;
}

/// Build the two Table II stores in a forked child, so their collection
/// never counts toward this process's peak resident set: peak_rss_mb then
/// covers the server, its clients and the benchmark's key table. Must be
/// called before this process starts any thread.
void build_stores(bool mini, const std::string (&paths)[2], const std::uint64_t (&seeds)[2]) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    int code = 0;
    try {
      const sweep::StudyPlan plan = study_plan(mini);
      std::exception_ptr errors[2];
      const auto build = [&](int which) {
        try {
          sim::ModelRunner runner;
          sweep::SweepHarness harness(runner, 4, seeds[which]);
          harness.run_study(plan).save_store(paths[which]);
        } catch (...) {
          errors[which] = std::current_exception();
        }
      };
      std::thread second(build, 1);
      build(0);
      second.join();
      for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: store build failed: %s\n", error.what());
      code = 1;
    }
    std::fflush(stderr);
    std::_Exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid: " + std::string(std::strerror(errno)));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("building the stores failed");
  }
}

struct ClosedLoopOutput {
  std::uint64_t replies = 0;
  /// Replies per CPU second of the process in each kRateWindow slice of the
  /// phase after the first. The reported saturation throughput is their
  /// 10th percentile, the rate sustained in nine windows of ten: the
  /// windows sit near one rate most of the time, with episodes of up to
  /// 1.4 times that rate lasting seconds, in shares that change from run to
  /// run and moved the median by up to 25%.
  std::vector<double> window_rates;
};

/// The closed loop runs with its client threads and the server's thread
/// on the single CPU `cpu`, restoring the server's thread to `allowed`
/// afterwards, and counts replies per CPU second rather than per wall
/// second. Left to the scheduler, the two busy threads landed on the same
/// or on different CPUs in shares that changed from run to run, and the
/// wall-clock rate of a run moved by up to 45% with them and with the
/// host's steal time, which the kernel leaves out of CPU time.
ClosedLoopOutput closed_loop(const std::string& socket, const std::vector<Key>& keys,
                             const std::vector<std::uint32_t>& sequence,
                             std::size_t clients, double duration, bool corrupt, int cpu,
                             const cpu_set_t& allowed, RunningServer& server,
                             Failures& failures) {
  std::atomic<std::uint64_t> replies{0};
  std::atomic<bool> corrupt_pending{corrupt};
  server.pin(cpu, allowed);
  const Clock::time_point start = Clock::now();
  const auto client = [&](std::size_t id) {
    try {
      pin_thread(::pthread_self(), cpu, allowed);
      Connection conn(socket);
      // Requests sequence[answered, sent) are outstanding, kClosedWindow
      // batches at most.
      std::size_t sent = id * (kSequenceLength / clients);
      std::size_t answered = sent;
      std::string batch;
      const auto send_batch = [&] {
        batch.clear();
        for (std::size_t b = 0; b < kPipelineDepth; ++b) {
          batch += keys[sequence[sent++ % kSequenceLength]].frame;
        }
        if (!conn.send(batch)) throw std::runtime_error("connection lost");
      };
      const auto receive_batch = [&] {
        serve::Response reply;
        for (std::size_t b = 0; b < kPipelineDepth; ++b) {
          while (!conn.next(reply)) {
            if (!conn.receive()) throw std::runtime_error("connection lost");
          }
          const Key& key = keys[sequence[answered++ % kSequenceLength]];
          if (corrupt && corrupt_pending.exchange(false)) reply.speedup += 1.0;
          if (!reply_ok(reply, key)) {
            failures.add(std::string("closed-loop reply ") +
                         serve::to_string(reply.type) + " to " +
                         serve::to_string(key.request.type) +
                         " differs from Server::answer");
          }
        }
        replies.fetch_add(kPipelineDepth, std::memory_order_relaxed);
      };
      for (std::size_t w = 0; w < kClosedWindow; ++w) send_batch();
      while (seconds_since(start) < duration) {
        receive_batch();
        send_batch();
      }
      while (answered != sent) receive_batch();
    } catch (const std::exception& error) {
      failures.add(std::string("closed-loop client: ") + error.what());
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < clients; ++id) threads.emplace_back(client, id);
  ClosedLoopOutput out;
  std::uint64_t window_replies = 0;
  double window_cpu = cpu_times().self_s;
  bool warm = false;  // the first window (connect, cache refill) is warm-up
  while (seconds_since(start) < duration) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kRateWindow));
    const std::uint64_t total = replies.load(std::memory_order_relaxed);
    const double cpu_now = cpu_times().self_s;
    if (warm) {
      out.window_rates.push_back(static_cast<double>(total - window_replies) /
                                 (cpu_now - window_cpu));
    }
    warm = true;
    window_cpu = cpu_now;
    window_replies = total;
  }
  for (std::thread& t : threads) t.join();
  server.pin(-1, allowed);
  out.replies = replies.load();
  return out;
}

struct OpenLoopOutput {
  std::uint64_t sent = 0;
  std::vector<double> latency_us;  ///< reply time - due time, per request
  std::vector<double> late_us;     ///< send time - due time, per request
  std::vector<double> reply_s;     ///< reply arrival, s from phase start
};

/// Open-loop generator: request j is due at start + j / rate, whatever the
/// server is doing; it is sent as soon as the generator gets to it (the
/// lateness is recorded) and timed from its due time. Sending stops once
/// `duration` has passed and `keep_sending()` is false; then every
/// outstanding reply is awaited (at most 30 s, the rest count as lost).
OpenLoopOutput open_loop(const std::string& socket, const std::vector<Key>& keys,
                         const std::vector<std::uint32_t>& sequence,
                         std::size_t first, Clock::time_point start,
                         double duration, const std::function<bool()>& keep_sending,
                         Failures& failures) {
  OpenLoopOutput out;
  struct Pending {
    Clock::time_point due;
    std::uint32_t key;
  };
  try {
    std::vector<std::unique_ptr<Connection>> conns;
    std::vector<std::deque<Pending>> inflight(kOpenConnections);
    for (std::size_t c = 0; c < kOpenConnections; ++c) {
      conns.push_back(std::make_unique<Connection>(socket));
      conns.back()->set_nonblocking();
    }
    const auto due_at = [&](std::uint64_t j) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(j) /
                                                       kOfferedRate));
    };
    bool sending = true;
    Clock::time_point give_up{};
    std::vector<pollfd> fds(kOpenConnections);
    for (;;) {
      Clock::time_point now = Clock::now();
      if (sending && seconds_between(start, now) >= duration && !keep_sending()) {
        sending = false;
        give_up = now + std::chrono::seconds(30);
      }
      while (sending && due_at(out.sent) <= now) {
        const std::size_t c = out.sent % kOpenConnections;
        const std::uint32_t key = sequence[(first + out.sent) % kSequenceLength];
        const Clock::time_point due = due_at(out.sent);
        inflight[c].push_back(Pending{due, key});
        out.late_us.push_back(seconds_between(due, now) * 1e6);
        if (!conns[c]->send(keys[key].frame)) throw std::runtime_error("connection lost");
        ++out.sent;
      }
      bool outstanding = false;
      for (const auto& q : inflight) outstanding = outstanding || !q.empty();
      if (!sending && !outstanding) break;
      if (!sending && now >= give_up) {
        for (const auto& q : inflight) {
          for (std::size_t i = 0; i < q.size(); ++i) failures.add("open-loop reply lost");
        }
        break;
      }
      for (std::size_t c = 0; c < kOpenConnections; ++c) {
        fds[c] = pollfd{conns[c]->fd(),
                        static_cast<short>(POLLIN | (conns[c]->pending_output() ? POLLOUT : 0)),
                        0};
      }
      const double wait_s =
          sending ? std::max(0.0, seconds_between(Clock::now(), due_at(out.sent))) : 0.05;
      timespec timeout{static_cast<time_t>(wait_s),
                       static_cast<long>((wait_s - static_cast<double>(
                                                       static_cast<time_t>(wait_s))) *
                                         1e9)};
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
        throw std::runtime_error("ppoll: " + std::string(std::strerror(errno)));
      }
      for (std::size_t c = 0; c < kOpenConnections; ++c) {
        if (fds[c].revents & POLLOUT) {
          if (!conns[c]->flush()) throw std::runtime_error("connection lost");
        }
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        if (!conns[c]->receive()) throw std::runtime_error("connection lost");
        now = Clock::now();
        serve::Response reply;
        while (conns[c]->next(reply)) {
          if (inflight[c].empty()) throw std::runtime_error("unrequested reply");
          const Pending pending = inflight[c].front();
          inflight[c].pop_front();
          out.latency_us.push_back(seconds_between(pending.due, now) * 1e6);
          out.reply_s.push_back(seconds_between(start, now));
          if (!reply_ok(reply, keys[pending.key])) {
            failures.add(std::string("open-loop reply ") + serve::to_string(reply.type) +
                         " differs from Server::answer");
          }
        }
      }
    }
  } catch (const std::exception& error) {
    failures.add(std::string("open-loop client: ") + error.what());
  }
  return out;
}

/// Longest interval without any reply that overlaps one of `windows`.
double longest_stall_s(std::vector<double> reply_s,
                       const std::vector<std::pair<double, double>>& windows) {
  std::sort(reply_s.begin(), reply_s.end());
  double longest = 0.0;
  for (std::size_t i = 1; i < reply_s.size(); ++i) {
    const double from = reply_s[i - 1], to = reply_s[i];
    for (const auto& [begin, end] : windows) {
      if (from < end && to > begin) longest = std::max(longest, to - from);
    }
  }
  return longest;
}

/// Time one Server::answer call per key of `type`, repeated; median µs.
double answer_us(const std::vector<Key>& keys, serve::MsgType type,
                 const serve::Snapshot& snapshot) {
  std::vector<double> samples;
  for (int round = 0; round < 20; ++round) {
    for (const Key& key : keys) {
      if (key.request.type != type) continue;
      const Clock::time_point start = Clock::now();
      const serve::Response reply = serve::Server::answer(key.request, snapshot);
      samples.push_back(seconds_since(start) * 1e6);
    }
  }
  return median(samples);
}

}  // namespace

void run_serve(const Options& options, Result& result) {
  Tracer tracer(options.trace);
  // One closed-loop connection and one server pool lane, which is the
  // server's IO thread itself: two busy threads, which share one CPU during
  // the closed loop (see closed_loop). With two connections and two lanes
  // the saturation rate moved by up to 45% between runs of the same seed.
  const std::size_t clients = 1;
  const unsigned server_threads = 1;
  const std::uint64_t seed_a = mix64(options.seed ^ 0xa11ceull);
  const std::uint64_t seed_b = mix64(options.seed ^ 0xb0bull);

  // ---- set-up: two stores, server boot, reference snapshots, traffic ----
  const Clock::time_point setup_start = Clock::now();
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);
  const std::string store_a = options.work_dir + "/a.omps";
  const std::string store_b = options.work_dir + "/b.omps";
  const std::string socket = options.work_dir + "/serve.sock";
  {
    ScopedSpan span(tracer, "serve.build_stores");
    build_stores(options.mini, {store_a, store_b}, {seed_a, seed_b});
  }

  serve::ServerOptions server_options;
  server_options.socket_path = socket;
  server_options.threads = server_threads;
  const Clock::time_point boot_start = Clock::now();
  std::unique_ptr<RunningServer> running;
  {
    ScopedSpan span(tracer, "serve.boot");
    running = std::make_unique<RunningServer>(store_a, server_options);
  }
  const double boot_s = seconds_since(boot_start);

  // Reference answers: one reference snapshot at a time, each released once
  // its answers are taken, so the benchmark holds none while it measures.
  std::vector<double> snapshot_load_s;
  const auto load_snapshot = [&](const std::string& path, std::uint64_t generation,
                                 const util::ThreadPool& pool) {
    const Clock::time_point start = Clock::now();
    ScopedSpan span(tracer, "serve.snapshot_load");
    std::shared_ptr<const serve::Snapshot> snapshot =
        serve::Snapshot::load({path}, generation, &pool);
    snapshot_load_s.push_back(seconds_since(start));
    return snapshot;
  };
  Traffic traffic;
  std::vector<std::uint32_t> sequence;
  {
    const util::ThreadPool pool(options.nproc);  // the server is idle until measured
    {
      const store::StoreReader reader(store_a);
      traffic = build_traffic(reader, *load_snapshot(store_a, 1, pool), pool);
    }
    answer_with(traffic, *load_snapshot(store_b, 2, pool));
    sequence = request_sequence(traffic, options.seed);
  }
  const std::vector<Key>& keys = traffic.keys;
  running->wait_ready();
  const double setup_s = seconds_since(setup_start);

  // ---- measured phases --------------------------------------------------
  Failures failures;
  const CpuTimes cpu_before = cpu_times();
  const Clock::time_point measure_start = Clock::now();

  // The closed loop runs in two blocks, before the open loops and after
  // them, some 15 s apart: the speed of a shared host drifts over tens of
  // seconds, and one contiguous block let that drift decide the run's rate.
  // Both blocks run on the last CPU the process may use.
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity: " + std::string(std::strerror(errno)));
  }
  int closed_cpu = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) closed_cpu = cpu;
  }
  const double closed_block = 0.35 * options.seconds;
  ClosedLoopOutput closed =
      closed_loop(socket, keys, sequence, clients, closed_block, options.inject_fault,
                  closed_cpu, allowed, *running, failures);

  const OpenLoopOutput steady =
      open_loop(socket, keys, sequence, 0, Clock::now(), 0.1 * options.seconds,
                [] { return false; }, failures);

  // Swap phase: the admin thread issues kSwaps wire swaps B, A, ...: the
  // first a tenth into the phase, each next one kSwapGap after the previous
  // reply, so the backlog of one stall drains before the next; the open
  // loop keeps sending until kSwapGap after the last swap was answered.
  const double swap_phase = 0.2 * options.seconds;
  const Clock::time_point swap_start = Clock::now();
  std::atomic<bool> swaps_done{false};
  std::vector<std::pair<double, double>> swap_windows;
  std::thread admin([&] {
    try {
      double next = 0.1 * swap_phase;
      for (int k = 0; k < kSwaps; ++k) {
        while (seconds_since(swap_start) < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        serve::Request swap;
        swap.type = serve::MsgType::Swap;
        swap.store_paths = {k % 2 == 0 ? store_b : store_a};
        const double begin = seconds_since(swap_start);
        serve::Client admin_client = serve::Client::connect_unix(socket);
        const serve::Response reply = admin_client.call_one(swap);
        swap_windows.emplace_back(begin, seconds_since(swap_start));
        next = swap_windows.back().second + kSwapGap;
        if (reply.type != serve::MsgType::SwapReply || !reply.found ||
            reply.generation != static_cast<std::uint64_t>(k + 2)) {
          failures.add("swap " + std::to_string(k + 1) + " failed: " + reply.message);
        }
      }
    } catch (const std::exception& error) {
      failures.add(std::string("swap client: ") + error.what());
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kSwapGap));
    swaps_done.store(true);
  });
  const OpenLoopOutput swapping =
      open_loop(socket, keys, sequence, kSequenceLength / 2, swap_start, swap_phase,
                [&] { return !swaps_done.load(); }, failures);
  admin.join();

  const ClosedLoopOutput closed_late =
      closed_loop(socket, keys, sequence, clients, closed_block, false, closed_cpu, allowed,
                  *running, failures);
  closed.replies += closed_late.replies;
  closed.window_rates.insert(closed.window_rates.end(), closed_late.window_rates.begin(),
                             closed_late.window_rates.end());

  const double wall_s = seconds_since(measure_start);
  const double cpu_s = cpu_times().total() - cpu_before.total();
  const serve::ServerCounters counters = running->server().counters();
  running->stop();
  running.reset();
  // Server::answer is timed on store A, reloaded after the measured phases
  // (traced run only).
  std::shared_ptr<const serve::Snapshot> answer_snapshot;
  if (tracer.enabled()) {
    const util::ThreadPool pool(options.nproc);
    answer_snapshot = serve::Snapshot::load({store_a}, 1, &pool);
  }
  fs::remove_all(options.work_dir);

  // Every request sent (and every swap) is one attempted operation.
  const std::uint64_t attempted =
      closed.replies + steady.sent + swapping.sent + static_cast<std::uint64_t>(kSwaps);
  result.add(attempted, failures.count());
  const std::uint64_t error_replies = counters.shed + counters.deadline_exceeded +
                                      counters.wire_errors + counters.protocol_errors;
  result.check(error_replies == 0,
               "server counted " + std::to_string(error_replies) +
                   " shed/deadline/wire/protocol errors");
  std::size_t by_type[3] = {0, 0, 0};
  for (const std::uint32_t key : sequence) {
    ++by_type[static_cast<int>(keys[key].request.type) - 1];
  }
  std::fprintf(stderr,
               "serve-mixed: %zu keys, %zu sessions, Recommend:BestSetting:Marginal "
               "%zu:%zu:%zu, %zu clients x depth %zu, %zu open-loop connections at "
               "%.0f/s, %d swaps, %u server pool lanes\n",
               keys.size(), traffic.sessions.size(), by_type[0], by_type[1], by_type[2],
               clients, kPipelineDepth, kOpenConnections, kOfferedRate, kSwaps,
               server_threads);
  std::fprintf(stderr,
               "serve-mixed: closed loop on CPU %d, %zu windows, rate p10/p25/p50/p90 %.0f/%.0f/%.0f/%.0f\n",
               closed_cpu, closed.window_rates.size(), quantile(closed.window_rates, 0.1),
               quantile(closed.window_rates, 0.25), quantile(closed.window_rates, 0.5),
               quantile(closed.window_rates, 0.9));
  if (!tracer.enabled()) {
    result.metric("setup_s", setup_s, "s");
    result.metric("wall_s", wall_s, "s");
    result.metric("cpu_s", cpu_s, "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  std::vector<double> swap_ms;
  for (const auto& [begin, end] : swap_windows) swap_ms.push_back((end - begin) * 1e3);
  std::vector<double> late = steady.late_us;
  late.insert(late.end(), swapping.late_us.begin(), swapping.late_us.end());
  const double lookups = static_cast<double>(counters.cache_hits + counters.cache_misses);
  result.metric("trace.wall_s", wall_s, "s");
  result.metric("trace.spans", static_cast<double>(tracer.span_count()), "count");
  result.metric("serve.latency_p50_us", quantile(steady.latency_us, 0.5), "us");
  result.metric("serve.latency_p99_us", quantile(steady.latency_us, 0.99), "us");
  result.metric("serve.latency_samples", static_cast<double>(steady.latency_us.size()),
                "count");
  result.metric("serve.swap_latency_p99_us", quantile(swapping.latency_us, 0.99), "us");
  result.metric("serve.swap_latency_samples",
                static_cast<double>(swapping.latency_us.size()), "count");
  result.metric("serve.boot_s", boot_s, "s");
  result.metric("serve.snapshot_load_s", median(snapshot_load_s), "s");
  result.metric("serve.swap_ms", median(swap_ms), "ms");
  result.metric("serve.swap_stall_ms", longest_stall_s(swapping.reply_s, swap_windows) * 1e3,
                "ms");
  result.metric("serve.cache_hits", static_cast<double>(counters.cache_hits), "count");
  result.metric("serve.cache_misses", static_cast<double>(counters.cache_misses), "count");
  result.metric("serve.cache_hit_rate",
                lookups > 0 ? static_cast<double>(counters.cache_hits) / lookups : 0.0,
                "ratio");
  result.metric("serve.qps", quantile(closed.window_rates, 0.1), "1/s");
  result.metric("serve.replies_per_batch",
                counters.batches > 0 ? static_cast<double>(counters.served) /
                                           static_cast<double>(counters.batches)
                                     : 0.0,
                "count");
  result.metric("serve.answer_us.recommend",
                answer_us(keys, serve::MsgType::Recommend, *answer_snapshot), "us");
  result.metric("serve.answer_us.best_setting",
                answer_us(keys, serve::MsgType::BestSetting, *answer_snapshot), "us");
  result.metric("serve.answer_us.marginal",
                answer_us(keys, serve::MsgType::Marginal, *answer_snapshot), "us");
  result.metric("serve.generator_late_us", quantile(late, 0.99), "us");
  result.metric("serve.shed", static_cast<double>(counters.shed), "count");
  result.metric("serve.deadline_exceeded", static_cast<double>(counters.deadline_exceeded),
                "count");
  result.metric("serve.wire_errors", static_cast<double>(counters.wire_errors), "count");
  result.metric("serve.protocol_errors", static_cast<double>(counters.protocol_errors),
                "count");
  tracer.write(options.trace_out);
}

}  // namespace perfbench
