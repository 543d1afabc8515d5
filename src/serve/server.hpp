#pragma once

// The tuning-as-a-service front end: a long-running recommendation server
// over shared read-only .omps store shards (see DESIGN.md §12).
//
// Architecture, in one paragraph: one IO thread owns a poll(2) loop over
// the unix-socket (and optional loopback-TCP) listeners and every
// connection. Each poll round it drains readable connections, cuts the
// buffered bytes into complete frames, and gathers up to max_batch
// requests per connection — the per-connection batch. The round's batch
// set is admitted against max_pending (the bounded queue): requests over
// the bound are answered immediately with a typed Overloaded reply and
// never touch the store (load-shedding that costs the victim one frame
// round-trip, not a timeout). Admitted query requests execute on the
// shared util::ThreadPool worker loop — each one a reply-cache probe and,
// on a miss, a hash lookup into the current Snapshot — then replies are
// appended to each connection's output buffer in request order and
// flushed (POLLOUT finishes stragglers).
//
// Hot-swap: a generation is built off to the side (open, validate,
// aggregate — about a second on a Table II store) on a transient
// util::ThreadPool sized like the analytics engine's
// (ThreadPool::default_thread_count()), then installed with one
// shared_ptr store under a mutex. A wire Swap never builds on the IO
// thread: it runs on its own build thread while the loop keeps polling,
// answering other connections from the current generation and writing
// Keeper heartbeats; the loop answers the Swap when the build is done.
// Frames behind a Swap on its connection wait for that reply, so a
// pipelined Stats sees the new generation; wire swaps build one at a
// time, in arrival order. Batches grab the snapshot once per round, so
// every in-flight query finishes on the mapping it started with; the
// retired generation's mmap unmaps when the last such batch retires. The
// reply cache is keyed on the generation, so a swap implicitly invalidates
// it (stale entries are purged eagerly).
//
// Shutdown: SIGINT/SIGTERM (via util::ShutdownSignalGuard), a wire
// Shutdown message, or request_stop() all trigger the same drain: stop
// accepting, finish the in-flight round, let an in-flight swap build
// finish and answer its Swap (swaps still queued are refused), flush every
// connection's pending replies under a deadline, then close and account
// for every connection.

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "util/process.hpp"
#include "util/thread_pool.hpp"

namespace omptune::serve {

struct ServerOptions {
  /// Filesystem path of the unix listening socket (required). An existing
  /// socket file at the path is replaced — the server owns its path.
  std::string socket_path;
  /// Loopback TCP listener: -1 disables (default), 0 binds an ephemeral
  /// port (see Server::tcp_port()), >0 binds that port on 127.0.0.1.
  int tcp_port = -1;
  /// Worker lanes for request batches (0 = ThreadPool default). Snapshot
  /// builds do not use them: boot and every swap build on a transient pool
  /// of ThreadPool::default_thread_count() lanes (OMPTUNE_ANALYSIS_THREADS,
  /// else every hardware thread), whose threads start with the CPU set of
  /// the thread that constructed the Server.
  unsigned threads = 0;
  /// Reply-cache capacity in entries (0 disables the cache).
  std::size_t cache_capacity = 4096;
  /// Admission bound: query requests admitted per poll round; the excess
  /// is shed with Overloaded replies.
  std::size_t max_pending = 1024;
  /// Frames taken from one connection per round (the rest stay buffered —
  /// per-connection fairness under a flooding client).
  std::size_t max_batch = 512;
  /// Pause reading a connection whose unsent replies exceed this.
  std::size_t max_output_bytes = 8u << 20;
  /// Input buffered per connection before the peer counts as flooding
  /// (protocol violation, connection dropped).
  std::size_t max_input_bytes = 16u << 20;
  /// Honor wire Swap/Shutdown admin messages (the CLI serves with this on;
  /// a deployment fronting untrusted clients would turn it off).
  bool allow_admin = true;
  /// Install util::ShutdownSignalGuard during run() so SIGINT/SIGTERM
  /// drain instead of killing mid-reply. Off for in-process test servers
  /// (the guard is process-global).
  bool handle_signals = false;
  /// Budget for flushing pending replies at drain.
  std::int64_t drain_timeout_ms = 5000;
  /// Per-request budget, stamped when the frame is cut from the socket:
  /// a query still unanswered strictly past its stamp + this many ms gets
  /// a typed DeadlineExceeded reply instead of a store lookup (graceful
  /// degradation: the client retries, the queue drains). 0 disables.
  std::int64_t request_deadline_ms = 0;
  /// Slowloris defense: a connection holding a PARTIAL frame that makes no
  /// frame progress for this long is evicted (counted in evicted_slow).
  /// The clock starts when the partial appears and only a completed frame
  /// resets it, so trickling one byte per second does not keep a slot
  /// alive. 0 disables.
  std::int64_t stall_timeout_ms = 0;
  /// Keeper liveness pipe: when >= 0, the boot build writes "boot" lines
  /// and the IO loop "hb" lines every heartbeat_interval_ms (a swap build
  /// in flight does not pause them), plus a "gen <generation>\t<path>..."
  /// line at boot and after every swap, so the supervisor can detect a wedged
  /// process and restart onto the last-known-good shard set. -1 disables.
  int heartbeat_fd = -1;
  std::int64_t heartbeat_interval_ms = 500;
  /// Test/chaos hook: sleep this long inside each query execution. Forces
  /// deterministic deadline misses and wedge windows; 0 in production.
  std::int64_t debug_execute_delay_ms = 0;
  /// Progress/accounting lines; null = silent.
  std::function<void(const std::string&)> log;
};

/// Counter snapshot (see Server::counters()).
struct ServerCounters {
  std::uint64_t served = 0;             ///< replies written (all types)
  std::uint64_t batches = 0;            ///< per-connection batches executed
  std::uint64_t shed = 0;               ///< Overloaded replies (admission)
  std::uint64_t deadline_exceeded = 0;  ///< DeadlineExceeded replies
  std::uint64_t evicted_slow = 0;       ///< connections evicted for stalling
  std::uint64_t wire_errors = 0;        ///< Error replies to bad requests
  std::uint64_t protocol_errors = 0;    ///< connections dropped for framing
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t swaps = 0;              ///< successful hot-swaps
  std::uint64_t swap_failures = 0;      ///< rejected swaps (old gen kept)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t generation = 0;         ///< currently served generation
  std::uint64_t store_rows = 0;         ///< rows in the current generation
  std::uint32_t shards = 0;             ///< shard stores in the generation
  bool drained_cleanly = false;         ///< set once shutdown completes
};

class Server {
 public:
  /// Load generation 1 from `store_paths` and prepare to serve. Throws
  /// util::StoreOpenError / util::DataCorruptionError if a store cannot
  /// be adopted (nothing is listening yet — boot must be loud).
  Server(std::vector<std::string> store_paths, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and serve until a shutdown trigger; returns after the
  /// drain completes. Throws std::runtime_error on listener setup failure.
  void run();

  /// Thread-safe shutdown trigger (same path as SIGINT / wire Shutdown).
  void request_stop();

  /// Hot-swap to a new shard set: builds generation current+1 from
  /// `store_paths` on the calling thread (plus the build pool), installs
  /// it atomically, purges the stale cache generation. In-flight batches
  /// finish on the old snapshot. On any load failure the old generation
  /// keeps serving and the error propagates (typed, carrying path +
  /// attempted generation). Thread-safe; concurrent swaps serialize. A
  /// wire Swap runs this same function on its build thread.
  std::uint64_t swap(const std::vector<std::string>& store_paths);

  /// True once run() is listening (tests poll this before connecting).
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  /// Ephemeral TCP port once listening (0 = no TCP listener).
  int tcp_port() const { return tcp_port_.load(std::memory_order_acquire); }

  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  ServerCounters counters() const;

  /// Answer one request against a snapshot — the pure query path, shared
  /// by the batch executor and exposed for tests/bench to compute
  /// reference answers.
  static Response answer(const Request& request, const Snapshot& snapshot);

  /// The deadline comparator the executor uses: STRICTLY past, so a
  /// request completing exactly at its deadline is on time ("done by t",
  /// not "done before t"). deadline_at_ms == 0 means no deadline.
  static bool past_deadline(std::int64_t now_ms, std::int64_t deadline_at_ms) {
    return deadline_at_ms > 0 && now_ms > deadline_at_ms;
  }

 private:
  struct Conn;
  struct Work;
  struct SwapBuild;

  std::shared_ptr<const Snapshot> snapshot() const;
  /// Load generation `generation` on a transient build pool (see
  /// ServerOptions::threads) — the one build path of boot and swap().
  std::shared_ptr<const Snapshot> build(
      const std::vector<std::string>& store_paths,
      std::uint64_t generation) const;
  /// Generation 1: build(), beating "boot" lines while it runs when a
  /// Keeper listens.
  std::shared_ptr<const Snapshot> boot(
      const std::vector<std::string>& store_paths) const;
  void execute_round(std::vector<Work>& works,
                     const std::shared_ptr<const Snapshot>& snap);
  void handle_admin(Work& work);
  Response stats_response() const;
  void log_line(const std::string& line) const;

  ServerOptions options_;
  util::ThreadPool pool_;
  /// CPU set of the constructing thread: build threads and build-pool
  /// lanes start with it, whatever the spawning thread is pinned to.
  cpu_set_t build_cpus_;
  ReplyCache cache_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;
  std::mutex swap_mutex_;  ///< serializes swap() callers
  std::atomic<std::uint64_t> generation_{0};

  std::atomic<bool> ready_{false};
  std::atomic<bool> stop_requested_{false};
  /// Wakes the poll loop from request_stop(). A member (not a run() local)
  /// so the write end outlives run(): a concurrent request_stop() must
  /// never race the pipe's destructor on a closed-and-reused fd.
  util::Pipe stop_pipe_;
  std::atomic<int> tcp_port_{0};
  bool draining_ = false;  ///< IO thread only

  struct Atomics {
    std::atomic<std::uint64_t> served{0}, batches{0}, shed{0},
        deadline_exceeded{0}, evicted_slow{0}, wire_errors{0},
        protocol_errors{0}, connections_accepted{0}, connections_closed{0},
        connections_active{0}, swaps{0}, swap_failures{0};
    std::atomic<bool> drained_cleanly{false};
  };
  mutable Atomics counters_;
};

}  // namespace omptune::serve
