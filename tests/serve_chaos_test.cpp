// The self-healing serve layer under fire (DESIGN.md §13): a Keeper must
// restart a SIGKILLed or wedged server within its backoff budget and boot
// the replacement from the last-known-good (possibly hot-swapped) shard
// set; the server must answer typed DeadlineExceeded when a request blows
// its budget and evict slowloris connections; the retrying client must
// complete 100% of its queries through a wire-chaos proxy that resets,
// truncates, stalls, garbles and duplicates reply frames; and the circuit
// breaker must trip, fast-fail and half-open on a deterministic clock.
//
// Forks real server processes (via serve::Keeper), so this binary is
// registered as ONE ctest entry like supervisor_test.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "serve/client.hpp"
#include "serve/keeper.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "sim/executor.hpp"
#include "sim/wire_chaos.hpp"
#include "store/writer.hpp"
#include "sweep/harness.hpp"
#include "util/env.hpp"
#include "util/fs.hpp"
#include "util/process.hpp"

namespace omptune {
namespace {

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("omptune_chaos_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  util::create_directories(dir);
  return dir;
}

sweep::Dataset study_dataset(std::uint64_t seed) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, seed);
  return harness.run_study(sweep::StudyPlan::mini_plan(2, 6));
}

/// A small study store plus an (app, arch) pair it contains.
struct StoreFixture {
  std::string path;
  std::string app;
  std::string arch;
  sweep::Dataset dataset;

  StoreFixture(const std::string& dir, const std::string& name,
               std::uint64_t seed)
      : path(util::path_join(dir, name)), dataset(study_dataset(seed)) {
    store::write_store(path, dataset);
    app = dataset.samples().front().app;
    arch = dataset.samples().front().arch;
  }
};

/// Server::run() on a background thread (in-process, no Keeper).
struct TestServer {
  serve::Server server;
  std::thread thread;
  std::exception_ptr error;

  TestServer(std::vector<std::string> stores, serve::ServerOptions options)
      : server(std::move(stores), std::move(options)) {
    thread = std::thread([this] {
      try {
        server.run();
      } catch (...) {
        error = std::current_exception();
      }
    });
    const std::int64_t deadline = util::monotonic_ms() + 10000;
    while (!server.ready() && util::monotonic_ms() < deadline) {
      if (error) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (error) std::rethrow_exception(error);
    EXPECT_TRUE(server.ready());
  }

  void stop_and_join() {
    server.request_stop();
    if (thread.joinable()) thread.join();
    if (error) std::rethrow_exception(error);
  }

  ~TestServer() {
    server.request_stop();
    if (thread.joinable()) thread.join();
  }
};

/// Keeper::run() on a background thread, with ready/ recovery polling.
struct TestKeeper {
  serve::Keeper keeper;
  std::thread thread;
  int rc = -1;

  explicit TestKeeper(serve::KeeperOptions options)
      : keeper(std::move(options)) {
    thread = std::thread([this] { rc = keeper.run(); });
    EXPECT_TRUE(wait_ready());
  }

  bool wait_ready(std::int64_t timeout_ms = 15000) {
    const std::int64_t deadline = util::monotonic_ms() + timeout_ms;
    while (util::monotonic_ms() < deadline) {
      if (keeper.ready()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return keeper.ready();
  }

  /// Wait until a DIFFERENT child than `old_pid` is up and beating.
  bool wait_respawned(pid_t old_pid, std::int64_t timeout_ms = 15000) {
    const std::int64_t deadline = util::monotonic_ms() + timeout_ms;
    while (util::monotonic_ms() < deadline) {
      const pid_t pid = keeper.child_pid();
      if (pid > 0 && pid != old_pid && keeper.ready()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  void stop_and_join() {
    keeper.request_stop();
    if (thread.joinable()) thread.join();
  }

  ~TestKeeper() {
    keeper.request_stop();
    if (thread.joinable()) thread.join();
  }
};

serve::ServerOptions base_server_options(const std::string& socket_path) {
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.threads = 2;
  options.cache_capacity = 256;
  options.drain_timeout_ms = 2000;
  return options;
}

serve::KeeperOptions base_keeper_options(const std::string& dir,
                                         const StoreFixture& store) {
  serve::KeeperOptions options;
  options.server = base_server_options(util::path_join(dir, "srv.sock"));
  options.store_paths = {store.path};
  options.heartbeat_interval_ms = 50;
  options.hang_timeout_ms = 1000;
  options.restart_backoff.base_ms = 50;
  options.restart_backoff.max_ms = 400;
  options.stable_after_ms = 60000;  // never reset the streak mid-test
  options.max_restarts = 50;
  options.incident_log_path = util::path_join(dir, "incidents.log");
  options.pid_file = util::path_join(dir, "server.pid");
  return options;
}

serve::Request recommend_request(const std::string& app,
                                 const std::string& arch) {
  serve::Request request;
  request.type = serve::MsgType::Recommend;
  request.app = app;
  request.arch = arch;
  return request;
}

/// A study store whose snapshot takes at least `min_ms` to build on one
/// lane: the plan doubles its configurations per setting until a timed
/// one-lane build reaches `min_ms`. Tests serve it under
/// OMPTUNE_ANALYSIS_THREADS=1, so the server's build pool has one lane too.
std::string slow_store(const std::string& dir, std::int64_t min_ms) {
  const std::string path = util::path_join(dir, "slow.omps");
  for (std::size_t configs = 250;; configs *= 2) {
    sim::ModelRunner runner;
    sweep::SweepHarness harness(runner, 3, 11);
    store::write_store(
        path, harness.run_study(sweep::StudyPlan::mini_plan(8, configs)));
    const std::int64_t start = util::monotonic_ms();
    serve::Snapshot::load({path}, 1);
    if (util::monotonic_ms() - start >= min_ms || configs >= 8000) return path;
  }
}

serve::Client connect_with_retry(const std::string& socket_path,
                                 std::int64_t timeout_ms = 10000) {
  const std::int64_t deadline = util::monotonic_ms() + timeout_ms;
  for (;;) {
    try {
      return serve::Client::connect_unix(socket_path);
    } catch (const serve::ConnectionLost&) {
      if (util::monotonic_ms() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

// ---- wire taxonomy ----------------------------------------------------------

TEST(WireTaxonomy, RetryableAndIdempotentSetsAreExact) {
  using serve::MsgType;
  EXPECT_TRUE(serve::is_retryable_reply(MsgType::Overloaded));
  EXPECT_TRUE(serve::is_retryable_reply(MsgType::DeadlineExceeded));
  EXPECT_FALSE(serve::is_retryable_reply(MsgType::Error));
  EXPECT_FALSE(serve::is_retryable_reply(MsgType::RecommendReply));
  EXPECT_FALSE(serve::is_retryable_reply(MsgType::ShutdownReply));

  EXPECT_TRUE(serve::is_idempotent_request(MsgType::Recommend));
  EXPECT_TRUE(serve::is_idempotent_request(MsgType::BestSetting));
  EXPECT_TRUE(serve::is_idempotent_request(MsgType::Marginal));
  EXPECT_TRUE(serve::is_idempotent_request(MsgType::Stats));
  EXPECT_FALSE(serve::is_idempotent_request(MsgType::Swap));
  EXPECT_FALSE(serve::is_idempotent_request(MsgType::Shutdown));
}

TEST(WireTaxonomy, DeadlineExceededRoundTripsWithEmptyBody) {
  serve::Response reply;
  reply.type = serve::MsgType::DeadlineExceeded;
  reply.generation = 9;
  std::string bytes;
  serve::encode_response(bytes, reply);
  ASSERT_EQ(serve::frame_size(bytes), bytes.size());
  const serve::Response decoded =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(decoded.type, serve::MsgType::DeadlineExceeded);
  EXPECT_EQ(decoded.generation, 9u);
}

TEST(WireTaxonomy, StatsReplyCarriesDeadlineAndEvictionCounters) {
  serve::Response reply;
  reply.type = serve::MsgType::StatsReply;
  reply.deadline_exceeded = 17;
  reply.evicted_slow = 4;
  reply.shed = 2;
  reply.swaps = 1;
  std::string bytes;
  serve::encode_response(bytes, reply);
  const serve::Response decoded =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(decoded.deadline_exceeded, 17u);
  EXPECT_EQ(decoded.evicted_slow, 4u);
  EXPECT_EQ(decoded.shed, 2u);
  EXPECT_EQ(decoded.swaps, 1u);
}

TEST(Deadline, ComparatorIsStrictlyPast) {
  // Completing exactly AT the deadline is on time; one ms later is not.
  EXPECT_FALSE(serve::Server::past_deadline(100, 100));
  EXPECT_TRUE(serve::Server::past_deadline(101, 100));
  EXPECT_FALSE(serve::Server::past_deadline(99, 100));
  // 0 means "no deadline" no matter the clock.
  EXPECT_FALSE(serve::Server::past_deadline(1 << 30, 0));
}

// ---- wire chaos spec --------------------------------------------------------

TEST(WireChaos, SpecParsesDescribesAndRejectsUnknownKeys) {
  const sim::WireChaosSpec spec = sim::WireChaosSpec::parse(
      "seed=9,reset=0.05,truncate=0.04,stall=0.03,garble=0.02,dup=0.01,"
      "stall_ms=25");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.reset_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec.truncate_rate, 0.04);
  EXPECT_DOUBLE_EQ(spec.stall_rate, 0.03);
  EXPECT_DOUBLE_EQ(spec.garble_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec.duplicate_rate, 0.01);
  EXPECT_EQ(spec.stall_ms, 25);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(sim::WireChaosSpec{}.enabled());

  const sim::WireChaosSpec reparsed =
      sim::WireChaosSpec::parse(spec.describe());
  EXPECT_DOUBLE_EQ(reparsed.reset_rate, spec.reset_rate);
  EXPECT_DOUBLE_EQ(reparsed.duplicate_rate, spec.duplicate_rate);

  EXPECT_THROW(sim::WireChaosSpec::parse("explode=1"), std::invalid_argument);
  EXPECT_THROW(sim::WireChaosSpec::parse("reset"), std::invalid_argument);
  EXPECT_THROW(sim::WireChaosSpec::parse("reset=lots"), std::invalid_argument);
}

TEST(WireChaos, DrawScheduleIsDeterministicAndSeedKeyed) {
  sim::WireChaosSpec spec;
  spec.seed = 42;
  spec.reset_rate = spec.truncate_rate = spec.stall_rate = 0.1;
  spec.garble_rate = spec.duplicate_rate = 0.1;
  const sim::WireChaosProxy a("/nonexistent/a", "/nonexistent/up", spec);
  const sim::WireChaosProxy b("/nonexistent/b", "/nonexistent/up", spec);
  spec.seed = 43;
  const sim::WireChaosProxy c("/nonexistent/c", "/nonexistent/up", spec);
  bool seeds_diverged = false;
  int faults = 0;
  for (std::uint64_t frame = 0; frame < 400; ++frame) {
    EXPECT_EQ(a.draw(frame), b.draw(frame));
    if (a.draw(frame) != c.draw(frame)) seeds_diverged = true;
    if (a.draw(frame) != sim::WireFault::None) ++faults;
  }
  EXPECT_TRUE(seeds_diverged);
  // 50% aggregate fault rate over 400 frames: the stream is actually live.
  EXPECT_GT(faults, 100);
  EXPECT_LT(faults, 300);
}

// ---- request deadlines ------------------------------------------------------

TEST(Deadline, BlownBudgetAnswersTypedDeadlineExceeded) {
  const std::string dir = temp_dir("deadline");
  StoreFixture store(dir, "s.omps", 5);
  serve::ServerOptions options =
      base_server_options(util::path_join(dir, "srv.sock"));
  options.request_deadline_ms = 20;
  options.debug_execute_delay_ms = 60;  // every query lands past its budget
  options.cache_capacity = 0;
  TestServer server({store.path}, options);

  serve::Client client =
      serve::Client::connect_unix(options.socket_path);
  const serve::Response reply =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(reply.type, serve::MsgType::DeadlineExceeded);

  serve::Request stats;
  stats.type = serve::MsgType::Stats;
  const serve::Response counters = client.call_one(stats);
  EXPECT_GE(counters.deadline_exceeded, 1u);
  server.stop_and_join();
  std::filesystem::remove_all(dir);
}

TEST(Deadline, GenerousBudgetStillAnswersNormally) {
  const std::string dir = temp_dir("deadline_ok");
  StoreFixture store(dir, "s.omps", 5);
  serve::ServerOptions options =
      base_server_options(util::path_join(dir, "srv.sock"));
  options.request_deadline_ms = 30000;
  options.debug_execute_delay_ms = 5;  // approaches the boundary from below
  TestServer server({store.path}, options);

  serve::Client client = serve::Client::connect_unix(options.socket_path);
  const serve::Response reply =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
  server.stop_and_join();
  std::filesystem::remove_all(dir);
}

// ---- slowloris eviction -----------------------------------------------------

TEST(Slowloris, StalledPartialFrameIsEvictedHealthyPeersAreNot) {
  const std::string dir = temp_dir("slowloris");
  StoreFixture store(dir, "s.omps", 5);
  serve::ServerOptions options =
      base_server_options(util::path_join(dir, "srv.sock"));
  options.stall_timeout_ms = 150;
  TestServer server({store.path}, options);

  // The attacker: open a connection, send 3 bytes of a frame header, stop.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  const int attacker = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(attacker, 0);
  ASSERT_EQ(::connect(attacker, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char partial[3] = {0x10, 0x00, 0x00};
  ASSERT_TRUE(serve::send_all(attacker, std::string_view(partial, 3)));

  // Meanwhile a healthy client keeps getting answers.
  serve::Client client = serve::Client::connect_unix(options.socket_path);
  EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
            serve::MsgType::RecommendReply);

  // The attacker's socket must be closed by the server within the budget.
  timeval tv{5, 0};
  ::setsockopt(attacker, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char byte;
  const ssize_t n = ::recv(attacker, &byte, 1, 0);
  EXPECT_EQ(n, 0) << "expected eviction (EOF), got " << std::strerror(errno);
  ::close(attacker);

  serve::Request stats;
  stats.type = serve::MsgType::Stats;
  EXPECT_GE(client.call_one(stats).evicted_slow, 1u);
  server.stop_and_join();
  std::filesystem::remove_all(dir);
}

TEST(Slowloris, PartialCompletedWithinBudgetIsServed) {
  const std::string dir = temp_dir("slow_ok");
  StoreFixture store(dir, "s.omps", 5);
  serve::ServerOptions options =
      base_server_options(util::path_join(dir, "srv.sock"));
  options.stall_timeout_ms = 2000;
  TestServer server({store.path}, options);

  std::string frame;
  serve::encode_request(frame, recommend_request(store.app, store.arch));
  serve::Client probe = serve::Client::connect_unix(options.socket_path);
  probe.close();  // only needed the path validation

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  // Drip the frame in two halves with a pause well under the budget.
  const std::size_t half = frame.size() / 2;
  ASSERT_TRUE(serve::send_all(fd, std::string_view(frame).substr(0, half)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(serve::send_all(fd, std::string_view(frame).substr(half)));

  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string reply_bytes;
  for (;;) {
    const std::size_t total = serve::frame_size(reply_bytes);
    if (total != 0 && reply_bytes.size() >= total) break;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "no reply for the slow-but-legit frame";
    reply_bytes.append(buf, static_cast<std::size_t>(n));
  }
  const serve::Response reply = serve::decode_response(
      std::string_view(reply_bytes).substr(4, serve::frame_size(reply_bytes) - 4));
  EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
  ::close(fd);
  server.stop_and_join();
  std::filesystem::remove_all(dir);
}

// ---- retrying client --------------------------------------------------------

TEST(RetryingClient, RetriesTypedOverloadShedsWithBoundedBackoff) {
  const std::string dir = temp_dir("retry_shed");
  StoreFixture store(dir, "s.omps", 5);
  serve::ServerOptions options =
      base_server_options(util::path_join(dir, "srv.sock"));
  options.max_pending = 0;  // every query is shed: always Overloaded
  TestServer server({store.path}, options);

  std::vector<std::int64_t> slept;
  serve::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.breaker_threshold = 0;
  policy.backoff.base_ms = 10;
  policy.backoff.max_ms = 200;
  serve::RetryingClient client(
      [&] { return serve::Client::connect_unix(options.socket_path); },
      policy, nullptr, [&](std::int64_t ms) { slept.push_back(ms); });

  EXPECT_THROW(client.call_one(recommend_request(store.app, store.arch)),
               serve::RetriesExhaustedError);
  EXPECT_EQ(client.counters().attempts, 4u);
  EXPECT_EQ(client.counters().retries, 3u);
  ASSERT_EQ(slept.size(), 3u);
  std::int64_t prev = 0;
  for (const std::int64_t delay : slept) {
    EXPECT_GE(delay, policy.backoff.base_ms);
    EXPECT_LE(delay, policy.backoff.max_ms);
    if (prev > 0) {
      EXPECT_LE(delay, 3 * prev);
    }
    prev = delay;
  }
  server.stop_and_join();
  std::filesystem::remove_all(dir);
}

TEST(RetryingClient, CircuitBreakerTripsFastFailsAndHalfOpens) {
  const std::string dir = temp_dir("breaker");
  StoreFixture store(dir, "s.omps", 5);
  const std::string socket_path = util::path_join(dir, "srv.sock");

  std::int64_t fake_now = 1000;
  serve::RetryPolicy policy;
  policy.max_attempts = 1;  // the breaker counts CALLS, keep them 1:1
  policy.breaker_threshold = 2;
  policy.breaker_cooldown_ms = 500;
  serve::RetryingClient client(
      [&] { return serve::Client::connect_unix(socket_path); }, policy,
      [&] { return fake_now; }, [](std::int64_t) {});
  const serve::Request request = recommend_request(store.app, store.arch);

  // Two failed calls (no server): Closed -> Open.
  EXPECT_THROW(client.call_one(request), serve::RetriesExhaustedError);
  EXPECT_EQ(client.breaker_state(),
            serve::RetryingClient::BreakerState::Closed);
  EXPECT_THROW(client.call_one(request), serve::RetriesExhaustedError);
  EXPECT_EQ(client.breaker_state(), serve::RetryingClient::BreakerState::Open);
  EXPECT_EQ(client.counters().breaker_trips, 1u);

  // While Open and inside the cooldown: fast-fail, no socket traffic.
  const std::uint64_t attempts_before = client.counters().attempts;
  EXPECT_THROW(client.call_one(request), serve::CircuitOpenError);
  EXPECT_EQ(client.counters().attempts, attempts_before);
  EXPECT_EQ(client.counters().breaker_fast_fails, 1u);

  // Cooldown elapses; the half-open probe still finds no server: re-Open.
  fake_now += policy.breaker_cooldown_ms + 1;
  EXPECT_THROW(client.call_one(request), serve::RetriesExhaustedError);
  EXPECT_EQ(client.breaker_state(), serve::RetryingClient::BreakerState::Open);
  EXPECT_EQ(client.counters().breaker_trips, 2u);

  // A server appears; the next probe closes the breaker for good.
  TestServer server({store.path},
                    base_server_options(socket_path));
  fake_now += policy.breaker_cooldown_ms + 1;
  EXPECT_EQ(client.call_one(request).type, serve::MsgType::RecommendReply);
  EXPECT_EQ(client.breaker_state(),
            serve::RetryingClient::BreakerState::Closed);
  EXPECT_EQ(client.call_one(request).type, serve::MsgType::RecommendReply);
  server.stop_and_join();
  std::filesystem::remove_all(dir);
}

TEST(RetryingClient, NonIdempotentBatchesDoNotSilentlyReplay) {
  const std::string dir = temp_dir("nonidem");
  const std::string socket_path = util::path_join(dir, "none.sock");
  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.breaker_threshold = 0;
  serve::RetryingClient client(
      [&] { return serve::Client::connect_unix(socket_path); }, policy,
      nullptr, [](std::int64_t) {});
  serve::Request swap;
  swap.type = serve::MsgType::Swap;
  swap.store_paths = {"x.omps"};
  // No server at all: the connect fails BEFORE anything is sent, so even a
  // Swap may retry — and then exhaust.
  EXPECT_THROW(client.call_one(swap), serve::RetriesExhaustedError);
  std::filesystem::remove_all(dir);
}

// ---- keeper -----------------------------------------------------------------

TEST(Keeper, RestartsSigkilledServerOntoTheSameSocket) {
  const std::string dir = temp_dir("keeper_kill");
  StoreFixture store(dir, "s.omps", 5);
  serve::KeeperOptions options = base_keeper_options(dir, store);
  TestKeeper keeper(options);

  const pid_t first = keeper.keeper.child_pid();
  ASSERT_GT(first, 0);
  EXPECT_EQ(util::read_file(options.pid_file).value_or(""),
            std::to_string(first) + "\n");
  {
    serve::Client client =
        connect_with_retry(options.server.socket_path);
    EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
              serve::MsgType::RecommendReply);
  }

  ASSERT_EQ(::kill(first, SIGKILL), 0);
  ASSERT_TRUE(keeper.wait_respawned(first));
  const pid_t second = keeper.keeper.child_pid();
  EXPECT_NE(second, first);
  EXPECT_EQ(util::read_file(options.pid_file).value_or(""),
            std::to_string(second) + "\n");

  // Same socket path answers again.
  serve::Client client = connect_with_retry(options.server.socket_path);
  EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
            serve::MsgType::RecommendReply);

  const serve::KeeperCounters counters = keeper.keeper.counters();
  EXPECT_GE(counters.crashes, 1u);
  EXPECT_GE(counters.restarts, 1u);
  EXPECT_EQ(counters.hangs, 0u);

  // The incident was durably recorded with its cause.
  const std::string incidents =
      util::read_file(options.incident_log_path).value_or("");
  EXPECT_NE(incidents.find("crash"), std::string::npos) << incidents;
  EXPECT_NE(incidents.find("signal 9"), std::string::npos) << incidents;

  keeper.stop_and_join();
  EXPECT_EQ(keeper.rc, 0);
  // Zero stale-socket leaks, and the pid file is gone.
  EXPECT_FALSE(std::filesystem::exists(options.server.socket_path));
  EXPECT_FALSE(std::filesystem::exists(options.pid_file));
  std::filesystem::remove_all(dir);
}

TEST(Keeper, DetectsWedgedServerByHeartbeatSilence) {
  const std::string dir = temp_dir("keeper_wedge");
  StoreFixture store(dir, "s.omps", 5);
  serve::KeeperOptions options = base_keeper_options(dir, store);
  options.hang_timeout_ms = 600;
  TestKeeper keeper(options);

  const pid_t first = keeper.keeper.child_pid();
  ASSERT_GT(first, 0);
  // Freeze the whole child: heartbeats stop, the process stays alive —
  // exactly what a livelocked IO loop looks like from the outside.
  ASSERT_EQ(::kill(first, SIGSTOP), 0);
  ASSERT_TRUE(keeper.wait_respawned(first));

  const serve::KeeperCounters counters = keeper.keeper.counters();
  EXPECT_GE(counters.hangs, 1u);
  const std::string incidents =
      util::read_file(options.incident_log_path).value_or("");
  EXPECT_NE(incidents.find("hang"), std::string::npos) << incidents;
  EXPECT_NE(incidents.find("no heartbeat for"), std::string::npos)
      << incidents;

  serve::Client client = connect_with_retry(options.server.socket_path);
  EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
            serve::MsgType::RecommendReply);
  keeper.stop_and_join();
  EXPECT_EQ(keeper.rc, 0);
  std::filesystem::remove_all(dir);
}

TEST(Keeper, RestartServesTheHotSwappedGenerationNotTheBootOne) {
  const std::string dir = temp_dir("keeper_swap");
  StoreFixture boot(dir, "boot.omps", 5);
  StoreFixture swapped(dir, "swapped.omps", 1234);
  serve::KeeperOptions options = base_keeper_options(dir, boot);
  TestKeeper keeper(options);

  {
    serve::Client client = connect_with_retry(options.server.socket_path);
    serve::Request swap;
    swap.type = serve::MsgType::Swap;
    swap.store_paths = {swapped.path};
    const serve::Response reply = client.call_one(swap);
    ASSERT_EQ(reply.type, serve::MsgType::SwapReply);
    ASSERT_TRUE(reply.found) << reply.message;
  }
  // The Keeper hears about generation 2 over the pipe.
  const std::int64_t deadline = util::monotonic_ms() + 5000;
  while (keeper.keeper.reported_generation() < 2 &&
         util::monotonic_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(keeper.keeper.reported_generation(), 2u);
  ASSERT_EQ(keeper.keeper.current_store_paths(),
            std::vector<std::string>{swapped.path});

  // Crash NOW: the race the Keeper must win is "swap landed, then death".
  const pid_t first = keeper.keeper.child_pid();
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  ASSERT_TRUE(keeper.wait_respawned(first));

  // The replacement must answer from the SWAPPED store, not the boot one.
  const auto reference = serve::Snapshot::load({swapped.path}, 1);
  const serve::Request request = recommend_request(swapped.app, swapped.arch);
  const serve::Response expected = serve::Server::answer(request, *reference);
  serve::Client client = connect_with_retry(options.server.socket_path);
  const serve::Response reply = client.call_one(request);
  EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
  EXPECT_EQ(reply.found, expected.found);
  EXPECT_EQ(reply.config_key, expected.config_key);
  EXPECT_DOUBLE_EQ(reply.speedup, expected.speedup);
  keeper.stop_and_join();
  std::filesystem::remove_all(dir);
}

TEST(Keeper, SnapshotBuildsLongerThanTheHangTimeoutAreNotHangs) {
  // Snapshot builds run off the IO loop (boot beats "boot" lines, a swap
  // build leaves the loop's heartbeats running): booting from and then
  // wire-swapping to a store whose build takes several hang timeouts must
  // end in generation 2 on the first child, with no hang, no restart and
  // no incident.
  const std::string dir = temp_dir("keeper_slow_builds");
  const util::ScopedEnv one_lane({{"OMPTUNE_ANALYSIS_THREADS", "1"}});
  StoreFixture boot(dir, "boot.omps", 5);
  serve::KeeperOptions options = base_keeper_options(dir, boot);
  options.hang_timeout_ms = 400;
  const std::string slow = slow_store(dir, 3 * options.hang_timeout_ms);
  options.store_paths = {slow};
  TestKeeper keeper(options);
  const pid_t child = keeper.keeper.child_pid();
  ASSERT_GT(child, 0);

  serve::Client client = connect_with_retry(options.server.socket_path);
  serve::Request swap;
  swap.type = serve::MsgType::Swap;
  swap.store_paths = {slow};
  const std::int64_t begin = util::monotonic_ms();
  const serve::Response reply = client.call_one(swap);
  const std::int64_t took = util::monotonic_ms() - begin;
  ASSERT_EQ(reply.type, serve::MsgType::SwapReply);
  ASSERT_TRUE(reply.found) << reply.message;
  EXPECT_EQ(reply.generation, 2u);
  EXPECT_GT(took, options.hang_timeout_ms)
      << "the build must outlast the hang timeout to test anything";

  const std::int64_t deadline = util::monotonic_ms() + 5000;
  while (keeper.keeper.reported_generation() < 2 &&
         util::monotonic_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(keeper.keeper.reported_generation(), 2u);
  EXPECT_EQ(keeper.keeper.child_pid(), child);
  const serve::KeeperCounters counters = keeper.keeper.counters();
  EXPECT_EQ(counters.hangs, 0u);
  EXPECT_EQ(counters.crashes, 0u);
  EXPECT_EQ(counters.restarts, 0u);
  const std::string incidents =
      util::read_file(options.incident_log_path).value_or("");
  EXPECT_EQ(incidents.find("hang"), std::string::npos) << incidents;
  keeper.stop_and_join();
  EXPECT_EQ(keeper.rc, 0);
  std::filesystem::remove_all(dir);
}

// ---- the headline: chaos ride-through ---------------------------------------

TEST(ChaosRideThrough, ClientCompletesEverythingThroughChaosAndARestart) {
  const std::string dir = temp_dir("ride");
  StoreFixture store(dir, "s.omps", 5);
  serve::KeeperOptions keeper_options = base_keeper_options(dir, store);
  TestKeeper keeper(keeper_options);

  sim::WireChaosSpec spec;
  spec.seed = 11;
  spec.reset_rate = 0.05;
  spec.truncate_rate = 0.05;
  spec.stall_rate = 0.05;
  spec.garble_rate = 0.05;
  spec.duplicate_rate = 0.05;
  spec.stall_ms = 40;
  sim::WireChaosProxy proxy(util::path_join(dir, "proxy.sock"),
                            keeper_options.server.socket_path, spec);
  proxy.start();

  serve::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.socket_timeout_ms = 700;
  policy.breaker_threshold = 0;  // the breaker gets its own test; here we
                                 // must ride through the restart window
  policy.backoff.base_ms = 20;
  policy.backoff.max_ms = 500;
  policy.seed = 7;
  serve::RetryingClient client = serve::RetryingClient::over_unix(
      util::path_join(dir, "proxy.sock"), policy);

  const sweep::Sample& sample = store.dataset.samples().front();
  const int total_calls = 120;
  int completed = 0;
  for (int i = 0; i < total_calls; ++i) {
    if (i == total_calls / 2) {
      // Mid-run, murder the server. The proxy sees a dead upstream, the
      // client sees dropped connections, the Keeper restarts — and no
      // query may be lost.
      const pid_t victim = keeper.keeper.child_pid();
      ASSERT_GT(victim, 0);
      ASSERT_EQ(::kill(victim, SIGKILL), 0);
    }
    serve::Request request;
    switch (i % 4) {
      case 0:
        request = recommend_request(store.app, store.arch);
        break;
      case 1:
        request.type = serve::MsgType::BestSetting;
        request.app = sample.app;
        request.arch = sample.arch;
        request.input = sample.input;
        request.threads = sample.threads;
        break;
      case 2:
        request.type = serve::MsgType::Marginal;
        request.arch = store.arch;
        request.variable = "OMP_PLACES";
        request.value = "cores";
        break;
      default:
        request.type = serve::MsgType::Stats;
        break;
    }
    const serve::Response reply = client.call_one(request);
    EXPECT_FALSE(serve::is_retryable_reply(reply.type));
    EXPECT_NE(reply.type, serve::MsgType::Error)
        << "call " << i << ": " << reply.message;
    ++completed;
  }
  EXPECT_EQ(completed, total_calls);  // 100% completion, by construction

  // The chaos actually happened, and the retry budget absorbed it.
  const sim::WireChaosCounters chaos = proxy.counters();
  EXPECT_GE(chaos.frames, static_cast<std::uint64_t>(total_calls));
  EXPECT_GT(chaos.resets + chaos.truncated + chaos.stalled + chaos.garbled +
                chaos.duplicated,
            5u);
  const serve::RetryCounters& retries = client.counters();
  EXPECT_EQ(retries.calls, static_cast<std::uint64_t>(total_calls));
  EXPECT_GT(retries.retries, 0u);
  EXPECT_LE(retries.attempts,
            static_cast<std::uint64_t>(total_calls) *
                static_cast<std::uint64_t>(policy.max_attempts));
  const serve::KeeperCounters keeper_counters = keeper.keeper.counters();
  EXPECT_GE(keeper_counters.crashes, 1u);
  EXPECT_GE(keeper_counters.restarts, 1u);

  proxy.stop();
  keeper.stop_and_join();
  EXPECT_EQ(keeper.rc, 0);
  EXPECT_FALSE(std::filesystem::exists(keeper_options.server.socket_path));
  EXPECT_FALSE(std::filesystem::exists(util::path_join(dir, "proxy.sock")));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace omptune
