// The tuning service end to end: the wire protocol must round-trip every
// message type and reject malformed bytes as typed WireErrors; the reply
// cache must behave as a generation-keyed LRU; a snapshot must answer
// exactly what the analysis stack answers offline; and the server must
// batch, shed, hot-swap and drain over a real unix socket — including the
// headline guarantee that a hot-swap mid-load drops zero in-flight
// queries.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "core/tuner.hpp"
#include "analysis/marginals.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "sim/executor.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "sweep/harness.hpp"
#include "util/env.hpp"
#include "util/fs.hpp"
#include "util/process.hpp"

#include "scratch_dir.hpp"

namespace omptune {
namespace {

sweep::Dataset study_dataset(std::uint64_t seed) {
  sim::ModelRunner runner;
  sweep::SweepHarness harness(runner, 3, seed);
  return harness.run_study(sweep::StudyPlan::mini_plan(2, 6));
}

/// Write a small study store and remember an (app, arch) pair it contains.
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

/// run() on a background thread, with exceptions carried back to the test.
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

serve::Request recommend_request(const std::string& app,
                                 const std::string& arch) {
  serve::Request request;
  request.type = serve::MsgType::Recommend;
  request.app = app;
  request.arch = arch;
  return request;
}

serve::Request swap_request(std::vector<std::string> store_paths) {
  serve::Request request;
  request.type = serve::MsgType::Swap;
  request.store_paths = std::move(store_paths);
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

/// Longest interval between consecutive `times` that overlaps
/// [begin, end]; the window's own length when no time falls inside it.
std::int64_t longest_gap(std::vector<std::int64_t> times, std::int64_t begin,
                         std::int64_t end) {
  std::sort(times.begin(), times.end());
  std::int64_t longest = 0;
  std::int64_t previous = begin;
  for (const std::int64_t t : times) {
    if (t <= begin) continue;
    longest = std::max(longest, std::min(t, end) - previous);
    previous = t;
    if (t >= end) return longest;
  }
  return std::max(longest, end - previous);
}

std::size_t process_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

// ---- wire ------------------------------------------------------------------

TEST(ServeWire, RequestsRoundTrip) {
  serve::Request request;
  request.type = serve::MsgType::BestSetting;
  request.app = "xsbench";
  request.arch = "milan";
  request.input = "large";
  request.threads = 48;
  std::string bytes;
  serve::encode_request(bytes, request);
  ASSERT_EQ(serve::frame_size(bytes), bytes.size());
  const serve::Request decoded =
      serve::decode_request(std::string_view(bytes).substr(4));
  EXPECT_EQ(decoded.type, request.type);
  EXPECT_EQ(decoded.app, request.app);
  EXPECT_EQ(decoded.arch, request.arch);
  EXPECT_EQ(decoded.input, request.input);
  EXPECT_EQ(decoded.threads, request.threads);

  serve::Request swap;
  swap.type = serve::MsgType::Swap;
  swap.store_paths = {"a.omps", "b.omps", "c.omps"};
  bytes.clear();
  serve::encode_request(bytes, swap);
  EXPECT_EQ(serve::decode_request(std::string_view(bytes).substr(4)).store_paths,
            swap.store_paths);
}

TEST(ServeWire, ResponsesRoundTrip) {
  serve::Response response;
  response.type = serve::MsgType::RecommendReply;
  response.generation = 7;
  response.found = true;
  response.speedup = 1.75;
  response.config_key = "KMP_LIBRARY=turnaround OMP_PLACES=cores";
  response.variable_priority = {"KMP_LIBRARY", "OMP_PLACES", "OMP_PROC_BIND"};
  std::string bytes;
  serve::encode_response(bytes, response);
  ASSERT_EQ(serve::frame_size(bytes), bytes.size());
  const serve::Response decoded =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(decoded.type, response.type);
  EXPECT_EQ(decoded.generation, response.generation);
  EXPECT_TRUE(decoded.found);
  EXPECT_DOUBLE_EQ(decoded.speedup, response.speedup);
  EXPECT_EQ(decoded.config_key, response.config_key);
  EXPECT_EQ(decoded.variable_priority, response.variable_priority);

  serve::Response stats;
  stats.type = serve::MsgType::StatsReply;
  stats.generation = 3;
  stats.served = 12345;
  stats.batches = 99;
  stats.cache_hits = 1000;
  stats.cache_misses = 11;
  stats.shed = 4;
  stats.swaps = 2;
  stats.connections_accepted = 17;
  stats.connections_active = 5;
  stats.store_rows = 4242;
  stats.shards = 3;
  bytes.clear();
  serve::encode_response(bytes, stats);
  const serve::Response back =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(back.served, stats.served);
  EXPECT_EQ(back.batches, stats.batches);
  EXPECT_EQ(back.cache_hits, stats.cache_hits);
  EXPECT_EQ(back.shed, stats.shed);
  EXPECT_EQ(back.connections_accepted, stats.connections_accepted);
  EXPECT_EQ(back.store_rows, stats.store_rows);
  EXPECT_EQ(back.shards, stats.shards);
}

TEST(ServeWire, MarginalReplyRoundTrips) {
  serve::Response marginal;
  marginal.type = serve::MsgType::MarginalReply;
  marginal.found = true;
  marginal.samples = 321;
  marginal.mean_speedup = 1.1;
  marginal.median_speedup = 1.05;
  marginal.p95_speedup = 1.9;
  marginal.optimal_share = 0.4;
  std::string bytes;
  serve::encode_response(bytes, marginal);
  const serve::Response back =
      serve::decode_response(std::string_view(bytes).substr(4));
  EXPECT_EQ(back.samples, marginal.samples);
  EXPECT_DOUBLE_EQ(back.median_speedup, marginal.median_speedup);
  EXPECT_DOUBLE_EQ(back.optimal_share, marginal.optimal_share);
}

TEST(ServeWire, FrameSizeHandlesPartialAndOversized) {
  std::string bytes;
  serve::encode_request(bytes, recommend_request("app", "arch"));
  // Any strict prefix is "incomplete", never an error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(serve::frame_size(std::string_view(bytes).substr(0, cut)), 0u);
  }
  // A declared length beyond the cap is a protocol violation immediately.
  std::string oversized(4, '\0');
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  std::memcpy(oversized.data(), &huge, 4);
  EXPECT_THROW(serve::frame_size(oversized), serve::WireError);
}

TEST(ServeWire, MalformedPayloadsThrowWireError) {
  EXPECT_THROW(serve::decode_request(""), serve::WireError);
  EXPECT_THROW(serve::decode_request("\xee"), serve::WireError);  // unknown type
  // Recommend with a string length running off the end.
  std::string truncated;
  truncated.push_back(static_cast<char>(serve::MsgType::Recommend));
  truncated.push_back('\x40');
  truncated.push_back('\x00');
  EXPECT_THROW(serve::decode_request(truncated), serve::WireError);
  // Trailing garbage after a well-formed message is rejected too.
  std::string framed;
  serve::encode_request(framed, recommend_request("a", "b"));
  std::string payload(std::string_view(framed).substr(4));
  payload += "junk";
  EXPECT_THROW(serve::decode_request(payload), serve::WireError);
  // A reply type is not a request.
  EXPECT_FALSE(serve::is_request_type(serve::MsgType::RecommendReply));
  EXPECT_TRUE(serve::is_request_type(serve::MsgType::Marginal));
}

// ---- cache -----------------------------------------------------------------

TEST(ReplyCache, LruEvictsOldestAndRefreshesOnHit) {
  serve::ReplyCache cache(2);
  const std::string a = serve::ReplyCache::make_key(1, "a");
  const std::string b = serve::ReplyCache::make_key(1, "b");
  const std::string c = serve::ReplyCache::make_key(1, "c");
  cache.insert(a, "reply-a");
  cache.insert(b, "reply-b");
  std::string out;
  ASSERT_TRUE(cache.lookup(a, out));  // refresh a: b is now the LRU entry
  EXPECT_EQ(out, "reply-a");
  cache.insert(c, "reply-c");
  out.clear();
  EXPECT_FALSE(cache.lookup(b, out)) << "b should have been evicted";
  EXPECT_TRUE(cache.lookup(a, out));
  EXPECT_TRUE(cache.lookup(c, out));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ReplyCache, HitAppendsWithoutClobbering) {
  serve::ReplyCache cache(4);
  const std::string key = serve::ReplyCache::make_key(1, "x");
  cache.insert(key, "frame");
  std::string out = "prefix-";
  ASSERT_TRUE(cache.lookup(key, out));
  EXPECT_EQ(out, "prefix-frame");
}

TEST(ReplyCache, GenerationKeysAreDistinctAndPurgeable) {
  serve::ReplyCache cache(8);
  const std::string gen1 = serve::ReplyCache::make_key(1, "same-request");
  const std::string gen2 = serve::ReplyCache::make_key(2, "same-request");
  ASSERT_NE(gen1, gen2) << "generation must be part of the key";
  cache.insert(gen1, "old");
  cache.insert(gen2, "new");
  cache.purge_below(2);
  std::string out;
  EXPECT_FALSE(cache.lookup(gen1, out));
  ASSERT_TRUE(cache.lookup(gen2, out));
  EXPECT_EQ(out, "new");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplyCache, ZeroCapacityDisables) {
  serve::ReplyCache cache(0);
  const std::string key = serve::ReplyCache::make_key(1, "x");
  cache.insert(key, "frame");
  std::string out;
  EXPECT_FALSE(cache.lookup(key, out));
  EXPECT_EQ(cache.size(), 0u);
}

// ---- snapshot --------------------------------------------------------------

TEST(Snapshot, AnswersMatchOfflineAnalysis) {
  const ScratchDir scratch("snapshot");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  const auto snapshot = serve::Snapshot::load({store.path}, 1);
  ASSERT_EQ(snapshot->generation(), 1u);
  EXPECT_EQ(snapshot->shard_count(), 1u);
  EXPECT_EQ(snapshot->rows(), store.dataset.size());

  // Best config per (app, arch) equals the knowledge base's answer.
  const core::KnowledgeBase kb(store::StoreReader(store.dataset.ok_samples()),
                               store.arch);
  const serve::BestConfig* best =
      snapshot->best_for_pair(store.app, store.arch);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->config_key,
            kb.best_known_config(store.app, store.arch).key());
  EXPECT_DOUBLE_EQ(best->speedup,
                   kb.best_known_speedup(store.app, store.arch));

  // Variable priority equals the knowledge base ladder, including the
  // fallback for a pair the study never ran.
  const auto* priority = snapshot->priority(store.app, store.arch);
  ASSERT_NE(priority, nullptr);
  EXPECT_EQ(*priority, kb.variable_priority(store.app, store.arch));
  const auto* fallback = snapshot->priority("no-such-app", store.arch);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(*fallback, kb.variable_priority("no-such-app", store.arch));

  // Marginals equal value_marginals, pooled and per-arch.
  const auto pooled = analysis::value_marginals(
      store::StoreReader(store.dataset.ok_samples()), false);
  ASSERT_FALSE(pooled.empty());
  const analysis::MarginalRow& row = pooled.front();
  const analysis::MarginalRow* got =
      snapshot->marginal("all", row.variable, row.value);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->samples, row.samples);
  EXPECT_DOUBLE_EQ(got->median_speedup, row.median_speedup);
  EXPECT_EQ(snapshot->marginal("no-such-arch", row.variable, row.value),
            nullptr);

  // An unknown pair has no best config but still gets a priority ladder.
  EXPECT_EQ(snapshot->best_for_pair("no-such-app", store.arch), nullptr);
}

TEST(Snapshot, MultiShardMergesAndLabelsOpenFailures) {
  const ScratchDir scratch("snapshot_multi");
  const std::string& dir = scratch.path();
  const StoreFixture a(dir, "a.omps", 5);
  const StoreFixture b(dir, "b.omps", 9);
  const auto snapshot = serve::Snapshot::load({a.path, b.path}, 3);
  EXPECT_EQ(snapshot->shard_count(), 2u);
  EXPECT_EQ(snapshot->rows(), a.dataset.size() + b.dataset.size());
  EXPECT_NE(snapshot->best_for_pair(a.app, a.arch), nullptr);

  // A missing shard fails the whole load with the path and the generation
  // it was meant to become (satellite: typed open errors).
  const std::string missing = util::path_join(dir, "gone.omps");
  try {
    serve::Snapshot::load({a.path, missing}, 4);
    FAIL() << "expected StoreOpenError";
  } catch (const util::StoreOpenError& error) {
    EXPECT_EQ(error.path(), missing);
    EXPECT_EQ(error.generation(), 4u);
    EXPECT_NE(std::string(error.what()).find("generation 4"),
              std::string::npos);
  }
}

void expect_same_best(const serve::BestConfig* got,
                      const serve::BestConfig* want, const std::string& key) {
  ASSERT_EQ(got == nullptr, want == nullptr) << key;
  if (want == nullptr) return;
  EXPECT_EQ(got->speedup, want->speedup) << key;
  EXPECT_EQ(got->config_key, want->config_key) << key;
}

TEST(Snapshot, MultiShardAnswersLikeOneStoreOfTheConcatenatedRows) {
  // Both shards hold the same settings, so the concatenation interleaves
  // every setting; shard b also carries quarantined placeholders.
  const ScratchDir scratch("snapshot_concat");
  const std::string& dir = scratch.path();
  const sweep::Dataset a = study_dataset(5);
  std::vector<sweep::Sample> b_rows = study_dataset(9).samples();
  for (std::size_t i = 1; i < b_rows.size(); i += 7) {
    if (b_rows[i].is_default) continue;
    b_rows[i].status = sweep::SampleStatus::Quarantined;
    b_rows[i].error = "injected";
    b_rows[i].speedup = 0.0;
  }
  const sweep::Dataset b(std::move(b_rows));
  sweep::Dataset both = a;
  both.append(b);
  const std::string path_a = util::path_join(dir, "a.omps");
  const std::string path_b = util::path_join(dir, "b.omps");
  const std::string path_both = util::path_join(dir, "both.omps");
  store::write_store(path_a, a);
  store::write_store(path_b, b);
  store::write_store(path_both, both);

  const auto sharded = serve::Snapshot::load({path_a, path_b}, 1);
  const auto single = serve::Snapshot::load({path_both}, 1);
  EXPECT_EQ(sharded->rows(), single->rows());
  for (const sweep::Sample& s : both.samples()) {
    const std::string key = s.arch + "/" + s.app + "/" + s.input + "/" +
                            std::to_string(s.threads);
    expect_same_best(sharded->best_for_setting(s.arch, s.app, s.input, s.threads),
                     single->best_for_setting(s.arch, s.app, s.input, s.threads),
                     key);
    expect_same_best(sharded->best_for_pair(s.app, s.arch),
                     single->best_for_pair(s.app, s.arch), key);
    for (const std::string& app : {s.app, std::string("no-such-app")}) {
      const auto* got = sharded->priority(app, s.arch);
      const auto* want = single->priority(app, s.arch);
      ASSERT_NE(got, nullptr) << key;
      ASSERT_NE(want, nullptr) << key;
      EXPECT_EQ(*got, *want) << key;
    }
  }
  ASSERT_NE(sharded->priority("no-such-app", "no-such-arch"), nullptr);
  EXPECT_EQ(*sharded->priority("no-such-app", "no-such-arch"),
            *single->priority("no-such-app", "no-such-arch"));

  const store::StoreReader image(both);
  for (const bool per_arch : {true, false}) {
    for (const analysis::MarginalRow& row :
         analysis::value_marginals(image, per_arch)) {
      const std::string key = row.arch + "/" + row.variable + "/" + row.value;
      const analysis::MarginalRow* got =
          sharded->marginal(row.arch, row.variable, row.value);
      const analysis::MarginalRow* want =
          single->marginal(row.arch, row.variable, row.value);
      ASSERT_NE(got, nullptr) << key;
      ASSERT_NE(want, nullptr) << key;
      EXPECT_EQ(got->samples, want->samples) << key;
      EXPECT_EQ(got->mean_speedup, want->mean_speedup) << key;
      EXPECT_EQ(got->median_speedup, want->median_speedup) << key;
      EXPECT_EQ(got->p95_speedup, want->p95_speedup) << key;
      EXPECT_EQ(got->optimal_share, want->optimal_share) << key;
    }
  }
}

// ---- server ----------------------------------------------------------------

serve::ServerOptions test_options(const std::string& dir) {
  serve::ServerOptions options;
  options.socket_path = util::path_join(dir, "s.sock");
  options.handle_signals = false;  // the guard is process-global
  return options;
}

TEST(Server, BatchedQueriesStatsAndCacheHits) {
  const ScratchDir scratch("server_basic");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));

  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  // One pipelined batch mixing every query type plus a stats probe.
  serve::Request best;
  best.type = serve::MsgType::BestSetting;
  const sweep::Sample& sample = store.dataset.samples().front();
  best.arch = sample.arch;
  best.app = sample.app;
  best.input = sample.input;
  best.threads = sample.threads;
  serve::Request marginal;
  marginal.type = serve::MsgType::Marginal;
  marginal.arch = "all";
  {
    const auto rows = analysis::value_marginals(
        store::StoreReader(store.dataset.ok_samples()), false);
    marginal.variable = rows.front().variable;
    marginal.value = rows.front().value;
  }
  serve::Request stats;
  stats.type = serve::MsgType::Stats;

  const std::vector<serve::Response> replies = client.call(
      {recommend_request(store.app, store.arch), best, marginal, stats});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].type, serve::MsgType::RecommendReply);
  ASSERT_TRUE(replies[0].found);
  EXPECT_GT(replies[0].speedup, 0.0);
  EXPECT_FALSE(replies[0].config_key.empty());
  EXPECT_FALSE(replies[0].variable_priority.empty());
  EXPECT_EQ(replies[0].generation, 1u);
  EXPECT_EQ(replies[1].type, serve::MsgType::BestSettingReply);
  EXPECT_TRUE(replies[1].found);
  EXPECT_EQ(replies[2].type, serve::MsgType::MarginalReply);
  EXPECT_TRUE(replies[2].found);
  EXPECT_GT(replies[2].samples, 0u);
  EXPECT_EQ(replies[3].type, serve::MsgType::StatsReply);
  EXPECT_EQ(replies[3].generation, 1u);
  EXPECT_GT(replies[3].store_rows, 0u);

  // The same recommendation again is a cache hit with an identical answer.
  const serve::Response again =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(again.config_key, replies[0].config_key);
  ts.stop_and_join();

  const serve::ServerCounters counters = ts.server.counters();
  EXPECT_EQ(counters.served, 5u);
  EXPECT_GE(counters.batches, 2u);
  EXPECT_GE(counters.cache_hits, 1u);
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.connections_closed, 1u);
  EXPECT_EQ(counters.connections_active, 0u);
  EXPECT_TRUE(counters.drained_cleanly);
}

TEST(Server, UnknownPairAnswersNotFoundNotError) {
  const ScratchDir scratch("server_miss");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  const serve::Response reply =
      client.call_one(recommend_request("no-such-app", store.arch));
  EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
  EXPECT_FALSE(reply.found);
  EXPECT_FALSE(reply.variable_priority.empty())
      << "the priority ladder still answers for unknown apps";
  ts.stop_and_join();
}

TEST(Server, ShedsLoadBeyondAdmissionBound) {
  const ScratchDir scratch("server_shed");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  serve::ServerOptions options = test_options(dir);
  options.max_pending = 4;  // tiny bounded queue
  options.cache_capacity = 0;
  TestServer ts({store.path}, options);
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));

  // One pipelined burst far over the bound. Every request gets exactly one
  // reply, in order; the overflow is typed Overloaded, not a stall.
  const std::size_t burst = 64;
  const std::vector<serve::Request> requests(
      burst, recommend_request(store.app, store.arch));
  const std::vector<serve::Response> replies = client.call(requests);
  ASSERT_EQ(replies.size(), burst);
  std::size_t answered = 0, shed = 0;
  for (const serve::Response& reply : replies) {
    if (reply.type == serve::MsgType::RecommendReply) ++answered;
    if (reply.type == serve::MsgType::Overloaded) ++shed;
  }
  EXPECT_EQ(answered + shed, burst);
  EXPECT_GE(answered, options.max_pending)
      << "admitted requests must still be answered";
  EXPECT_GT(shed, 0u) << "the burst must overflow a queue of 4";
  ts.stop_and_join();
  EXPECT_EQ(ts.server.counters().shed, shed);
}

TEST(Server, MalformedRequestGetsErrorReplyAndConnectionSurvives) {
  const ScratchDir scratch("server_badreq");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));

  // Raw socket: a well-framed but undecodable payload (unknown type 0xEE).
  const std::string socket_path = util::path_join(dir, "s.sock");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char bad_frame[5] = {1, 0, 0, 0, '\xee'};
  ASSERT_TRUE(util::write_all(fd, std::string_view(bad_frame, 5)));
  // Read one complete reply frame.
  std::string buffer;
  while (serve::frame_size(buffer) == 0) {
    char chunk[512];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  const serve::Response reply =
      serve::decode_response(std::string_view(buffer).substr(4));
  EXPECT_EQ(reply.type, serve::MsgType::Error);
  EXPECT_FALSE(reply.message.empty());
  ::close(fd);

  // The server survives and keeps answering well-formed clients.
  serve::Client client = serve::Client::connect_unix(socket_path);
  EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
            serve::MsgType::RecommendReply);
  ts.stop_and_join();
  EXPECT_EQ(ts.server.counters().wire_errors, 1u);
}

TEST(Server, OversizedFrameDropsTheConnection) {
  const ScratchDir scratch("server_oversize");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  const std::string socket_path = util::path_join(dir, "s.sock");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_TRUE(util::write_all(fd, std::string_view(prefix, 4)));
  // The server must close on the framing violation: recv sees EOF.
  char chunk[16];
  EXPECT_EQ(::recv(fd, chunk, sizeof(chunk), 0), 0);
  ::close(fd);
  ts.stop_and_join();
  EXPECT_EQ(ts.server.counters().protocol_errors, 1u);
}

TEST(Server, HotSwapMidLoadDropsNothing) {
  const ScratchDir scratch("server_swap");
  const std::string& dir = scratch.path();
  const StoreFixture a(dir, "a.omps", 5);
  const StoreFixture b(dir, "b.omps", 9);
  TestServer ts({a.path}, test_options(dir));
  const std::string socket_path = util::path_join(dir, "s.sock");

  // A client hammers pipelined batches while the main thread swaps the
  // store under it. The guarantee: every single request is answered with a
  // real reply — no Error, no Overloaded (bound not reached), no drop.
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> stop{false};
  std::set<std::uint64_t> generations_seen;
  std::mutex generations_mutex;
  std::thread load([&] {
    serve::Client client = serve::Client::connect_unix(socket_path);
    const std::vector<serve::Request> batch(8, recommend_request(a.app, a.arch));
    while (!stop.load()) {
      sent += batch.size();
      const std::vector<serve::Response> replies = client.call(batch);
      for (const serve::Response& reply : replies) {
        ASSERT_EQ(reply.type, serve::MsgType::RecommendReply);
        ASSERT_TRUE(reply.found);
        ++answered;
        std::lock_guard<std::mutex> lock(generations_mutex);
        generations_seen.insert(reply.generation);
      }
    }
  });

  // Let the load establish itself, then swap back and forth.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ts.server.swap({b.path}), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ts.server.swap({a.path, b.path}), 3u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  load.join();
  ts.stop_and_join();

  EXPECT_EQ(answered.load(), sent.load())
      << "a hot-swap must not drop in-flight queries";
  EXPECT_GE(generations_seen.size(), 2u)
      << "the load must have observed the swap happening under it";
  const serve::ServerCounters counters = ts.server.counters();
  EXPECT_EQ(counters.swaps, 2u);
  EXPECT_EQ(counters.generation, 3u);
  EXPECT_EQ(counters.served, answered.load());
  EXPECT_EQ(counters.shed, 0u);
}

TEST(Server, WireSwapBuildKeepsHeartbeatsAndOtherConnectionsFlowing) {
  // The build of a wire Swap runs off the IO thread: while it spans many
  // heartbeat intervals, the Keeper heartbeats keep coming and another
  // connection keeps getting answers, each within a few intervals.
  const ScratchDir scratch("server_async_swap");
  const std::string& dir = scratch.path();
  const util::ScopedEnv one_lane({{"OMPTUNE_ANALYSIS_THREADS", "1"}});
  const StoreFixture store(dir, "a.omps", 5);
  const std::int64_t interval = 25;
  const std::string slow = slow_store(dir, 30 * interval);
  util::Pipe heartbeat;
  serve::ServerOptions options = test_options(dir);
  options.heartbeat_fd = heartbeat.write_fd;
  options.heartbeat_interval_ms = interval;
  TestServer ts({store.path}, options);
  const std::string socket_path = util::path_join(dir, "s.sock");

  std::mutex mutex;
  std::vector<std::int64_t> beats, replies;
  std::thread listener([&] {
    char buffer[256];
    for (;;) {
      const ssize_t n = ::read(heartbeat.read_fd, buffer, sizeof buffer);
      if (n <= 0) return;  // write end closed below
      if (std::string_view(buffer, static_cast<std::size_t>(n)).find("hb\n") !=
          std::string_view::npos) {
        std::lock_guard<std::mutex> lock(mutex);
        beats.push_back(util::monotonic_ms());
      }
    }
  });
  std::atomic<bool> stop{false};
  std::thread querier([&] {
    serve::Client client = serve::Client::connect_unix(socket_path);
    while (!stop.load()) {
      const serve::Response reply =
          client.call_one(recommend_request(store.app, store.arch));
      EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
      std::lock_guard<std::mutex> lock(mutex);
      replies.push_back(util::monotonic_ms());
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(5 * interval));
  serve::Client admin = serve::Client::connect_unix(socket_path);
  const std::int64_t begin = util::monotonic_ms();
  const serve::Response swapped = admin.call_one(swap_request({slow}));
  const std::int64_t end = util::monotonic_ms();
  stop.store(true);
  querier.join();
  ts.stop_and_join();
  heartbeat.close_write();
  listener.join();

  ASSERT_EQ(swapped.type, serve::MsgType::SwapReply);
  ASSERT_TRUE(swapped.found) << swapped.message;
  EXPECT_EQ(swapped.generation, 2u);
  ASSERT_GE(end - begin, 15 * interval)
      << "the build must span many heartbeat intervals to test anything";
  EXPECT_LE(longest_gap(beats, begin, end), 6 * interval)
      << "heartbeats paused for the build (" << end - begin << " ms)";
  EXPECT_LE(longest_gap(replies, begin, end), 6 * interval)
      << "the other connection stalled for the build (" << end - begin
      << " ms)";
}

TEST(Server, StatsPipelinedBehindSwapSeesTheNewGeneration) {
  const ScratchDir scratch("server_swap_order");
  const std::string& dir = scratch.path();
  const StoreFixture a(dir, "a.omps", 5);
  const StoreFixture b(dir, "b.omps", 9);
  TestServer ts({a.path}, test_options(dir));
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  serve::Request stats;
  stats.type = serve::MsgType::Stats;
  const std::vector<serve::Response> replies =
      client.call({recommend_request(a.app, a.arch), swap_request({b.path}),
                   stats, recommend_request(b.app, b.arch)});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].type, serve::MsgType::RecommendReply);
  EXPECT_EQ(replies[0].generation, 1u);
  EXPECT_EQ(replies[1].type, serve::MsgType::SwapReply);
  EXPECT_TRUE(replies[1].found) << replies[1].message;
  EXPECT_EQ(replies[1].generation, 2u);
  EXPECT_EQ(replies[2].type, serve::MsgType::StatsReply);
  EXPECT_EQ(replies[2].generation, 2u);
  EXPECT_EQ(replies[2].swaps, 1u);
  EXPECT_EQ(replies[3].type, serve::MsgType::RecommendReply);
  EXPECT_EQ(replies[3].generation, 2u);
  ts.stop_and_join();
  EXPECT_EQ(ts.server.counters().served, 4u);
}

TEST(Server, ShutdownDuringSwapBuildAnswersTheSwapAndDrains) {
  const ScratchDir scratch("server_swap_shutdown");
  const std::string& dir = scratch.path();
  const util::ScopedEnv one_lane({{"OMPTUNE_ANALYSIS_THREADS", "1"}});
  const StoreFixture store(dir, "a.omps", 5);
  const std::string slow = slow_store(dir, 600);
  TestServer ts({store.path}, test_options(dir));
  const std::string socket_path = util::path_join(dir, "s.sock");
  const std::size_t serving_threads = process_threads();

  serve::Response swapped;
  std::thread swapper([&] {
    serve::Client client = serve::Client::connect_unix(socket_path);
    swapped = client.call_one(swap_request({slow}));
  });
  // Once the swapper and the build thread both run, shut down from another
  // connection while the build is still in flight.
  const std::int64_t deadline = util::monotonic_ms() + 5000;
  while (process_threads() < serving_threads + 2 &&
         util::monotonic_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(process_threads(), serving_threads + 2) << "no build thread started";
  serve::Client closer = serve::Client::connect_unix(socket_path);
  serve::Request shutdown;
  shutdown.type = serve::MsgType::Shutdown;
  EXPECT_EQ(closer.call_one(shutdown).type, serve::MsgType::ShutdownReply);
  swapper.join();

  EXPECT_EQ(swapped.type, serve::MsgType::SwapReply);
  EXPECT_TRUE(swapped.found) << swapped.message;
  EXPECT_EQ(swapped.generation, 2u);
  if (ts.thread.joinable()) ts.thread.join();  // run() exits on its own
  const serve::ServerCounters counters = ts.server.counters();
  EXPECT_TRUE(counters.drained_cleanly);
  EXPECT_EQ(counters.swaps, 1u);
  EXPECT_EQ(counters.generation, 2u);
  EXPECT_EQ(process_threads(), serving_threads - 1)
      << "only the IO thread may be gone: no build thread or lane is left";
}

TEST(Server, WireSwapFailureKeepsOldGeneration) {
  const ScratchDir scratch("server_swapfail");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));

  serve::Request swap;
  swap.type = serve::MsgType::Swap;
  swap.store_paths = {util::path_join(dir, "missing.omps")};
  const serve::Response reply = client.call_one(swap);
  EXPECT_EQ(reply.type, serve::MsgType::SwapReply);
  EXPECT_FALSE(reply.found);
  EXPECT_NE(reply.message.find("missing.omps"), std::string::npos);
  EXPECT_EQ(reply.generation, 1u) << "the old generation keeps serving";

  // Still serving generation 1 answers.
  const serve::Response after =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(after.type, serve::MsgType::RecommendReply);
  EXPECT_EQ(after.generation, 1u);
  ts.stop_and_join();
  const serve::ServerCounters counters = ts.server.counters();
  EXPECT_EQ(counters.swaps, 0u);
  EXPECT_EQ(counters.swap_failures, 1u);
}

TEST(Server, WireShutdownDrainsCleanly) {
  const ScratchDir scratch("server_shutdown");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  TestServer ts({store.path}, test_options(dir));
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  // Queries pipelined ahead of the shutdown must still be answered.
  serve::Request shutdown;
  shutdown.type = serve::MsgType::Shutdown;
  const std::vector<serve::Response> replies = client.call(
      {recommend_request(store.app, store.arch), shutdown});
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].type, serve::MsgType::RecommendReply);
  EXPECT_EQ(replies[1].type, serve::MsgType::ShutdownReply);
  if (ts.thread.joinable()) ts.thread.join();  // run() exits on its own
  EXPECT_TRUE(ts.server.counters().drained_cleanly);
}

TEST(Server, AdminMessagesCanBeDisabled) {
  const ScratchDir scratch("server_noadmin");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  serve::ServerOptions options = test_options(dir);
  options.allow_admin = false;
  TestServer ts({store.path}, options);
  serve::Client client =
      serve::Client::connect_unix(util::path_join(dir, "s.sock"));
  serve::Request shutdown;
  shutdown.type = serve::MsgType::Shutdown;
  EXPECT_EQ(client.call_one(shutdown).type, serve::MsgType::Error);
  // Queries still work; the server did not drain.
  EXPECT_EQ(client.call_one(recommend_request(store.app, store.arch)).type,
            serve::MsgType::RecommendReply);
  ts.stop_and_join();
}

TEST(Server, TcpListenerServesTheSameProtocol) {
  const ScratchDir scratch("server_tcp");
  const std::string& dir = scratch.path();
  const StoreFixture store(dir, "a.omps", 5);
  serve::ServerOptions options = test_options(dir);
  options.tcp_port = 0;  // ephemeral
  TestServer ts({store.path}, options);
  ASSERT_GT(ts.server.tcp_port(), 0);
  serve::Client client = serve::Client::connect_tcp(ts.server.tcp_port());
  const serve::Response reply =
      client.call_one(recommend_request(store.app, store.arch));
  EXPECT_EQ(reply.type, serve::MsgType::RecommendReply);
  EXPECT_TRUE(reply.found);
  ts.stop_and_join();
}

}  // namespace
}  // namespace omptune
