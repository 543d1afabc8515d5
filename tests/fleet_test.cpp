// Process-fleet engine tests. Fleet is driven directly with stub children —
// no runner, no journal — so each liveness rule is observed in isolation:
//
//  1. A garbled result stream counts one protocol error and kills the child.
//  2. A silent child counts a hang kill.
//  3. A lease held past lease_ms counts a lease expiry even with heartbeat
//     checks disabled, and the death hands the unfinished lease back.
//  4. Children dying before `ready` trip the spawn-failure cap.
//  5. The stop flag drains: children finish the in-flight item, honour
//     `exit` between lease items, and die clean.
//
// The last test drives both front-ends with a throwing runner factory: the
// child builds its runner before `ready`, so both fail the run instead of
// striking work.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/coordinator.hpp"
#include "sweep/fleet.hpp"
#include "sweep/supervisor.hpp"

namespace omptune::sweep {
namespace {

[[noreturn]] void park_forever() {
  for (;;) ::pause();
}

/// A one-slot fleet whose policy records what the engine reports. It leases
/// every item once, in a single lease, and is finished after `deaths_to_end`
/// deaths or once every item is done.
struct StubFleet {
  FleetOptions options;
  FleetHooks hooks;
  std::atomic<bool> stop{false};
  std::size_t items = 1;
  std::size_t deaths_to_end = 1;
  bool leased = false;
  std::vector<std::size_t> done;
  std::vector<FleetDeath> deaths;

  StubFleet() {
    options.name = "StubFleet";
    options.heartbeat_timeout_ms = 0;
    options.respawn_backoff.base_ms = 1;
    options.respawn_backoff.max_ms = 2;
    hooks.next_lease = [this](int) {
      std::vector<protocol::LeaseItem> lease;
      for (std::size_t i = 0; i < items && !leased; ++i) {
        lease.push_back(protocol::LeaseItem{i, 0});
      }
      leased = true;
      return lease;
    };
    hooks.on_done = [this](int, std::size_t item, std::uint64_t) {
      done.push_back(item);
    };
    hooks.on_death = [this](const FleetDeath& death) {
      deaths.push_back(death);
    };
    hooks.finished = [this] {
      return deaths.size() >= deaths_to_end || done.size() == items;
    };
    hooks.pending = [] { return false; };
  }

  bool run() {
    options.item_count = items;
    Fleet fleet(options, hooks, stop);
    const bool interrupted = fleet.run();
    counters = fleet.counters();
    return interrupted;
  }

  FleetCounters counters;
};

TEST(Fleet, GarbledStreamCountsAProtocolErrorAndKills) {
  StubFleet stub;
  stub.hooks.child_main = [](int, LeaseLink& link) {
    link.send("\x01\x02 this is not the protocol\n");
    park_forever();  // the engine must kill us, not wait for an exit
  };
  EXPECT_FALSE(stub.run());
  EXPECT_EQ(stub.counters.protocol_errors, 1u);
  EXPECT_EQ(stub.counters.crashes, 0u);  // an engine kill is not a crash
  ASSERT_EQ(stub.deaths.size(), 1u);
  EXPECT_FALSE(stub.deaths[0].clean);
  EXPECT_NE(stub.deaths[0].evidence.find("garbled"), std::string::npos)
      << stub.deaths[0].evidence;
}

TEST(Fleet, SilentChildCountsAHangKill) {
  StubFleet stub;
  stub.options.heartbeat_timeout_ms = 100;
  stub.hooks.child_main = [](int, LeaseLink&) { park_forever(); };
  EXPECT_FALSE(stub.run());
  EXPECT_EQ(stub.counters.hang_kills, 1u);
  ASSERT_EQ(stub.deaths.size(), 1u);
  EXPECT_NE(stub.deaths[0].evidence.find("no heartbeat"), std::string::npos)
      << stub.deaths[0].evidence;
}

TEST(Fleet, HeldLeaseExpiresWithHeartbeatChecksOff) {
  StubFleet stub;
  stub.items = 2;
  stub.options.lease_ms = 150;
  stub.hooks.child_main = [](int, LeaseLink& link) {
    link.serve(2, [](const protocol::LeaseItem&) -> std::uint64_t {
      park_forever();
    });
  };
  EXPECT_FALSE(stub.run());
  EXPECT_EQ(stub.counters.lease_expiries, 1u);
  EXPECT_EQ(stub.counters.hang_kills, 0u);
  ASSERT_EQ(stub.deaths.size(), 1u);
  const FleetDeath& death = stub.deaths[0];
  EXPECT_FALSE(death.clean);
  EXPECT_EQ(death.inflight, std::optional<std::size_t>(0));
  EXPECT_EQ(death.leased, (std::deque<std::size_t>{0, 1}));
  EXPECT_NE(death.evidence.find("lease expired after 150ms"), std::string::npos)
      << death.evidence;
}

TEST(Fleet, ChildrenDyingBeforeReadyTripTheSpawnFailureCap) {
  StubFleet stub;
  stub.options.processes = 2;
  stub.deaths_to_end = 1000;
  stub.hooks.pending = [] { return true; };
  stub.hooks.child_main = [](int, LeaseLink&) { ::_exit(3); };
  try {
    stub.run();
    FAIL() << "expected the spawn-failure cap to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("StubFleet: " + std::to_string(kMaxSpawnFailures + 1) +
                        " consecutive children died before becoming ready"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("exited with code 3"), std::string::npos) << what;
  }
  EXPECT_EQ(stub.deaths.size(), static_cast<std::size_t>(kMaxSpawnFailures));
}

TEST(Fleet, StopFlagDrainsBetweenLeaseItems) {
  StubFleet stub;
  stub.items = 4;
  stub.deaths_to_end = 1000;
  stub.options.heartbeat_timeout_ms = 5000;
  stub.hooks.child_main = [](int, LeaseLink& link) {
    link.serve(4, [](const protocol::LeaseItem&) -> std::uint64_t {
      ::usleep(200 * 1000);
      return 1;
    });
  };
  const auto record_done = stub.hooks.on_done;
  stub.hooks.on_done = [&](int slot, std::size_t item, std::uint64_t count) {
    record_done(slot, item, count);
    stub.stop.store(true);  // as a SIGINT would, after the first item
  };
  EXPECT_TRUE(stub.run());
  ASSERT_EQ(stub.deaths.size(), 1u);
  const FleetDeath& death = stub.deaths[0];
  EXPECT_TRUE(death.clean) << death.evidence;
  EXPECT_FALSE(death.inflight.has_value());
  // The child answered `exit` between items: the rest of the lease comes
  // back unfinished instead of the drain waiting for all four.
  EXPECT_LT(stub.done.size(), 4u);
  EXPECT_EQ(stub.done.size() + death.leased.size(), 4u);
  EXPECT_EQ(stub.counters.crashes + stub.counters.hang_kills, 0u);
}

// ---- both front-ends --------------------------------------------------------

RunnerFactory throwing_factory() {
  return []() -> std::unique_ptr<sim::Runner> {
    throw std::runtime_error("no runner on this host");
  };
}

TEST(FleetFrontEnds, ThrowingRunnerFactoryFailsTheRun) {
  const StudyPlan plan = StudyPlan::mini_plan(2, 6);
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("omptune_test_fleet_" + std::to_string(::getpid()));
  std::filesystem::remove_all(scratch);

  SupervisorOptions supervisor_options;
  supervisor_options.journal_dir = (scratch / "journal").string();
  supervisor_options.respawn_backoff.base_ms = 1;
  supervisor_options.respawn_backoff.max_ms = 5;
  StudySupervisor supervisor(throwing_factory(), supervisor_options);
  EXPECT_THROW(supervisor.run(plan), std::runtime_error);
  EXPECT_EQ(supervisor.report().settings_completed, 0u);

  const std::string out = (scratch / "out.omps").string();
  CoordinatorOptions coordinator_options;
  coordinator_options.shards = 4;
  coordinator_options.work_dir = (scratch / "coordinator").string();
  coordinator_options.backoff.base_ms = 1;
  coordinator_options.backoff.max_ms = 5;
  Coordinator coordinator(throwing_factory(), coordinator_options);
  try {
    coordinator.run(plan, out);
    ADD_FAILURE() << "a broken runner factory must fail the coordinated run";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("died before becoming ready"),
              std::string::npos)
        << error.what();
  }
  // No shard was struck, let alone quarantined: the failure is the host's.
  EXPECT_EQ(coordinator.report().re_leases, 0u);
  EXPECT_FALSE(std::filesystem::exists(out));
  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace omptune::sweep
