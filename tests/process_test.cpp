// Unit tests for the supervisor's plumbing: POSIX process/pipe helpers,
// the worker wire protocol (including garbage rejection), the deterministic
// chaos spec, crash-safe filesystem helpers, and the mmap fallback path.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "sim/fault_runner.hpp"
#include "sweep/worker.hpp"
#include "util/fs.hpp"
#include "util/mmap_file.hpp"
#include "util/process.hpp"

#include "scratch_dir.hpp"

namespace omptune {
namespace {

// ---- pipes and line assembly ------------------------------------------------

TEST(Process, WriteAllRoundTripsThroughPipe) {
  util::Pipe pipe;
  ASSERT_TRUE(util::write_all(pipe.write_fd, "hello\nworld\n"));
  pipe.close_write();
  util::set_nonblocking(pipe.read_fd);
  util::LineReader reader(pipe.read_fd);
  const std::vector<std::string> lines = reader.drain();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "hello");
  EXPECT_EQ(lines[1], "world");
  EXPECT_TRUE(reader.eof());
  EXPECT_FALSE(reader.garbled());
}

TEST(Process, LineReaderAssemblesSplitWrites) {
  util::Pipe pipe;
  util::set_nonblocking(pipe.read_fd);
  util::LineReader reader(pipe.read_fd);
  ASSERT_TRUE(util::write_all(pipe.write_fd, "par"));
  EXPECT_TRUE(reader.drain().empty());
  ASSERT_TRUE(util::write_all(pipe.write_fd, "tial line\nnext"));
  const std::vector<std::string> lines = reader.drain();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "partial line");
  EXPECT_FALSE(reader.eof());
}

TEST(Process, LineReaderMarksOverlongLineAsGarbled) {
  util::Pipe pipe;
  util::set_nonblocking(pipe.read_fd);
  util::LineReader reader(pipe.read_fd, 16);
  ASSERT_TRUE(
      util::write_all(pipe.write_fd, std::string(64, 'x')));  // no newline
  reader.drain();
  EXPECT_TRUE(reader.garbled());
  // Sticky: even a subsequent well-formed line does not un-garble.
  ASSERT_TRUE(util::write_all(pipe.write_fd, "ok\n"));
  EXPECT_TRUE(reader.drain().empty());
  EXPECT_TRUE(reader.garbled());
}

TEST(Process, WriteAllToClosedPipeFailsInsteadOfKilling) {
  ::signal(SIGPIPE, SIG_IGN);
  util::Pipe pipe;
  pipe.close_read();
  EXPECT_FALSE(util::write_all(pipe.write_fd, "into the void\n"));
  ::signal(SIGPIPE, SIG_DFL);
}

// ---- exit status decoding ---------------------------------------------------

TEST(Process, WaitDecodesExitCode) {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(7);
  const util::ExitStatus status = util::wait_for(pid);
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 7);
  EXPECT_FALSE(status.signaled);
  EXPECT_EQ(status.describe(), "exited with code 7");
}

TEST(Process, WaitDecodesTerminationSignal) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::raise(SIGKILL);
    ::_exit(0);
  }
  const util::ExitStatus status = util::wait_for(pid);
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, SIGKILL);
  EXPECT_NE(status.describe().find("killed by signal 9"), std::string::npos);
}

TEST(Process, TryWaitReturnsNulloptWhileChildRuns) {
  util::Pipe pipe;  // child blocks on it until we close the write end
  const pid_t pid = ::fork();
  if (pid == 0) {
    pipe.close_write();  // or our own copy keeps the pipe open forever
    char c;
    [[maybe_unused]] const ssize_t n = ::read(pipe.read_fd, &c, 1);
    ::_exit(0);
  }
  EXPECT_FALSE(util::try_wait(pid).has_value());
  pipe.close_write();
  const util::ExitStatus status = util::wait_for(pid);
  EXPECT_TRUE(status.exited);
}

// ---- wire protocol ----------------------------------------------------------

using sweep::protocol::Command;
using sweep::protocol::LeaseItem;
using sweep::protocol::WorkerMessage;

TEST(Protocol, LeaseRoundTrips) {
  const std::vector<LeaseItem> items = {{3, 0}, {7, 2}};
  std::string wire = sweep::protocol::format_lease(items);
  ASSERT_EQ(wire.back(), '\n');
  wire.pop_back();
  const auto command = sweep::protocol::parse_command(wire, 10);
  ASSERT_TRUE(command.has_value());
  EXPECT_EQ(command->kind, Command::Kind::Lease);
  ASSERT_EQ(command->items.size(), 2u);
  EXPECT_EQ(command->items[0].task_index, 3u);
  EXPECT_EQ(command->items[1].task_index, 7u);
  EXPECT_EQ(command->items[1].attempt, 2);
}

TEST(Protocol, WorkerMessagesRoundTrip) {
  const auto parse = [](std::string wire) {
    wire.pop_back();  // strip '\n'
    return sweep::protocol::parse_worker_message(wire, 100);
  };
  EXPECT_EQ(parse(sweep::protocol::format_ready())->kind,
            WorkerMessage::Kind::Ready);
  EXPECT_EQ(parse(sweep::protocol::format_bye())->kind,
            WorkerMessage::Kind::Bye);
  const auto hb = parse(sweep::protocol::format_heartbeat(42));
  EXPECT_EQ(hb->kind, WorkerMessage::Kind::Heartbeat);
  EXPECT_EQ(hb->count, 42u);
  const auto done = parse(sweep::protocol::format_done(5, 96));
  EXPECT_EQ(done->kind, WorkerMessage::Kind::Done);
  EXPECT_EQ(done->task_index, 5u);
  EXPECT_EQ(done->count, 96u);
}

TEST(Protocol, RejectsGarbageInsteadOfGuessing) {
  const std::size_t tasks = 8;
  for (const std::string garbage :
       {"", "   ", "frobnicate", "lease", "lease 0", "lease 2 1:0",
        "lease 1 99:0", "lease 1 1-0", "lease 1 :", "lease x 1:0",
        "exit now", "\x01\x02 this is not the protocol \xff"}) {
    EXPECT_FALSE(sweep::protocol::parse_command(garbage, tasks).has_value())
        << "accepted command garbage: '" << garbage << "'";
  }
  for (const std::string garbage :
       {"", "readyy", "hb", "hb x", "start", "start 99", "done 1",
        "done 1 x", "done 99 5", "\x01\x02 this is not the protocol \xff"}) {
    EXPECT_FALSE(
        sweep::protocol::parse_worker_message(garbage, tasks).has_value())
        << "accepted worker garbage: '" << garbage << "'";
  }
}

// ---- chaos spec -------------------------------------------------------------

TEST(Chaos, ParseRoundTripsThroughDescribe) {
  const sim::ChaosSpec spec =
      sim::ChaosSpec::parse("seed=7,kill=0.02,segv=0.01,wedge=0.005,sticky=bt");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.kill_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec.segv_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.wedge_rate, 0.005);
  EXPECT_EQ(spec.sticky_kill_substr, "bt");
  EXPECT_TRUE(spec.enabled());
  const sim::ChaosSpec reparsed = sim::ChaosSpec::parse(spec.describe());
  EXPECT_DOUBLE_EQ(reparsed.kill_rate, spec.kill_rate);
  EXPECT_EQ(reparsed.sticky_kill_substr, spec.sticky_kill_substr);
}

TEST(Chaos, ParseRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(sim::ChaosSpec::parse("frob=1"), std::invalid_argument);
  EXPECT_THROW(sim::ChaosSpec::parse("kill=banana"), std::invalid_argument);
  EXPECT_THROW(sim::ChaosSpec::parse("kill"), std::invalid_argument);
}

TEST(Chaos, DrawsAreDeterministicAndAttemptKeyed) {
  sim::ChaosSpec spec;
  spec.seed = 11;
  spec.kill_rate = 0.05;
  const sim::ChaosMonkey a(spec), b(spec);
  bool any_kill = false, attempt_differs = false;
  for (std::uint64_t sample = 1; sample <= 2000; ++sample) {
    const auto first = a.draw("milan/bt/A/0", 0, sample);
    EXPECT_EQ(first, b.draw("milan/bt/A/0", 0, sample)) << sample;
    any_kill = any_kill || first == sim::ChaosAction::Kill;
    // A reassigned setting (attempt bumped) must not replay the same fault
    // schedule, or a chaos kill would re-kill every replacement worker.
    if (first != a.draw("milan/bt/A/0", 1, sample)) attempt_differs = true;
  }
  EXPECT_TRUE(any_kill);
  EXPECT_TRUE(attempt_differs);
}

TEST(Chaos, StickySubstrKillsOnEveryAttempt) {
  sim::ChaosSpec spec;
  spec.sticky_kill_substr = "bt";
  const sim::ChaosMonkey monkey(spec);
  EXPECT_EQ(monkey.draw("milan/bt/A/0", 0, 1), sim::ChaosAction::Kill);
  EXPECT_EQ(monkey.draw("milan/bt/A/0", 5, 1), sim::ChaosAction::Kill);
  EXPECT_EQ(monkey.draw("milan/cg/A/0", 0, 1), sim::ChaosAction::None);
}

// ---- crash-safe fs helpers --------------------------------------------------

TEST(Fs, RemoveFileDurableRemovesAndReportsAbsence) {
  ScratchDir dir("unlink");
  const std::string path = util::path_join(dir.path(), "victim");
  util::atomic_write_file(path, "x");
  EXPECT_TRUE(util::remove_file_durable(path));
  EXPECT_FALSE(util::file_exists(path));
  EXPECT_FALSE(util::remove_file_durable(path));
}

TEST(Fs, FsyncDirectoryAcceptsARealDirectory) {
  ScratchDir dir("fsync");
  EXPECT_TRUE(util::fsync_directory(dir.path()));
  EXPECT_FALSE(util::fsync_directory(
      util::path_join(dir.path(), "does_not_exist")));
}

TEST(Fs, RemoveStaleTempFilesSweepsOnlyTempDroppings) {
  ScratchDir dir("stale");
  util::atomic_write_file(util::path_join(dir.path(), "keep.csv"), "data");
  // Simulated droppings of writers killed between open and rename.
  util::atomic_write_file(util::path_join(dir.path(), "keep.csv.tmp.123"), "");
  util::atomic_write_file(util::path_join(dir.path(), "other.tmp.99999"), "");
  // Not the temp pattern: a non-numeric suffix must survive.
  util::atomic_write_file(util::path_join(dir.path(), "file.tmp.notpid"), "");
  EXPECT_EQ(util::remove_stale_temp_files(dir.path()), 2u);
  EXPECT_TRUE(util::file_exists(util::path_join(dir.path(), "keep.csv")));
  EXPECT_TRUE(
      util::file_exists(util::path_join(dir.path(), "file.tmp.notpid")));
  EXPECT_FALSE(
      util::file_exists(util::path_join(dir.path(), "keep.csv.tmp.123")));
}

// ---- mmap fallback ----------------------------------------------------------

TEST(MappedFile, BufferedFallbackServesIdenticalBytes) {
  ScratchDir dir("mmap");
  const std::string path = util::path_join(dir.path(), "blob");
  const std::string payload = "The quick brown fox\0jumps", copy = payload;
  util::atomic_write_file(path, payload);

  const util::MappedFile mapped(path);
  const util::MappedFile buffered(path, util::MappedFile::Mode::ForceBuffered);
  EXPECT_TRUE(mapped.memory_mapped());
  EXPECT_FALSE(buffered.memory_mapped());
  ASSERT_EQ(mapped.size(), buffered.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(mapped.data()),
                        mapped.size()),
            std::string(reinterpret_cast<const char*>(buffered.data()),
                        buffered.size()));
  EXPECT_EQ(copy.substr(0, mapped.size()),
            std::string(reinterpret_cast<const char*>(mapped.data()),
                        mapped.size()));
}

TEST(MappedFile, EnvEscapeHatchForcesBufferedMode) {
  ScratchDir dir("mmap_env");
  const std::string path = util::path_join(dir.path(), "blob");
  util::atomic_write_file(path, "bytes");
  ::setenv("OMPTUNE_NO_MMAP", "1", 1);
  const util::MappedFile file(path);
  ::unsetenv("OMPTUNE_NO_MMAP");
  EXPECT_FALSE(file.memory_mapped());
  EXPECT_EQ(file.size(), 5u);
}

TEST(MappedFile, EmptyFileHasSizeZeroInBothModes) {
  ScratchDir dir("mmap_empty");
  const std::string path = util::path_join(dir.path(), "empty");
  util::atomic_write_file(path, "");
  EXPECT_EQ(util::MappedFile(path).size(), 0u);
  EXPECT_EQ(
      util::MappedFile(path, util::MappedFile::Mode::ForceBuffered).size(),
      0u);
}

TEST(MappedFile, AdoptedBytesServeLikeTheBufferedFallback) {
  // Short bytes live inside the string object itself, so a move must
  // re-point data() at the new owner's copy.
  for (const std::string& payload :
       {std::string(), std::string("abc"), std::string(4096, 'x')}) {
    util::MappedFile adopted("<label>", payload);
    const util::MappedFile moved(std::move(adopted));
    EXPECT_FALSE(moved.memory_mapped());
    EXPECT_EQ(moved.path(), "<label>");
    ASSERT_EQ(moved.size(), payload.size());
    if (payload.empty()) {
      EXPECT_EQ(moved.data(), nullptr);
      continue;
    }
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(moved.data()),
                          moved.size()),
              payload);
  }
}

TEST(MappedFile, MissingFileThrows) {
  EXPECT_THROW(util::MappedFile("/no/such/file/anywhere"),
               std::runtime_error);
}

}  // namespace
}  // namespace omptune
