#pragma once

// POSIX process and pipe helpers for the study supervisor's worker pool.
//
// The supervisor forks one child per worker and talks to it over two
// pipes: a command pipe (supervisor -> worker, blocking line reads) and a
// result pipe (worker -> supervisor, drained non-blocking from a poll
// loop). Everything here is the thin, EINTR-correct plumbing that makes
// that safe: full-length writes, incremental line assembly with a bound on
// line length (a garbling worker must not make the supervisor buffer
// unboundedly), exit-status decoding that distinguishes "exited N" from
// "killed by signal S" (the supervisor's crash evidence), and a self-pipe
// signal guard so SIGINT/SIGTERM wake the poll loop instead of killing the
// study mid-journal-write.

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace omptune::util {

/// A unidirectional pipe; both ends close-on-exec. Throws std::runtime_error
/// if the pipe cannot be created.
struct Pipe {
  Pipe();
  ~Pipe();

  Pipe(Pipe&& other) noexcept;
  Pipe& operator=(Pipe&& other) noexcept;
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  void close_read();
  void close_write();

  int read_fd = -1;
  int write_fd = -1;
};

/// Milliseconds on the monotonic clock (heartbeat/lease arithmetic must not
/// jump with wall-clock adjustments).
std::int64_t monotonic_ms();

/// Write all of `data` to `fd`, retrying on EINTR/partial writes. Returns
/// false on EPIPE or any other error (the peer died; the caller decides what
/// that means), never throws.
bool write_all(int fd, std::string_view data);

/// Put `fd` into non-blocking mode. Throws std::runtime_error on failure.
void set_nonblocking(int fd);

/// Decoded waitpid status: exactly one of `exited`/`signaled` is true for a
/// reaped child.
struct ExitStatus {
  bool exited = false;
  int exit_code = 0;
  bool signaled = false;
  int term_signal = 0;

  /// "exited with code 3" / "killed by signal 9 (SIGKILL)".
  std::string describe() const;
};

/// Non-blocking reap; nullopt while the child is still running. Throws
/// std::runtime_error if `pid` is not a child of this process.
std::optional<ExitStatus> try_wait(pid_t pid);

/// Blocking reap (EINTR-correct). Throws std::runtime_error if `pid` is not
/// a child of this process.
ExitStatus wait_for(pid_t pid);

/// Incremental line assembler over a non-blocking fd. drain() pulls every
/// byte currently available and returns the newly completed lines; a line
/// longer than `max_line` bytes marks the stream as garbled (protocol
/// violation) instead of growing the buffer without bound.
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line = 4096)
      : fd_(fd), max_line_(max_line) {}

  /// Newly completed lines ('\n'-stripped). Sets eof()/garbled() as side
  /// effects; both are sticky.
  std::vector<std::string> drain();

  bool eof() const { return eof_; }
  bool garbled() const { return garbled_; }
  int fd() const { return fd_; }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buffer_;
  bool eof_ = false;
  bool garbled_ = false;
};

/// Blocking line reader over a pipe read end — the child-process side of
/// the worker protocol (the parent side uses the non-blocking LineReader
/// from its poll loop). next() blocks for the next command; poll_line()
/// returns one only if it is already available, so a worker can notice a
/// pending `exit` between settings without stalling.
class BlockingLineReader {
 public:
  explicit BlockingLineReader(int fd) : fd_(fd) {}

  /// Next line, blocking; nullopt on EOF (the peer is gone).
  std::optional<std::string> next();

  /// A line if one is available right now, without blocking.
  std::optional<std::string> poll_line();

  bool eof() const { return eof_; }

 private:
  std::optional<std::string> take_line();
  void fill_blocking();

  int fd_;
  std::string buffer_;
  bool eof_ = false;
};

/// Scoped SIGINT/SIGTERM redirection through a self-pipe: while alive, both
/// signals set a flag and write one byte to an internal pipe (wakes poll)
/// instead of terminating the process; the previous handlers are restored
/// on destruction. SIGPIPE is ignored for the same scope (a write to a dead
/// worker must surface as EPIPE, not kill the supervisor). Only one
/// instance may exist at a time (the handlers are process-global).
class ShutdownSignalGuard {
 public:
  ShutdownSignalGuard();
  ~ShutdownSignalGuard();

  ShutdownSignalGuard(const ShutdownSignalGuard&) = delete;
  ShutdownSignalGuard& operator=(const ShutdownSignalGuard&) = delete;

  /// Poll this fd for readability to wake on a delivered signal.
  int wake_fd() const;

  /// Whether SIGINT/SIGTERM arrived since construction (sticky), or
  /// trigger() was called.
  bool triggered() const;

  /// Programmatic trigger (same effect as a delivered signal); safe to call
  /// from another thread.
  void trigger();
};

/// In the calling (child) process: ask the kernel to deliver SIGKILL when
/// the parent dies, so orphaned workers never outlive a crashed supervisor.
/// No-op on platforms without the feature.
void die_with_parent();

/// In a freshly forked child whose parent holds a ShutdownSignalGuard:
/// restore the pre-guard signal dispositions, close the child's copies of
/// the inherited wake-pipe fds, and clear the process-global "guard
/// installed" flag so the child may install its own guard. Without this, a
/// child forked under an active guard inherits the singleton flag and its
/// own guard construction throws "already active". No-op when no guard is
/// inherited; must only be called between fork() and exec-or-serve.
void reset_shutdown_guard_after_fork();

/// In a child forked from a multithreaded process: make the threads it
/// creates take fresh stacks. glibc caches the stacks of the parent's other
/// threads at fork and hands them to the child's new threads, pthread_t
/// values included; ThreadSanitizer keys threads by that value and aborts a
/// child whose new thread repeats one it still counts live in the parent.
/// Raising the default stack size by one page makes no cached stack fit.
/// Must only be called between fork() and the child's first thread.
void fresh_thread_stacks_after_fork();

}  // namespace omptune::util
