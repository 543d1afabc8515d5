#include "util/process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace omptune::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Pipe::Pipe() {
  int fds[2];
  if (::pipe(fds) != 0) throw_errno("Pipe: pipe()");
  read_fd = fds[0];
  write_fd = fds[1];
  ::fcntl(read_fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(write_fd, F_SETFD, FD_CLOEXEC);
}

Pipe::~Pipe() {
  close_read();
  close_write();
}

Pipe::Pipe(Pipe&& other) noexcept
    : read_fd(other.read_fd), write_fd(other.write_fd) {
  other.read_fd = -1;
  other.write_fd = -1;
}

Pipe& Pipe::operator=(Pipe&& other) noexcept {
  if (this != &other) {
    close_read();
    close_write();
    read_fd = other.read_fd;
    write_fd = other.write_fd;
    other.read_fd = -1;
    other.write_fd = -1;
  }
  return *this;
}

void Pipe::close_read() {
  if (read_fd >= 0) {
    ::close(read_fd);
    read_fd = -1;
  }
}

void Pipe::close_write() {
  if (write_fd >= 0) {
    ::close(write_fd);
    write_fd = -1;
  }
}

std::int64_t monotonic_ms() {
  struct timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1000000;
}

bool write_all(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE and friends: the peer is gone
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("set_nonblocking: fcntl");
  }
}

std::string ExitStatus::describe() const {
  if (signaled) {
    const char* name = ::strsignal(term_signal);
    return "killed by signal " + std::to_string(term_signal) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  return "exited with code " + std::to_string(exit_code);
}

namespace {

ExitStatus decode_status(int status) {
  ExitStatus out;
  if (WIFEXITED(status)) {
    out.exited = true;
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.term_signal = WTERMSIG(status);
  }
  return out;
}

}  // namespace

std::optional<ExitStatus> try_wait(pid_t pid) {
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == 0) return std::nullopt;
    if (r == pid) return decode_status(status);
    if (errno == EINTR) continue;
    throw_errno("try_wait: waitpid(" + std::to_string(pid) + ")");
  }
}

ExitStatus wait_for(pid_t pid) {
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, 0);
    if (r == pid) return decode_status(status);
    if (errno == EINTR) continue;
    throw_errno("wait_for: waitpid(" + std::to_string(pid) + ")");
  }
}

std::vector<std::string> LineReader::drain() {
  std::vector<std::string> lines;
  char chunk[4096];
  while (!eof_ && !garbled_) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      eof_ = true;  // unreadable fd: treat like a closed peer
      break;
    }
    if (n == 0) {
      eof_ = true;
      break;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t i = buffer_.size() - static_cast<std::size_t>(n);
         i < buffer_.size(); ++i) {
      if (buffer_[i] == '\n') {
        lines.emplace_back(buffer_, start, i - start);
        start = i + 1;
      }
    }
    if (start > 0) buffer_.erase(0, start);
    if (buffer_.size() > max_line_) {
      garbled_ = true;  // a line this long is not our protocol
      buffer_.clear();
    }
  }
  return lines;
}

std::optional<std::string> BlockingLineReader::next() {
  for (;;) {
    if (std::optional<std::string> line = take_line()) return line;
    if (eof_) return std::nullopt;
    fill_blocking();
  }
}

std::optional<std::string> BlockingLineReader::poll_line() {
  for (;;) {
    if (std::optional<std::string> line = take_line()) return line;
    if (eof_) return std::nullopt;
    struct pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, 0);
    if (r <= 0) return std::nullopt;
    fill_blocking();
  }
}

std::optional<std::string> BlockingLineReader::take_line() {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  std::string line = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  return line;
}

void BlockingLineReader::fill_blocking() {
  char chunk[512];
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      eof_ = true;
      return;
    }
    if (n == 0) eof_ = true;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return;
  }
}

// ---- ShutdownSignalGuard ----------------------------------------------------

namespace {

// Signal handlers cannot carry state; the guard is process-global anyway
// (there is one SIGINT), so the self-pipe fds and flag live in statics.
std::atomic<bool> g_guard_active{false};
std::atomic<bool> g_shutdown_flag{false};
int g_wake_pipe[2] = {-1, -1};
struct sigaction g_old_int, g_old_term, g_old_pipe;

void shutdown_handler(int) {
  g_shutdown_flag.store(true, std::memory_order_relaxed);
  const char byte = 1;
  // Best effort: the flag alone is authoritative, the byte only wakes poll.
  [[maybe_unused]] const ssize_t n = ::write(g_wake_pipe[1], &byte, 1);
}

}  // namespace

ShutdownSignalGuard::ShutdownSignalGuard() {
  if (g_guard_active.exchange(true)) {
    throw std::logic_error("ShutdownSignalGuard: already active");
  }
  g_shutdown_flag.store(false);
  if (::pipe(g_wake_pipe) != 0) {
    g_guard_active.store(false);
    throw_errno("ShutdownSignalGuard: pipe()");
  }
  ::fcntl(g_wake_pipe[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(g_wake_pipe[1], F_SETFD, FD_CLOEXEC);
  set_nonblocking(g_wake_pipe[0]);
  set_nonblocking(g_wake_pipe[1]);

  struct sigaction sa{};
  sa.sa_handler = shutdown_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll must wake
  ::sigaction(SIGINT, &sa, &g_old_int);
  ::sigaction(SIGTERM, &sa, &g_old_term);

  struct sigaction ign{};
  ign.sa_handler = SIG_IGN;
  ::sigemptyset(&ign.sa_mask);
  ::sigaction(SIGPIPE, &ign, &g_old_pipe);
}

ShutdownSignalGuard::~ShutdownSignalGuard() {
  ::sigaction(SIGINT, &g_old_int, nullptr);
  ::sigaction(SIGTERM, &g_old_term, nullptr);
  ::sigaction(SIGPIPE, &g_old_pipe, nullptr);
  ::close(g_wake_pipe[0]);
  ::close(g_wake_pipe[1]);
  g_wake_pipe[0] = g_wake_pipe[1] = -1;
  g_guard_active.store(false);
}

void reset_shutdown_guard_after_fork() {
  if (!g_guard_active.load()) return;
  ::sigaction(SIGINT, &g_old_int, nullptr);
  ::sigaction(SIGTERM, &g_old_term, nullptr);
  ::sigaction(SIGPIPE, &g_old_pipe, nullptr);
  if (g_wake_pipe[0] >= 0) ::close(g_wake_pipe[0]);
  if (g_wake_pipe[1] >= 0) ::close(g_wake_pipe[1]);
  g_wake_pipe[0] = g_wake_pipe[1] = -1;
  g_shutdown_flag.store(false);
  g_guard_active.store(false);
}

int ShutdownSignalGuard::wake_fd() const { return g_wake_pipe[0]; }

bool ShutdownSignalGuard::triggered() const {
  return g_shutdown_flag.load(std::memory_order_relaxed);
}

void ShutdownSignalGuard::trigger() { shutdown_handler(0); }

void fresh_thread_stacks_after_fork() {
  pthread_attr_t attr;
  if (::pthread_getattr_default_np(&attr) != 0) return;
  std::size_t stack = 0;
  if (::pthread_attr_getstacksize(&attr, &stack) == 0) {
    const long page = ::sysconf(_SC_PAGESIZE);
    if (::pthread_attr_setstacksize(&attr,
                                    stack + static_cast<std::size_t>(page)) == 0) {
      ::pthread_setattr_default_np(&attr);
    }
  }
  ::pthread_attr_destroy(&attr);
}

void die_with_parent() {
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  // Race: the parent may have died between fork and prctl; in that case we
  // were reparented and the death signal will never come — exit now.
  if (::getppid() == 1) ::raise(SIGKILL);
#endif
}

}  // namespace omptune::util
