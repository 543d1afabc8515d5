#include "util/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "util/errors.hpp"
#include "util/io_hooks.hpp"

namespace omptune::util {

namespace {

namespace stdfs = std::filesystem;

[[noreturn]] void throw_storage(const std::string& operation,
                                const std::string& path, int error_number) {
  throw StorageError(operation, path, error_number);
}

std::string parent_dir(const std::string& path) {
  const stdfs::path p(path);
  return p.has_parent_path() ? p.parent_path().string() : std::string(".");
}

/// Consult the installed hook (if any) before a durability operation.
/// Returns the injected errno, or 0 to proceed.
int consult(IoOp op, const std::string& path, int fd = -1,
            const char* data = nullptr, std::size_t size = 0) {
  if (IoHooks* hooks = io_hooks()) {
    return hooks->before(IoSite{op, path, fd, data, size});
  }
  return 0;
}

/// Hooked full-buffer write loop: retries short writes and EINTR (real or
/// injected) until every byte is accepted. Throws StorageError via
/// `operation` on failure; the caller owns fd cleanup.
void write_all_hooked(int fd, const std::string& path,
                      std::string_view content,
                      const std::string& operation) {
  std::size_t written = 0;
  while (written < content.size()) {
    const char* data = content.data() + written;
    std::size_t len = content.size() - written;
    if (IoHooks* hooks = io_hooks()) {
      const IoSite site{IoOp::Write, path, fd, data, len};
      if (const int injected = hooks->before(site)) {
        if (injected == EINTR) continue;  // the loop absorbs interruptions
        throw_storage(operation, path, injected);
      }
      len = std::min(len, hooks->max_write_bytes(site));
      if (len == 0) len = 1;  // a zero-byte cap must still make progress
    }
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_storage(operation, path, errno);
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Hooked fsync with EINTR retry (real or injected). Throws StorageError
/// via `operation` on failure; the caller owns fd cleanup.
void fsync_hooked(int fd, const std::string& path,
                  const std::string& operation) {
  for (;;) {
    if (const int injected = consult(IoOp::Fsync, path, fd)) {
      if (injected == EINTR) continue;
      throw_storage(operation, path, injected);
    }
    if (::fsync(fd) == 0) return;
    if (errno != EINTR) throw_storage(operation, path, errno);
  }
}

}  // namespace

bool fsync_directory(const std::string& dir) {
  // Injected faults follow the real best-effort contract: a refused
  // directory fsync is reported as false, never thrown.
  if (consult(IoOp::FsyncDir, dir) != 0) return false;
#ifdef O_DIRECTORY
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
#else
  const int fd = ::open(dir.c_str(), O_RDONLY);
#endif
  if (fd < 0) return false;  // best effort: some filesystems refuse dir fsync
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  ::close(fd);
  return rc == 0;
}

void atomic_write_file(const std::string& path, std::string_view content) {
  const std::string dir = parent_dir(path);
  // The temp file must live in the same directory as the target, or the
  // final rename() could cross filesystems and lose atomicity.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());

  if (const int injected = consult(IoOp::Open, tmp)) {
    throw_storage("atomic_write_file: open", tmp, injected);
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_storage("atomic_write_file: open", tmp, errno);

  try {
    write_all_hooked(fd, tmp, content, "atomic_write_file: write");
    fsync_hooked(fd, tmp, "atomic_write_file: fsync");
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    const int close_errno = errno;
    ::unlink(tmp.c_str());
    throw_storage("atomic_write_file: close", tmp, close_errno);
  }
  if (const int injected = consult(IoOp::Rename, path)) {
    ::unlink(tmp.c_str());
    throw_storage("atomic_write_file: rename", path, injected);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int rename_errno = errno;
    ::unlink(tmp.c_str());
    throw_storage("atomic_write_file: rename", path, rename_errno);
  }
  // Persist the directory entry so the rename survives a power loss.
  fsync_directory(dir);
}

bool remove_file_durable(const std::string& path) {
  if (const int injected = consult(IoOp::Unlink, path)) {
    throw_storage("remove_file_durable: unlink", path, injected);
  }
  const bool removed = remove_file(path);
  if (removed) fsync_directory(parent_dir(path));
  return removed;
}

std::size_t remove_stale_temp_files(const std::string& dir) {
  std::size_t removed = 0;
  for (const std::string& name : list_files(dir)) {
    // atomic_write_file names its temps "<target>.tmp.<pid>".
    const std::size_t at = name.rfind(".tmp.");
    if (at == std::string::npos) continue;
    const std::string suffix = name.substr(at + 5);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    if (remove_file(path_join(dir, name))) ++removed;
  }
  if (removed > 0) fsync_directory(dir);
  return removed;
}

void append_line_durable(const std::string& path, const std::string& line,
                         std::uint64_t rotate_at_bytes) {
  const std::string payload = line + "\n";

  if (rotate_at_bytes > 0) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && st.st_size > 0 &&
        static_cast<std::uint64_t>(st.st_size) + payload.size() >
            rotate_at_bytes) {
      const std::string rotated = path + ".1";
      if (const int injected = consult(IoOp::Rename, rotated)) {
        throw_storage("append_line_durable: rotate", rotated, injected);
      }
      if (::rename(path.c_str(), rotated.c_str()) != 0) {
        throw_storage("append_line_durable: rotate", rotated, errno);
      }
      fsync_directory(parent_dir(path));
    }
  }

  if (const int injected = consult(IoOp::Open, path)) {
    throw_storage("append_line_durable: open", path, injected);
  }
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) throw_storage("append_line_durable: open", path, errno);
  try {
    write_all_hooked(fd, path, payload, "append_line_durable: write");
    fsync_hooked(fd, path, "append_line_durable: fsync");
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

std::size_t repair_appended_log(const std::string& path) {
  const std::optional<std::string> content = read_file(path);
  if (!content || content->empty()) return 0;
  if (content->back() == '\n') return 0;
  const std::size_t keep = content->rfind('\n');
  const std::size_t new_size = keep == std::string::npos ? 0 : keep + 1;
  const std::size_t dropped = content->size() - new_size;
  if (::truncate(path.c_str(), static_cast<off_t>(new_size)) != 0) {
    throw_storage("repair_appended_log: truncate", path, errno);
  }
  return dropped;
}

std::optional<std::string> read_file(const std::string& path) {
  if (const int injected = consult(IoOp::Read, path)) {
    throw_storage("read_file: open", path, injected);
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (!file_exists(path)) return std::nullopt;
    throw_storage("read_file: open", path, errno != 0 ? errno : EIO);
  }
  std::ostringstream out;
  out << is.rdbuf();
  if (is.bad()) throw_storage("read_file: read", path, errno != 0 ? errno : EIO);
  std::string bytes = out.str();
  if (IoHooks* hooks = io_hooks()) hooks->after_read(path, &bytes);
  return bytes;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return stdfs::exists(path, ec);
}

void create_directories(const std::string& path) {
  std::error_code ec;
  stdfs::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("create_directories: '" + path + "': " + ec.message());
  }
}

std::vector<std::string> list_files(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  if (!stdfs::is_directory(dir, ec)) return out;
  for (const auto& entry : stdfs::directory_iterator(dir, ec)) {
    std::error_code entry_ec;
    if (entry.is_regular_file(entry_ec)) {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  return stdfs::remove(path, ec);
}

std::string path_join(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const bool sep = a.back() == '/';
  return sep ? a + b : a + "/" + b;
}

}  // namespace omptune::util
