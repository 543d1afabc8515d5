#include "util/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace omptune::util {

namespace {

[[noreturn]] void raise_error(const std::string& path, const char* what) {
  throw std::runtime_error("MappedFile: " + std::string(what) + " '" + path +
                           "': " + std::strerror(errno));
}

bool mmap_disabled_by_env() {
  const char* value = std::getenv("OMPTUNE_NO_MMAP");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

}  // namespace

void MappedFile::read_into_buffer(int fd) {
  buffer_.resize(size_);
  std::size_t done = 0;
  while (done < size_) {
    const ssize_t n = ::read(fd, &buffer_[done], size_ - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      raise_error(path_, "cannot read");
    }
    if (n == 0) break;  // truncated under us; expose what we got
    done += static_cast<std::size_t>(n);
  }
  if (done < size_) {
    size_ = done;
    buffer_.resize(done);
  }
  data_ = buffer_bytes();
}

MappedFile::MappedFile(const std::string& path, Mode mode) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) raise_error(path, "cannot open");

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    raise_error(path, "cannot stat");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    return;  // empty file: null view, valid object
  }

  if (mode == Mode::Auto && !mmap_disabled_by_env()) {
    void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped != MAP_FAILED) {
      ::close(fd);  // the mapping holds its own reference
      data_ = static_cast<const unsigned char*>(mapped);
      mapped_ = true;
      return;
    }
    // Fall through: filesystems without mmap support (ENODEV/EINVAL/...)
    // degrade to a buffered whole-file read instead of failing the open.
  }
  read_into_buffer(fd);
  ::close(fd);
}

MappedFile::MappedFile(std::string label, std::string bytes)
    : path_(std::move(label)), size_(bytes.size()), buffer_(std::move(bytes)) {
  if (size_ > 0) data_ = buffer_bytes();
}

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : path_(std::move(other.path_)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      buffer_(std::move(other.buffer_)) {
  if (!mapped_ && !buffer_.empty()) data_ = buffer_bytes();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    path_ = std::move(other.path_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    buffer_ = std::move(other.buffer_);
    if (!mapped_ && !buffer_.empty()) data_ = buffer_bytes();
  }
  return *this;
}

void MappedFile::reset() noexcept {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  buffer_.clear();
}

}  // namespace omptune::util
