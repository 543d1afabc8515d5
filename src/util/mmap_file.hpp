#pragma once

// Read-only memory-mapped file view, the substrate of the binary sample
// store's zero-copy reader: the kernel pages data in on first touch, so a
// reader that only walks the index and a few matching column ranges never
// pays for the rest of the file.
//
// Not every filesystem supports mmap (some network and FUSE mounts refuse
// it). When the mapping fails, the view degrades gracefully to a buffered
// whole-file read into heap memory — same data()/size() contract, the
// zero-copy property is simply lost. memory_mapped() reports which path was
// taken, and setting OMPTUNE_NO_MMAP=1 in the environment forces the
// buffered path (operational escape hatch, and how tests exercise it).
// A view can also adopt bytes already in memory (an in-memory store image):
// they become the fallback's buffer, so the view reads exactly like a
// buffered file.

#include <cstddef>
#include <string>

namespace omptune::util {

/// RAII mmap(2) view of a whole file. Move-only; unmaps on destruction.
/// Empty files map to a null view with size 0 (mmap rejects length 0).
class MappedFile {
 public:
  enum class Mode {
    Auto,           ///< mmap, falling back to a buffered read on failure
    ForceBuffered,  ///< skip mmap entirely (testing / broken filesystems)
  };

  /// Maps `path` read-only (or buffers it, per `mode` / OMPTUNE_NO_MMAP).
  /// Throws std::runtime_error if the file cannot be opened, stat'ed, or
  /// read at all.
  explicit MappedFile(const std::string& path, Mode mode = Mode::Auto);
  /// Adopts `bytes` as the buffered view; `label` stands in for the path.
  MappedFile(std::string label, std::string bytes);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Whether data() points into a real kernel mapping (false on the
  /// buffered fallback path and for empty files).
  bool memory_mapped() const { return mapped_; }

 private:
  void reset() noexcept;
  void read_into_buffer(int fd);
  const unsigned char* buffer_bytes() const {
    return reinterpret_cast<const unsigned char*>(buffer_.data());
  }

  std::string path_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::string buffer_;  ///< backing store of the fallback and adopted bytes
};

}  // namespace omptune::util
