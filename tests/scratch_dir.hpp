#pragma once

// A per-test temporary directory, created empty on construction and
// removed with everything in it on destruction, so no test leaves files
// behind in the system temp directory.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "util/fs.hpp"

namespace omptune {

class ScratchDir {
 public:
  /// `<temp>/omptune_test_<tag>_<pid>`, emptied if a previous run left it.
  explicit ScratchDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("omptune_test_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return util::path_join(path_, name);
  }

 private:
  std::string path_;
};

}  // namespace omptune
