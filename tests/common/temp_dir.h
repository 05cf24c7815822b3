// TempDir: a scratch directory for one test, created on construction and
// removed (with its contents) on destruction.
//
// The name is unique per process and per instance: the process id plus a
// counter. ctest -j runs each test of a binary in its own process, many at
// once, so neither a fixture's address nor the gtest random seed can tell
// two tests apart: the seed is the same in every process, and under ASan
// identical processes get identical heap addresses.
#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace pdt::testutil {

class TempDir {
 public:
  explicit TempDir(std::string_view prefix) : path_(uniquePath(prefix)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // left by a process whose pid was reused
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string string() const { return path_.string(); }
  [[nodiscard]] std::filesystem::path operator/(const std::string& name) const {
    return path_ / name;
  }

 private:
  static std::filesystem::path uniquePath(std::string_view prefix) {
    static std::atomic<unsigned> counter{0};
    return std::filesystem::temp_directory_path() /
           (std::string(prefix) + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
  }

  std::filesystem::path path_;
};

}  // namespace pdt::testutil
