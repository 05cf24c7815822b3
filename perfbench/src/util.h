// Small helpers shared by the benchmark stages: clocks, sample statistics,
// a seeded generator, file plumbing, and child processes.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Milliseconds on the monotonic clock.
inline double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile with linear interpolation between order statistics; 0 for an
/// empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// The fastest sample: the cost of a fixed piece of work at the host's
/// full speed (see README.md, "Steadiness rules"); 0 for no samples.
[[nodiscard]] double fastest(const std::vector<double>& values);

/// Deterministic generator (splitmix64): the workload seed is the only
/// source of variation in generated inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  int uniform(int lo, int hi);

 private:
  std::uint64_t state_;
};

[[nodiscard]] std::uint64_t fnv64(std::string_view bytes);

/// Writes `content` to `path` (parents created). Returns false on failure.
bool writeFile(const std::string& path, std::string_view content);
[[nodiscard]] std::string readFile(const std::string& path);
void makeDirs(const std::string& path);
void removeTree(const std::string& path);

/// Peak resident set (VmHWM) of `pid` in MB, 0 when unreadable.
[[nodiscard]] double peakRssMb(pid_t pid);

/// A child process started without a shell. The destructor kills and
/// reaps a child that is still running, so no process outlives its owner.
class Child {
 public:
  /// Starts `argv` with `env_extra` ("NAME=value") appended to the
  /// environment. stdout goes to `stdout_path` (or is inherited when
  /// empty), stderr to `stderr_path` likewise.
  Child(const std::vector<std::string>& argv,
        const std::vector<std::string>& env_extra = {},
        const std::string& stdout_path = {},
        const std::string& stderr_path = {});
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] bool started() const { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// Waits for exit; returns the exit status (-1 on signal or error).
  int wait();
  /// Non-blocking: true once the child has exited (it is then reaped).
  bool exited();
  /// Sends SIGKILL and reaps.
  void kill();

 private:
  pid_t pid_ = -1;
};

/// Runs `argv` to completion; returns the exit status (-1 on failure).
int runCommand(const std::vector<std::string>& argv,
               const std::vector<std::string>& env_extra = {},
               const std::string& stdout_path = {},
               const std::string& stderr_path = {});

}  // namespace perfbench
