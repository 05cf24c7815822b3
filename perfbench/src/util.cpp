#include "util.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Rng::uniform(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

std::uint64_t fnv64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool writeFile(const std::string& path, std::string_view content) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

void makeDirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

void removeTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double peakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

Child::Child(const std::vector<std::string>& argv,
             const std::vector<std::string>& env_extra,
             const std::string& stdout_path, const std::string& stderr_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  for (const std::string& e : env_extra) env_strings.push_back(e);
  std::vector<char*> env;
  for (std::string& e : env_strings) env.push_back(e.data());
  env.push_back(nullptr);

  // fork + exec rather than posix_spawn, for PR_SET_PDEATHSIG: a child
  // must not outlive the benchmark even when the benchmark is killed.
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const auto redirect = [](const std::string& path, int fd) {
      if (path.empty()) return;
      const int out = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out < 0 || dup2(out, fd) < 0) _exit(127);
      close(out);
    };
    redirect(stdout_path, STDOUT_FILENO);
    redirect(stderr_path, STDERR_FILENO);
    execve(args[0], args.data(), env.data());
    _exit(127);
  }
  if (pid > 0) pid_ = pid;
}

Child::~Child() {
  if (pid_ > 0) kill();
}

int Child::wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  pid_t r;
  do {
    r = waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  if (r < 0) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool Child::exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) != pid_) return false;
  pid_ = -1;
  return true;
}

void Child::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  (void)wait();
}

int runCommand(const std::vector<std::string>& argv,
               const std::vector<std::string>& env_extra,
               const std::string& stdout_path, const std::string& stderr_path) {
  Child child(argv, env_extra, stdout_path, stderr_path);
  if (!child.started()) return -1;
  return child.wait();
}

}  // namespace perfbench
