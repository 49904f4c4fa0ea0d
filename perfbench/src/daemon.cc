#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "server/client.h"

namespace perfbench {

CpuSplit SplitCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  CpuSplit split;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return split;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 4) return split;
  split.client.assign(cpus.begin(), cpus.begin() + 1);
  split.daemon.assign(cpus.begin() + 1, cpus.end());
  return split;
}

bool PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::string AllowedCpus(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  const std::string key = "Cpus_allowed_list:";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t at = line.find_first_not_of(" \t", key.size());
      return at == std::string::npos ? "unknown" : line.substr(at);
    }
  }
  return "unknown";
}

bool Daemon::Start(const std::string& binary, int threads,
                   const std::vector<int>& cpus, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  const std::string threads_arg = "--threads=" + std::to_string(threads);
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: die with the benchmark, report the port (or why it has
    // none) on the pipe.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    (void)PinTo(cpus);
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    const char* argv[] = {binary.c_str(), "serve", "--port=0",
                          threads_arg.c_str(), nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::dprintf(STDERR_FILENO, "cannot run %s: %s\n", binary.c_str(),
              std::strerror(errno));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];

  // Read up to the end of the `listening on 127.0.0.1:<port>` line, 30 s
  // at most.
  const std::string prefix = "listening on 127.0.0.1:";
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (line.find('\n', std::min(line.size(), line.find(prefix))) ==
         std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t at = line.find(prefix);
  if (at == std::string::npos) {
    while (!line.empty() && line.back() == '\n') line.pop_back();
    *error = "daemon did not report its port: '" + line + "'";
    Stop();
    return false;
  }
  port_ = std::atoi(line.c_str() + at + prefix.size());
  return port_ > 0;
}

Daemon::~Daemon() { Stop(); }

double Daemon::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(paren + 2));
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::string token;
  double ticks = 0.0;
  for (int field = 3; field <= 15 && (fields >> token); ++field) {
    if (field >= 14) ticks += std::strtod(token.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::PeakRssMiB() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Daemon::Stop() {
  if (pid_ > 0) {
    if (port_ > 0) {
      auto client = oodb::server::Client::Connect("127.0.0.1", port_);
      if (client.ok()) {
        (void)client->SetDeadline(5000);
        (void)client->Shutdown();
      }
    }
    // A drained daemon exits within milliseconds; poll finely so that
    // back-to-back set-ups do not wait, and give up after 10 s.
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 10000 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

MetricsSnapshot WindowProbe::Scrape() {
  if (client_ == nullptr) {
    auto client = oodb::server::Client::Connect("127.0.0.1", daemon_.port());
    if (!client.ok()) return {};
    client_ = std::make_unique<oodb::server::Client>(std::move(*client));
  }
  auto text = client_->Metrics();
  if (!text.ok()) return {};
  auto parsed = ParseMetrics(*text);
  return parsed.ok() ? *std::move(parsed) : MetricsSnapshot{};
}

void WindowProbe::Begin() {
  begin_ = Scrape();
  begin_cpu_s_ = daemon_.CpuSeconds();
}

void WindowProbe::End() {
  cpu_s_ += daemon_.CpuSeconds() - begin_cpu_s_;
  for (const auto& [series, value] : Scrape()) {
    auto it = begin_.find(series);
    delta_[series] += value - (it == begin_.end() ? 0.0 : it->second);
  }
}

}  // namespace perfbench
