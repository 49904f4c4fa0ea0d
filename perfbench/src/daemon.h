// The daemon under test as a child process (`oodbsub serve --port=0`),
// the CPUs it and the benchmark run on, and readers for what the
// benchmark observes from outside it: CPU time and peak RSS from /proc,
// and METRICS deltas.
#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "server/client.h"

namespace perfbench {

// Disjoint CPU sets for the benchmark's client threads and the daemon,
// so that neither preempts the other and neither migrates between runs.
// With at least 4 CPUs allowed, the client gets the first and the daemon
// (its loop thread and its workers) the rest; with fewer, both are empty
// and nothing is pinned. Pinning is best effort: where the host refuses
// it, the benchmark runs unpinned, and the stamp says so.
struct CpuSplit {
  std::vector<int> client;
  std::vector<int> daemon;
};
CpuSplit SplitCpus();

// Restricts the calling thread, and the threads and processes it starts
// later, to `cpus`. Does nothing for an empty set.
bool PinTo(const std::vector<int>& cpus);

// The CPUs process `pid` (0: this process) may run on, as the kernel
// lists them in /proc (`Cpus_allowed_list`), or "unknown".
std::string AllowedCpus(pid_t pid);

class Daemon {
 public:
  // Starts `binary serve --port=0 --threads=<threads>` on `cpus` (see
  // PinTo; a refused pin leaves the daemon unpinned) and waits for its
  // `listening on` line. The daemon's stdout and stderr share one pipe, so
  // a daemon that fails to start reports why in `*error`. The child is
  // killed if this process dies. Returns false with `*error` set on
  // failure.
  bool Start(const std::string& binary, int threads,
             const std::vector<int>& cpus, std::string* error);

  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // User + system CPU seconds of every daemon thread so far.
  double CpuSeconds() const;
  // Peak resident set size (VmHWM) in MiB.
  double PeakRssMiB() const;

  // Sends SHUTDOWN and waits for the exit; kills the child if it does
  // not exit in time. Safe to call twice.
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

// What the daemon did while a timed window ran: METRICS deltas and CPU
// time, summed over one or more measured stretches (Begin() ... End()).
// Summing per stretch keeps per-session counters right when a session is
// replaced between stretches.
class WindowProbe {
 public:
  // `daemon` must outlive the probe.
  explicit WindowProbe(const Daemon& daemon) : daemon_(daemon) {}

  void Begin();
  void End();

  // Summed deltas of every series.
  const MetricsSnapshot& delta() const { return delta_; }
  double cpu_s() const { return cpu_s_; }

 private:
  MetricsSnapshot Scrape();

  const Daemon& daemon_;
  std::unique_ptr<oodb::server::Client> client_;
  MetricsSnapshot begin_;
  double begin_cpu_s_ = 0.0;
  MetricsSnapshot delta_;
  double cpu_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
