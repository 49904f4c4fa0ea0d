// The benchmark program: spawns the daemon, sets it up several times,
// drives one timed window, checks every reply, and prints one JSON report
// as its last line of stdout. With --trace 1 it adds paired traced and
// untraced slices and the in-process replay, and reports per-layer
// numbers.
//
// usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                         --daemon PATH/oodbsub [--out-dir DIR]
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "daemon.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-ups per run: at least kMinSetups and until kSetupBudgetS seconds
// were spent, at most kMaxSetups; setup_s is their median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 2.0;
constexpr int kDaemonThreads = 2;
// Latencies are taken per measured window and reported as this quantile
// over windows, rates as its complement: a window slowed by other load on
// the host moves a run's figure only once more than a quarter of its
// windows are slowed.
constexpr double kWindowQuantile = 0.25;
// Tracing overhead: this many pairs of one untraced and one traced slice.
constexpr int kOverheadPairs = 4;

// ---- A minimal JSON writer (objects of numbers, strings and objects) -----

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

class Object {
 public:
  Object& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + raw;
    return *this;
  }
  Object& Num(const std::string& key, double v) { return Add(key, Number(v)); }
  Object& Str(const std::string& key, const std::string& v) {
    return Add(key, Quote(v));
  }
  Object& Bool(const std::string& key, bool v) {
    return Add(key, v ? "true" : "false");
  }
  Object& Obj(const std::string& key, const Object& o) { return Add(key, o.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

Object Metric(double value, const std::string& unit, double samples) {
  Object o;
  o.Num("value", value).Str("unit", unit).Num("samples", samples);
  return o;
}

// ---- Host and build stamp -------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Milliseconds a fixed single-threaded integer loop takes on the client's
// CPU, the median of five. Taken before and after the timed window, it
// reads higher when the host is busy, and explains a run whose figures
// all moved together.
double CpuProbeMs() {
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    const int64_t start = NowNs();
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int k = 0; k < 20'000'000; ++k) {
      h ^= h >> 31;
      h *= 0xbf58476d1ce4e5b9ULL;
    }
    volatile uint64_t sink = h;  // keeps the loop from being folded away
    (void)sink;
    times.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Median(std::move(times));
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

// `daemon_cpus` is the daemon's CPU list, read while it ran.
Object Host(uint64_t seed, const std::string& daemon_cpus, double probe_ms) {
  Object o;
  o.Num("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("cpu_model", CpuModel())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cxx_flags", PERFBENCH_FLAGS)
      .Bool("optimized", OptimizedBuild())
      .Num("seed", static_cast<double>(seed))
      .Num("daemon_threads", kDaemonThreads)
      .Str("client_cpus", AllowedCpus(0))
      .Str("daemon_cpus", daemon_cpus)
      .Num("cpu_probe_ms", probe_ms);
  return o;
}

// ---- Metrics --------------------------------------------------------------

double LatencyUs(const Sent& s) {
  return static_cast<double>(s.done_ns - s.submit_ns) / 1e3;
}

// The samples that fall in a full window: a window cut short by the end
// of the run (under half the longest one) holds too few samples for a
// per-window quantile.
std::vector<Sent> InFullWindows(const Log& log, const std::deque<Sent>& samples,
                                const std::function<bool(const Sent&)>& keep) {
  double longest = 0.0;
  for (const auto& [window, seconds] : log.windows) {
    longest = std::max(longest, seconds);
  }
  std::vector<Sent> out;
  for (const Sent& s : samples) {
    auto it = log.windows.find(s.window);
    if (keep(s) && it != log.windows.end() && it->second >= longest / 2) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<Sent> OfVerb(const Log& log, Verb verb) {
  return InFullWindows(log, log.sent, [verb](const Sent& s) {
    return s.ok && s.verb == verb;
  });
}

// Latency quantile q taken in each measured window, then the
// kWindowQuantile over windows. `min_window` is the fewest samples any
// window had.
double WindowedQuantileUs(const std::vector<Sent>& samples, double q,
                          size_t* min_window = nullptr) {
  std::map<uint32_t, std::vector<double>> by_window;
  for (const Sent& s : samples) by_window[s.window].push_back(LatencyUs(s));
  std::vector<double> per_window;
  size_t fewest = by_window.empty() ? 0 : SIZE_MAX;
  for (auto& [window, latencies] : by_window) {
    fewest = std::min(fewest, latencies.size());
    per_window.push_back(Quantile(std::move(latencies), q));
  }
  if (min_window != nullptr) *min_window = fewest;
  return Quantile(std::move(per_window), kWindowQuantile);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--daemon") {
      args->daemon = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->daemon.empty() &&
         args->seconds > 0;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 1;
}

void PrintNotes(const Log& log) {
  for (const std::string& note : log.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --daemon PATH [--out-dir DIR]\n");
    return 64;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) return Fail("unknown workload " + args.workload);
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: WARNING: non-optimized build; these numbers are "
                 "not a baseline\n");
  }
  // Pinned before any thread starts, so that every client thread
  // inherits the client's CPUs. A host that refuses leaves both unpinned.
  CpuSplit cpus = SplitCpus();
  if (!PinTo(cpus.client)) {
    std::fprintf(stderr,
                 "perfbench: WARNING: cannot pin CPUs; running unpinned\n");
    cpus = CpuSplit{};
  }
  std::string error;
  if (!workload->Prepare(args.seed, &error)) return Fail(error);

  // Set-up: spawn → first timed request, several times on fresh daemons.
  std::vector<double> setups;
  double setup_total_s = 0.0;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || setup_total_s < kSetupBudgetS);
       ++i) {
    if (daemon != nullptr) daemon->Stop();
    daemon = std::make_unique<Daemon>();
    const int64_t start = NowNs();
    if (!daemon->Start(args.daemon, kDaemonThreads, cpus.daemon, &error)) {
      return Fail(error);
    }
    if (!workload->Setup(daemon->port(), &error)) return Fail(error);
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total_s += setups.back();
  }

  const std::string daemon_cpus = AllowedCpus(daemon->pid());
  WindowProbe probe(*daemon);
  const double probe_before_ms = CpuProbeMs();
  Log a = workload->RunTimed(daemon->port(), args.seconds, nullptr, &probe);
  const double probe_ms = (probe_before_ms + CpuProbeMs()) / 2;

  // Tracing overhead: pairs of an untraced and a traced slice, back to
  // back in alternating order, so that drift of the daemon's state or of
  // the host between slices cancels in each pair's ratio of CHECK p50s.
  SpanRecorder daemon_spans;
  Log b;  // the paired slices' counts
  std::vector<double> overhead;
  if (args.trace) {
    const double slice_s = std::max(0.5, args.seconds / 10);
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      double p50[2] = {0, 0};  // untraced, traced
      for (int k = 0; k < 2; ++k) {
        const bool traced = (k + pair) % 2 == 1;
        const Log slice = workload->RunTimed(
            daemon->port(), slice_s, traced ? &daemon_spans : nullptr, nullptr);
        p50[traced] = WindowedQuantileUs(OfVerb(slice, kCheck), 0.5);
        b.attempted += slice.attempted;
        b.failed += slice.failed;
        b.mismatches += slice.mismatches;
        for (const std::string& note : slice.notes) {
          if (b.notes.size() < 8) b.notes.push_back(note);
        }
      }
      if (p50[0] > 0 && p50[1] > 0) overhead.push_back(p50[1] / p50[0] - 1.0);
    }
  }
  workload->VerifyEnd(daemon->port(), &a);
  const double rss = daemon->PeakRssMiB();
  daemon->Stop();

  PrintNotes(a);
  PrintNotes(b);
  const uint64_t attempted = a.attempted + b.attempted;
  const uint64_t failed = a.failed + b.failed;
  const bool correct = a.mismatches == 0 && b.mismatches == 0;

  // ---- End-to-end metrics (untraced window) ------------------------------
  Object e2e;
  e2e.Obj("setup_s", Metric(Median(setups), "s",
                            static_cast<double>(setups.size())));
  e2e.Obj("failed_frac",
          Metric(a.attempted == 0 ? 1.0
                                  : static_cast<double>(a.failed) /
                                        static_cast<double>(a.attempted),
                 "ratio", static_cast<double>(a.attempted)));
  // Latencies: p50 and p99 per window, median over windows; a p99 needs
  // 1000 samples in every window to leave ten beyond it.
  bool enough_for_p99 = true;
  auto latencies = [&](const std::string& stem, const std::vector<Sent>& samples,
                       bool with_p99) {
    if (samples.empty()) return;
    const double n = static_cast<double>(samples.size());
    e2e.Obj(stem + "_p50_us", Metric(WindowedQuantileUs(samples, 0.5), "us", n));
    if (!with_p99) return;
    size_t fewest = 0;
    e2e.Obj(stem + "_p99_us",
            Metric(WindowedQuantileUs(samples, 0.99, &fewest), "us", n));
    enough_for_p99 = enough_for_p99 && fewest >= 1000;
  };
  // Rates: completions per second in each window that had any, the
  // 1 - kWindowQuantile over windows; `per` counts what one completion
  // stands for.
  auto rate = [&](const std::string& name, const std::vector<Sent>& samples,
                  double per) {
    if (samples.empty()) return;
    std::map<uint32_t, double> done;
    for (const Sent& s : samples) done[s.window] += per;
    std::vector<double> per_window;
    for (const auto& [window, count] : done) {
      per_window.push_back(count / a.windows[window]);
    }
    e2e.Obj(name,
            Metric(Quantile(std::move(per_window), 1 - kWindowQuantile),
                   "1/s", per * static_cast<double>(samples.size())));
  };
  const std::vector<Sent> checks = OfVerb(a, kCheck);
  latencies("check", checks, true);
  rate("checks_per_s", checks, 1);
  const std::vector<Sent> frames = OfVerb(a, kBcheck);
  latencies("bcheck", frames, false);
  rate("bcheck_pairs_per_s", frames, kBatchPairs);
  for (Verb verb : {kOptimize, kView, kUndefine}) {
    latencies(VerbStem(verb), OfVerb(a, verb), true);
  }
  const std::vector<Sent> leads =
      InFullWindows(a, a.lead, [](const Sent&) { return true; });
  latencies("lead", leads, true);
  rate("lead_per_s", leads, 1);
  const double completed = static_cast<double>(a.sent.size());
  e2e.Obj("server_cpu_us_per_op",
          Metric(probe.cpu_s() * 1e6 / std::max(1.0, completed),
                 "us", completed));
  e2e.Obj("server_rss_mb", Metric(rss, "MiB", 1));
  if (!enough_for_p99) {
    std::fprintf(stderr,
                 "perfbench: WARNING: a window has fewer than 1000 samples "
                 "behind its p99\n");
  }

  // ---- Per-layer metrics (traced run) ------------------------------------
  Object layers;
  if (args.trace) {
    SpanRecorder replay_spans;
    LayerReport replay;
    workload->Replay(a, std::max(1.0, args.seconds / 2), &replay_spans, &replay);
    // One pair of span files per workload, overwritten by its next traced
    // run: a check-warm pair is about 100 MB.
    if (!args.out_dir.empty()) {
      const std::string stem = args.out_dir + "/" + args.workload;
      (void)replay_spans.WriteTsv(stem + "-replay.spans.tsv");
      (void)daemon_spans.WriteTsv(stem + "-daemon.spans.tsv");
    }
    auto delta = [&](const std::string& name) {
      return SumSeries(probe.delta(), name);
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    for (int v = 0; v < kNumVerbs; ++v) {
      const Verb verb = Verb(v);
      const std::vector<Sent> samples = OfVerb(a, verb);
      if (samples.empty()) continue;
      double n = 0;
      const double daemon_p50_us =
          HistogramQuantile(probe.delta(), "oodb_server_request_seconds",
                            {{"verb", VerbWire(verb)}}, 0.5, 1e-9, &n) *
          1e6;
      const std::string stem = VerbStem(verb);
      layers.Obj("server.outside_us." + stem,
                 Metric(WindowedQuantileUs(samples, 0.5) - daemon_p50_us,
                        "us", n));
      auto sum = replay.values.find("replay.layer_sum_us." + stem);
      if (sum != replay.values.end()) {
        layers.Obj("server.unattributed_us." + stem,
                   Metric(daemon_p50_us - sum->second, "us",
                          replay.bases["replay.layer_sum_us." + stem]));
      }
    }
    const double batches = delta("oodb_loop_ready_batch_count");
    layers.Obj("server.loop_ready_batch_mean",
               Metric(ratio(delta("oodb_loop_ready_batch_sum"), batches),
                      "count", batches));
    const double hits = delta("oodb_memo_hits_total");
    const double lookups = hits + delta("oodb_memo_misses_total");
    layers.Obj("calculus.memo_hit_ratio",
               Metric(ratio(hits, lookups), "ratio", lookups));
    const double filtered = delta("oodb_prefilter_checks_total");
    layers.Obj("calculus.prefilter_reject_ratio",
               Metric(ratio(delta("oodb_prefilter_rejections_total"), filtered),
                      "ratio", filtered));
    const double verdicts = static_cast<double>(a.check_verdicts);
    layers.Obj("calculus.engine_runs_per_check",
               Metric(ratio(delta("oodb_checker_engine_runs_total"), verdicts),
                      "count", verdicts));
    static const std::map<std::string, std::string> kUnits = {
        {"server.wire_ns_per_frame", "ns"},
        {"dl.load_ms", "ms"},
        {"dl.translate_us", "us"},
        {"calculus.prefilter_ns", "ns"},
        {"calculus.engine_run_us", "us"},
        {"calculus.engine_individuals_per_run", "count"},
        {"calculus.engine_constraints_per_run", "count"},
        {"calculus.check_self_us", "us"},
        {"calculus.batch_us_per_pair", "us"},
        {"calculus.classifier.build_s", "s"},
        {"calculus.classifier.insert_us", "us"},
        {"calculus.classifier.checks_per_insert", "count"},
        {"calculus.classifier.classes_per_insert", "count"},
        {"calculus.classifier.remove_us", "us"},
        {"views.choose_plan_us", "us"},
        {"views.plan_checks_per_optimize", "count"},
        {"views.pool_size_mean", "count"},
        {"views.residual_share", "ratio"},
        {"views.materialize_us", "us"},
        {"views.drop_us", "us"},
        {"db.eval_us", "us"},
        {"db.candidates_per_answer", "count"},
    };
    for (const auto& [name, unit] : kUnits) {
      layers.Obj(name, Metric(replay.values[name], unit, replay.bases[name]));
    }
    layers.Obj("bench.trace_overhead_frac",
               Metric(Median(overhead), "ratio",
                      static_cast<double>(overhead.size())));
  }

  Object sizes;
  for (const auto& [name, value] : workload->Sizes()) sizes.Num(name, value);
  Object report;
  report.Str("workload", args.workload)
      .Str("lead", workload->lead())
      .Bool("correct", correct)
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Num("mismatches", static_cast<double>(a.mismatches + b.mismatches))
      .Num("window_s", a.window_s)
      .Obj("host", Host(args.seed, daemon_cpus, probe_ms))
      .Obj("sizes", sizes)
      .Obj("end_to_end", e2e);
  if (args.trace) report.Obj("per_layer", layers);
  std::printf("%s\n", report.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  return perfbench::Run(argc, argv);
}
