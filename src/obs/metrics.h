#ifndef OODB_OBS_METRICS_H_
#define OODB_OBS_METRICS_H_

// Unified observability layer: named counters, gauges, and log-linear
// latency histograms behind a process-wide runtime switch.
//
// Design constraints (see docs/observability.md):
//  - Hot-path increments are single relaxed atomic RMW operations.
//  - When observability is disabled (SetEnabled(false)), every Record/Add
//    costs exactly one relaxed atomic load and nothing else.
//  - Exposition (Prometheus text format) is pull-based and may take locks;
//    it never blocks recorders. Snapshot() returns the same samples
//    unformatted, for in-process readers such as the daemon's STATS.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/sync.h"

namespace oodb::obs {

// Process-wide switch. Default on; benchmarks flip it to measure overhead.
bool Enabled();
void SetEnabled(bool on);

// Label set attached to a metric series, e.g. {{"verb", "CHECK"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotone counter.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Log-linear histogram over uint64_t samples (typically nanoseconds).
//
// Buckets: values 0..3 get their own bucket; above that each power of two
// is split into 4 linear sub-buckets, so every bucket upper bound is within
// 25% (relative) of its lower bound. Quantile estimates therefore carry at
// most 25% relative error. 252 buckets cover the full uint64 range.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 252;

  void Record(uint64_t v) {
    if (!Enabled()) return;
    RecordAlways(v);
  }

  // Unconditional variant for callers that pre-check Enabled() themselves.
  void RecordAlways(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Upper-bound estimate of quantile q in [0, 1] (e.g. 0.5, 0.99). Returns
  // the inclusive upper bound of the bucket containing the q-th sample, so
  // the true value is within 25% below the returned one. Returns 0 when the
  // histogram is empty.
  uint64_t Quantile(double q) const;

  // Maps a sample to its bucket index: 0..3 for small values, then four
  // linear sub-buckets per power of two.
  static size_t BucketIndex(uint64_t v) {
    if (v < 4) return static_cast<size_t>(v);
    // lz in [2, 63]: index of the highest set bit.
    const int hi = 63 - __builtin_clzll(v);
    const uint64_t sub = (v >> (hi - 2)) & 3;  // next two bits below the MSB
    return static_cast<size_t>((hi - 1) * 4) + static_cast<size_t>(sub);
  }

  // Inclusive upper bound of bucket i (the largest sample it can hold).
  // The final buckets saturate at UINT64_MAX.
  static uint64_t BucketUpperBound(size_t i) {
    if (i < 4) return static_cast<uint64_t>(i);
    const uint64_t hi = i / 4 + 1;
    const uint64_t sub = i % 4;
    if (hi == 63 && sub == 3) return UINT64_MAX;  // (8 << 61) wraps to 0
    return ((sub + 5) << (hi - 2)) - 1;
  }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// One exposition sample: `name{label="value",...} number`.
struct Sample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

// Accumulates one snapshot of samples. Samples of the same family
// (metric name) are grouped under a single # HELP/# TYPE header in
// first-seen order; Samples() and Render() list them in that order.
class Collector {
 public:
  void AddCounter(const std::string& name, const std::string& help,
                  const Labels& labels, double value);
  void AddGauge(const std::string& name, const std::string& help,
                const Labels& labels, double value);
  // Adds <name>_bucket/_sum/_count plus a companion <name>_max gauge.
  // `scale` converts raw sample units into exposition units (1e-9: ns -> s).
  void AddHistogram(const std::string& name, const std::string& help,
                    const Labels& labels, const Histogram& hist, double scale);

  // The samples added so far, family by family.
  std::vector<Sample> Samples() const;
  // The same samples in Prometheus text format.
  std::string Render() const;

 private:
  struct Family {
    std::string name;
    std::string help;
    std::string type;
    std::vector<Sample> samples;
  };
  Family& FamilyOf(const std::string& name, const std::string& help,
                   const std::string& type);

  std::vector<Family> families_;
};

// Thread-safe registry of owned metrics plus snapshot callbacks for stats
// that live elsewhere (server counters, per-session checker stats, ...).
class MetricsRegistry {
 public:
  // Get-or-create; the registry owns the metric. Pointers stay valid for
  // the registry's lifetime. Series identity is (name, labels).
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  // `scale` applies at exposition time (1e-9 renders ns samples as seconds).
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const Labels& labels = {}, double scale = 1.0);

  // Callback invoked at every exposition to append externally-owned stats.
  void AddCallback(std::function<void(Collector&)> fn);

  // Adds every owned metric, then runs the callbacks. The callbacks run
  // after mu_ is released, so they may take other locks and register
  // metrics: the registry mutex stays a leaf.
  void Collect(Collector& out) const;
  // The samples Collect produces, in exposition order.
  std::vector<Sample> Snapshot() const;
  // That snapshot in Prometheus text format.
  std::string RenderPrometheus() const;

 private:
  enum class Kind { kCounter, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::string help;
    Labels labels;
    double scale = 1.0;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };
  Entry* Find(Kind kind, const std::string& name, const Labels& labels)
      REQUIRES(mu_);

  mutable base::Mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
  std::vector<std::function<void(Collector&)>> callbacks_ GUARDED_BY(mu_);
};

}  // namespace oodb::obs

#endif  // OODB_OBS_METRICS_H_
