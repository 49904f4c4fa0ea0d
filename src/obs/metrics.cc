#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "base/sync.h"

namespace oodb::obs {

namespace {

std::atomic<bool> g_enabled{true};

// Prometheus-safe double: integers render without exponent or decimals,
// everything else uses shortest-roundtrip-ish %.9g.
std::string FormatValue(double v) {
  if (v >= 0 && v < 1e15 && v == std::floor(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, static_cast<uint64_t>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key;
    out += "=\"";
    AppendEscaped(&out, value);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

uint64_t Histogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * n)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += bucket(i);
    if (cumulative >= rank) {
      // Never report beyond the observed maximum.
      return std::min(BucketUpperBound(i), max());
    }
  }
  return max();
}

Collector::Family& Collector::FamilyOf(const std::string& name,
                                       const std::string& help,
                                       const std::string& type) {
  for (Family& family : families_) {
    if (family.name == name) return family;
  }
  families_.push_back(Family{name, help, type, {}});
  return families_.back();
}

void Collector::AddCounter(const std::string& name, const std::string& help,
                           const Labels& labels, double value) {
  FamilyOf(name, help, "counter").samples.push_back({name, labels, value});
}

void Collector::AddGauge(const std::string& name, const std::string& help,
                         const Labels& labels, double value) {
  FamilyOf(name, help, "gauge").samples.push_back({name, labels, value});
}

void Collector::AddHistogram(const std::string& name, const std::string& help,
                             const Labels& labels, const Histogram& hist,
                             double scale) {
  // Snapshot first; concurrent recorders may race individual loads, so the
  // count is recomputed from the bucket snapshot for consistency.
  std::array<uint64_t, Histogram::kNumBuckets> buckets;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] = hist.bucket(i);
  }
  const double sum = static_cast<double>(hist.sum()) * scale;

  Family& family = FamilyOf(name, help, "histogram");
  const auto add_bucket = [&](const std::string& le, uint64_t cumulative) {
    Labels with_le = labels;
    with_le.emplace_back("le", le);
    family.samples.push_back({name + "_bucket", std::move(with_le),
                              static_cast<double>(cumulative)});
  };
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    cumulative += buckets[i];
    const double bound = static_cast<double>(Histogram::BucketUpperBound(i));
    add_bucket(FormatValue(bound * scale), cumulative);
  }
  add_bucket("+Inf", cumulative);
  family.samples.push_back({name + "_sum", labels, sum});
  family.samples.push_back(
      {name + "_count", labels, static_cast<double>(cumulative)});
  // Companion gauge: Prometheus histograms cannot express the exact max,
  // but the human snapshot (oodbsub stats) wants it.
  AddGauge(name + "_max", help + " (maximum observed)", labels,
           static_cast<double>(hist.max()) * scale);
}

std::vector<Sample> Collector::Samples() const {
  std::vector<Sample> out;
  for (const Family& family : families_) {
    out.insert(out.end(), family.samples.begin(), family.samples.end());
  }
  return out;
}

std::string Collector::Render() const {
  std::string out;
  for (const Family& family : families_) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " " + family.type + "\n";
    for (const Sample& sample : family.samples) {
      out += sample.name + RenderLabels(sample.labels) + " " +
             FormatValue(sample.value) + "\n";
    }
  }
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::Find(Kind kind,
                                              const std::string& name,
                                              const Labels& labels) {
  for (auto& entry : entries_) {
    if (entry->kind == kind && entry->name == name &&
        entry->labels == labels) {
      return entry.get();
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels) {
  base::MutexLock lock(&mu_);
  if (Entry* entry = Find(Kind::kCounter, name, labels)) {
    return entry->counter.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kCounter;
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->counter = std::make_unique<Counter>();
  Counter* out = entry->counter.get();
  entries_.push_back(std::move(entry));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         const Labels& labels, double scale) {
  base::MutexLock lock(&mu_);
  if (Entry* entry = Find(Kind::kHistogram, name, labels)) {
    return entry->histogram.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kHistogram;
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->scale = scale;
  entry->histogram = std::make_unique<Histogram>();
  Histogram* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

void MetricsRegistry::AddCallback(std::function<void(Collector&)> fn) {
  base::MutexLock lock(&mu_);
  callbacks_.push_back(std::move(fn));
}

void MetricsRegistry::Collect(Collector& out) const {
  // Entries and callbacks are never removed, so the pointers copied here
  // stay valid once mu_ is released.
  std::vector<const Entry*> entries;
  std::vector<std::function<void(Collector&)>> callbacks;
  {
    base::MutexLock lock(&mu_);
    entries.reserve(entries_.size());
    for (const auto& entry : entries_) entries.push_back(entry.get());
    callbacks = callbacks_;
  }
  for (const Entry* entry : entries) {
    switch (entry->kind) {
      case Kind::kCounter:
        out.AddCounter(entry->name, entry->help, entry->labels,
                       static_cast<double>(entry->counter->value()));
        break;
      case Kind::kHistogram:
        out.AddHistogram(entry->name, entry->help, entry->labels,
                         *entry->histogram, entry->scale);
        break;
    }
  }
  for (const auto& fn : callbacks) fn(out);
}

std::vector<Sample> MetricsRegistry::Snapshot() const {
  Collector collector;
  Collect(collector);
  return collector.Samples();
}

std::string MetricsRegistry::RenderPrometheus() const {
  Collector collector;
  Collect(collector);
  return collector.Render();
}

}  // namespace oodb::obs
