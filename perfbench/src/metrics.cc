#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/exposition.h"

namespace perfbench {

namespace obs = oodb::obs;

namespace {

// The `le` bound of a histogram bucket series; false for +Inf or none.
bool BucketBound(const SeriesKey& key, double* bound) {
  for (const auto& [label, value] : key.second) {
    if (label != "le") continue;
    if (value == "+Inf") return false;
    *bound = std::strtod(value.c_str(), nullptr);
    return true;
  }
  return false;
}

obs::Labels WithoutLe(obs::Labels labels) {
  std::erase_if(labels, [](const auto& l) { return l.first == "le"; });
  return labels;
}

bool Includes(const obs::Labels& labels, const obs::Labels& filter) {
  return std::all_of(filter.begin(), filter.end(), [&](const auto& want) {
    return std::find(labels.begin(), labels.end(), want) != labels.end();
  });
}

}  // namespace

oodb::Result<MetricsSnapshot> ParseMetrics(const std::string& text) {
  OODB_ASSIGN_OR_RETURN(std::vector<obs::Sample> samples,
                        obs::ParseExposition(text));
  MetricsSnapshot out;
  // Cumulative bucket counts per histogram series, by upper bound.
  std::map<SeriesKey, std::map<double, SeriesKey>> histograms;
  for (obs::Sample& s : samples) {
    SeriesKey key{std::move(s.name), std::move(s.labels)};
    double bound = 0.0;
    if (key.first.ends_with("_bucket") && BucketBound(key, &bound)) {
      histograms[{key.first, WithoutLe(key.second)}][bound] = key;
    }
    out[std::move(key)] = s.value;
  }
  for (const auto& [series, buckets] : histograms) {
    double previous = 0.0;
    for (const auto& [bound, key] : buckets) {
      const double cumulative = out[key];
      out[key] = cumulative - previous;
      previous = cumulative;
    }
  }
  return out;
}

double SumSeries(const MetricsSnapshot& m, const std::string& name) {
  double sum = 0.0;
  for (const auto& [key, value] : m) {
    if (key.first == name) sum += value;
  }
  return sum;
}

double HistogramQuantile(const MetricsSnapshot& m, const std::string& name,
                         const obs::Labels& filter, double q, double scale,
                         double* count_out) {
  std::map<double, double> counts;  // per-bucket counts by upper bound
  double total = 0.0;
  for (const auto& [key, value] : m) {
    double bound = 0.0;
    if (key.first != name + "_bucket" || !BucketBound(key, &bound) ||
        !Includes(key.second, filter)) {
      continue;
    }
    counts[bound] += value;
    total += value;
  }
  if (count_out != nullptr) *count_out = total;
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  for (const auto& [bound, count] : counts) {
    if (count > 0.0 && seen + count >= target) {
      // Bucket i holds the samples in (upper(i-1), upper(i)].
      const size_t i =
          obs::Histogram::BucketIndex(static_cast<uint64_t>(std::llround(bound / scale)));
      const double lower =
          i == 0 ? 0.0
                 : static_cast<double>(obs::Histogram::BucketUpperBound(i - 1)) * scale;
      return lower + (bound - lower) * (target - seen) / count;
    }
    seen += count;
  }
  return counts.rbegin()->first;
}

}  // namespace perfbench
