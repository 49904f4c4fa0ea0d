// The daemon's METRICS exposition as the benchmark reads it: per-series
// values that subtract snapshot by snapshot, and quantiles of the
// log-linear latency histograms.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <map>
#include <string>
#include <utility>

#include "base/status.h"
#include "obs/metrics.h"

namespace perfbench {

// One parsed exposition (obs::ParseExposition): every sample keyed by
// metric name and labels. Histogram `_bucket` samples hold per-bucket
// counts, not the exposition's cumulative ones, so that a bucket absent
// from one snapshot reads as 0 and snapshots subtract bucket by bucket.
using SeriesKey = std::pair<std::string, oodb::obs::Labels>;
using MetricsSnapshot = std::map<SeriesKey, double>;
oodb::Result<MetricsSnapshot> ParseMetrics(const std::string& text);

// Sum of every series of metric `name`, over all label sets.
double SumSeries(const MetricsSnapshot& m, const std::string& name);

// Quantile q of the samples in histogram `name` (or in a delta of two
// snapshots of it), over the series whose labels include `filter` (all
// series when empty). The histogram was rendered with `scale` (1e-9 for
// nanoseconds shown as seconds). The value is interpolated linearly
// inside the bucket that holds it, between the bucket's own lower and
// upper bound (obs::Histogram's geometry; empty buckets are not rendered,
// so the bound of the previous rendered bucket is not the lower bound).
// Returns 0 for no samples; `*count_out` gets the sample count.
double HistogramQuantile(const MetricsSnapshot& m, const std::string& name,
                         const oodb::obs::Labels& filter, double q,
                         double scale, double* count_out = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
