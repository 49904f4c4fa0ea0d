// Tests of how the benchmark reads the daemon's METRICS: per-bucket
// counts, snapshot deltas, label filters, and quantiles of sparse
// histograms, whose rendering leaves empty buckets out.
//
//   perfbench_metrics_test   (exits 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <string>

#include "metrics.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

namespace obs = oodb::obs;

int failures = 0;

void ExpectNear(double got, double want, const char* what) {
  if (std::fabs(got - want) <= 1e-9 * std::fabs(want) + 1e-15) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got, want);
}

MetricsSnapshot Snapshot(const obs::MetricsRegistry& registry) {
  auto parsed = ParseMetrics(registry.RenderPrometheus());
  if (!parsed.ok()) {
    ++failures;
    std::fprintf(stderr, "FAIL parse: %s\n", parsed.status().message().c_str());
    return {};
  }
  return *parsed;
}

MetricsSnapshot Delta(const MetricsSnapshot& before, const MetricsSnapshot& after) {
  MetricsSnapshot out = after;
  for (const auto& [key, value] : before) out[key] -= value;
  return out;
}

double BucketLower(uint64_t sample) {
  const size_t i = obs::Histogram::BucketIndex(sample);
  return static_cast<double>(obs::Histogram::BucketUpperBound(i - 1));
}

double BucketUpper(uint64_t sample) {
  return static_cast<double>(
      obs::Histogram::BucketUpperBound(obs::Histogram::BucketIndex(sample)));
}

void TestSparseHistogramUsesTheBucketsOwnLowerBound() {
  // 10 samples at 10 ns and 90 at 1000 ns: every bucket between them is
  // empty and not rendered. The median lies in 1000's bucket, 40 of its
  // 90 samples in, so it is interpolated from that bucket's lower bound,
  // not from the bound of the 10 ns bucket.
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("t_seconds", "test", {}, 1e-9);
  for (int i = 0; i < 10; ++i) h->RecordAlways(10);
  for (int i = 0; i < 90; ++i) h->RecordAlways(1000);
  double n = 0;
  const double p50 = HistogramQuantile(Snapshot(registry), "t_seconds", {},
                                       0.5, 1e-9, &n);
  ExpectNear(n, 100, "sample count");
  const double lower = BucketLower(1000), upper = BucketUpper(1000);
  ExpectNear(p50, (lower + (upper - lower) * 40.0 / 90.0) * 1e-9,
             "sparse median");
  // Every value is within the bucket that holds 1000 ns.
  ExpectNear(HistogramQuantile(Snapshot(registry), "t_seconds", {}, 1.0, 1e-9),
             upper * 1e-9, "maximum is the upper bound");
  ExpectNear(HistogramQuantile(Snapshot(registry), "t_seconds", {}, 0.05, 1e-9),
             (BucketLower(10) + (BucketUpper(10) - BucketLower(10)) * 0.5) * 1e-9,
             "low quantile in the first rendered bucket");
}

void TestDeltaAndLabelFilter() {
  // Samples recorded before the first snapshot, and those of another
  // label, stay out of the delta's quantile.
  obs::MetricsRegistry registry;
  obs::Histogram* check =
      registry.GetHistogram("r_seconds", "test", {{"verb", "CHECK"}}, 1e-9);
  obs::Histogram* view =
      registry.GetHistogram("r_seconds", "test", {{"verb", "VIEW"}}, 1e-9);
  for (int i = 0; i < 50; ++i) check->RecordAlways(100'000);
  const MetricsSnapshot before = Snapshot(registry);
  for (int i = 0; i < 20; ++i) check->RecordAlways(5'000);
  for (int i = 0; i < 20; ++i) view->RecordAlways(9'000'000);
  const MetricsSnapshot delta = Delta(before, Snapshot(registry));
  double n = 0;
  const double p50 = HistogramQuantile(delta, "r_seconds",
                                       {{"verb", "CHECK"}}, 0.5, 1e-9, &n);
  ExpectNear(n, 20, "delta count of CHECK");
  const double lower = BucketLower(5'000), upper = BucketUpper(5'000);
  ExpectNear(p50, (lower + (upper - lower) * 0.5) * 1e-9, "delta median");
  HistogramQuantile(delta, "r_seconds", {}, 0.5, 1e-9, &n);
  ExpectNear(n, 40, "delta count of every verb");
  ExpectNear(SumSeries(delta, "r_seconds_count"), 40, "summed counts");
}

void TestEmptyAndSmallValues() {
  obs::MetricsRegistry registry;
  obs::Histogram* batch = registry.GetHistogram("b", "test", {}, 1);
  ExpectNear(HistogramQuantile(Snapshot(registry), "b", {}, 0.5, 1), 0,
             "empty histogram");
  // Values 0..3 have buckets of their own; 1 is in (0, 1].
  for (int i = 0; i < 4; ++i) batch->RecordAlways(1);
  ExpectNear(HistogramQuantile(Snapshot(registry), "b", {}, 0.5, 1), 0.5,
             "unit bucket");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestSparseHistogramUsesTheBucketsOwnLowerBound();
  TestDeltaAndLabelFilter();
  TestEmptyAndSmallValues();
  if (failures != 0) {
    std::fprintf(stderr, "%d metrics check(s) failed\n", failures);
    return 1;
  }
  std::printf("metrics reading: all checks passed\n");
  return 0;
}
