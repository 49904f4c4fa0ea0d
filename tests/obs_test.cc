// Unit tests of the observability layer: histogram bucket geometry and
// quantile error bounds, concurrent increment stress (exercised under
// TSan by CI), registry exposition round-trips through the parser, the
// registry mutex as a leaf lock, and slow-query log ring/threshold
// semantics.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/trace.h"

namespace oodb::obs {
namespace {

// Tests toggle the global switch; restore it so ordering never matters.
class EnabledGuard {
 public:
  EnabledGuard() : was_(Enabled()) {}
  ~EnabledGuard() { SetEnabled(was_); }

 private:
  bool was_;
};

TEST(Histogram, BucketBoundariesArePreciseForSmallValues) {
  // Values below 4 each get an exact bucket.
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v);
  }
  // 4..7 are still exact (width-1 sub-buckets of the 2^2 octave).
  for (uint64_t v = 4; v < 8; ++v) {
    EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketIndex(v)), v);
  }
}

TEST(Histogram, BucketBoundariesAreMonotoneAndTight) {
  uint64_t previous = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t bound = Histogram::BucketUpperBound(i);
    if (i > 0) {
      ASSERT_GT(bound, previous) << "bucket " << i;
      // Every sample in bucket i lies in (previous, bound]: the relative
      // over-estimate of reporting `bound` is at most 25%.
      const double lower = static_cast<double>(previous) + 1;
      EXPECT_LE(static_cast<double>(bound) / lower, 1.25)
          << "bucket " << i << " too wide";
    }
    previous = bound;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
}

TEST(Histogram, EverySampleMapsIntoItsBucketRange) {
  // Powers of two and neighbours across the full range, plus a pseudo-
  // random sweep: BucketIndex(v) must be the unique bucket whose range
  // holds v.
  std::vector<uint64_t> samples;
  for (int p = 0; p < 64; ++p) {
    const uint64_t base = uint64_t{1} << p;
    samples.push_back(base);
    samples.push_back(base - 1);
    samples.push_back(base + 1);
  }
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(x);
  }
  for (uint64_t v : samples) {
    const size_t idx = Histogram::BucketIndex(v);
    ASSERT_LT(idx, Histogram::kNumBuckets) << v;
    EXPECT_LE(v, Histogram::BucketUpperBound(idx)) << v;
    if (idx > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(idx - 1)) << v;
    }
  }
}

TEST(Histogram, QuantilesWithinRelativeErrorBound) {
  EnabledGuard guard;
  SetEnabled(true);
  Histogram hist;
  // Uniform 1..100000: the true q-quantile is q * 100000.
  constexpr uint64_t kN = 100000;
  for (uint64_t v = 1; v <= kN; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), kN);
  EXPECT_EQ(hist.sum(), kN * (kN + 1) / 2);
  EXPECT_EQ(hist.max(), kN);
  for (double q : {0.5, 0.9, 0.99}) {
    const double truth = q * static_cast<double>(kN);
    const double estimate = static_cast<double>(hist.Quantile(q));
    // The estimate is a bucket upper bound: never below the true value by
    // construction, and at most 25% above it.
    EXPECT_GE(estimate, truth * 0.999) << "q=" << q;
    EXPECT_LE(estimate, truth * 1.25 + 1) << "q=" << q;
  }
  EXPECT_EQ(hist.Quantile(1.0), kN);  // capped at the observed max
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero) {
  Histogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0u);
  EXPECT_EQ(hist.count(), 0u);
}

TEST(Histogram, ConcurrentIncrementStress) {
  EnabledGuard guard;
  SetEnabled(true);
  Histogram hist;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        hist.Record(x % 1000000);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += hist.bucket(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_LT(hist.max(), 1000000u);
}

TEST(Metrics, DisabledRecordingIsDropped) {
  EnabledGuard guard;
  SetEnabled(true);
  Counter counter;
  Histogram hist;
  counter.Add(3);
  hist.Record(42);
  SetEnabled(false);
  counter.Add(100);
  hist.Record(100000);
  EXPECT_EQ(counter.value(), 3u);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.max(), 42u);
}

TEST(MetricsRegistry, SeriesIdentityIsNamePlusLabels) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total", "help", {{"verb", "CHECK"}});
  Counter* b = registry.GetCounter("x_total", "help", {{"verb", "CHECK"}});
  Counter* c = registry.GetCounter("x_total", "help", {{"verb", "LOAD"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(MetricsRegistry, RenderedExpositionParsesAndRoundTrips) {
  EnabledGuard guard;
  SetEnabled(true);
  MetricsRegistry registry;
  registry.GetCounter("req_total", "requests", {{"verb", "CHECK"}})->Add(5);
  Histogram* hist =
      registry.GetHistogram("lat_seconds", "latency", {}, 1e-9);
  hist->Record(1000);     // 1us
  hist->Record(1000000);  // 1ms
  registry.AddCallback([](Collector& out) {
    out.AddCounter("cb_total", "from callback", {}, 9);
    out.AddGauge("temp", "temperature", {}, 21.5);
  });

  const std::string text = registry.RenderPrometheus();
  auto samples = ParseExposition(text);
  ASSERT_TRUE(samples.ok()) << samples.status() << "\n" << text;

  EXPECT_EQ(SampleValue(*samples, "req_total", {{"verb", "CHECK"}}), 5.0);
  EXPECT_EQ(SampleValue(*samples, "temp"), 21.5);
  EXPECT_EQ(SampleValue(*samples, "cb_total"), 9.0);
  EXPECT_EQ(SampleValue(*samples, "lat_seconds_count"), 2.0);

  auto histograms = SummarizeHistograms(*samples);
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].name, "lat_seconds");
  EXPECT_EQ(histograms[0].count, 2u);
  // Samples are in seconds after the 1e-9 scale; p50 ≈ 1us, max = 1ms.
  EXPECT_GT(histograms[0].p50, 0.5e-6);
  EXPECT_LT(histograms[0].p50, 2e-6);
  EXPECT_NEAR(histograms[0].max, 1e-3, 1e-9);

  const std::string human = RenderHumanSnapshot(*samples);
  EXPECT_NE(human.find("lat_seconds"), std::string::npos);
  EXPECT_NE(human.find("req_total"), std::string::npos);

  // Snapshot() is the exposition before formatting: the same samples in
  // the same order, equal to the 9 significant digits the text keeps.
  const std::vector<Sample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), samples->size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const Sample& got = snapshot[i];
    const Sample& want = (*samples)[i];
    EXPECT_EQ(got.name, want.name) << i;
    EXPECT_EQ(got.labels, want.labels) << got.name;
    EXPECT_NEAR(got.value, want.value, 5e-9 * std::fabs(want.value))
        << got.name;
  }
}

// Collect runs the callbacks after releasing the registry mutex, so a
// callback that blocks (the daemon's takes session locks) never stalls
// registration on another thread.
TEST(MetricsRegistry, ACallbackParkedInCollectDoesNotBlockGetCounter) {
  MetricsRegistry registry;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  registry.AddCallback([&entered, released](Collector&) {
    entered.set_value();
    released.wait();
  });
  std::thread scrape([&registry] { registry.RenderPrometheus(); });
  entered.get_future().wait();
  auto registered = std::async(std::launch::async, [&registry] {
    return registry.GetCounter("late_total", "registered mid-scrape");
  });
  const bool done = registered.wait_for(std::chrono::seconds(2)) ==
                    std::future_status::ready;
  release.set_value();
  scrape.join();
  EXPECT_TRUE(done) << "GetCounter waited for a callback to return";
  EXPECT_NE(registered.get(), nullptr);
}

TEST(Exposition, RejectsMalformedLines) {
  EXPECT_FALSE(ParseExposition("name{unclosed 3").ok());
  EXPECT_FALSE(ParseExposition("noval{a=\"b\"}").ok());
  EXPECT_FALSE(ParseExposition("x notanumber").ok());
  EXPECT_TRUE(ParseExposition("x 3\ny{a=\"b\",c=\"d\"} 4.5\n").ok());
}

TEST(Trace, ScopedSpanIsNullSafeAndRecordsAtLeastOneNs) {
  { ScopedSpan span(nullptr, Phase::kEngine); }  // must not crash
  TraceContext trace;
  { ScopedSpan span(&trace, Phase::kParse); }
  EXPECT_GE(trace.phase_ns[static_cast<size_t>(Phase::kParse)], 1u);
  EXPECT_EQ(trace.phase_ns[static_cast<size_t>(Phase::kEngine)], 0u);
}

TEST(Trace, JsonLineContainsPhasesAndCounters) {
  TraceContext trace;
  trace.id = 7;
  trace.verb = "CHECK";
  trace.session = "med\"ical";  // exercises escaping
  trace.ok = true;
  trace.total_ns = 1234;
  trace.AddPhase(Phase::kEngine, 1000);
  trace.AddCounter("rule:D1", 3);
  trace.AddCounter("rule:D1", 2);
  const std::string json = trace.ToJsonLine();
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"verb\":\"CHECK\""), std::string::npos);
  EXPECT_NE(json.find("med\\\"ical"), std::string::npos);
  EXPECT_NE(json.find("\"engine_ns\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"rule:D1\":5"), std::string::npos);
}

TEST(SlowQueryLog, ThresholdFiltersAndRingWraps) {
  SlowQueryLog log(4, 1);  // 1ms threshold, capacity 4
  EXPECT_TRUE(log.enabled());
  for (uint64_t i = 1; i <= 10; ++i) {
    TraceContext trace;
    trace.id = i;
    // Odd ids are fast (under 1ms), even ids slow.
    trace.total_ns = (i % 2 == 0) ? 2000000 : 1000;
    log.Finish(std::move(trace));
  }
  EXPECT_EQ(log.recorded(), 5u);  // ids 2, 4, 6, 8, 10
  auto last = log.Last(10);
  ASSERT_EQ(last.size(), 4u);  // capacity-capped
  EXPECT_EQ(last[0].id, 10u);  // newest first
  EXPECT_EQ(last[1].id, 8u);
  EXPECT_EQ(last[2].id, 6u);
  EXPECT_EQ(last[3].id, 4u);
  EXPECT_GT(last[0].wall_unix_ms, 0);
  auto lines = log.RenderJsonLines(2);
  EXPECT_NE(lines.find("\"id\":10"), std::string::npos);
  EXPECT_NE(lines.find("\"id\":8"), std::string::npos);
  EXPECT_EQ(lines.find("\"id\":6"), std::string::npos);
}

TEST(SlowQueryLog, ZeroThresholdLogsEverythingNegativeDisables) {
  SlowQueryLog everything(8, 0);
  TraceContext fast;
  fast.total_ns = 1;
  everything.Finish(std::move(fast));
  EXPECT_EQ(everything.recorded(), 1u);

  SlowQueryLog disabled(8, -1);
  EXPECT_FALSE(disabled.enabled());
  TraceContext slow;
  slow.total_ns = uint64_t{1} << 40;
  disabled.Finish(std::move(slow));
  EXPECT_EQ(disabled.recorded(), 0u);
}

TEST(SlowQueryLog, ConcurrentFinishIsSafe) {
  SlowQueryLog log(16, 0);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (uint64_t i = 0; i < 500; ++i) {
        TraceContext trace;
        trace.id = static_cast<uint64_t>(t) * 1000 + i;
        trace.total_ns = i + 1;
        log.Finish(std::move(trace));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.recorded(), kThreads * 500u);
  EXPECT_EQ(log.Last(100).size(), 16u);
}

}  // namespace
}  // namespace oodb::obs
