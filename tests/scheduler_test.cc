// Scheduler equivalence: the semi-naive (watermark) evaluation must reach
// exactly the completion the naive full-rescan scheduler reaches — same
// verdicts, same store sizes, same individuals — on random workloads and
// on the paper's example. Plus coverage of the other scheduler in the
// system: the service ThreadPool's graceful Drain() used by the daemon.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/subsumption.h"
#include "gen/generators.h"
#include "medical_fixture.h"
#include "ql/print.h"
#include "service/thread_pool.h"

namespace oodb::calculus {
namespace {

SubsumptionChecker::Options NaiveOptions() {
  SubsumptionChecker::Options options;
  options.engine.semi_naive = false;
  return options;
}

TEST(Scheduler, EquivalentOnTheMedicalExample) {
  testing::MedicalFixture fx;
  SubsumptionChecker semi(*fx.sigma);
  SubsumptionChecker naive(*fx.sigma, NaiveOptions());
  for (auto [c, d] : {std::pair{fx.query_patient, fx.view_patient},
                      {fx.view_patient, fx.query_patient}}) {
    auto a = semi.SubsumesDetailed(c, d);
    auto b = naive.SubsumesDetailed(c, d);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->subsumed, b->subsumed);
    EXPECT_EQ(a->stats.facts, b->stats.facts);
    EXPECT_EQ(a->stats.goals, b->stats.goals);
    EXPECT_EQ(a->stats.individuals, b->stats.individuals);
  }
}

TEST(Scheduler, EquivalentOnRandomWorkloads) {
  Rng rng(86420);
  for (int round = 0; round < 200; ++round) {
    SymbolTable symbols;
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng);
    ql::ConceptId d = rng.Bernoulli(0.5)
                          ? gen::WeakenConcept(sigma, &f, c, rng, 2)
                          : gen::GenerateConcept(sig, &f, rng);
    SubsumptionChecker semi(sigma);
    SubsumptionChecker naive(sigma, NaiveOptions());
    auto a = semi.SubsumesDetailed(c, d);
    auto b = naive.SubsumesDetailed(c, d);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->subsumed, b->subsumed)
        << ql::ConceptToString(f, c) << "  vs  "
        << ql::ConceptToString(f, d);
    ASSERT_EQ(a->via_clash, b->via_clash);
    ASSERT_EQ(a->stats.facts, b->stats.facts);
    ASSERT_EQ(a->stats.goals, b->stats.goals);
    ASSERT_EQ(a->stats.individuals, b->stats.individuals);
  }
}

TEST(Scheduler, EquivalentOnBatches) {
  Rng rng(97531);
  for (int round = 0; round < 60; ++round) {
    SymbolTable symbols;
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng);
    std::vector<ql::ConceptId> ds;
    for (int i = 0; i < 4; ++i) {
      ds.push_back(gen::GenerateConcept(sig, &f, rng));
    }
    SubsumptionChecker semi(sigma);
    SubsumptionChecker naive(sigma, NaiveOptions());
    auto a = semi.SubsumesBatch(c, ds);
    auto b = naive.SubsumesBatch(c, ds);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(Scheduler, EquivalentOnAFactoryPaddedPastTwoToTheSixteen) {
  // A long-lived session's factory hands out concept, path and symbol
  // ids past 2^16, where stores keyed by a hash of the fact collided.
  // Every round adds a schema and concepts to the same factory, so ids
  // keep growing.
  Rng rng(65537);
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  for (int i = 0; i < 70000; ++i) {
    f.Primitive(symbols.Intern(StrCat("pad", i)));
  }
  ASSERT_GT(f.num_concepts(), size_t{1} << 16);
  int subsumed = 0;
  for (int round = 0; round < 120; ++round) {
    schema::Schema sigma(&f);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng);
    std::vector<ql::ConceptId> ds = {gen::WeakenConcept(sigma, &f, c, rng, 2),
                                     gen::GenerateConcept(sig, &f, rng),
                                     gen::GenerateConcept(sig, &f, rng)};
    SubsumptionChecker semi(sigma);
    SubsumptionChecker naive(sigma, NaiveOptions());
    for (ql::ConceptId d : ds) {
      auto a = semi.SubsumesDetailed(c, d);
      auto b = naive.SubsumesDetailed(c, d);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->subsumed, b->subsumed)
          << ql::ConceptToString(f, c) << "  vs  "
          << ql::ConceptToString(f, d);
      ASSERT_EQ(a->via_clash, b->via_clash);
      ASSERT_EQ(a->stats.facts, b->stats.facts);
      ASSERT_EQ(a->stats.goals, b->stats.goals);
      ASSERT_EQ(a->stats.individuals, b->stats.individuals);
      subsumed += a->subsumed ? 1 : 0;
    }
    auto a = semi.SubsumesBatch(c, ds);
    auto b = naive.SubsumesBatch(c, ds);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(*a, *b);
  }
  EXPECT_GT(subsumed, 0);  // the sweep saw real positives
}

TEST(Scheduler, TraceIsIdenticalOnTheExample) {
  // The semi-naive scheduler processes constraints in the same insertion
  // order the naive sweeps do, so even the trace coincides on the paper's
  // derivation.
  testing::MedicalFixture fx;
  SubsumptionChecker::Options semi_options;
  semi_options.record_trace = true;
  SubsumptionChecker::Options naive_options = NaiveOptions();
  naive_options.record_trace = true;
  SubsumptionChecker semi(*fx.sigma, semi_options);
  SubsumptionChecker naive(*fx.sigma, naive_options);
  auto a = semi.SubsumesDetailed(fx.query_patient, fx.view_patient);
  auto b = naive.SubsumesDetailed(fx.query_patient, fx.view_patient);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->trace.size(), b->trace.size());
  for (size_t i = 0; i < a->trace.size(); ++i) {
    EXPECT_EQ(a->trace[i].rule, b->trace[i].rule) << i;
    EXPECT_EQ(a->trace[i].text, b->trace[i].text) << i;
  }
}

}  // namespace
}  // namespace oodb::calculus

namespace oodb::service {
namespace {

TEST(ThreadPoolDrain, FinishesQueuedWorkThenRejectsNewSubmits) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  pool.Drain();
  EXPECT_EQ(executed.load(), 100);
  EXPECT_EQ(pool.pending(), 0u);
  // Drained pools reject (and drop) new work instead of queueing it.
  EXPECT_FALSE(pool.Submit([&executed] { executed.fetch_add(1); }));
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPoolDrain, IsIdempotent) {
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  ASSERT_TRUE(pool.Submit([&executed] { ++executed; }));
  pool.Drain();
  pool.Drain();
  EXPECT_EQ(executed.load(), 1);
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolDrain, PendingCountsQueuedAndRunningTasks) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool started = false;
  // One task occupies the single worker until released; the rest queue.
  ASSERT_TRUE(pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  ASSERT_TRUE(pool.Submit([] {}));
  ASSERT_TRUE(pool.Submit([] {}));
  EXPECT_EQ(pool.pending(), 3u);  // 1 running + 2 queued
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Drain();  // the queued tasks still run: drain ≠ drop
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolDrain, ConcurrentSubmittersSeeCleanCutoff) {
  // Tasks admitted before Drain() all run; Submits racing the drain
  // either run to completion or report rejection — nothing is half-done.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (pool.Submit([&executed] {
              executed.fetch_add(1, std::memory_order_relaxed);
            })) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          return;  // pool is draining: no further work is accepted
        }
        std::this_thread::yield();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.Drain();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_EQ(pool.pending(), 0u);
}

}  // namespace
}  // namespace oodb::service
