// Verdict-equality properties that keep the caching layers honest:
//   * SubsumesBatch(C, catalog) ≡ per-pair Subsumes(C, Dᵢ)
//   * memoized checker ≡ memoization-off checker, in any query order
//   * repeated queries through the sharded cache never change a verdict
//     (the cache-poisoning regression the striped map could introduce).
#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "calculus/subsumption.h"
#include "gen/generators.h"
#include "ql/print.h"
#include "schema/schema.h"

namespace oodb {
namespace {

struct Workload {
  SymbolTable symbols;
  ql::TermFactory f{&symbols};
  schema::Schema sigma{&f};
  std::vector<ql::ConceptId> queries;
  std::vector<ql::ConceptId> catalog;
};

// A random schema plus a catalog seeded with weakened variants of the
// queries, so both verdicts appear.
void FillWorkload(Workload* w, Rng& rng, size_t num_queries,
                  size_t catalog_size) {
  gen::GeneratedSchema sig = gen::GenerateSchema(&w->sigma, rng);
  for (size_t i = 0; i < num_queries; ++i) {
    w->queries.push_back(gen::GenerateConcept(sig, &w->f, rng));
  }
  for (size_t i = 0; i < catalog_size; ++i) {
    if (i % 2 == 0) {
      ql::ConceptId base = w->queries[i % num_queries];
      w->catalog.push_back(
          gen::WeakenConcept(w->sigma, &w->f, base, rng, 2));
    } else {
      w->catalog.push_back(gen::GenerateConcept(sig, &w->f, rng));
    }
  }
}

TEST(BatchMemoEquivalence, BatchEqualsPerPairSubsumes) {
  Rng rng(20260807);
  for (int round = 0; round < 25; ++round) {
    Workload w;
    FillWorkload(&w, rng, 4, 8);
    calculus::SubsumptionChecker checker(w.sigma);
    for (ql::ConceptId q : w.queries) {
      auto batch = checker.SubsumesBatch(q, w.catalog);
      if (!batch.ok()) continue;  // resource caps hit both paths alike
      ASSERT_EQ(batch->size(), w.catalog.size());
      for (size_t j = 0; j < w.catalog.size(); ++j) {
        auto single = checker.Subsumes(q, w.catalog[j]);
        ASSERT_TRUE(single.ok());
        EXPECT_EQ((*batch)[j], *single)
            << "round " << round << ": batch and per-pair verdicts differ "
            << "for\n  C = " << ql::ConceptToString(w.f, q)
            << "\n  D = " << ql::ConceptToString(w.f, w.catalog[j]);
      }
    }
  }
}

TEST(BatchMemoEquivalence, MemoOnEqualsMemoOff) {
  Rng rng(20260808);
  for (int round = 0; round < 25; ++round) {
    Workload w;
    FillWorkload(&w, rng, 4, 8);

    calculus::CheckerOptions memo_on;
    memo_on.memoize = true;
    calculus::CheckerOptions memo_off;
    memo_off.memoize = false;
    calculus::SubsumptionChecker with_memo(w.sigma, memo_on);
    calculus::SubsumptionChecker without_memo(w.sigma, memo_off);

    // Three passes in different orders: the first fills the cache, the
    // later ones must be served consistently from it.
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<size_t> order(w.queries.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      if (pass == 1) std::reverse(order.begin(), order.end());
      for (size_t i : order) {
        for (ql::ConceptId d : w.catalog) {
          auto cached = with_memo.Subsumes(w.queries[i], d);
          auto fresh = without_memo.Subsumes(w.queries[i], d);
          ASSERT_EQ(cached.ok(), fresh.ok());
          if (!cached.ok()) continue;
          EXPECT_EQ(*cached, *fresh)
              << "round " << round << " pass " << pass
              << ": memoized verdict differs from memo-off verdict for\n  C = "
              << ql::ConceptToString(w.f, w.queries[i])
              << "\n  D = " << ql::ConceptToString(w.f, d);
        }
      }
    }
    // Passes 2 and 3 repeat every pair, so the cache must have been hit.
    EXPECT_GT(with_memo.cache_stats().hits, 0u);
    EXPECT_EQ(without_memo.cache_stats().hits, 0u);
    EXPECT_EQ(without_memo.cache_stats().entries, 0u);
  }
}

TEST(BatchMemoEquivalence, TinyCapacityEvictionsStaySound) {
  Rng rng(20260809);
  Workload w;
  FillWorkload(&w, rng, 6, 12);

  // A cache this small must evict constantly; verdicts still may not drift.
  calculus::CheckerOptions tiny;
  tiny.memo_capacity = 4;
  calculus::SubsumptionChecker small_cache(w.sigma, tiny);
  calculus::SubsumptionChecker reference(w.sigma);

  for (int pass = 0; pass < 3; ++pass) {
    for (ql::ConceptId q : w.queries) {
      for (ql::ConceptId d : w.catalog) {
        auto a = small_cache.Subsumes(q, d);
        auto b = reference.Subsumes(q, d);
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) EXPECT_EQ(*a, *b);
      }
    }
  }
  calculus::MemoCacheStats stats = small_cache.cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 6u * 12u);
}

TEST(BatchMemoEquivalence, ThreeThreadsBatchAgainstTargetsNoneHasMet) {
  // The pre-filter computes a target's record the first time any thread
  // meets it and publishes it for lock-free reads by every other thread.
  // Three threads start together on one checker and meet each round's
  // catalog at about the same time, so they race to publish and read the
  // same records (and the same query signatures). Run under TSan in CI.
  constexpr int kRounds = 12;
  constexpr int kThreads = 3;
  Rng rng(20261018);
  Workload w;
  gen::GeneratedSchema sig = gen::GenerateSchema(&w.sigma, rng);
  std::vector<std::vector<ql::ConceptId>> queries(kRounds);
  std::vector<std::vector<ql::ConceptId>> catalogs(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 3; ++i) {
      queries[r].push_back(gen::GenerateConcept(sig, &w.f, rng));
    }
    for (int i = 0; i < 24; ++i) {
      catalogs[r].push_back(
          i % 3 == 0 ? gen::WeakenConcept(w.sigma, &w.f, queries[r][i % 3],
                                          rng, 2)
                     : gen::GenerateConcept(sig, &w.f, rng));
    }
  }
  // Reference verdicts from a checker with no memo and no pre-filter.
  calculus::CheckerOptions plain;
  plain.memoize = false;
  plain.prefilter = false;
  calculus::SubsumptionChecker oracle(w.sigma, plain);
  std::vector<std::vector<std::vector<bool>>> want(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    for (ql::ConceptId q : queries[r]) {
      auto verdicts = oracle.SubsumesBatch(q, catalogs[r]);
      ASSERT_TRUE(verdicts.ok()) << verdicts.status();
      want[r].push_back(*verdicts);
    }
  }

  for (bool memoize : {false, true}) {
    calculus::CheckerOptions options;
    options.memoize = memoize;
    calculus::SubsumptionChecker checker(w.sigma, options);
    std::atomic<bool> go{false};
    std::vector<std::vector<std::vector<std::vector<bool>>>> got(
        kThreads, std::vector<std::vector<std::vector<bool>>>(kRounds));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int r = 0; r < kRounds; ++r) {
          for (ql::ConceptId q : queries[r]) {
            auto verdicts = checker.SubsumesBatch(q, catalogs[r]);
            got[t][r].push_back(verdicts.ok() ? *verdicts
                                              : std::vector<bool>());
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t], want) << "thread " << t << ", memoize " << memoize;
    }
    EXPECT_GT(checker.perf_stats().prefilter_rejections, 0u);
  }
}

}  // namespace
}  // namespace oodb
