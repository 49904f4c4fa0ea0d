// Concurrency stress tests for the optimizer service: N threads × M
// queries against one shared checker / factory / memo cache, with every
// verdict compared against a single-threaded oracle run. Built (in CI)
// with -fsanitize=thread, which turns any missing happens-before edge in
// SymbolTable, TermFactory, ShardedMemoCache or ThreadPool into a hard
// failure.
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "calculus/subsumption.h"
#include "gen/generators.h"
#include "schema/schema.h"
#include "service/thread_pool.h"

namespace oodb {
namespace {

constexpr size_t kThreads = 8;

struct Workload {
  SymbolTable symbols;
  ql::TermFactory f{&symbols};
  schema::Schema sigma{&f};
  gen::GeneratedSchema sig;
  std::vector<ql::ConceptId> queries;
  std::vector<ql::ConceptId> catalog;
};

void FillWorkload(Workload* w, uint64_t seed, size_t num_queries,
                  size_t catalog_size) {
  Rng rng(seed);
  w->sig = gen::GenerateSchema(&w->sigma, rng);
  for (size_t i = 0; i < num_queries; ++i) {
    w->queries.push_back(gen::GenerateConcept(w->sig, &w->f, rng));
  }
  for (size_t i = 0; i < catalog_size; ++i) {
    ql::ConceptId base = w->queries[i % num_queries];
    w->catalog.push_back(i % 2 == 0
                             ? gen::WeakenConcept(w->sigma, &w->f, base, rng, 2)
                             : gen::GenerateConcept(w->sig, &w->f, rng));
  }
}

// Single-threaded oracle: one verdict row per query. An error row is
// encoded as an empty vector (errors must reproduce identically).
std::vector<std::vector<bool>> OracleMatrix(const Workload& w) {
  calculus::SubsumptionChecker checker(w.sigma);
  std::vector<std::vector<bool>> matrix;
  for (ql::ConceptId q : w.queries) {
    auto row = checker.SubsumesBatch(q, w.catalog);
    matrix.push_back(row.ok() ? *row : std::vector<bool>{});
  }
  return matrix;
}

// One query's verdicts on the pool; nullopt when the query failed.
using Row = std::optional<std::vector<bool>>;

// Decides every query against the catalog on `pool`, every worker sharing
// `checker`: one SubsumesBatch per query, or one Subsumes per pair.
std::vector<Row> DecideAll(service::ThreadPool& pool,
                           const calculus::SubsumptionChecker& checker,
                           const Workload& w, bool per_pair) {
  std::vector<Row> rows(w.queries.size());
  pool.ParallelFor(w.queries.size(), [&](size_t i) {
    if (!per_pair) {
      auto verdicts = checker.SubsumesBatch(w.queries[i], w.catalog);
      if (verdicts.ok()) rows[i] = std::move(*verdicts);
      return;
    }
    std::vector<bool> row;
    for (ql::ConceptId d : w.catalog) {
      auto verdict = checker.Subsumes(w.queries[i], d);
      if (!verdict.ok()) return;
      row.push_back(*verdict);
    }
    rows[i] = std::move(row);
  });
  return rows;
}

TEST(ConcurrentChecker, BatchPerQueryMatchesSerialOracle) {
  Workload w;
  FillWorkload(&w, 20260810, 24, 10);
  const auto oracle = OracleMatrix(w);

  calculus::SubsumptionChecker shared(w.sigma);
  service::ThreadPool pool(kThreads);
  const std::vector<Row> rows = DecideAll(pool, shared, w, false);

  ASSERT_EQ(rows.size(), w.queries.size());
  EXPECT_EQ(pool.size(), kThreads);
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (oracle[i].empty()) {
      EXPECT_FALSE(rows[i].has_value()) << "query " << i;
      continue;
    }
    ASSERT_TRUE(rows[i].has_value()) << "query " << i;
    EXPECT_EQ(*rows[i], oracle[i]) << "query " << i;
  }
}

TEST(ConcurrentChecker, PerPairChecksMatchOracleAndWarmCache) {
  Workload w;
  FillWorkload(&w, 20260811, 16, 8);
  const auto oracle = OracleMatrix(w);

  calculus::SubsumptionChecker shared(w.sigma);
  service::ThreadPool pool(kThreads);

  const std::vector<Row> first = DecideAll(pool, shared, w, true);
  const calculus::MemoCacheStats first_cache = shared.cache_stats();
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (oracle[i].empty()) continue;
    ASSERT_TRUE(first[i].has_value());
    EXPECT_EQ(*first[i], oracle[i]) << "query " << i;
  }
  EXPECT_GT(first_cache.insertions, 0u);

  // Re-running the same checks must be answered from the sharded cache —
  // same verdicts, hits grow by one full matrix.
  const std::vector<Row> second = DecideAll(pool, shared, w, true);
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (oracle[i].empty()) continue;
    EXPECT_EQ(second[i], oracle[i]) << "query " << i;
  }
  EXPECT_GE(shared.cache_stats().hits,
            first_cache.hits + w.queries.size() * w.catalog.size() -
                w.catalog.size());
}

// The rawest form of the tentpole claim: many threads hammering ONE
// shared SubsumptionChecker with point queries, each thread walking the
// pair space in a different order so cache fills race with lookups.
TEST(ConcurrentChecker, SharedCheckerPointQueriesUnderContention) {
  Workload w;
  FillWorkload(&w, 20260812, 12, 8);
  const auto oracle = OracleMatrix(w);

  calculus::SubsumptionChecker shared(w.sigma);
  const size_t num_pairs = w.queries.size() * w.catalog.size();
  // verdicts[t] collects thread t's view of the whole matrix.
  std::vector<std::vector<int>> verdicts(
      kThreads, std::vector<int>(num_pairs, -1));
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < num_pairs; ++k) {
        // Rotate the starting point per thread: different threads compute
        // and cache different pairs first.
        const size_t pair = (k + t * 7) % num_pairs;
        const size_t qi = pair / w.catalog.size();
        const size_t di = pair % w.catalog.size();
        auto verdict = shared.Subsumes(w.queries[qi], w.catalog[di]);
        if (!verdict.ok()) {
          if (!oracle[qi].empty()) failures.fetch_add(1);
          continue;
        }
        verdicts[t][pair] = *verdict ? 1 : 0;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t qi = 0; qi < w.queries.size(); ++qi) {
      if (oracle[qi].empty()) continue;
      for (size_t di = 0; di < w.catalog.size(); ++di) {
        EXPECT_EQ(verdicts[t][qi * w.catalog.size() + di],
                  oracle[qi][di] ? 1 : 0)
            << "thread " << t << " query " << qi << " view " << di;
      }
    }
  }
}

// Concurrent interning: threads build overlapping concepts through one
// shared factory while others resolve names. Hash-consing must stay
// consistent (same term → same id) across all interleavings.
TEST(ConcurrentChecker, ConcurrentInterningIsConsistent) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  constexpr size_t kNames = 64;

  std::vector<std::vector<ql::ConceptId>> ids(
      kThreads, std::vector<ql::ConceptId>(kNames));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kNames; ++i) {
        // Every thread interns the same kNames terms, in a rotated order.
        const size_t k = (i + t * 11) % kNames;
        const std::string name = "Class" + std::to_string(k);
        ql::ConceptId prim = f.Primitive(name);
        Symbol attr = symbols.Intern("attr" + std::to_string(k % 4));
        ql::ConceptId composite =
            f.And(prim, f.Exists(f.Step(ql::Attr{attr, false}, prim)));
        ids[t][k] = composite;
        // Lock-free read-back while other threads intern.
        ASSERT_EQ(f.node(prim).kind, ql::ConceptKind::kPrimitive);
        ASSERT_EQ(symbols.Name(f.node(prim).sym), name);
        ASSERT_GT(f.ConceptSize(composite), 1u);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "hash-consing diverged on thread " << t;
  }
}

// Fresh queries over one factory: every thread builds its own queries
// through the shared factory while the others complete theirs, so the
// engines' first Exists lookup of a path races with lock-free hits on
// it, and the pre-filter publishes signatures concurrently. Query
// i is the same term in a serial world built from the same seeds, whose
// checker gives the expected verdicts.
TEST(ConcurrentChecker, FreshQueriesShareLockFreeTermLookups) {
  constexpr size_t kQueries = 64;
  // Query i conjoins base concept i % 8 with a concept drawn for i alone;
  // the catalog holds weakenings of the bases, so some verdicts hold.
  auto build_world = [&](Workload* w) {
    Rng rng(20261019);
    w->sig = gen::GenerateSchema(&w->sigma, rng);
    for (size_t b = 0; b < 8; ++b) {
      w->queries.push_back(gen::GenerateConcept(w->sig, &w->f, rng));
    }
    for (size_t i = 0; i < 24; ++i) {
      ql::ConceptId base = w->queries[i % 8];
      w->catalog.push_back(
          i % 3 == 2 ? gen::GenerateConcept(w->sig, &w->f, rng)
                     : gen::WeakenConcept(w->sigma, &w->f, base, rng, 2));
    }
  };
  auto fresh_query = [&](Workload& w, size_t i) {
    Rng rng(7000 + i);
    return w.f.And(w.queries[i % 8], gen::GenerateConcept(w.sig, &w.f, rng));
  };

  Workload serial;
  build_world(&serial);
  calculus::CheckerOptions scan;  // the optimizer's configuration
  scan.memoize = false;
  calculus::SubsumptionChecker oracle(serial.sigma, scan);
  std::vector<Row> want(kQueries);
  size_t holds = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    auto row = oracle.SubsumesBatch(fresh_query(serial, i), serial.catalog);
    if (!row.ok()) continue;
    for (bool v : *row) holds += v;
    want[i] = std::move(*row);
  }
  ASSERT_GT(holds, 0u);

  Workload shared;
  build_world(&shared);
  calculus::SubsumptionChecker checker(shared.sigma, scan);
  std::vector<Row> got(kQueries);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < kQueries; i += kThreads) {
        auto row = checker.SubsumesBatch(fresh_query(shared, i),
                                         shared.catalog);
        if (row.ok()) got[i] = std::move(*row);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
}

// The pool itself: tasks all run, ParallelFor covers every index exactly
// once, and reuse across batches works.
TEST(ThreadPool, RunsEverythingExactlyOnce) {
  service::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::atomic<int>> counts(257);
    for (auto& c : counts) c.store(0);
    pool.ParallelFor(counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i;
    }
  }
}

}  // namespace
}  // namespace oodb
