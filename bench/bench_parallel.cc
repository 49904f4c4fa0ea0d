// Experiment E15: concurrent optimizer throughput.
//
// One shared schema + view catalog (generated by src/gen), a stream of
// incoming queries, and a service::ThreadPool fanning them over worker
// threads that share one SubsumptionChecker. Reports single-thread vs
// N-thread throughput and the sharded memo cache counters, and — the part
// that matters for correctness — verifies that every multi-threaded
// verdict matrix is IDENTICAL to the single-threaded oracle run. Speedup
// scales with available cores; on a single-core host the numbers
// degenerate to ~1× while the equality check still runs in full.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "bench_util.h"
#include "calculus/subsumption.h"
#include "gen/generators.h"
#include "schema/schema.h"
#include "service/thread_pool.h"

namespace {

using namespace oodb;

// One query's verdicts in catalog order; nullopt when the query failed.
using Row = std::optional<std::vector<bool>>;

// Decides every query against the catalog on `pool`, every worker sharing
// `checker`: one SubsumesBatch per query, or one Subsumes per pair.
std::vector<Row> DecideAll(service::ThreadPool& pool,
                           const calculus::SubsumptionChecker& checker,
                           const std::vector<ql::ConceptId>& queries,
                           const std::vector<ql::ConceptId>& catalog,
                           bool per_pair) {
  std::vector<Row> rows(queries.size());
  pool.ParallelFor(queries.size(), [&](size_t i) {
    if (!per_pair) {
      auto verdicts = checker.SubsumesBatch(queries[i], catalog);
      if (verdicts.ok()) rows[i] = std::move(*verdicts);
      return;
    }
    std::vector<bool> row;
    for (ql::ConceptId d : catalog) {
      auto verdict = checker.Subsumes(queries[i], d);
      if (!verdict.ok()) return;
      row.push_back(*verdict);
    }
    rows[i] = std::move(row);
  });
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  size_t max_threads = 8;
  if (argc > 1) max_threads = std::strtoul(argv[1], nullptr, 10);

  bench::Section("E15: parallel catalog classification");

  Rng rng(20260815);
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  gen::SchemaGenOptions schema_options;
  schema_options.num_classes = 16;
  schema_options.num_attrs = 8;
  schema_options.value_restrictions = 14;
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, schema_options);

  // Catalog: materialized-view concepts, half of them weakenings of real
  // queries so subsumption hits occur at a realistic rate.
  const size_t kQueries = 256;
  const size_t kCatalog = 24;
  std::vector<ql::ConceptId> queries;
  queries.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    queries.push_back(gen::GenerateConcept(sig, &f, rng));
  }
  std::vector<ql::ConceptId> catalog;
  catalog.reserve(kCatalog);
  for (size_t i = 0; i < kCatalog; ++i) {
    catalog.push_back(
        i % 2 == 0
            ? gen::WeakenConcept(sigma, &f, queries[i * 7 % kQueries], rng, 2)
            : gen::GenerateConcept(sig, &f, rng));
  }

  std::printf("  %zu queries x %zu catalog views, hardware threads: %u\n\n",
              kQueries, kCatalog, std::thread::hardware_concurrency());

  // Single-threaded oracle (also the 1-thread baseline timing).
  std::vector<Row> oracle;
  double base_ms = 0;
  {
    calculus::SubsumptionChecker checker(sigma);
    service::ThreadPool pool(1);
    base_ms = bench::TimeUs([&] {
                oracle = DecideAll(pool, checker, queries, catalog, false);
              }) /
              1000.0;
  }

  size_t hits = 0, errors = 0;
  for (const Row& row : oracle) {
    if (!row) { ++errors; continue; }
    for (bool b : *row) hits += b;
  }
  std::printf("  oracle: %zu subsumption hits, %zu query errors\n\n", hits,
              errors);

  bench::Table table({"threads", "ms", "queries/s", "speedup", "mismatches"});
  bool all_equal = true;
  double best_qps = 0.0;
  size_t best_threads = 1;
  calculus::CheckerPerfStats last_perf;
  for (size_t threads = 1; threads <= max_threads; threads *= 2) {
    calculus::SubsumptionChecker checker(sigma);
    service::ThreadPool pool(threads);
    std::vector<Row> rows;
    const double ms = bench::TimeUs([&] {
                        rows = DecideAll(pool, checker, queries, catalog,
                                         false);
                      }) /
                      1000.0;

    size_t mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      mismatches += rows[i] != oracle[i];
    }
    if (mismatches > 0) all_equal = false;

    const double qps = kQueries / (ms / 1000.0);
    if (qps > best_qps) {
      best_qps = qps;
      best_threads = threads;
    }
    table.AddRow({std::to_string(threads), bench::Fmt(ms, 2),
                  bench::Fmt(qps, 0), bench::Fmt(base_ms / ms, 2) + "x",
                  std::to_string(mismatches)});
    last_perf = checker.perf_stats();
  }
  table.Print();

  // Cache behaviour under per-pair checks (the point-lookup path): two
  // passes over one shared checker, the second answered from the memo.
  calculus::SubsumptionChecker point(sigma);
  {
    service::ThreadPool pool(max_threads);
    for (int pass = 0; pass < 2; ++pass) {
      DecideAll(pool, point, queries, catalog, true);
    }
  }
  const calculus::MemoCacheStats warmed = point.cache_stats();
  std::printf("\n  sharded memo cache after 2 per-pair passes: "
              "%llu hits / %llu misses / %llu insertions / %llu evictions, "
              "%zu entries\n",
              (unsigned long long)warmed.hits,
              (unsigned long long)warmed.misses,
              (unsigned long long)warmed.insertions,
              (unsigned long long)warmed.evictions,
              warmed.entries);

  {
    const uint64_t lookups = warmed.hits + warmed.misses;
    bench::JsonWriter json;
    json.Add("experiment", std::string("E15_parallel"));
    bench::AddHostStamp(json);
    json.Add("queries", kQueries);
    json.Add("catalog", kCatalog);
    json.Add("baseline_ms", base_ms);
    json.Add("best_threads", best_threads);
    json.Add("best_queries_per_sec", best_qps);
    json.Add("engine_runs", last_perf.engine_runs);
    json.Add("prefilter_checks", last_perf.prefilter_checks);
    json.Add("prefilter_rejections", last_perf.prefilter_rejections);
    json.Add("pool_reuses", last_perf.pool_reuses);
    json.Add("memo_hit_rate_pct",
             lookups == 0 ? 0.0 : 100.0 * warmed.hits / lookups);
    json.Add("verdicts_equal", all_equal);
    if (json.WriteFile("BENCH_parallel.json")) {
      std::printf("\n  wrote BENCH_parallel.json\n");
    } else {
      std::fprintf(stderr, "\n  could not write BENCH_parallel.json\n");
    }
  }

  if (!all_equal) {
    std::printf("\n  FAIL: multi-threaded verdicts diverged from oracle\n");
    return 1;
  }
  std::printf("\n  verdict equality: all thread counts match the oracle\n");
  return 0;
}
