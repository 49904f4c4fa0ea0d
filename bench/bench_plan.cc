// Experiment E22: cold OPTIMIZE against the size of the view catalog.
//
// One generated world, shaped like the daemon benchmark's plan-cold
// workload but drawn from src/gen: 16 schema classes, 8 attributes,
// query classes with one to three derived paths of one or two steps, 60%
// of the steps filtered, no `where` joins, and a 1000-object state. The
// catalog grows through 64, 256, 1024 and 4096 materialized views (the
// first query classes); at each size a new views::Optimizer plans query
// classes that no optimizer has seen, so every ChoosePlan is cold: it
// translates the query, tests it against every view and runs one
// completion. Per size the bench reports
//   * the median and IQR of one ChoosePlan, in µs;
//   * the median of planning the same query again right away (no
//     workload of the daemon benchmark repeats an OPTIMIZE, but a
//     per-pair verdict memo would answer this one from memory);
//   * the median and IQR of one pre-filter pass — the query's signature
//     plus one StructuralPreFilter::Check per view, on a separate
//     checker whose target signatures are already warm;
//   * pre-filter tests, live goals (views the filter cannot reject) and
//     subsuming views per query;
//   * heap bytes per cold plan: the allocator's in-use bytes (mallinfo2)
//     after each timed ChoosePlan minus before it, summed over the size's
//     plans but the first and divided by their number: what a plan
//     leaves behind, chiefly its query's translation and pre-filter
//     signature. The first plan of a size is left out because it also
//     allocates the new optimizer's tables.
// It calls only ChoosePlan(Symbol), prefilter().QuerySignature, Check
// and SubsumesBatch, so the same source builds against older trees.
// `--quick` runs the two smaller sizes and checks every plan against a
// per-pair oracle (a fresh checker with no memo and no pre-filter); it
// exits non-zero on a mismatch. Results go to BENCH_plan.json (or
// --out=<path>).
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "bench_util.h"
#include "calculus/prefilter.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "gen/dl_gen.h"
#include "schema/schema.h"
#include "views/views.h"

namespace {

using namespace oodb;

struct SizeResult {
  size_t views = 0;
  size_t queries = 0;
  std::vector<double> plan_us;
  std::vector<double> repeat_us;
  std::vector<double> prefilter_us;
  double prefilter_tests = 0;  // totals over the size's queries
  double live_goals = 0;
  double subsuming = 0;
  double heap_bytes = 0;  // in-use delta over the cold plans but the first
  size_t mismatches = 0;
};

// Bytes the allocator has handed out and not taken back: arena chunks in
// use plus mmapped ones.
double HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

// The plan a per-pair oracle makes: a fresh checker with no memo and no
// pre-filter decides each (query, view) pair on its own.
bool MatchesOracle(const schema::Schema& sigma, const db::Database& db,
                   const views::ViewCatalog& catalog, Symbol query,
                   ql::ConceptId query_concept, const views::QueryPlan& got) {
  calculus::CheckerOptions plain;
  plain.memoize = false;
  plain.prefilter = false;
  calculus::SubsumptionChecker oracle(sigma, plain);
  size_t base_pool = db.num_objects();
  for (Symbol super : db.model().SuperClosure(query)) {
    const dl::ClassDef* def = db.model().FindClass(super);
    if (def == nullptr || def->is_query || super == db.model().object_class) {
      continue;
    }
    base_pool = std::min(base_pool, db.ClassExtent(super).size());
  }
  std::vector<Symbol> used;
  std::vector<db::ObjectId> pool;
  for (const views::View& view : catalog.views()) {
    auto subsumed = oracle.Subsumes(query_concept, view.concept_id);
    if (!subsumed.ok()) return false;
    if (!*subsumed) continue;
    if (used.empty()) {
      pool = view.extent;
    } else {
      std::vector<db::ObjectId> merged;
      std::set_intersection(pool.begin(), pool.end(), view.extent.begin(),
                            view.extent.end(), std::back_inserter(merged));
      pool = std::move(merged);
    }
    used.push_back(view.name);
  }
  const bool uses_view = !used.empty() && pool.size() <= base_pool;
  if (!uses_view) used.clear();
  return got.uses_view == uses_view && got.views_used == used &&
         got.pool_size == (uses_view ? pool.size() : base_pool);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_plan.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::Section("E22: cold OPTIMIZE vs catalog size");

  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{64, 256}
            : std::vector<size_t>{64, 256, 1024, 4096};
  // Fresh queries planned at each size (fewer where a plan costs more).
  const std::vector<size_t> per_size =
      quick ? std::vector<size_t>{40, 20}
            : std::vector<size_t>{2000, 1500, 600, 300};
  size_t total_queries = 0;
  for (size_t n : per_size) total_queries += n;

  Rng rng(20261017);
  gen::DlGenOptions dl_options;
  dl_options.num_classes = 16;
  dl_options.num_attrs = 8;
  dl_options.num_queries = sizes.back() + total_queries;
  dl_options.max_paths_per_query = 3;
  dl_options.max_path_length = 2;
  dl_options.where_prob = 0.0;
  dl_options.filter_prob = 0.6;
  gen::GeneratedDl dl = gen::GenerateDlSource(rng, dl_options);
  gen::StateGenOptions state_options;
  state_options.num_objects = 1000;
  state_options.num_edges = 2000;
  const std::string state = gen::GenerateDlState(dl, rng, state_options);

  dl::Frontend front;
  if (Status s = front.Load(dl.source); !s.ok()) {
    std::fprintf(stderr, "generated DL: %s\n", s.ToString().c_str());
    return 1;
  }
  const SymbolTable& symbols = front.symbols;
  const schema::Schema& sigma = *front.sigma;
  dl::Translator& translator = *front.translator;
  db::Database database(*front.model, &front.symbols);
  if (auto loaded = db::LoadInstance(state, &database); !loaded.ok()) {
    std::fprintf(stderr, "state: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("  world: %zu query classes, %zu objects\n",
              dl.query_names.size(), database.num_objects());

  views::ViewCatalog catalog(&database, &translator);
  std::vector<SizeResult> results;
  size_t next_query = sizes.back();
  for (size_t s = 0; s < sizes.size(); ++s) {
    SizeResult r;
    r.views = sizes[s];
    while (catalog.views().size() < r.views) {
      const size_t i = catalog.views().size();
      if (!catalog.DefineView(symbols.Find(dl.query_names[i])).ok()) {
        std::fprintf(stderr, "view %s failed\n", dl.query_names[i].c_str());
        return 1;
      }
    }
    std::vector<ql::ConceptId> view_concepts;
    for (const views::View& view : catalog.views()) {
      view_concepts.push_back(view.concept_id);
    }
    // A new optimizer per size: no query it plans was planned before.
    views::Optimizer optimizer(&database, &catalog, sigma, &translator);
    // The pre-filter pass runs on its own checker, with every view's
    // target signature computed up front. Like the optimizer's scan, it
    // keeps no verdict memo, so its batch tests every view.
    calculus::CheckerOptions probe_options;
    probe_options.memoize = false;
    calculus::SubsumptionChecker probe(sigma, probe_options);
    {
      const calculus::ConceptSignature& warm =
          probe.prefilter().QuerySignature(view_concepts[0]);
      for (ql::ConceptId v : view_concepts) probe.prefilter().Check(warm, v);
    }
    for (size_t k = 0; k < per_size[s]; ++k, ++next_query) {
      const Symbol query = symbols.Find(dl.query_names[next_query]);
      Result<views::QueryPlan> plan = views::QueryPlan();
      const double heap_before = HeapInUse();
      r.plan_us.push_back(
          bench::TimeUs([&] { plan = optimizer.ChoosePlan(query); }));
      if (k > 0) r.heap_bytes += HeapInUse() - heap_before;
      if (!plan.ok()) {
        std::fprintf(stderr, "ChoosePlan(%s): %s\n",
                     dl.query_names[next_query].c_str(),
                     plan.status().ToString().c_str());
        return 1;
      }
      r.repeat_us.push_back(
          bench::TimeUs([&] { (void)optimizer.ChoosePlan(query); }));
      const ql::ConceptId concept_id = *translator.QueryConcept(query);
      size_t live = 0;
      r.prefilter_us.push_back(bench::TimeUs([&] {
        const calculus::ConceptSignature& qs =
            probe.prefilter().QuerySignature(concept_id);
        for (ql::ConceptId v : view_concepts) {
          live += probe.prefilter().Check(qs, v) !=
                  calculus::PreFilterVerdict::kReject;
        }
      }));
      r.live_goals += static_cast<double>(live);
      // The batch's own count of pre-filter tests.
      const uint64_t tests_before = probe.perf_stats().prefilter_checks;
      auto verdicts = probe.SubsumesBatch(concept_id, view_concepts);
      if (!verdicts.ok()) {
        std::fprintf(stderr, "SubsumesBatch: %s\n",
                     verdicts.status().ToString().c_str());
        return 1;
      }
      r.prefilter_tests +=
          static_cast<double>(probe.perf_stats().prefilter_checks -
                              tests_before);
      r.subsuming += static_cast<double>(
          std::count(verdicts->begin(), verdicts->end(), true));
      if (quick && !MatchesOracle(sigma, database, catalog, query,
                                  concept_id, *plan)) {
        ++r.mismatches;
        std::fprintf(stderr, "plan of %s differs from the per-pair oracle\n",
                     dl.query_names[next_query].c_str());
      }
    }
    r.queries = per_size[s];
    results.push_back(std::move(r));
  }

  bench::Table table({"views", "queries", "ChoosePlan p50 µs", "IQR",
                      "repeat p50 µs", "pre-filter p50 µs", "IQR", "tests/q",
                      "live/q", "subsuming/q", "heap B/plan"});
  bench::JsonWriter json;
  json.Add("experiment", std::string("E22"));
  bench::AddHostStamp(json);
  json.Add("quick", quick);
  json.Add("objects", static_cast<uint64_t>(database.num_objects()));
  size_t mismatches = 0;
  for (const SizeResult& r : results) {
    const double n = static_cast<double>(r.queries);
    table.AddRow({std::to_string(r.views), std::to_string(r.queries),
                  bench::Fmt(bench::Quantile(r.plan_us, 0.5), 1),
                  bench::Fmt(bench::Iqr(r.plan_us), 1),
                  bench::Fmt(bench::Quantile(r.repeat_us, 0.5), 1),
                  bench::Fmt(bench::Quantile(r.prefilter_us, 0.5), 2),
                  bench::Fmt(bench::Iqr(r.prefilter_us), 2),
                  bench::Fmt(r.prefilter_tests / n, 1),
                  bench::Fmt(r.live_goals / n, 2),
                  bench::Fmt(r.subsuming / n, 2),
                  bench::Fmt(r.heap_bytes / (n - 1), 0)});
    const std::string key = StrCat("views_", r.views, "_");
    json.Add(key + "queries", static_cast<uint64_t>(r.queries));
    json.Add(key + "choose_plan_us_p50", bench::Quantile(r.plan_us, 0.5));
    json.Add(key + "choose_plan_us_iqr", bench::Iqr(r.plan_us));
    json.Add(key + "repeat_plan_us_p50", bench::Quantile(r.repeat_us, 0.5));
    json.Add(key + "prefilter_pass_us_p50",
             bench::Quantile(r.prefilter_us, 0.5));
    json.Add(key + "prefilter_pass_us_iqr", bench::Iqr(r.prefilter_us));
    json.Add(key + "prefilter_tests_per_query", r.prefilter_tests / n);
    json.Add(key + "live_goals_per_query", r.live_goals / n);
    json.Add(key + "subsuming_views_per_query", r.subsuming / n);
    json.Add(key + "heap_bytes_per_plan", r.heap_bytes / (n - 1));
    mismatches += r.mismatches;
  }
  table.Print();
  json.Add("oracle_checked", quick);
  json.Add("oracle_mismatches", static_cast<uint64_t>(mismatches));
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\n  wrote %s\n", out_path.c_str());
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu plans differ from the per-pair oracle\n",
                 mismatches);
    return 1;
  }
  return 0;
}
