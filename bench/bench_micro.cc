// Google-benchmark microbenchmarks of the core operations: completion
// runs at several sizes, DL parsing + translation (of a small schema and
// of catalogs of growing size), state loading, concept evaluation over
// interpretations, and CQ containment. Complements the table-style
// experiment binaries with statistically sampled timings.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/subsumption.h"
#include "cq/cq.h"
#include "db/database.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "gen/dl_gen.h"
#include "gen/generators.h"
#include "interp/eval.h"
#include "interp/model_gen.h"
#include "interp/signature.h"
#include "ql/term_factory.h"

namespace {

using namespace oodb;

// Chain subsumption: A_0 ⊑ ∃(p:A_1)…(p:A_n) under a necessary/∀ chain.
void BM_SubsumptionChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  Symbol p = symbols.Intern("p");
  auto a = [&](size_t i) { return symbols.Intern(StrCat("A", i)); };
  for (size_t i = 0; i < n; ++i) {
    (void)sigma.AddNecessary(a(i), p);
    (void)sigma.AddValueRestriction(a(i), p, a(i + 1));
  }
  std::vector<ql::Restriction> steps;
  for (size_t i = 1; i <= n; ++i) {
    steps.push_back(ql::Restriction{ql::Attr{p, false},
                                    terms.Primitive(a(i))});
  }
  ql::ConceptId c = terms.Primitive(a(0));
  ql::ConceptId d = terms.Exists(terms.MakePath(std::move(steps)));
  calculus::SubsumptionChecker checker(sigma);

  size_t individuals = 0;
  for (auto _ : state) {
    auto outcome = checker.SubsumesDetailed(c, d);
    benchmark::DoNotOptimize(outcome);
    individuals = outcome->stats.individuals;
  }
  state.counters["individuals"] = static_cast<double>(individuals);
}
BENCHMARK(BM_SubsumptionChain)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Random-instance subsumption at growing concept sizes. Every iteration
// runs a completion (SubsumesDetailed neither memoizes nor pre-filters).
void BM_SubsumptionRandom(benchmark::State& state) {
  Rng rng(42);
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
  gen::ConceptGenOptions options;
  options.max_conjuncts = static_cast<size_t>(state.range(0));
  ql::ConceptId c = gen::GenerateConcept(sig, &terms, rng, options);
  ql::ConceptId d = gen::WeakenConcept(sigma, &terms, c, rng, 2);
  calculus::SubsumptionChecker checker(sigma);
  size_t individuals = 0;
  for (auto _ : state) {
    auto outcome = checker.SubsumesDetailed(c, d);
    benchmark::DoNotOptimize(outcome);
    individuals = outcome->stats.individuals;
  }
  state.counters["individuals"] = static_cast<double>(individuals);
}
BENCHMARK(BM_SubsumptionRandom)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// The OPTIMIZE kernel: one query against a 64-view catalog through
// SubsumesBatch, with the verdict memo off, so every iteration runs the
// pre-filter and one completion. Queries cycle through 256 that each
// refine one view, so every batch has a subsuming view to find.
void BM_SubsumesBatchCatalog(benchmark::State& state) {
  Rng rng(1994);
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
  std::vector<ql::ConceptId> views;
  for (int i = 0; i < 64; ++i) {
    views.push_back(gen::GenerateConcept(sig, &terms, rng));
  }
  std::vector<ql::ConceptId> queries;
  for (size_t i = 0; i < 256; ++i) {
    queries.push_back(terms.And(views[i % views.size()],
                                gen::GenerateConcept(sig, &terms, rng)));
  }
  calculus::SubsumptionChecker::Options options;
  options.memoize = false;
  calculus::SubsumptionChecker checker(sigma, options);
  size_t next = 0;
  size_t subsumed = 0;
  for (auto _ : state) {
    auto verdicts = checker.SubsumesBatch(queries[next], views);
    benchmark::DoNotOptimize(verdicts);
    for (bool v : *verdicts) subsumed += v ? 1 : 0;
    next = (next + 1) % queries.size();
  }
  state.counters["subsuming_views"] = benchmark::Counter(
      static_cast<double>(subsumed), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SubsumesBatchCatalog);

// DL front end: parse + analyze + translate the medical schema.
void BM_DlFrontEnd(benchmark::State& state) {
  constexpr const char* kSource = R"(
Class Person with
  attribute, necessary, single
    name: String
end Person
Class Patient isA Person with
  attribute
    takes: Drug
    consults: Doctor
  attribute, necessary
    suffers: Disease
  constraint:
    not (this in Doctor)
end Patient
QueryClass Q isA Patient with
  derived
    l1: (consults: Doctor).(takes: Drug)
    l2: (suffers: Disease)
  where
    l1 = l2
end Q
)";
  for (auto _ : state) {
    dl::Frontend front;
    (void)front.Load(kSource);
    auto q = front.translator->QueryConcept(front.symbols.Find("Q"));
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_DlFrontEnd);

// A catalog shaped like perfbench's plan-cold one: 16 schema classes, 8
// attributes (some with inverses) and `queries` query classes of one to
// three paths of one or two steps.
gen::GeneratedDl CatalogSource(size_t queries) {
  Rng rng(16064);
  gen::DlGenOptions options;
  options.num_classes = 16;
  options.num_attrs = 8;
  options.num_queries = queries;
  options.where_prob = 0;
  options.filter_prob = 0.6;
  return gen::GenerateDlSource(rng, options);
}

// LOAD's front end as the catalog grows: parse + analyze + translate a
// catalog of state.range(0) query classes.
void BM_DlFrontEndScale(benchmark::State& state) {
  const std::string source =
      CatalogSource(static_cast<size_t>(state.range(0))).source;
  for (auto _ : state) {
    dl::Frontend front;
    if (Status loaded = front.Load(source); !loaded.ok()) {
      state.SkipWithError(loaded.message().c_str());
      break;
    }
    benchmark::DoNotOptimize(front.model.get());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_DlFrontEndScale)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// STATE: a 1 000-object state with 2 000 attribute edges loaded into a
// fresh database over a catalog-shaped schema.
void BM_StateLoad(benchmark::State& state) {
  const gen::GeneratedDl dl = CatalogSource(64);
  Rng rng(1000);
  gen::StateGenOptions options;
  options.num_objects = 1000;
  options.num_edges = 2000;
  const std::string odb = gen::GenerateDlState(dl, rng, options);
  dl::Frontend front;
  if (Status loaded = front.Load(dl.source); !loaded.ok()) {
    state.SkipWithError(loaded.message().c_str());
    return;
  }
  for (auto _ : state) {
    db::Database database(*front.model, &front.symbols);
    if (auto stats = db::LoadInstance(odb, &database); !stats.ok()) {
      state.SkipWithError(stats.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(database.num_objects());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(odb.size()));
}
BENCHMARK(BM_StateLoad)->Unit(benchmark::kMicrosecond);

// Concept evaluation over a random interpretation.
void BM_ConceptEval(benchmark::State& state) {
  Rng rng(4711);
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
  ql::ConceptId c = gen::GenerateConcept(sig, &terms, rng);
  interp::Signature isig = interp::CollectSignature(terms, {c}, &sigma);
  interp::ModelGenOptions options;
  options.domain_size = static_cast<size_t>(state.range(0));
  auto model = interp::GenerateModel(sigma, isig, options, rng);
  for (auto _ : state) {
    auto extent = interp::ConceptEval(*model, terms, c);
    benchmark::DoNotOptimize(extent);
  }
}
BENCHMARK(BM_ConceptEval)->Arg(16)->Arg(64)->Arg(256);

// Chandra–Merlin containment on random QL-translated queries.
void BM_CqContainment(benchmark::State& state) {
  Rng rng(271828);
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  gen::SchemaGenOptions no_axioms;
  no_axioms.isa_prob = 0;
  no_axioms.value_restrictions = 0;
  no_axioms.typing_prob = 0;
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, no_axioms);
  ql::ConceptId c = gen::GenerateConcept(sig, &terms, rng);
  ql::ConceptId d = gen::WeakenConcept(sigma, &terms, c, rng, 2);
  auto q1 = *cq::ConceptToCq(terms, c, &symbols);
  auto q2 = *cq::ConceptToCq(terms, d, &symbols);
  for (auto _ : state) {
    bool contained = cq::CqContained(q1, q2);
    benchmark::DoNotOptimize(contained);
  }
}
BENCHMARK(BM_CqContainment);

}  // namespace

BENCHMARK_MAIN();
