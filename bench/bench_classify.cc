// Experiment E16: check-avoidance during catalog classification.
//
// Builds a hierarchy-rich synthetic catalog (seed concepts plus chains
// of semantic weakenings, so real subsumption structure exists for the
// traversal to exploit), classifies it twice —
//   * pairwise oracle: full n·(n-1) matrix, pre-filter disabled,
//   * enhanced: top/bottom-search insertion + structural pre-filter +
//     pooled engines (the default production configuration) —
// and verifies the two DAGs are identical before reporting any number.
// Exits non-zero on divergence (CI runs `bench_classify --quick` as a
// Release-mode smoke test). The full run writes BENCH_classify.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_util.h"
#include "base/strings.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "gen/generators.h"
#include "schema/schema.h"

int main(int argc, char** argv) {
  using namespace oodb;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::Section("E16: enhanced-traversal classification vs pairwise");

  Rng rng(20260806);
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  gen::SchemaGenOptions schema_options;
  schema_options.num_classes = 14;
  schema_options.num_attrs = 7;
  schema_options.value_restrictions = 12;
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, schema_options);

  // Catalog: seed concepts, each the root of a chain of weakenings
  // (c ⊑ weaken(c) by construction, so chains become hierarchy paths),
  // plus unrelated random concepts as flat noise.
  const size_t kSeeds = quick ? 10 : 32;
  const size_t kChain = quick ? 3 : 5;
  const size_t kNoise = quick ? 10 : 28;
  std::vector<ql::ConceptId> concepts;
  for (size_t s = 0; s < kSeeds; ++s) {
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng);
    concepts.push_back(c);
    for (size_t k = 0; k < kChain; ++k) {
      c = gen::WeakenConcept(sigma, &f, c, rng, 1);
      concepts.push_back(c);
    }
  }
  for (size_t i = 0; i < kNoise; ++i) {
    concepts.push_back(gen::GenerateConcept(sig, &f, rng));
  }
  std::vector<Symbol> names;
  names.reserve(concepts.size());
  for (size_t i = 0; i < concepts.size(); ++i) {
    names.push_back(symbols.Intern(StrCat("N", i)));
  }
  std::printf("  catalog: %zu concepts (%zu seeds x %zu-chains + %zu noise)"
              "%s\n\n",
              concepts.size(), kSeeds, kChain + 1, kNoise,
              quick ? " [quick]" : "");

  auto build = [&](calculus::Classifier* classifier) {
    for (size_t i = 0; i < concepts.size(); ++i) {
      if (auto s = classifier->Add(names[i], concepts[i]); !s.ok()) {
        std::fprintf(stderr, "add failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
  };
  auto classify = [&](calculus::Classifier* classifier) -> double {
    double ms = 0;
    Status status = Status::Ok();
    ms = bench::TimeUs([&] { status = classifier->Classify(); }) / 1000.0;
    if (!status.ok()) {
      std::fprintf(stderr, "classify failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    return ms;
  };

  // Pairwise oracle: no pre-filter, full matrix (the seed behavior).
  calculus::CheckerOptions oracle_options;
  oracle_options.prefilter = false;
  calculus::SubsumptionChecker oracle_checker(sigma, oracle_options);
  calculus::Classifier oracle(oracle_checker,
                              calculus::Classifier::Mode::kPairwise);
  build(&oracle);
  const double pairwise_ms = classify(&oracle);

  // Enhanced: default production configuration on a cold checker.
  calculus::SubsumptionChecker checker(sigma);
  calculus::Classifier enhanced(checker);
  build(&enhanced);
  const double enhanced_ms = classify(&enhanced);

  // Verdict equality: the whole DAG, byte for byte.
  size_t divergences = 0;
  for (Symbol name : names) {
    if (oracle.Parents(name) != enhanced.Parents(name) ||
        oracle.Children(name) != enhanced.Children(name) ||
        oracle.Equivalents(name) != enhanced.Equivalents(name)) {
      ++divergences;
      if (divergences <= 5) {
        std::fprintf(stderr, "  DIVERGENCE at %s\n",
                     symbols.Name(name).c_str());
      }
    }
  }

  const calculus::Classifier::ClassifyStats& stats =
      enhanced.classify_stats();
  const calculus::CheckerPerfStats perf = checker.perf_stats();
  const double avoided_pct =
      stats.pairwise_checks == 0
          ? 0.0
          : 100.0 * stats.checks_avoided / stats.pairwise_checks;
  const double speedup = enhanced_ms > 0 ? pairwise_ms / enhanced_ms : 0.0;
  const uint64_t memo_lookups = perf.cache.hits + perf.cache.misses;
  const double hit_rate =
      memo_lookups == 0 ? 0.0 : 100.0 * perf.cache.hits / memo_lookups;

  bench::Table table({"mode", "ms", "checks", "engine runs", "ops/s"});
  table.AddRow({"pairwise", bench::Fmt(pairwise_ms, 1),
                std::to_string(stats.pairwise_checks),
                std::to_string(stats.pairwise_checks),
                bench::Fmt(stats.pairwise_checks / (pairwise_ms / 1000.0), 0)});
  table.AddRow({"enhanced", bench::Fmt(enhanced_ms, 1),
                std::to_string(stats.checks_performed),
                std::to_string(perf.engine_runs),
                bench::Fmt(stats.pairwise_checks / (enhanced_ms / 1000.0), 0)});
  table.Print();
  std::printf(
      "\n  speedup %.2fx; %zu/%zu checks avoided by traversal (%.1f%%), "
      "%llu of the rest rejected by pre-filter; memo hit rate %.1f%%, "
      "pool reuses %llu/%llu\n",
      speedup, stats.checks_avoided, stats.pairwise_checks, avoided_pct,
      (unsigned long long)perf.prefilter_rejections, hit_rate,
      (unsigned long long)perf.pool_reuses,
      (unsigned long long)perf.pool_acquires);

  if (!quick) {
    bench::JsonWriter json;
    json.Add("experiment", std::string("E16_classify"));
    json.Add("concepts", concepts.size());
    json.Add("pairwise_ms", pairwise_ms);
    json.Add("enhanced_ms", enhanced_ms);
    json.Add("speedup", speedup);
    json.Add("pairwise_checks", stats.pairwise_checks);
    json.Add("checks_performed", stats.checks_performed);
    json.Add("checks_avoided", stats.checks_avoided);
    json.Add("checks_avoided_pct", avoided_pct);
    json.Add("ops_per_sec",
             enhanced_ms > 0 ? stats.pairwise_checks / (enhanced_ms / 1000.0)
                             : 0.0);
    json.Add("engine_runs", perf.engine_runs);
    json.Add("prefilter_checks", perf.prefilter_checks);
    json.Add("prefilter_rejections", perf.prefilter_rejections);
    json.Add("memo_hit_rate_pct", hit_rate);
    json.Add("pool_reuses", perf.pool_reuses);
    json.Add("dag_equal", divergences == 0);
    bench::AddHostStamp(json);
    if (json.WriteFile("BENCH_classify.json")) {
      std::printf("  wrote BENCH_classify.json\n");
    } else {
      std::fprintf(stderr, "  could not write BENCH_classify.json\n");
    }
  }

  if (divergences > 0) {
    std::printf("\n  FAIL: enhanced DAG diverged from pairwise oracle at "
                "%zu names\n", divergences);
    return 1;
  }
  std::printf("\n  verdict equality: enhanced DAG identical to pairwise "
              "oracle\n");
  return 0;
}
