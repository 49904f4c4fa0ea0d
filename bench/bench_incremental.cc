// Experiment E19: incremental classification cost vs catalog size.
//
// Grows one resident Classifier over a gen::GenerateCatalog taxonomy
// (hierarchy-rich by construction: every child strengthens its parent)
// and, at each size milestone n, measures
//   * probe inserts: wall time and subsumption checks for the next
//     Insert() calls at catalog size n — the paper's motivating cost,
//     which must stay SUB-LINEAR in n for the enhanced traversal
//     (top/bottom search touches a neighborhood, not the catalog),
//   * probe removals: Remove() of resident names (removal repairs the
//     DAG by local reachability, zero checks), then their re-Insert —
//     mostly memo-warm: the checker decided most of its pairs before
//     (only a pair with a class that joined later can be new), so its
//     time is mostly the classifier's walk and splice, not the calculus,
//   * from-scratch Classify() of the same prefix on a cold checker at
//     the smaller sizes, the baseline an incremental taxonomy avoids.
// Gates (exit non-zero; CI runs `bench_incremental --quick`):
//   1. at the first milestone the incrementally-grown DAG is identical
//      to a from-scratch classification on a fresh checker, and
//   2. log-log slope of per-insert checks over n is < 0.9 (sub-linear).
// The full run writes BENCH_incremental.json (or --out=<path>).
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
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::Section("E19: incremental classification vs catalog size");

  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{250, 500, 1000}
            : std::vector<size_t>{1000, 2000, 4000, 8000};
  const size_t kProbes = 16;

  Rng rng(20260808);
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  gen::SchemaGenOptions schema_options;
  schema_options.num_classes = 14;
  schema_options.num_attrs = 7;
  schema_options.value_restrictions = 12;
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, schema_options);

  gen::CatalogGenOptions copt;
  copt.num_concepts = sizes.back() + kProbes;
  copt.num_roots = 6;
  copt.fan_out = 4;
  copt.depth = quick ? 8 : 10;
  // No noise: a parentless concept forces the bottom search to scan every
  // class (nothing to restrict the candidate set), which is the correct
  // Θ(n) answer for that shape, not a regression. The sub-linearity claim
  // under test is about taxonomy-shaped catalogs; E16 covers mixed shape.
  copt.noise_fraction = 0.0;
  gen::GeneratedCatalog cat = gen::GenerateCatalog(sig, &f, rng, copt);
  std::printf("  catalog: %zu concepts (%zu roots, fan-out %zu, depth %zu)"
              "%s\n\n",
              cat.names.size(), copt.num_roots, copt.fan_out, copt.depth,
              quick ? " [quick]" : "");

  calculus::SubsumptionChecker checker(sigma);
  calculus::Classifier inc(checker);  // enhanced traversal, grown once

  auto insert_at = [&](size_t i) {
    if (auto s = inc.Insert(cat.names[i], cat.concepts[i]); !s.ok()) {
      std::fprintf(stderr, "insert failed at %zu: %s\n", i,
                   s.ToString().c_str());
      std::exit(1);
    }
  };

  std::vector<double> xs, insert_us, insert_checks, remove_us, reinsert_us;
  double fresh_ms = 0;
  size_t next = 0;
  size_t divergences = 0;
  bench::Table table(
      {"n", "insert us", "checks/insert", "remove us", "reinsert us"});
  for (size_t n : sizes) {
    while (next < n) insert_at(next++);

    // Gate 1 at the first milestone: the DAG grown one Insert() at a time
    // must be identical to a from-scratch Classify() on a fresh checker —
    // whose wall time doubles as the "rebuild instead" baseline.
    if (n == sizes.front()) {
      calculus::SubsumptionChecker fresh_checker(sigma);
      calculus::Classifier fresh(fresh_checker);
      for (size_t i = 0; i < n; ++i) {
        (void)fresh.Add(cat.names[i], cat.concepts[i]);
      }
      Status status = Status::Ok();
      fresh_ms = bench::TimeUs([&] { status = fresh.Classify(); }) / 1000.0;
      if (!status.ok()) {
        std::fprintf(stderr, "oracle classify failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      for (size_t i = 0; i < n; ++i) {
        Symbol name = cat.names[i];
        if (fresh.Parents(name) != inc.Parents(name) ||
            fresh.Children(name) != inc.Children(name) ||
            fresh.Equivalents(name) != inc.Equivalents(name)) {
          ++divergences;
          if (divergences <= 5) {
            std::fprintf(stderr, "  DIVERGENCE at %s\n",
                         symbols.Name(name).c_str());
          }
        }
      }
    }

    // Probe inserts: the next catalog entries, timed one by one.
    double us = 0, checks = 0;
    for (size_t k = 0; k < kProbes; ++k) {
      const size_t i = next++;
      us += bench::TimeUs([&] { insert_at(i); });
      checks += static_cast<double>(inc.last_op_stats().checks_performed);
    }
    us /= kProbes;
    checks /= kProbes;

    // Probe removals: evict resident names and re-insert them.
    double rus = 0, reus = 0;
    for (size_t k = 0; k < kProbes; ++k) {
      const size_t i = rng.Index(n);
      rus += bench::TimeUs([&] {
        if (auto s = inc.Remove(cat.names[i]); !s.ok()) {
          std::fprintf(stderr, "remove failed: %s\n", s.ToString().c_str());
          std::exit(1);
        }
      });
      reus += bench::TimeUs([&] { insert_at(i); });
    }
    rus /= kProbes;
    reus /= kProbes;

    xs.push_back(static_cast<double>(n));
    insert_us.push_back(us);
    insert_checks.push_back(checks);
    remove_us.push_back(rus);
    reinsert_us.push_back(reus);
    table.AddRow({std::to_string(n), bench::Fmt(us, 1), bench::Fmt(checks, 1),
                  bench::Fmt(rus, 1), bench::Fmt(reus, 1)});
  }
  table.Print();
  std::printf("\n  from-scratch classify at n=%zu (cold checker): %.1f ms — "
              "the rebuild an incremental Insert() replaces\n",
              sizes.front(), fresh_ms);

  const double checks_slope = bench::LogLogSlope(xs, insert_checks);
  const double us_slope = bench::LogLogSlope(xs, insert_us);
  std::printf(
      "\n  log-log slope over n: %.2f for checks/insert, %.2f for insert "
      "latency (1.0 would be linear; the pairwise strategy is exactly "
      "2n checks per insert)\n",
      checks_slope, us_slope);

  bench::JsonWriter json;
  json.Add("experiment", std::string("E19_incremental"));
  json.Add("quick", quick);
  json.Add("probes_per_size", kProbes);
  for (size_t i = 0; i < xs.size(); ++i) {
    const std::string n = std::to_string(sizes[i]);
    json.Add(StrCat("insert_us_n", n), insert_us[i]);
    json.Add(StrCat("insert_checks_n", n), insert_checks[i]);
    json.Add(StrCat("remove_us_n", n), remove_us[i]);
    json.Add(StrCat("reinsert_us_n", n), reinsert_us[i]);
  }
  json.Add(StrCat("fresh_ms_n", std::to_string(sizes.front())), fresh_ms);
  json.Add("checks_slope", checks_slope);
  json.Add("insert_us_slope", us_slope);
  json.Add("dag_equal", divergences == 0);
  bench::AddHostStamp(json);
  if (json.WriteFile(out_path)) {
    std::printf("  wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "  could not write %s\n", out_path.c_str());
  }

  if (divergences > 0) {
    std::printf("\n  FAIL: incremental DAG diverged from from-scratch "
                "oracle at %zu names\n", divergences);
    return 1;
  }
  if (checks_slope >= 0.9) {
    std::printf("\n  FAIL: per-insert checks grow like n^%.2f — not "
                "sub-linear in catalog size\n", checks_slope);
    return 1;
  }
  std::printf("\n  incremental DAG identical to from-scratch oracle; "
              "per-insert checks sub-linear (n^%.2f)\n", checks_slope);
  return 0;
}
