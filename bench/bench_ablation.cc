// Ablation experiments for the two design choices DESIGN.md calls out:
//
//   A1  the goal-guidance of rule S5 — the paper's "tricky control"
//       (Sect. 4.1). Ablated: eager witness generation for every
//       necessary attribute. On cyclic schemas the eager variant
//       diverges (hits the resource cap); the guarded one stays linear
//       in the goal.
//
//   A2  residual filtering (Sect. 6's "minimal filter query"). Ablated:
//       re-evaluating the full query on every view candidate. The
//       residual plan tests only the conjuncts the view does not already
//       guarantee.
#include <cstdio>
#include <memory>

#include "base/rng.h"
#include "base/strings.h"
#include <optional>

#include "bench_util.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/concept_eval.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "dl/frontend.h"
#include "ql/print.h"
#include "schema/schema.h"
#include "views/views.h"

namespace {

using namespace oodb;

// --- A1: guarded vs eager witness generation -------------------------------

void RunA1() {
  bench::Section("A1: goal-guided S5 vs eager witness generation");
  bench::Table table({"schema", "goal depth", "guarded inds",
                      "guarded time(us)", "eager inds", "eager outcome"});

  // The cyclic schema {A ⊑ ∃p_j, A ⊑ ∀p_j.A : j < width} — each witness
  // is again an A, so eager generation never stops.
  for (auto [width, depth] : {std::pair<size_t, size_t>{1, 4},
                              {1, 16},
                              {2, 4},
                              {3, 4}}) {
    SymbolTable symbols;
    ql::TermFactory terms(&symbols);
    schema::Schema sigma(&terms);
    Symbol a = symbols.Intern("A");
    std::vector<Symbol> attrs;
    for (size_t j = 0; j < width; ++j) {
      Symbol p = symbols.Intern(StrCat("p", j));
      attrs.push_back(p);
      (void)sigma.AddNecessary(a, p);
      (void)sigma.AddValueRestriction(a, p, a);
    }
    std::vector<ql::Restriction> steps(
        depth, ql::Restriction{ql::Attr{attrs[0], false},
                               terms.Primitive(a)});
    ql::ConceptId query = terms.Primitive(a);
    ql::ConceptId view = terms.Exists(terms.MakePath(std::move(steps)));

    calculus::SubsumptionChecker guarded(sigma);
    calculus::SubsumptionOutcome outcome;
    double guarded_us = bench::TimeUsAveraged(
        [&] { outcome = *guarded.SubsumesDetailed(query, view); });

    calculus::SubsumptionChecker::Options eager_options;
    eager_options.engine.eager_witnesses = true;
    eager_options.engine.max_individuals = 1u << 14;  // fail fast
    calculus::SubsumptionChecker eager(sigma, eager_options);
    auto eager_result = eager.SubsumesDetailed(query, view);
    std::string eager_outcome =
        eager_result.ok()
            ? StrCat("completed (",
                     eager_result->stats.individuals, " inds)")
            : StrCat("DIVERGED: ",
                     StatusCodeName(eager_result.status().code()));

    table.AddRow({StrCat("cyclic ×", width), std::to_string(depth),
                  std::to_string(outcome.stats.individuals),
                  bench::Fmt(guarded_us),
                  eager_result.ok()
                      ? std::to_string(eager_result->stats.individuals)
                      : ">16384",
                  eager_outcome});
  }
  table.Print();
  std::printf(
      "\n  paper claim (Sect. 4): \"building up a prototypical "
      "interpretation one might\n  generate an infinite number of objects "
      "if no special care is taken. ... D is\n  used to provide guidance.\" "
      "measured: the guarded rule completes with\n  goal-proportional "
      "individuals; the eager variant exhausts any cap on the\n  cyclic "
      "schema.\n");
}

// --- A2: residual filtering vs full re-evaluation ---------------------------

constexpr const char* kSchema = R"(
Class Person with
  attribute, necessary, single
    name: String
end Person
Class Patient isA Person with
  attribute
    consults: Doctor
  attribute, necessary
    suffers: Disease
end Patient
Class Doctor isA Person with
  attribute
    skilled_in: Disease
end Doctor
Class Male isA Person with
end Male
Class Female isA Person with
end Female
Class Topic with
end Topic
Class Disease isA Topic with
end Disease
Class String with
end String
Attribute skilled_in with
  domain: Person
  range: Topic
  inverse: specialist
end skilled_in
Attribute consults with
  domain: Patient
  range: Doctor
end consults
Attribute suffers with
  domain: Patient
  range: Disease
end suffers
Attribute name with
  domain: Person
  range: String
end name
QueryClass ViewPatient isA Patient with
  derived
    (name: String)
    l1: (consults: Doctor).(skilled_in: Disease)
    l2: (suffers: Disease)
  where
    l1 = l2
end ViewPatient
QueryClass MaleViewPatient isA Male, Patient with
  derived
    (name: String)
    l1: (consults: Doctor).(skilled_in: Disease)
    l2: (suffers: Disease)
  where
    l1 = l2
end MaleViewPatient
)";

void RunA2() {
  bench::Section("A2: residual filter vs full re-evaluation on the view");
  bench::Table table({"objects", "view extent", "answers", "residual",
                      "full check(us)", "residual(us)", "speedup"});

  Rng rng(11);
  for (size_t patients : {1000u, 4000u, 16000u}) {
    dl::Frontend front;
    (void)front.Load(kSchema);
    ql::TermFactory& terms = *front.terms;
    const schema::Schema& sigma = *front.sigma;
    dl::Translator& translator = *front.translator;
    db::Database database(*front.model, &front.symbols);

    auto S = [&](const char* s) { return front.symbols.Intern(s); };
    size_t num_doctors = std::max<size_t>(4, patients / 20);
    std::vector<db::ObjectId> diseases, doctors;
    // Few diseases: ~1/3 of the patients join with their doctor's skill,
    // so the view extent is large and filtering it dominates the cost.
    for (size_t i = 0; i < 3; ++i) {
      auto o = *database.CreateObject(StrCat("disease", i));
      (void)database.AddToClass(o, S("Disease"));
      diseases.push_back(o);
    }
    for (size_t i = 0; i < num_doctors; ++i) {
      auto o = *database.CreateObject(StrCat("doc", i));
      (void)database.AddToClass(o, S("Doctor"));
      auto nm = *database.CreateObject(StrCat("docname", i));
      (void)database.AddToClass(nm, S("String"));
      (void)database.AddAttr(o, S("name"), nm);
      (void)database.AddAttr(o, S("skilled_in"), rng.Pick(diseases));
      doctors.push_back(o);
    }
    for (size_t i = 0; i < patients; ++i) {
      auto o = *database.CreateObject(StrCat("pat", i));
      (void)database.AddToClass(o, S("Patient"));
      (void)database.AddToClass(o, rng.Bernoulli(0.5) ? S("Male")
                                                      : S("Female"));
      auto nm = *database.CreateObject(StrCat("patname", i));
      (void)database.AddToClass(nm, S("String"));
      (void)database.AddAttr(o, S("name"), nm);
      (void)database.AddAttr(o, S("suffers"), rng.Pick(diseases));
      (void)database.AddAttr(o, S("consults"), rng.Pick(doctors));
    }

    views::ViewCatalog catalog(&database, &translator);
    (void)catalog.DefineView(S("ViewPatient"));
    const views::View* view = catalog.Find(S("ViewPatient"));

    // Ablated plan: full IsAnswer over the view extent.
    db::QueryEvaluator evaluator(database);
    std::vector<db::ObjectId> full_answers;
    double full_us = bench::TimeUs([&] {
      full_answers =
          *evaluator.EvaluateOver(S("MaleViewPatient"), view->extent);
    });

    // Residual plan, measured in its two parts: the one-off planning
    // (subsumption + greedy residual computation) and the per-candidate
    // filtering that replaces the full check.
    calculus::SubsumptionChecker checker(sigma);
    ql::ConceptId query_concept =
        *translator.QueryConcept(S("MaleViewPatient"));
    std::optional<ql::ConceptId> residual;
    double plan_us = bench::TimeUs([&] {
      residual = *calculus::ResidualFilter(checker, &terms, query_concept,
                                           view->concept_id);
    });
    std::vector<db::ObjectId> residual_answers;
    double filter_us = bench::TimeUs([&] {
      residual_answers.clear();
      for (db::ObjectId o : view->extent) {
        if (db::ConceptHolds(database, terms, *residual, o)) {
          residual_answers.push_back(o);
        }
      }
    });

    // The optimizer end-to-end must agree.
    views::Optimizer optimizer(&database, &catalog, sigma, &translator);
    views::QueryPlan plan;
    auto optimizer_answers = *optimizer.Execute(S("MaleViewPatient"), &plan);
    if (full_answers != residual_answers ||
        optimizer_answers != full_answers || !plan.uses_residual) {
      std::printf("  ABLATION MISMATCH (residual=%d)!\n",
                  plan.uses_residual);
      return;
    }
    table.AddRow({std::to_string(database.num_objects()),
                  std::to_string(view->extent.size()),
                  std::to_string(full_answers.size()),
                  ql::ConceptToString(terms, *residual) +
                      StrCat("  [planned in ", bench::Fmt(plan_us), "us]"),
                  bench::Fmt(full_us), bench::Fmt(filter_us),
                  bench::Fmt(full_us / filter_us, 2) + "x"});
  }
  table.Print();
  std::printf(
      "\n  paper claim (Sect. 6, open problem): \"it would be sufficient "
      "to test the\n  answer candidates for satisfaction of the filter "
      "conditions.\" measured: the\n  residual collapses to the conjuncts "
      "the view does not guarantee, and testing\n  it is cheaper than "
      "re-running the full query per candidate. (The residual\n  time "
      "includes planning: one subsumption check per catalog view plus the\n"
      "  greedy residual computation.)\n");
}

// --- A3: naive full-rescan vs semi-naive scheduling --------------------------

void RunA3() {
  bench::Section("A3: naive full-rescan vs semi-naive pass scheduling");
  bench::Table table({"chain n", "naive(us)", "semi-naive(us)", "speedup"});
  for (size_t n : {16u, 64u, 256u, 512u}) {
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

    calculus::SubsumptionChecker semi(sigma);
    calculus::SubsumptionChecker::Options naive_options;
    naive_options.engine.semi_naive = false;
    calculus::SubsumptionChecker naive(sigma, naive_options);

    // SubsumesDetailed runs a fresh completion on every call: Subsumes
    // would answer every call after the first from the memo.
    bool v1 = false, v2 = false;
    double semi_us = bench::TimeUsAveraged(
        [&] { v1 = semi.SubsumesDetailed(c, d)->subsumed; });
    double naive_us = bench::TimeUsAveraged(
        [&] { v2 = naive.SubsumesDetailed(c, d)->subsumed; });
    if (v1 != v2 || !v1) {
      std::printf("  SCHEDULER DISAGREEMENT at n=%zu!\n", n);
      return;
    }
    table.AddRow({std::to_string(n), bench::Fmt(naive_us),
                  bench::Fmt(semi_us),
                  bench::Fmt(naive_us / semi_us, 1) + "x"});
  }
  table.Print();
  std::printf(
      "\n  the paper leaves \"an optimal implementation technique\" open "
      "(Sect. 4.3).\n  measured: watermark-based semi-naive scheduling "
      "reaches the identical\n  completion (tested) while avoiding the "
      "naive scheduler's full rescans.\n");
}

}  // namespace

int main() {
  RunA1();
  RunA2();
  RunA3();
  return 0;
}
