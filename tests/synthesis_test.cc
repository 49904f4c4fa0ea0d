// Tests for workload view synthesis: CommonSubsumer + concept-only views
// serving several queries at once (the paper's Sect. 6 cooperative
// scenario).
#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "gen/generators.h"
#include "ql/print.h"
#include "schema/schema.h"
#include "views/views.h"

namespace oodb {
namespace {

TEST(CommonSubsumer, SubsumesEveryInput) {
  Rng rng(140);
  for (int round = 0; round < 60; ++round) {
    SymbolTable symbols;
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
    calculus::SubsumptionChecker checker(sigma);
    // A correlated workload: weakenings of one seed concept share
    // structure the subsumer can capture.
    ql::ConceptId seed = gen::GenerateConcept(sig, &f, rng);
    std::vector<ql::ConceptId> workload;
    for (int i = 0; i < 3; ++i) {
      workload.push_back(gen::WeakenConcept(sigma, &f, seed, rng, 1));
    }
    auto s = calculus::CommonSubsumer(checker, &f, workload);
    ASSERT_TRUE(s.ok()) << s.status();
    for (ql::ConceptId c : workload) {
      auto verdict = checker.Subsumes(c, *s);
      ASSERT_TRUE(verdict.ok());
      EXPECT_TRUE(*verdict)
          << ql::ConceptToString(f, c) << "  should be below  "
          << ql::ConceptToString(f, *s);
    }
  }
}

TEST(CommonSubsumer, SharedConjunctsSurvive) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  calculus::SubsumptionChecker checker(sigma);
  ql::Attr a{symbols.Intern("a"), false};
  ql::ConceptId shared = f.Exists(f.Step(a, f.Primitive("B")));
  ql::ConceptId c1 = f.And(f.Primitive("A"), shared);
  ql::ConceptId c2 = f.And(f.Primitive("C"), shared);
  auto s = calculus::CommonSubsumer(checker, &f, {c1, c2});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, shared);
}

TEST(CommonSubsumer, DisjointWorkloadDegradesToTop) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  calculus::SubsumptionChecker checker(sigma);
  auto s = calculus::CommonSubsumer(checker, &f,
                                    {f.Primitive("A"), f.Primitive("B")});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, f.Top());
}

TEST(CommonSubsumer, SchemaMakesSubsumersTighter) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  ASSERT_TRUE(sigma.AddIsA(symbols.Intern("A"), symbols.Intern("P")).ok());
  ASSERT_TRUE(sigma.AddIsA(symbols.Intern("B"), symbols.Intern("P")).ok());
  calculus::SubsumptionChecker checker(sigma);
  // Without Σ the workload is disjoint; with Σ both sit under P — but P
  // is not a conjunct of either input, so the conjunct-based synthesizer
  // still returns ⊤ unless P occurs syntactically. Adding P to one input
  // makes it the shared subsumer.
  ql::ConceptId c1 = f.And(f.Primitive("A"), f.Primitive("P"));
  ql::ConceptId c2 = f.Primitive("B");
  auto s = calculus::CommonSubsumer(checker, &f, {c1, c2});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, f.Primitive("P"));
}

// --- Concept views over a real database --------------------------------------

constexpr const char* kSchema = R"(
Class Person with
end Person
Class Doctor isA Person with
  attribute
    skilled_in: Disease
end Doctor
Class Patient isA Person with
  attribute
    consults: Doctor
    suffers: Disease
end Patient
Class Disease with
end Disease
QueryClass ConsultingPatients isA Patient with
  derived
    l1: (consults: Doctor)
    l2: (suffers: Disease).(specialist: Doctor)
  where
    l1 = l2
end ConsultingPatients
QueryClass SickPatients isA Patient with
  derived
    (suffers: Disease)
    (consults: Doctor)
end SickPatients
Attribute skilled_in with
  domain: Doctor
  range: Disease
  inverse: specialist
end skilled_in
)";

struct Fx : dl::Frontend {
  std::unique_ptr<db::Database> database;

  Fx() {
    EXPECT_EQ(Load(kSchema), Status::Ok());
    database = std::make_unique<db::Database>(*model, &symbols);
    auto loaded = db::LoadInstance(R"(
      Object flu in Disease with
      end flu
      Object alice in Doctor with
        skilled_in: flu
      end alice
      Object p1 in Patient with
        suffers: flu
        consults: alice
      end p1
      Object p2 in Patient with
        suffers: flu
      end p2
    )",
                                   database.get());
    EXPECT_TRUE(loaded.ok()) << loaded.status();
  }
  Symbol S(const char* name) { return symbols.Intern(name); }
};

TEST(ConceptView, SynthesizedViewServesTheWorkload) {
  Fx fx;
  calculus::SubsumptionChecker checker(*fx.sigma);
  std::vector<ql::ConceptId> workload = {
      *fx.translator->QueryConcept(fx.S("ConsultingPatients")),
      *fx.translator->QueryConcept(fx.S("SickPatients"))};
  auto subsumer = calculus::CommonSubsumer(checker, fx.terms.get(),
                                           workload);
  ASSERT_TRUE(subsumer.ok());
  ASSERT_NE(*subsumer, fx.terms->Top());

  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ASSERT_TRUE(
      catalog.DefineConceptView(fx.S("SynthesizedView"), *subsumer).ok());
  const views::View* view = catalog.Find(fx.S("SynthesizedView"));
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->concept_only);

  // The optimizer answers both workload queries through it.
  views::Optimizer optimizer(fx.database.get(), &catalog, *fx.sigma,
                             fx.translator.get());
  db::QueryEvaluator evaluator(*fx.database);
  for (const char* query : {"ConsultingPatients", "SickPatients"}) {
    views::QueryPlan plan;
    auto optimized = optimizer.Execute(fx.S(query), &plan);
    ASSERT_TRUE(optimized.ok()) << optimized.status();
    EXPECT_TRUE(plan.uses_view) << query;
    auto naive = evaluator.Evaluate(fx.S(query));
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(*optimized, *naive) << query;
  }
}

TEST(ConceptView, MaintainedLikeOrdinaryViews) {
  Fx fx;
  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  // View: patients with a consultation.
  ql::ConceptId concept_id = fx.terms->And(
      fx.terms->Primitive("Patient"),
      fx.terms->Exists(fx.terms->Step(
          ql::Attr{fx.S("consults"), false}, fx.terms->Primitive("Doctor"))));
  ASSERT_TRUE(catalog.DefineConceptView(fx.S("V"), concept_id).ok());
  EXPECT_EQ(catalog.Find(fx.S("V"))->extent.size(), 1u);  // p1

  auto p2 = *fx.database->FindObject(fx.S("p2"));
  auto alice = *fx.database->FindObject(fx.S("alice"));
  ASSERT_TRUE(fx.database->AddAttr(p2, fx.S("consults"), alice).ok());
  ASSERT_TRUE(catalog.RefreshIncremental({p2, alice}).ok());
  EXPECT_EQ(catalog.Find(fx.S("V"))->extent.size(), 2u);
}

TEST(ConceptView, RejectsUnknownSingletonsAndNameCollisions) {
  Fx fx;
  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ql::ConceptId with_skolem = fx.terms->Exists(fx.terms->Step(
      ql::Attr{fx.S("consults"), false},
      fx.terms->Singleton(fx.symbols.Fresh("sk_x"))));
  EXPECT_EQ(catalog.DefineConceptView(fx.S("V1"), with_skolem).code(),
            StatusCode::kFailedPrecondition);
  // Class names are reserved.
  EXPECT_EQ(catalog.DefineConceptView(fx.S("Patient"),
                                      fx.terms->Primitive("Patient"))
                .code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace oodb
