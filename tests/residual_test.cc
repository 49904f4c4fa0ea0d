// Tests for the residual "minimal filter query" (Sect. 6 open problem),
// the database-level concept evaluator, and the eager-witness ablation.
#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/concept_eval.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "dl/frontend.h"
#include "dl_fixture.h"
#include "gen/generators.h"
#include "ql/print.h"
#include "views/views.h"

namespace oodb {
namespace {

struct Fx {
  SymbolTable symbols;
  ql::TermFactory f{&symbols};
  schema::Schema sigma{&f};
  Symbol S(const char* name) { return symbols.Intern(name); }
  ql::Attr A(const char* name, bool inv = false) {
    return ql::Attr{symbols.Intern(name), inv};
  }
};

TEST(Residual, CollapsesToTheExtraConjunct) {
  Fx fx;
  calculus::SubsumptionChecker checker(fx.sigma);
  ql::ConceptId view = fx.f.And(
      fx.f.Primitive("Patient"),
      fx.f.Exists(fx.f.Step(fx.A("suffers"), fx.f.Primitive("Disease"))));
  ql::ConceptId query = fx.f.And(fx.f.Primitive("Male"), view);
  auto residual = calculus::ResidualFilter(checker, &fx.f, query, view);
  ASSERT_TRUE(residual.ok()) << residual.status();
  ASSERT_TRUE(residual->has_value());
  EXPECT_EQ(**residual, fx.f.Primitive("Male"));
}

TEST(Residual, IdenticalQueryAndViewGiveEmptyFilter) {
  Fx fx;
  calculus::SubsumptionChecker checker(fx.sigma);
  ql::ConceptId c = fx.f.And(fx.f.Primitive("A"), fx.f.Primitive("B"));
  auto residual = calculus::ResidualFilter(checker, &fx.f, c, c);
  ASSERT_TRUE(residual.ok());
  ASSERT_TRUE(residual->has_value());
  EXPECT_EQ(**residual, fx.f.Top());
}

TEST(Residual, NulloptWhenNotSubsumed) {
  Fx fx;
  calculus::SubsumptionChecker checker(fx.sigma);
  auto residual = calculus::ResidualFilter(
      checker, &fx.f, fx.f.Primitive("A"), fx.f.Primitive("B"));
  ASSERT_TRUE(residual.ok());
  EXPECT_FALSE(residual->has_value());
}

TEST(Residual, ExactnessPropertyOnRandomPairs) {
  // V ⊓ R ≡_Σ Q for every computed residual.
  Rng rng(2718);
  int computed = 0;
  for (int round = 0; round < 80; ++round) {
    SymbolTable symbols;
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
    ql::ConceptId q = gen::GenerateConcept(sig, &f, rng);
    ql::ConceptId v = gen::WeakenConcept(sigma, &f, q, rng, 2);
    calculus::SubsumptionChecker checker(sigma);
    auto residual = calculus::ResidualFilter(checker, &f, q, v);
    ASSERT_TRUE(residual.ok());
    ASSERT_TRUE(residual->has_value());  // weakening guarantees q ⊑ v
    ++computed;
    ql::ConceptId combined = f.And(v, **residual);
    auto equivalent = checker.Equivalent(combined, q);
    ASSERT_TRUE(equivalent.ok());
    EXPECT_TRUE(*equivalent)
        << ql::ConceptToString(f, q) << "  via view  "
        << ql::ConceptToString(f, v) << "  residual  "
        << ql::ConceptToString(f, **residual);
  }
  EXPECT_EQ(computed, 80);
}

// --- Database-level concept evaluation ---------------------------------------

struct DbFx : dl::Frontend {
  std::unique_ptr<db::Database> database;

  DbFx() {
    EXPECT_EQ(Load(testing::kMedicalDlSource), Status::Ok());
    database = std::make_unique<db::Database>(*model, &symbols);

    auto S = [&](const char* s) { return symbols.Intern(s); };
    auto obj = [&](const char* name, const char* cls) {
      db::ObjectId o = *database->CreateObject(name);
      (void)database->AddToClass(o, S(cls));
      return o;
    };
    db::ObjectId flu = obj("flu", "Disease");
    db::ObjectId alice = obj("alice", "Female");
    (void)database->AddToClass(alice, S("Doctor"));
    (void)database->AddAttr(alice, S("skilled_in"), flu);
    auto person = [&](const char* name, const char* gender) {
      db::ObjectId o = obj(name, "Person");
      (void)database->AddToClass(o, S(gender));
      db::ObjectId n = obj((std::string(name) + "_n").c_str(), "String");
      (void)database->AddAttr(o, S("name"), n);
      return o;
    };
    db::ObjectId bob = person("bob", "Male");
    (void)database->AddToClass(bob, S("Patient"));
    (void)database->AddAttr(bob, S("suffers"), flu);
    (void)database->AddAttr(bob, S("consults"), alice);
    db::ObjectId carol = person("carol", "Female");
    (void)database->AddToClass(carol, S("Patient"));
    (void)database->AddAttr(carol, S("suffers"), flu);
    (void)database->AddAttr(carol, S("consults"), alice);
  }
  Symbol S(const char* s) { return symbols.Intern(s); }
};

TEST(ConceptEval, MatchesDlEvaluatorOnStructuralQueries) {
  DbFx fx;
  ql::ConceptId view_concept =
      *fx.translator->QueryConcept(fx.S("ViewPatient"));
  db::QueryEvaluator evaluator(*fx.database);
  auto via_dl = evaluator.Evaluate(fx.S("ViewPatient"));
  ASSERT_TRUE(via_dl.ok());
  std::vector<db::ObjectId> via_concept;
  for (db::ObjectId o = 0; o < fx.database->num_objects(); ++o) {
    if (db::ConceptHolds(*fx.database, *fx.terms, view_concept, o)) {
      via_concept.push_back(o);
    }
  }
  EXPECT_EQ(*via_dl, via_concept);
}

TEST(ConceptEval, EvaluatesEveryConstruct) {
  DbFx fx;
  auto bob = *fx.database->FindObject(fx.S("bob"));
  auto alice = *fx.database->FindObject(fx.S("alice"));
  // Primitive, ⊤, singleton.
  EXPECT_TRUE(db::ConceptHolds(*fx.database, *fx.terms,
                               fx.terms->Primitive("Male"), bob));
  EXPECT_TRUE(db::ConceptHolds(*fx.database, *fx.terms, fx.terms->Top(),
                               bob));
  EXPECT_TRUE(db::ConceptHolds(*fx.database, *fx.terms,
                               fx.terms->Singleton("bob"), bob));
  EXPECT_FALSE(db::ConceptHolds(*fx.database, *fx.terms,
                                fx.terms->Singleton("bob"), alice));
  // Exists and agreement over inverse steps.
  ql::PathId loop = fx.terms->MakePath(
      {{ql::Attr{fx.S("consults"), false}, fx.terms->Top()},
       {ql::Attr{fx.S("consults"), true}, fx.terms->Top()}});
  EXPECT_TRUE(db::ConceptHolds(*fx.database, *fx.terms,
                               fx.terms->Agree(loop), bob));
}

TEST(ConceptEval, OptimizerResidualPlanMatchesNaive) {
  DbFx fx;
  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ASSERT_TRUE(catalog.DefineView(fx.S("ViewPatient")).ok());

  // A structural narrowing of the view (reparse trick: declare inline).
  // ViewPatient itself is deeply structural, so executing it through the
  // optimizer takes the residual path with residual ⊤.
  views::Optimizer optimizer(fx.database.get(), &catalog, *fx.sigma,
                             fx.translator.get());
  views::QueryPlan plan;
  auto optimized = optimizer.Execute(fx.S("ViewPatient"), &plan);
  ASSERT_TRUE(optimized.ok());
  EXPECT_TRUE(plan.uses_view);
  EXPECT_TRUE(plan.uses_residual);
  EXPECT_EQ(plan.residual, fx.terms->Top());
  db::QueryEvaluator evaluator(*fx.database);
  auto naive = evaluator.Evaluate(fx.S("ViewPatient"));
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(*optimized, *naive);
}

TEST(ConceptEval, NonStructuralQueriesSkipTheResidualPath) {
  DbFx fx;
  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ASSERT_TRUE(catalog.DefineView(fx.S("ViewPatient")).ok());
  views::Optimizer optimizer(fx.database.get(), &catalog, *fx.sigma,
                             fx.translator.get());
  views::QueryPlan plan;
  auto answers = optimizer.Execute(fx.S("QueryPatient"), &plan);
  ASSERT_TRUE(answers.ok());
  EXPECT_FALSE(plan.uses_residual);  // QueryPatient has a constraint
}

// --- Eager-witness ablation ----------------------------------------------------

TEST(EagerAblation, DivergesOnCyclicSchemas) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddNecessary(fx.S("A"), fx.S("p")).ok());
  ASSERT_TRUE(fx.sigma.AddValueRestriction(fx.S("A"), fx.S("p"),
                                           fx.S("A")).ok());
  calculus::SubsumptionChecker::Options options;
  options.engine.eager_witnesses = true;
  options.engine.max_individuals = 512;
  calculus::SubsumptionChecker checker(fx.sigma, options);
  auto result = checker.Subsumes(
      fx.f.Primitive("A"),
      fx.f.Exists(fx.f.Step(fx.A("p"), fx.f.Primitive("A"))));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EagerAblation, AgreesWithGuardedOnAcyclicSchemas) {
  Rng rng(33);
  for (int round = 0; round < 40; ++round) {
    SymbolTable symbols;
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    // Acyclic: value restrictions only point to later classes.
    gen::SchemaGenOptions options;
    options.num_classes = 6;
    options.value_restrictions = 0;  // avoid cycles entirely
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, options);
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng);
    ql::ConceptId d = gen::GenerateConcept(sig, &f, rng);

    calculus::SubsumptionChecker guarded(sigma);
    calculus::SubsumptionChecker::Options eager_options;
    eager_options.engine.eager_witnesses = true;
    calculus::SubsumptionChecker eager(sigma, eager_options);
    auto a = guarded.Subsumes(c, d);
    auto b = eager.Subsumes(c, d);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << ql::ConceptToString(f, c) << " vs "
                      << ql::ConceptToString(f, d);
  }
}

}  // namespace
}  // namespace oodb
