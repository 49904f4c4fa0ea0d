// Assorted edge cases: engine resource caps, classifier re-runs, multihead
// queries with constants, trivial concepts through the whole stack.
#include <gtest/gtest.h>

#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "cq/cq.h"
#include "dl/analyzer.h"
#include "ql/print.h"

namespace oodb {
namespace {

TEST(EngineCaps, ConstraintCapYieldsResourceExhausted) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  // A long chain query forces many facts; a tiny cap trips first.
  std::vector<ql::Restriction> steps(
      64, ql::Restriction{ql::Attr{symbols.Intern("p"), false}, f.Top()});
  ql::ConceptId c = f.Exists(f.MakePath(std::move(steps)));
  calculus::SubsumptionChecker::Options options;
  options.engine.max_constraints = 16;
  calculus::SubsumptionChecker checker(sigma, options);
  auto verdict = checker.Subsumes(c, f.Top());
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineCaps, GenerousCapsSucceedOnTheSameInput) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  std::vector<ql::Restriction> steps(
      64, ql::Restriction{ql::Attr{symbols.Intern("p"), false}, f.Top()});
  ql::ConceptId c = f.Exists(f.MakePath(std::move(steps)));
  calculus::SubsumptionChecker checker(sigma);
  auto verdict = checker.Subsumes(c, f.Top());
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
}

TEST(TrivialConcepts, TopAndEmptyPathsEverywhere) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  calculus::SubsumptionChecker checker(sigma);
  // ⊤ ⊑ ⊤, ∃ε ≡ ⊤, ∃ε≐ε ≡ ⊤.
  EXPECT_TRUE(*checker.Subsumes(f.Top(), f.Top()));
  EXPECT_TRUE(*checker.Equivalent(f.Exists(f.EmptyPath()), f.Top()));
  EXPECT_TRUE(*checker.Equivalent(f.Agree(f.EmptyPath()), f.Top()));
  EXPECT_TRUE(*checker.Satisfiable(f.Top()));
}

TEST(Classifier, ReclassifyAfterMoreInsertions) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  ASSERT_TRUE(sigma.AddIsA(symbols.Intern("A"), symbols.Intern("B")).ok());
  calculus::SubsumptionChecker checker(sigma);
  calculus::Classifier classifier(checker);
  ASSERT_TRUE(classifier.Add(symbols.Intern("VA"), f.Primitive("A")).ok());
  ASSERT_TRUE(classifier.Classify().ok());
  EXPECT_TRUE(classifier.Parents(symbols.Intern("VA")).empty());
  // Insert the superclass later and re-classify.
  ASSERT_TRUE(classifier.Add(symbols.Intern("VB"), f.Primitive("B")).ok());
  ASSERT_TRUE(classifier.Classify().ok());
  EXPECT_EQ(classifier.Parents(symbols.Intern("VA")),
            std::vector<Symbol>{symbols.Intern("VB")});
}

TEST(MultiHeadEdge, ConstantsInHeads) {
  SymbolTable symbols;
  auto model = dl::ParseAndAnalyze(R"(
    Class Person with
      attribute
        likes: Thing
    end Person
    Class Thing with
    end Thing
    QueryClass PizzaFans isA Person with
      derived
        l: (likes: {pizza})
    end PizzaFans
    // Bare step: no range filter — CQ containment is schema-less, so a
    // (likes: Thing) filter would NOT be implied by {pizza}.
    QueryClass AnyFans isA Person with
      derived
        l: likes
    end AnyFans
  )",
                                   &symbols);
  ASSERT_TRUE(model.ok()) << model.status();
  auto q1 = cq::QueryClassToCq(*model, symbols.Find("PizzaFans"), &symbols);
  auto q2 = cq::QueryClassToCq(*model, symbols.Find("AnyFans"), &symbols);
  ASSERT_TRUE(q1.ok() && q2.ok());
  // The constant-filtered head is the constant itself.
  ASSERT_EQ(q1->heads.size(), 2u);
  EXPECT_EQ(q1->heads[1].kind, cq::CqTerm::Kind::kConst);
  // (this, pizza) tuples are (this, liked-thing) tuples.
  EXPECT_TRUE(cq::CqContained(*q1, *q2));
  EXPECT_FALSE(cq::CqContained(*q2, *q1));
}

TEST(MinimizeEdge, TopMinimizesToTop) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  calculus::SubsumptionChecker checker(sigma);
  auto m = calculus::MinimizeConcept(checker, &f, f.Top());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, f.Top());
}

TEST(CommonSubsumerEdge, SingletonWorkloadIsItself) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  calculus::SubsumptionChecker checker(sigma);
  ql::ConceptId c = f.And(f.Primitive("A"), f.Primitive("B"));
  auto s = calculus::CommonSubsumer(checker, &f, {c});
  ASSERT_TRUE(s.ok());
  auto eq = checker.Equivalent(*s, c);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

}  // namespace
}  // namespace oodb
