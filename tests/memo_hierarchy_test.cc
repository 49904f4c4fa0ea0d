// Tests for checker memoization and for classifying query classes
// together with schema classes (the "virtual classes integrated into the
// class hierarchy" idea of Sect. 5).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "dl/frontend.h"
#include "dl_fixture.h"
#include "gen/generators.h"
#include "medical_fixture.h"

namespace oodb::calculus {
namespace {

TEST(Memoization, RepeatedChecksHitTheCache) {
  testing::MedicalFixture fx;
  SubsumptionChecker checker(*fx.sigma);
  for (int i = 0; i < 5; ++i) {
    auto verdict = checker.Subsumes(fx.query_patient, fx.view_patient);
    ASSERT_TRUE(verdict.ok());
    EXPECT_TRUE(*verdict);
  }
  EXPECT_EQ(checker.cache_stats().hits, 4u);
  EXPECT_EQ(checker.cache_stats().entries, 1u);
  // The reverse direction is a distinct cache entry.
  ASSERT_TRUE(checker.Subsumes(fx.view_patient, fx.query_patient).ok());
  EXPECT_EQ(checker.cache_stats().entries, 2u);
}

TEST(Memoization, DisabledMeansNoCache) {
  testing::MedicalFixture fx;
  SubsumptionChecker::Options options;
  options.memoize = false;
  SubsumptionChecker checker(*fx.sigma, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(checker.Subsumes(fx.query_patient, fx.view_patient).ok());
  }
  EXPECT_EQ(checker.cache_stats().hits, 0u);
  EXPECT_EQ(checker.cache_stats().entries, 0u);
}

TEST(Memoization, CachedVerdictsMatchFreshOnes) {
  Rng rng(112233);
  for (int round = 0; round < 50; ++round) {
    SymbolTable symbols;
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng);
    ql::ConceptId d = gen::GenerateConcept(sig, &f, rng);
    SubsumptionChecker cached(sigma);
    SubsumptionChecker::Options no_memo;
    no_memo.memoize = false;
    SubsumptionChecker fresh(sigma, no_memo);
    auto first = cached.Subsumes(c, d);
    auto second = cached.Subsumes(c, d);  // served from cache
    auto reference = fresh.Subsumes(c, d);
    ASSERT_TRUE(first.ok() && second.ok() && reference.ok());
    EXPECT_EQ(*first, *second);
    EXPECT_EQ(*first, *reference);
  }
}

TEST(Hierarchy, QueryClassesIntegrateWithSchemaClasses) {
  dl::Frontend front;
  ASSERT_EQ(front.Load(testing::kMedicalDlSource), Status::Ok());
  const SymbolTable& symbols = front.symbols;

  SubsumptionChecker checker(*front.sigma);
  Classifier classifier(checker);
  for (const dl::ClassDef& def : front.model->classes()) {
    if (def.name == front.model->object_class) continue;
    auto concept_id = front.translator->ClassConcept(def.name);
    ASSERT_TRUE(concept_id.ok()) << concept_id.status();
    ASSERT_TRUE(classifier.Add(def.name, *concept_id).ok());
  }
  ASSERT_TRUE(classifier.Classify().ok());

  // The view slots in under the schema class Patient, the query under
  // both Male and the view — [AB91]'s "virtual class" integration.
  auto view_parents = classifier.Parents(symbols.Find("ViewPatient"));
  EXPECT_NE(std::find(view_parents.begin(), view_parents.end(),
                      symbols.Find("Patient")),
            view_parents.end());
  auto query_parents = classifier.Parents(symbols.Find("QueryPatient"));
  EXPECT_NE(std::find(query_parents.begin(), query_parents.end(),
                      symbols.Find("ViewPatient")),
            query_parents.end());
  EXPECT_NE(std::find(query_parents.begin(), query_parents.end(),
                      symbols.Find("Male")),
            query_parents.end());
  // Schema-level isA shows up too: Disease under Topic.
  EXPECT_EQ(classifier.Parents(symbols.Find("Disease")),
            std::vector<Symbol>{symbols.Find("Topic")});
}

}  // namespace
}  // namespace oodb::calculus
