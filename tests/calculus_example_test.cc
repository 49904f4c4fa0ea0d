// End-to-end tests of the calculus on the paper's running example
// (Sect. 4.1, Figure 11): QueryPatient is Σ-subsumed by ViewPatient.
#include <gtest/gtest.h>

#include "calculus/canonical.h"
#include "calculus/engine.h"
#include "calculus/subsumption.h"
#include "interp/eval.h"
#include "medical_fixture.h"
#include "ql/print.h"

namespace oodb {
namespace {

using calculus::Rule;
using calculus::SubsumptionChecker;
using calculus::SubsumptionOutcome;
using testing::MedicalFixture;

TEST(MedicalExample, AgreementNormalizationMatchesPaper) {
  MedicalFixture fx;
  // F₁ of Figure 11 rewrites C_Q's agreement to
  // ∃(consults: Female ⊓ Doctor)(skilled_in: ⊤)(suffers⁻¹: ⊤) ≐ ε.
  EXPECT_EQ(ql::ConceptToString(*fx.terms, fx.query_patient),
            "Male ⊓ Patient ⊓ ∃(consults: Female ⊓ Doctor)"
            "(skilled_in: ⊤)(suffers^-1: ⊤) ≐ ε");
  // And D_V's to ∃(consults: Doctor)(skilled_in: Disease)(suffers⁻¹: ⊤) ≐ ε.
  EXPECT_EQ(ql::ConceptToString(*fx.terms, fx.view_patient),
            "Patient ⊓ ∃(name: String) ⊓ ∃(consults: Doctor)"
            "(skilled_in: Disease)(suffers^-1: ⊤) ≐ ε");
}

TEST(MedicalExample, QueryPatientSubsumedByViewPatient) {
  MedicalFixture fx;
  SubsumptionChecker checker(*fx.sigma);
  auto result = checker.Subsumes(fx.query_patient, fx.view_patient);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(*result);
}

TEST(MedicalExample, ViewPatientNotSubsumedByQueryPatient) {
  MedicalFixture fx;
  SubsumptionChecker checker(*fx.sigma);
  auto result = checker.Subsumes(fx.view_patient, fx.query_patient);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(*result);
}

TEST(MedicalExample, SubsumptionIsViaGoalFactNotClash) {
  MedicalFixture fx;
  SubsumptionChecker checker(*fx.sigma);
  auto result = checker.SubsumesDetailed(fx.query_patient, fx.view_patient);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->subsumed);
  EXPECT_FALSE(result->via_clash);
}

TEST(MedicalExample, BothConceptsSatisfiable) {
  MedicalFixture fx;
  SubsumptionChecker checker(*fx.sigma);
  auto q = checker.Satisfiable(fx.query_patient);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(*q);
  auto v = checker.Satisfiable(fx.view_patient);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
}

TEST(MedicalExample, TraceUsesTheExpectedRuleFamilies) {
  MedicalFixture fx;
  SubsumptionChecker::Options options;
  options.engine.record_trace = true;
  SubsumptionChecker checker(*fx.sigma, options);
  auto result = checker.SubsumesDetailed(fx.query_patient, fx.view_patient);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->subsumed);

  // Figure 11 exercises D1, D5, D6, D7, S1, S2, S3, S5, G1, G3,
  // C1, C4, C5, C6 — check the heavy hitters fired.
  auto count = [&](Rule rule) {
    return result->stats.rule_applications[static_cast<size_t>(rule)];
  };
  EXPECT_GT(count(Rule::kD1), 0u);
  EXPECT_GT(count(Rule::kD5), 0u);
  EXPECT_GT(count(Rule::kD6), 0u);
  EXPECT_GT(count(Rule::kD7), 0u);
  EXPECT_GT(count(Rule::kS1), 0u);  // Patient ⊑ Person
  EXPECT_GT(count(Rule::kS2), 0u);  // suffers-value is a Disease
  EXPECT_GT(count(Rule::kS5), 0u);  // name filler generated for the goal
  EXPECT_GT(count(Rule::kG1), 0u);
  EXPECT_GT(count(Rule::kG3), 0u);
  EXPECT_GT(count(Rule::kC1), 0u);
  EXPECT_GT(count(Rule::kC4), 0u);
  EXPECT_GT(count(Rule::kC5), 0u);
  EXPECT_GT(count(Rule::kC6), 0u);
  EXPECT_FALSE(result->trace.empty());
}

TEST(MedicalExample, PolynomialIndividualBoundHolds) {
  MedicalFixture fx;
  SubsumptionChecker checker(*fx.sigma);
  auto result = checker.SubsumesDetailed(fx.query_patient, fx.view_patient);
  ASSERT_TRUE(result.ok());
  // Proposition 4.8: at most M·N individuals.
  size_t m = fx.terms->ConceptSize(fx.query_patient);
  size_t n = fx.terms->ConceptSize(fx.view_patient);
  EXPECT_LE(result->stats.individuals, m * n);
}

// The completeness witness: for the non-subsumption direction, the
// canonical interpretation of the completion is a Σ-model where the
// query instance is not in the view (Prop. 4.5 / 4.6).
TEST(MedicalExample, CanonicalModelWitnessesNonSubsumption) {
  MedicalFixture fx;
  calculus::CompletionEngine engine(*fx.sigma);
  ASSERT_TRUE(engine.Run(fx.view_patient, fx.query_patient).ok());
  ASSERT_FALSE(engine.clash());
  ASSERT_FALSE(engine.GoalFactHolds());

  auto model = calculus::BuildCanonicalModel(engine, *fx.sigma);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(interp::IsModelOf(model->interpretation, *fx.sigma));
  EXPECT_TRUE(interp::InConceptEval(model->interpretation, *fx.terms,
                                    fx.view_patient, model->goal_element));
  EXPECT_FALSE(interp::InConceptEval(model->interpretation, *fx.terms,
                                     fx.query_patient, model->goal_element));
}

// And for the subsuming direction the canonical model must satisfy both
// concepts at o (o:D ∈ F and I_F satisfies F).
TEST(MedicalExample, CanonicalModelSatisfiesBothOnSubsumption) {
  MedicalFixture fx;
  calculus::CompletionEngine engine(*fx.sigma);
  ASSERT_TRUE(engine.Run(fx.query_patient, fx.view_patient).ok());
  ASSERT_FALSE(engine.clash());
  ASSERT_TRUE(engine.GoalFactHolds());

  auto model = calculus::BuildCanonicalModel(engine, *fx.sigma);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(interp::IsModelOf(model->interpretation, *fx.sigma));
  EXPECT_TRUE(interp::InConceptEval(model->interpretation, *fx.terms,
                                    fx.query_patient, model->goal_element));
  EXPECT_TRUE(interp::InConceptEval(model->interpretation, *fx.terms,
                                    fx.view_patient, model->goal_element));
}

}  // namespace
}  // namespace oodb
