// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P): the
// core invariants of the calculus across a grid of seeds and workload
// shapes. Complements calculus_property_test.cc with systematic coverage
// of the generator parameter space.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <type_traits>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/canonical.h"
#include "calculus/engine.h"
#include "calculus/subsumption.h"
#include "cq/cq.h"
#include "gen/generators.h"
#include "interp/eval.h"
#include "interp/model_gen.h"
#include "interp/signature.h"
#include "ql/print.h"

namespace oodb::calculus {
namespace {

// gtest names each test of the grid after a dump of this struct's bytes
// (ctest's "# GetParam() = 48-byte object <...>"), so no byte of it may be
// padding, whose value differs from build to build.
struct SweepParam {
  uint64_t seed;
  size_t num_classes;
  size_t num_attrs;
  size_t max_conjuncts;
  size_t max_path_length;
  bool with_schema;
  char zero_tail[7] = {};  // what would be padding, zero in every instance

  std::string Name() const {
    return oodb::StrCat("seed", seed, "_c", num_classes, "_a", num_attrs, "_k",
                  max_conjuncts, "_p", max_path_length,
                  with_schema ? "_sigma" : "_empty");
  }
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "SweepParam must have no padding bytes");

class CalculusSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  struct Instance {
    SymbolTable symbols;
    std::unique_ptr<ql::TermFactory> terms;
    std::unique_ptr<schema::Schema> sigma;
    gen::GeneratedSchema sig;
    ql::ConceptId c = ql::kInvalidConcept;
    ql::ConceptId d = ql::kInvalidConcept;
  };

  std::unique_ptr<Instance> MakeInstance(Rng& rng) {
    const SweepParam& p = GetParam();
    auto instance = std::make_unique<Instance>();
    instance->terms = std::make_unique<ql::TermFactory>(&instance->symbols);
    instance->sigma =
        std::make_unique<schema::Schema>(instance->terms.get());
    gen::SchemaGenOptions schema_options;
    schema_options.num_classes = p.num_classes;
    schema_options.num_attrs = p.num_attrs;
    if (!p.with_schema) {
      schema_options.isa_prob = 0;
      schema_options.value_restrictions = 0;
      schema_options.typing_prob = 0;
    }
    instance->sig =
        gen::GenerateSchema(instance->sigma.get(), rng, schema_options);
    gen::ConceptGenOptions concept_options;
    concept_options.max_conjuncts = p.max_conjuncts;
    concept_options.max_path_length = p.max_path_length;
    instance->c = gen::GenerateConcept(instance->sig, instance->terms.get(),
                                       rng, concept_options);
    instance->d = gen::GenerateConcept(instance->sig, instance->terms.get(),
                                       rng, concept_options);
    return instance;
  }
};

TEST_P(CalculusSweep, VerdictsAreSoundAndComplete) {
  Rng rng(GetParam().seed);
  for (int round = 0; round < 25; ++round) {
    auto instance = MakeInstance(rng);
    CompletionEngine engine(*instance->sigma);
    ASSERT_TRUE(engine.Run(instance->c, instance->d).ok());
    bool verdict = engine.clash() || engine.GoalFactHolds();

    if (verdict && !engine.clash()) {
      // Soundness: spot-check on a random Σ-model.
      interp::Signature isig = interp::CollectSignature(
          *instance->terms, {instance->c, instance->d},
          instance->sigma.get());
      auto model = interp::GenerateModel(*instance->sigma, isig,
                                         interp::ModelGenOptions(), rng);
      ASSERT_TRUE(model.ok());
      for (size_t e = 0; e < model->domain_size(); ++e) {
        int x = static_cast<int>(e);
        if (interp::InConceptEval(*model, *instance->terms, instance->c,
                                  x)) {
          ASSERT_TRUE(interp::InConceptEval(*model, *instance->terms,
                                            instance->d, x));
        }
      }
    }
    if (!verdict) {
      // Completeness: the canonical countermodel must refute.
      auto model = BuildCanonicalModel(engine, *instance->sigma);
      ASSERT_TRUE(model.ok());
      ASSERT_TRUE(interp::IsModelOf(model->interpretation, *instance->sigma));
      ASSERT_TRUE(interp::InConceptEval(model->interpretation,
                                        *instance->terms, instance->c,
                                        model->goal_element));
      ASSERT_FALSE(interp::InConceptEval(model->interpretation,
                                         *instance->terms, instance->d,
                                         model->goal_element));
    }
  }
}

TEST_P(CalculusSweep, IndividualBoundAndDeterminismHold) {
  Rng rng(GetParam().seed + 1);
  for (int round = 0; round < 25; ++round) {
    auto instance = MakeInstance(rng);
    SubsumptionChecker checker(*instance->sigma);
    auto first = checker.SubsumesDetailed(instance->c, instance->d);
    auto second = checker.SubsumesDetailed(instance->c, instance->d);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->subsumed, second->subsumed);
    EXPECT_EQ(first->stats.facts, second->stats.facts);
    size_t bound = instance->terms->ConceptSize(instance->c) *
                   instance->terms->ConceptSize(instance->d);
    EXPECT_LE(first->stats.individuals, bound + 1);
  }
}

TEST_P(CalculusSweep, WeakeningIsAlwaysDetected) {
  Rng rng(GetParam().seed + 2);
  for (int round = 0; round < 25; ++round) {
    auto instance = MakeInstance(rng);
    ql::ConceptId weaker = gen::WeakenConcept(
        *instance->sigma, instance->terms.get(), instance->c, rng, 3);
    SubsumptionChecker checker(*instance->sigma);
    auto verdict = checker.Subsumes(instance->c, weaker);
    ASSERT_TRUE(verdict.ok());
    EXPECT_TRUE(*verdict)
        << ql::ConceptToString(*instance->terms, instance->c) << "  vs  "
        << ql::ConceptToString(*instance->terms, weaker);
  }
}

TEST_P(CalculusSweep, EmptySchemaMatchesCqContainment) {
  if (GetParam().with_schema) GTEST_SKIP() << "empty-Σ variants only";
  Rng rng(GetParam().seed + 3);
  for (int round = 0; round < 25; ++round) {
    auto instance = MakeInstance(rng);
    SubsumptionChecker checker(*instance->sigma);
    auto verdict = checker.Subsumes(instance->c, instance->d);
    ASSERT_TRUE(verdict.ok());
    auto q1 = cq::ConceptToCq(*instance->terms, instance->c,
                              &instance->symbols);
    auto q2 = cq::ConceptToCq(*instance->terms, instance->d,
                              &instance->symbols);
    ASSERT_TRUE(q1.ok() && q2.ok());
    EXPECT_EQ(*verdict, cq::CqContained(*q1, *q2));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CalculusSweep,
    ::testing::Values(
        SweepParam{1001, 6, 3, 3, 2, true},
        SweepParam{1002, 6, 3, 3, 2, false},
        SweepParam{1003, 12, 6, 4, 3, true},
        SweepParam{1004, 12, 6, 4, 3, false},
        SweepParam{1005, 20, 10, 6, 4, true},
        SweepParam{1006, 20, 10, 6, 4, false},
        SweepParam{1007, 3, 2, 2, 1, true},
        SweepParam{1008, 3, 2, 8, 5, true}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.Name();
    });

}  // namespace
}  // namespace oodb::calculus
