// Soundness of the structural pre-filter (calculus/prefilter.h): it may
// only reject pairs the full calculus also rejects — a single false
// rejection breaks SubsumptionChecker::Subsumes. The property sweep
// drives 500 seeded random (Σ, C, D) pairs through the unfiltered
// checker and requires that every true subsumption is accepted by the
// filter; deterministic cases pin the clash guard (the one branch where
// a structurally "impossible" pair is still subsumed) and the non-QL
// abstention. Signature sets are stored from their lowest set word, so
// they are also tested on ids far from 0 and far apart, and a query's
// signature must keep its size when the symbol table is padded.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "calculus/prefilter.h"
#include "calculus/subsumption.h"
#include "dl/frontend.h"
#include "gen/dl_gen.h"
#include "gen/generators.h"
#include "ql/print.h"
#include "schema/schema.h"

namespace oodb::calculus {
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

TEST(PreFilter, AbstainsOnClashableQueries) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddFunctional(fx.S("Person"), fx.S("name")).ok());
  // C is Σ-unsatisfiable (two distinct functional fillers), so it is
  // subsumed by EVERYTHING — including a D whose primitive C never
  // mentions. The filter must abstain, not reject.
  ql::ConceptId c = fx.f.AndAll(
      {fx.f.Primitive("Person"),
       fx.f.Exists(fx.f.Step(fx.A("name"), fx.f.Singleton("alice"))),
       fx.f.Exists(fx.f.Step(fx.A("name"), fx.f.Singleton("bob")))});
  ql::ConceptId d = fx.f.Primitive("Unrelated");

  StructuralPreFilter filter(fx.sigma);
  EXPECT_EQ(filter.Check(c, d), PreFilterVerdict::kUnknown);

  SubsumptionChecker checker(fx.sigma);  // pre-filter on by default
  auto verdict = checker.Subsumes(c, d);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);  // via the clash branch of Theorem 4.7
}

TEST(PreFilter, RejectsForeignPrimitiveAndAcceptsClosure) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("Patient"), fx.S("Person")).ok());
  StructuralPreFilter filter(fx.sigma);
  // Person is in the Σ-upward closure of Patient: must not be rejected.
  EXPECT_EQ(filter.Check(fx.f.Primitive("Patient"), fx.f.Primitive("Person")),
            PreFilterVerdict::kUnknown);
  // Doctor is not derivable from Patient: rejected without an engine.
  EXPECT_EQ(filter.Check(fx.f.Primitive("Patient"), fx.f.Primitive("Doctor")),
            PreFilterVerdict::kReject);
}

TEST(PreFilter, RejectsForeignConstantAndAttr) {
  Fx fx;
  StructuralPreFilter filter(fx.sigma);
  ql::ConceptId c =
      fx.f.Exists(fx.f.Step(fx.A("treats"), fx.f.Singleton("alice")));
  // Same constant, same attribute: abstain.
  EXPECT_EQ(filter.Check(c, fx.f.Exists(fx.f.Step(fx.A("treats"),
                                                  fx.f.Singleton("alice")))),
            PreFilterVerdict::kUnknown);
  // Constant never mentioned in C: reject.
  EXPECT_EQ(filter.Check(c, fx.f.Exists(fx.f.Step(fx.A("treats"),
                                                  fx.f.Singleton("carol")))),
            PreFilterVerdict::kReject);
  // First-step attribute C can never produce: reject.
  EXPECT_EQ(filter.Check(c, fx.f.ExistsAttr(fx.A("audits"))),
            PreFilterVerdict::kReject);
}

TEST(PreFilter, AbstainsOnNonQlInput) {
  Fx fx;
  StructuralPreFilter filter(fx.sigma);
  // ∀-restrictions are SL-only; the filter must leave the pair to the
  // engine so the proper validation error surfaces.
  ql::ConceptId bad = fx.f.All(fx.A("a"), fx.f.Primitive("B"));
  EXPECT_EQ(filter.Check(fx.f.Primitive("A"), bad),
            PreFilterVerdict::kUnknown);
  EXPECT_EQ(filter.Check(bad, fx.f.Primitive("A")),
            PreFilterVerdict::kUnknown);

  SubsumptionChecker checker(fx.sigma);
  EXPECT_FALSE(checker.Subsumes(fx.f.Primitive("A"), bad).ok());
}
// Interns `count` filler names, so that every later symbol id is past it.
void Pad(SymbolTable* symbols, int count) {
  for (int i = 0; i < count; ++i) symbols->Intern("pad" + std::to_string(i));
}

TEST(SymbolBitset, EmptySetHoldsNothing) {
  SymbolBitset set;
  EXPECT_EQ(set.num_words(), 0u);
  EXPECT_FALSE(set.Test(0));
  EXPECT_FALSE(set.Test(63));
  EXPECT_FALSE(set.Test(UINT32_MAX));
}

TEST(SymbolBitset, StoresOnlyTheWordsBetweenItsLowestAndHighestIds) {
  SymbolBitset set;
  set.Set(16082);
  set.Set(16089);
  EXPECT_EQ(set.num_words(), 1u);
  EXPECT_TRUE(set.Test(16082));
  EXPECT_TRUE(set.Test(16089));
  EXPECT_FALSE(set.Test(16083));
  // Below the first set word and above the last one.
  EXPECT_FALSE(set.Test(16082 - 64));
  EXPECT_FALSE(set.Test(0));
  EXPECT_FALSE(set.Test(16089 + 64));
  EXPECT_FALSE(set.Test(UINT32_MAX));
}

TEST(SymbolBitset, GrowsDownwardAndUpward) {
  SymbolBitset set;
  set.Set(1000);
  set.Set(640);  // a lower word: the words shift up
  set.Set(1300);  // a higher word
  EXPECT_EQ(set.num_words(), (1300u >> 6) - (640u >> 6) + 1);
  for (uint32_t id = 0; id < 2000; ++id) {
    EXPECT_EQ(set.Test(id), id == 640 || id == 1000 || id == 1300) << id;
  }
}

TEST(SymbolBitset, FarApartIdsAndIdsPastTwoToTheSixteen) {
  const std::vector<uint32_t> ids = {3,
                                     (uint32_t{1} << 16) + 5,
                                     (uint32_t{1} << 20) + 63,
                                     (uint32_t{1} << 16) - 1};
  SymbolBitset set;
  for (uint32_t id : ids) set.Set(id);
  for (uint32_t id : ids) {
    EXPECT_TRUE(set.Test(id)) << id;
    EXPECT_FALSE(set.Test(id + 1)) << id;
  }
  EXPECT_FALSE(set.Test(2));
  EXPECT_FALSE(set.Test((uint32_t{1} << 20) + 64));
  // Setting an id twice, or an id inside the span, adds no words.
  const size_t words = set.num_words();
  set.Set(3);
  set.Set(uint32_t{1} << 18);
  EXPECT_EQ(set.num_words(), words);
  EXPECT_TRUE(set.Test(uint32_t{1} << 18));
}

// A query's signature is sized by the ids it holds: padding the symbol
// table by 100 032 names before the schema is loaded moves every id and
// leaves every signature's word count as it was. (100 032 is a multiple
// of 64, so every id keeps its bit position within its word.)
TEST(PreFilter, SignatureWordsDoNotGrowWithPadding) {
  Rng rng(25);
  gen::DlGenOptions options;
  options.num_classes = 12;
  options.num_attrs = 6;
  options.num_queries = 400;  // the attributes are interned after them
  const gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);

  dl::Frontend plain;
  ASSERT_TRUE(plain.Load(dl.source).ok());
  dl::Frontend padded;
  Pad(&padded.symbols, 100032);
  ASSERT_TRUE(padded.Load(dl.source).ok());
  ASSERT_EQ(padded.symbols.size(), plain.symbols.size() + 100032);

  StructuralPreFilter plain_filter(*plain.sigma);
  StructuralPreFilter padded_filter(*padded.sigma);
  size_t most_words = 0;
  for (const std::string& name : dl.query_names) {
    auto c = plain.translator->ClassConcept(name);
    auto pc = padded.translator->ClassConcept(name);
    ASSERT_TRUE(c.ok() && pc.ok()) << name;
    const size_t words = plain_filter.QuerySignature(*c).num_words();
    EXPECT_EQ(padded_filter.QuerySignature(*pc).num_words(), words) << name;
    most_words = std::max(most_words, words);
  }
  // The attributes are interned after the 400 query classes, so a set
  // sized by the session would take more words for them alone than any
  // whole signature takes.
  const uint32_t last_attr = plain.symbols.Find(dl.attr_names.back()).id();
  EXPECT_LT(most_words, (last_attr >> 6) + 1);
}

TEST(PreFilterSoundness, NeverRejectsATrueSubsumption) {
  Rng rng(20260806);
  const int kRounds = 500;

  gen::SchemaGenOptions schema_options;
  schema_options.num_classes = 8;
  schema_options.num_attrs = 4;
  schema_options.num_constants = 3;
  schema_options.value_restrictions = 8;

  gen::ConceptGenOptions concept_options;
  concept_options.max_conjuncts = 3;
  concept_options.max_path_length = 2;
  concept_options.singleton_prob = 0.25;

  int subsumed = 0, rejected = 0, skipped = 0;
  for (int round = 0; round < kRounds; ++round) {
    SymbolTable symbols;
    // Every 25th round moves every id of the round past 2^16.
    if (round % 25 == 3) Pad(&symbols, 70000);
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng,
                                                   schema_options);
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng, concept_options);
    // Every 10th round, seed a clash so the abstention guard is hit by
    // genuinely Σ-unsatisfiable queries, not just by chance.
    if (round % 10 == 0) {
      Symbol cls = sig.classes[rng.Index(sig.classes.size())];
      Symbol attr = sig.attrs[rng.Index(sig.attrs.size())];
      ASSERT_TRUE(sigma.AddFunctional(cls, attr).ok());
      c = f.AndAll(
          {f.Primitive(cls), c,
           f.Exists(f.Step(ql::Attr{attr, false}, f.Singleton("clash_a"))),
           f.Exists(f.Step(ql::Attr{attr, false}, f.Singleton("clash_b")))});
    }
    // Half weakenings (guaranteed subsumed), half unrelated concepts.
    ql::ConceptId d = (round % 2 == 0)
                          ? gen::GenerateConcept(sig, &f, rng, concept_options)
                          : gen::WeakenConcept(sigma, &f, c, rng, 2);

    CheckerOptions unfiltered;
    unfiltered.prefilter = false;
    SubsumptionChecker oracle(sigma, unfiltered);
    auto truth = oracle.Subsumes(c, d);
    if (!truth.ok()) {
      ++skipped;
      continue;
    }

    StructuralPreFilter filter(sigma);
    const PreFilterVerdict verdict = filter.Check(c, d);
    if (*truth) {
      ++subsumed;
      EXPECT_NE(verdict, PreFilterVerdict::kReject)
          << "round " << round << ": FALSE REJECTION of a true subsumption"
          << "\n  C = " << ql::ConceptToString(f, c)
          << "\n  D = " << ql::ConceptToString(f, d);
    } else if (verdict == PreFilterVerdict::kReject) {
      ++rejected;
    }

    // Full verdict equality through the production path.
    SubsumptionChecker fast(sigma);
    auto got = fast.Subsumes(c, d);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*truth, *got)
        << "round " << round
        << "\n  C = " << ql::ConceptToString(f, c)
        << "\n  D = " << ql::ConceptToString(f, d);
  }

  std::printf("prefilter soundness: %d subsumed accepted, %d correctly "
              "rejected, %d skipped of %d rounds\n",
              subsumed, rejected, skipped, kRounds);
  // The sweep must exercise both sides (deterministic with the seed).
  EXPECT_GE(subsumed, 100);
  EXPECT_GE(rejected, 50);
}

TEST(PreFilterSoundness, BatchMatchesUnfilteredBatch) {
  Rng rng(777);
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);

  std::vector<ql::ConceptId> catalog;
  ql::ConceptId q = gen::GenerateConcept(sig, &f, rng);
  for (int i = 0; i < 24; ++i) {
    catalog.push_back(i % 3 == 0 ? gen::WeakenConcept(sigma, &f, q, rng, 2)
                                 : gen::GenerateConcept(sig, &f, rng));
  }

  CheckerOptions unfiltered;
  unfiltered.prefilter = false;
  SubsumptionChecker oracle(sigma, unfiltered);
  SubsumptionChecker fast(sigma);
  auto want = oracle.SubsumesBatch(q, catalog);
  auto got = fast.SubsumesBatch(q, catalog);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  // The filter must actually have fired on this workload.
  EXPECT_GT(fast.perf_stats().prefilter_checks, 0u);
}

TEST(PreFilterSoundness, LargeConstantIdsAndPrimitiveFreeTargets) {
  // Constants interned past 2^16, and targets with no primitive conjunct
  // (only ∃ steps, some ending in a constant): the compact target records
  // must keep every such id exact.
  Rng rng(65539);
  SymbolTable symbols;
  Pad(&symbols, 70000);
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  gen::SchemaGenOptions schema_options;
  schema_options.num_constants = 6;
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, schema_options);
  for (Symbol k : sig.constants) ASSERT_GT(k.id(), uint32_t{1} << 16);
  gen::ConceptGenOptions concept_options;
  concept_options.singleton_prob = 0.4;

  CheckerOptions plain;
  plain.memoize = false;
  plain.prefilter = false;
  SubsumptionChecker oracle(sigma, plain);
  CheckerOptions scan;  // the optimizer's configuration
  scan.memoize = false;
  SubsumptionChecker fast(sigma, scan);
  auto any_attr = [&] {
    return ql::Attr{sig.attrs[rng.Index(sig.attrs.size())],
                    rng.Bernoulli(0.25)};
  };
  int subsumed = 0, rejected = 0;
  for (int round = 0; round < 80; ++round) {
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng, concept_options);
    std::vector<ql::ConceptId> targets;
    for (int k = 0; k < 16; ++k) {
      switch (k % 4) {
        case 0:
          targets.push_back(gen::WeakenConcept(sigma, &f, c, rng, 2));
          break;
        case 1:
          targets.push_back(f.Exists(f.Step(
              any_attr(),
              f.Singleton(sig.constants[rng.Index(sig.constants.size())]))));
          break;
        case 2:
          targets.push_back(f.ExistsAttr(any_attr()));
          break;
        default:
          targets.push_back(gen::GenerateConcept(sig, &f, rng,
                                                 concept_options));
      }
    }
    auto want = oracle.SubsumesBatch(c, targets);
    auto got = fast.SubsumesBatch(c, targets);
    if (!want.ok()) continue;  // resource caps hit both paths alike
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*want, *got) << "round " << round;
    for (size_t i = 0; i < targets.size(); ++i) {
      const bool reject = fast.prefilter().Check(c, targets[i]) ==
                          PreFilterVerdict::kReject;
      EXPECT_FALSE((*want)[i] && reject)
          << "FALSE REJECTION\n  C = " << ql::ConceptToString(f, c)
          << "\n  D = " << ql::ConceptToString(f, targets[i]);
      subsumed += (*want)[i] ? 1 : 0;
      rejected += reject ? 1 : 0;
    }
  }
  EXPECT_GT(subsumed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace oodb::calculus
