// Unit tests for SL schemas: axiom validation (the tractability frontier
// of Sect. 4.4 is enforced at construction), indexing, closure, size.
#include <gtest/gtest.h>

#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::schema {
namespace {

struct Fx {
  SymbolTable symbols;
  ql::TermFactory f{&symbols};
  Schema sigma{&f};

  Symbol S(const char* name) { return symbols.Intern(name); }
  ql::Attr A(const char* name, bool inv = false) {
    return ql::Attr{symbols.Intern(name), inv};
  }
};

std::vector<Symbol> Names(const std::vector<ClassRef>& classes) {
  std::vector<Symbol> names;
  for (const ClassRef& c : classes) names.push_back(c.name);
  return names;
}

TEST(Schema, AcceptsAllFourAxiomShapes) {
  Fx fx;
  EXPECT_TRUE(fx.sigma.AddIsA(fx.S("A"), fx.S("B")).ok());
  EXPECT_TRUE(fx.sigma.AddValueRestriction(fx.S("A"), fx.S("p"),
                                           fx.S("B")).ok());
  EXPECT_TRUE(fx.sigma.AddNecessary(fx.S("A"), fx.S("p")).ok());
  EXPECT_TRUE(fx.sigma.AddFunctional(fx.S("A"), fx.S("p")).ok());
  EXPECT_TRUE(fx.sigma.AddTyping(fx.S("p"), fx.S("A"), fx.S("B")).ok());
  EXPECT_EQ(fx.sigma.inclusions().size(), 4u);
  EXPECT_EQ(fx.sigma.typings().size(), 1u);
}

TEST(Schema, SplitsConjunctions) {
  Fx fx;
  ql::ConceptId d = fx.f.And(fx.f.Primitive("B"),
                             fx.f.ExistsAttr(fx.A("p")));
  EXPECT_TRUE(fx.sigma.AddInclusion(fx.S("A"), d).ok());
  EXPECT_EQ(fx.sigma.inclusions().size(), 2u);
}

TEST(Schema, DeduplicatesAxioms) {
  Fx fx;
  EXPECT_TRUE(fx.sigma.AddIsA(fx.S("A"), fx.S("B")).ok());
  EXPECT_TRUE(fx.sigma.AddIsA(fx.S("A"), fx.S("B")).ok());
  EXPECT_EQ(fx.sigma.inclusions().size(), 1u);
}

TEST(Schema, TopInclusionIsVacuous) {
  Fx fx;
  EXPECT_TRUE(fx.sigma.AddInclusion(fx.S("A"), fx.f.Top()).ok());
  EXPECT_TRUE(fx.sigma.inclusions().empty());
}

// The NP-hard extensions of Prop. 4.10 are rejected at the schema door.
TEST(Schema, RejectsQualifiedExistential) {
  Fx fx;
  ql::ConceptId d =
      fx.f.Exists(fx.f.Step(fx.A("p"), fx.f.Primitive("B")));
  auto s = fx.sigma.AddInclusion(fx.S("A"), d);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Schema, RejectsChainedExistential) {
  Fx fx;
  ql::ConceptId d = fx.f.Exists(fx.f.MakePath(
      {{fx.A("p"), fx.f.Top()}, {fx.A("q"), fx.f.Top()}}));
  EXPECT_FALSE(fx.sigma.AddInclusion(fx.S("A"), d).ok());
}

TEST(Schema, RejectsInverseAttributes) {
  Fx fx;
  EXPECT_FALSE(
      fx.sigma.AddInclusion(fx.S("A"), fx.f.ExistsAttr(fx.A("p", true)))
          .ok());
  EXPECT_FALSE(fx.sigma
                   .AddInclusion(fx.S("A"), fx.f.All(fx.A("p", true),
                                                     fx.f.Primitive("B")))
                   .ok());
  EXPECT_FALSE(
      fx.sigma.AddInclusion(fx.S("A"), fx.f.AtMostOne(fx.A("p", true))).ok());
}

TEST(Schema, RejectsSingleton) {
  Fx fx;
  EXPECT_FALSE(
      fx.sigma.AddInclusion(fx.S("A"), fx.f.Singleton("c")).ok());
}

TEST(Schema, RejectsAgreement) {
  Fx fx;
  ql::ConceptId d = fx.f.Agree(fx.f.Step(fx.A("p"), fx.f.Top()));
  EXPECT_FALSE(fx.sigma.AddInclusion(fx.S("A"), d).ok());
}

TEST(Schema, RejectsNonPrimitiveAllFiller) {
  Fx fx;
  ql::ConceptId filler = fx.f.And(fx.f.Primitive("B"), fx.f.Primitive("C"));
  EXPECT_FALSE(
      fx.sigma.AddInclusion(fx.S("A"), fx.f.All(fx.A("p"), filler)).ok());
}

TEST(Schema, IndexesSupportTheRules) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("A"), fx.S("B")).ok());
  ASSERT_TRUE(fx.sigma.AddValueRestriction(fx.S("A"), fx.S("p"),
                                           fx.S("C")).ok());
  ASSERT_TRUE(fx.sigma.AddNecessary(fx.S("A"), fx.S("p")).ok());
  ASSERT_TRUE(fx.sigma.AddFunctional(fx.S("A"), fx.S("q")).ok());
  ASSERT_TRUE(fx.sigma.AddTyping(fx.S("p"), fx.S("D"), fx.S("E")).ok());

  EXPECT_EQ(Names(fx.sigma.SuperPrimitives(fx.S("A"))),
            std::vector<Symbol>{fx.S("B")});
  EXPECT_EQ(fx.sigma.SuperPrimitives(fx.S("A"))[0].primitive,
            fx.f.Primitive("B"));
  EXPECT_EQ(Names(fx.sigma.ValueRestrictions(fx.S("A"), fx.S("p"))),
            std::vector<Symbol>{fx.S("C")});
  EXPECT_EQ(fx.sigma.ValueRestrictions(fx.S("A"), fx.S("p"))[0].primitive,
            fx.f.Primitive("C"));
  EXPECT_TRUE(fx.sigma.ValueRestrictions(fx.S("A"), fx.S("q")).empty());
  EXPECT_TRUE(fx.sigma.IsNecessaryFor(fx.S("A"), fx.S("p")));
  EXPECT_FALSE(fx.sigma.IsNecessaryFor(fx.S("A"), fx.S("q")));
  EXPECT_TRUE(fx.sigma.IsFunctionalFor(fx.S("A"), fx.S("q")));
  EXPECT_EQ(fx.sigma.NecessaryAttrs(fx.S("A")),
            std::vector<Symbol>{fx.S("p")});
  EXPECT_EQ(fx.sigma.FunctionalAttrs(fx.S("A")),
            std::vector<Symbol>{fx.S("q")});
  ASSERT_EQ(fx.sigma.TypingsOf(fx.S("p")).size(), 1u);
  EXPECT_EQ(fx.sigma.TypingsOf(fx.S("p"))[0].domain, fx.S("D"));
  EXPECT_EQ(fx.sigma.TypingsOf(fx.S("p"))[0].domain_concept,
            fx.f.Primitive("D"));
  EXPECT_EQ(fx.sigma.TypingsOf(fx.S("p"))[0].range_concept,
            fx.f.Primitive("E"));
}

TEST(Schema, TransitiveSuperClosure) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("A"), fx.S("B")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("B"), fx.S("C")).ok());
  auto closure = fx.sigma.SuperClassesTransitive(fx.S("A"));
  EXPECT_EQ(closure, (std::vector<Symbol>{fx.S("A"), fx.S("B"), fx.S("C")}));
}

TEST(Schema, MentionedSymbolsAndSize) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("A"), fx.S("B")).ok());
  ASSERT_TRUE(fx.sigma.AddNecessary(fx.S("A"), fx.S("p")).ok());
  ASSERT_TRUE(fx.sigma.AddTyping(fx.S("q"), fx.S("C"), fx.S("D")).ok());
  auto concepts = fx.sigma.MentionedConcepts();
  EXPECT_EQ(concepts.size(), 4u);  // A B C D
  auto attrs = fx.sigma.MentionedAttrs();
  EXPECT_EQ(attrs.size(), 2u);  // p q
  EXPECT_GT(fx.sigma.Size(), 0u);
}

// (7, 4093) and (2, 4) share a HashValues key, so an index keyed by the
// hash of a pair would answer for both.
TEST(Schema, PairIndexesAreKeyedByThePairItself) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddNecessary(Symbol(7), Symbol(4093)).ok());
  ASSERT_TRUE(fx.sigma.AddFunctional(Symbol(7), Symbol(4093)).ok());
  ASSERT_TRUE(
      fx.sigma.AddValueRestriction(Symbol(7), Symbol(4093), Symbol(9)).ok());
  EXPECT_TRUE(fx.sigma.IsNecessaryFor(Symbol(7), Symbol(4093)));
  EXPECT_TRUE(fx.sigma.IsFunctionalFor(Symbol(7), Symbol(4093)));
  EXPECT_FALSE(fx.sigma.IsNecessaryFor(Symbol(2), Symbol(4)));
  EXPECT_FALSE(fx.sigma.IsFunctionalFor(Symbol(2), Symbol(4)));
  EXPECT_TRUE(fx.sigma.ValueRestrictions(Symbol(2), Symbol(4)).empty());
}

TEST(Schema, AxiomsWithCollidingHashesAreBothKept) {
  Fx fx;
  // Primitive(Symbol(i)) gets concept id i + 1 in a fresh factory.
  for (uint32_t i = 1; i <= 4092; ++i) {
    ASSERT_EQ(fx.f.Primitive(Symbol(i)), i + 1);
  }
  ASSERT_TRUE(fx.sigma.AddIsA(Symbol(7), Symbol(4092)).ok());  // (7, 4093)
  ASSERT_TRUE(fx.sigma.AddIsA(Symbol(2), Symbol(3)).ok());     // (2, 4)
  EXPECT_EQ(fx.sigma.inclusions().size(), 2u);
  EXPECT_EQ(Names(fx.sigma.SuperPrimitives(Symbol(2))),
            std::vector<Symbol>{Symbol(3)});
}

}  // namespace
}  // namespace oodb::schema
