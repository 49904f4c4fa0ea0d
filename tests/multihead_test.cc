// Tests for complex answers (Sect. 6 open problem): multi-head CQ
// translation of query classes, tuple containment, and containment up to
// permutation of output parameters; and a differential test of the
// query-class translator against the QL translator.
#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "base/strings.h"
#include "cq/cq.h"
#include "dl/analyzer.h"
#include "dl/frontend.h"
#include "gen/dl_gen.h"

namespace oodb::cq {
namespace {

constexpr const char* kSource = R"(
Class Person with
  attribute
    parent: Person
    employer: Company
end Person
Class Company with
end Company

// Answer tuple: (this, the parent, the employer).
QueryClass FamilyJobs isA Person with
  derived
    p: (parent: Person)
    e: (employer: Company)
end FamilyJobs

// The same query with the labels declared in the opposite order: the
// answer tuples are permutations of each other.
QueryClass JobsFamily isA Person with
  derived
    e: (employer: Company)
    p: (parent: Person)
end JobsFamily

// Narrower: the parent works at the same company (a join).
QueryClass FamilyFirm isA Person with
  derived
    p: (parent: Person)
    e: (employer: Company)
    l1: (parent: Person).(employer: Company)
  where
    l1 = e
end FamilyFirm

// A single-head query (no labels).
QueryClass Employed isA Person with
  derived
    (employer: Company)
end Employed

// Non-structural query classes cannot export tuples.
QueryClass Odd isA Person with
  constraint:
    not (this in Company)
end Odd
)";

struct Fx {
  SymbolTable symbols;
  std::unique_ptr<dl::Model> model;

  explicit Fx(const char* source = kSource) {
    auto m = dl::ParseAndAnalyze(source, &symbols);
    EXPECT_TRUE(m.ok()) << m.status();
    model = std::make_unique<dl::Model>(std::move(m).value());
  }

  ConjunctiveQuery Q(const char* name) {
    auto q = QueryClassToCq(*model, symbols.Find(name), &symbols);
    EXPECT_TRUE(q.ok()) << q.status();
    return *q;
  }
};

TEST(MultiHead, TranslationExportsLabelsInOrder) {
  Fx fx;
  ConjunctiveQuery q = fx.Q("FamilyJobs");
  ASSERT_EQ(q.heads.size(), 3u);
  EXPECT_EQ(fx.symbols.Name(q.head_names[0]), "this");
  EXPECT_EQ(fx.symbols.Name(q.head_names[1]), "p");
  EXPECT_EQ(fx.symbols.Name(q.head_names[2]), "e");
  EXPECT_EQ(q.binary.size(), 2u);
  EXPECT_GE(q.unary.size(), 3u);  // Person(this), Person(p), Company(e)
}

TEST(MultiHead, WhereEqualitiesUnifyHeads) {
  Fx fx;
  ConjunctiveQuery q = fx.Q("FamilyFirm");
  // Heads: this, p, e, l1 — with l1 unified into e.
  ASSERT_EQ(q.heads.size(), 4u);
  EXPECT_EQ(q.heads[2], q.heads[3]);
}

TEST(MultiHead, RejectsNonStructuralQueries) {
  Fx fx;
  auto q = QueryClassToCq(*fx.model, fx.symbols.Find("Odd"), &fx.symbols);
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MultiHead, SelfContainmentAndHeadCountMismatch) {
  Fx fx;
  ConjunctiveQuery family = fx.Q("FamilyJobs");
  ConjunctiveQuery employed = fx.Q("Employed");
  EXPECT_TRUE(CqContained(family, family));
  // Different arity: never contained.
  EXPECT_FALSE(CqContained(family, employed));
}

TEST(MultiHead, JoinNarrowsTheTupleSet) {
  Fx fx;
  ConjunctiveQuery family = fx.Q("FamilyJobs");
  ConjunctiveQuery firm = fx.Q("FamilyFirm");
  // FamilyFirm exports (this, p, e, l1≡e): drop to the comparable prefix
  // by constructing the projection manually.
  ConjunctiveQuery firm3 = firm;
  firm3.heads.resize(3);
  firm3.head_names.resize(3);
  // Every family-firm tuple is a family-jobs tuple…
  EXPECT_TRUE(CqContained(firm3, family));
  // …but not conversely (the join is extra).
  EXPECT_FALSE(CqContained(family, firm3));
}

TEST(MultiHead, PermutationDetectsReorderedParameters) {
  Fx fx;
  ConjunctiveQuery pq = fx.Q("FamilyJobs");  // (this, p, e)
  ConjunctiveQuery qp = fx.Q("JobsFamily");  // (this, e, p)
  // Positionally the tuples differ (a parent is not an employer)…
  EXPECT_FALSE(CqContained(pq, qp));
  EXPECT_FALSE(CqContained(qp, pq));
  // …but a permutation of the output parameters aligns them — the
  // "additional subsumptions" the paper predicts.
  auto pi = ContainedUnderPermutation(pq, qp);
  ASSERT_TRUE(pi.has_value());
  EXPECT_EQ(*pi, (std::vector<size_t>{0, 2, 1}));
  auto pi_back = ContainedUnderPermutation(qp, pq);
  ASSERT_TRUE(pi_back.has_value());
}

TEST(MultiHead, PermutationRespectsTypes) {
  Fx fx;
  // FamilyJobs vs itself: the identity permutation works; swapping p/e
  // must NOT be reported as the found permutation since types differ…
  ConjunctiveQuery pq = fx.Q("FamilyJobs");
  auto pi = ContainedUnderPermutation(pq, pq);
  ASSERT_TRUE(pi.has_value());
  EXPECT_EQ(*pi, (std::vector<size_t>{0, 1, 2}));
}

TEST(MultiHead, ToStringRendersTuple) {
  Fx fx;
  std::string s = fx.Q("FamilyJobs").ToString(fx.symbols);
  EXPECT_NE(s.find("q("), std::string::npos);
  EXPECT_NE(s.find("parent("), std::string::npos);
  EXPECT_NE(s.find("employer("), std::string::npos);
}

// Constant filters and `where` joins bind terms under the unique-name
// assumption.
constexpr const char* kConstantsSource = R"(
Class Person with
  attribute
    likes: Person
    knows: Person
    friend: Person
end Person

// A join of two labels that end in distinct constants: no answers.
QueryClass Clash isA Person with
  derived
    l1: (likes: {alice})
    l2: (knows: {bob})
  where
    l1 = l2
end Clash

QueryClass Alice isA Person with
  derived
    l1: (likes: {alice})
    l2: (knows: {alice})
end Alice

// A join onto a label that ends in {bob}: l1 is bob too.
QueryClass Joined isA Person with
  derived
    l1: (likes: Person)
    l2: (knows: {bob})
    l3: (friend: {bob})
  where
    l1 = l2
end Joined

QueryClass Direct isA Person with
  derived
    l1: (likes: {bob})
    l2: (knows: {bob})
    l3: (friend: {bob})
end Direct
)";

TEST(MultiHead, JoinOfDistinctConstantsIsInconsistent) {
  Fx fx(kConstantsSource);
  ConjunctiveQuery clash = fx.Q("Clash");
  ConjunctiveQuery alice = fx.Q("Alice");
  EXPECT_TRUE(clash.inconsistent);
  EXPECT_FALSE(alice.inconsistent);
  EXPECT_FALSE(CqContained(alice, clash));
  EXPECT_TRUE(CqContained(clash, alice));
  EXPECT_FALSE(ContainedUnderPermutation(alice, clash).has_value());
}

TEST(MultiHead, JoinOntoAConstantKeepsTheConstant) {
  Fx fx(kConstantsSource);
  ConjunctiveQuery joined = fx.Q("Joined");
  ConjunctiveQuery direct = fx.Q("Direct");
  const CqTerm bob = CqTerm::Const(fx.symbols.Find("bob"));
  // q(v, bob, bob, bob) :- Person(v), likes(v, bob), Person(bob),
  //                        knows(v, bob), friend(v, bob)
  ASSERT_EQ(joined.heads.size(), 4u);
  EXPECT_EQ(joined.heads[1], bob);
  EXPECT_EQ(joined.heads[2], bob);
  EXPECT_EQ(joined.heads[3], bob);
  EXPECT_EQ(joined.Variables().size(), 1u);
  ASSERT_EQ(joined.binary.size(), 3u);
  for (const BinaryAtom& atom : joined.binary) EXPECT_EQ(atom.rhs, bob);
  // Joined adds Person(bob) to Direct.
  EXPECT_TRUE(CqContained(joined, direct));
  EXPECT_FALSE(CqContained(direct, joined));
}

// The query-class translator against the QL translator on random worlds
// whose queries join two labeled paths half the time: projected to its
// answer object, a query class's CQ must be contained in another's
// exactly when the CQs of their QL concepts are. The generator emits no
// constants; the tests above cover them.
TEST(MultiHead, ProjectionAgreesWithTheConceptTranslator) {
  size_t strictly_contained = 0;
  for (uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    gen::DlGenOptions options;
    // Few classes and attributes, so that distinct queries are often
    // contained in one another.
    options.num_classes = 3;
    options.num_attrs = 2;
    options.filter_prob = 0.3;
    options.num_queries = 24;
    options.where_prob = 0.5;
    const gen::GeneratedDl world = gen::GenerateDlSource(rng, options);
    dl::Frontend front;
    ASSERT_EQ(front.Load(world.source), Status::Ok());

    std::vector<ConjunctiveQuery> by_class, by_concept;
    for (const std::string& name : world.query_names) {
      const Symbol cls = front.symbols.Find(name);
      auto q = QueryClassToCq(*front.model, cls, &front.symbols);
      ASSERT_TRUE(q.ok()) << name << ": " << q.status();
      q->heads.resize(1);
      q->head_names.resize(1);
      by_class.push_back(*std::move(q));
      auto c = front.translator->ClassConcept(cls);
      ASSERT_TRUE(c.ok()) << name << ": " << c.status();
      auto cq = ConceptToCq(*front.terms, *c, &front.symbols);
      ASSERT_TRUE(cq.ok()) << name << ": " << cq.status();
      by_concept.push_back(*std::move(cq));
    }
    for (size_t i = 0; i < by_class.size(); ++i) {
      EXPECT_TRUE(CqEquivalent(by_class[i], by_concept[i]))
          << world.query_names[i];
      for (size_t j = 0; j < by_class.size(); ++j) {
        const bool want = CqContained(by_concept[i], by_concept[j]);
        EXPECT_EQ(CqContained(by_class[i], by_class[j]), want)
            << world.query_names[i] << " ⊆ " << world.query_names[j];
        if (want && i != j) ++strictly_contained;
      }
    }
  }
  EXPECT_GT(strictly_contained, 24u);
}

}  // namespace
}  // namespace oodb::cq
