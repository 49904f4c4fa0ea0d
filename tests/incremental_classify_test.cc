// Randomized differential harness for incremental classification. The
// incremental DAG (Insert/Remove with local transitive-reduction repair)
// must stay BYTE-IDENTICAL — names, parents, children, equivalents,
// element for element — to a from-scratch Classify() oracle over the
// surviving names, after EVERY mutation, in both classifier modes.
// Failures print the seed and the step index, which reproduce the
// interleaving exactly (the whole round is a pure function of the seed).
#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "gen/generators.h"
#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::calculus {
namespace {

struct Fx {
  SymbolTable symbols;
  ql::TermFactory f{&symbols};
  schema::Schema sigma{&f};
  Symbol S(const char* name) { return symbols.Intern(name); }
};

void ExpectSameDag(const Classifier& want, const Classifier& got) {
  ASSERT_EQ(want.names(), got.names());
  for (Symbol name : want.names()) {
    ASSERT_EQ(want.Parents(name), got.Parents(name)) << "parents differ";
    ASSERT_EQ(want.Children(name), got.Children(name)) << "children differ";
    ASSERT_EQ(want.Equivalents(name), got.Equivalents(name))
        << "equivalents differ";
  }
}

// Compares `inc` against a fresh from-scratch classification of the same
// names in the same order (same mode as the oracle's, kPairwise, for
// maximal independence from the pruned search).
void ExpectMatchesFreshOracle(
    const Classifier& inc, const SubsumptionChecker& checker,
    const std::unordered_map<Symbol, ql::ConceptId>& concept_of) {
  Classifier oracle(checker, Classifier::Mode::kPairwise);
  for (Symbol name : inc.names()) {
    ASSERT_TRUE(oracle.Add(name, concept_of.at(name)).ok());
  }
  ASSERT_TRUE(oracle.Classify().ok());
  ASSERT_NO_FATAL_FAILURE(ExpectSameDag(oracle, inc));
}

void ExpectStatsSane(const Classifier& c) {
  const Classifier::ClassifyStats& st = c.classify_stats();
  const size_t n = c.names().size();
  ASSERT_EQ(st.concepts, n);
  ASSERT_EQ(st.pairwise_checks, n < 2 ? 0 : n * (n - 1));
  ASSERT_EQ(st.checks_avoided,
            st.pairwise_checks > st.checks_performed
                ? st.pairwise_checks - st.checks_performed
                : 0);
}

// One seeded interleaving: a pool of hierarchy-rich concepts (plus
// guaranteed equivalents), then random Insert/Remove steps — with
// occasional no-op Classify() calls sprinkled in — driving one
// incremental classifier per mode; after every mutation both are pinned
// against a from-scratch oracle and against each other.
void RunInterleaving(uint64_t seed) {
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  Rng rng(seed);
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);

  gen::CatalogGenOptions copt;
  copt.num_concepts = 12;
  copt.num_roots = 2;
  copt.fan_out = 2;
  copt.depth = 3;
  copt.noise_fraction = 0.2;
  gen::GeneratedCatalog cat = gen::GenerateCatalog(sig, &f, rng, copt);
  std::vector<Symbol> pool_names = cat.names;
  std::vector<ql::ConceptId> pool = cat.concepts;
  // Guaranteed multi-member equivalence classes: a duplicated concept
  // and a commuted ⊓ pair (distinct terms, Σ-equivalent).
  pool_names.push_back(symbols.Intern("Dup"));
  pool.push_back(pool[rng.Index(pool.size())]);
  const ql::ConceptId a = pool[rng.Index(pool.size())];
  const ql::ConceptId b = pool[rng.Index(pool.size())];
  pool_names.push_back(symbols.Intern("AndAB"));
  pool.push_back(f.And(a, b));
  pool_names.push_back(symbols.Intern("AndBA"));
  pool.push_back(f.And(b, a));

  std::unordered_map<Symbol, ql::ConceptId> concept_of;
  for (size_t i = 0; i < pool.size(); ++i) {
    concept_of[pool_names[i]] = pool[i];
  }

  // One shared checker: its memo makes the per-step oracles cheap.
  SubsumptionChecker checker(sigma);
  Classifier enhanced(checker, Classifier::Mode::kEnhancedTraversal);
  Classifier pairwise(checker, Classifier::Mode::kPairwise);

  std::vector<size_t> present;
  std::vector<size_t> absent(pool.size());
  std::iota(absent.begin(), absent.end(), size_t{0});

  const size_t steps = 12;
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(StrCat("seed=", seed, " step=", step));
    const bool insert =
        !absent.empty() && (present.empty() || rng.Bernoulli(0.65));
    if (insert) {
      size_t pick = rng.Index(absent.size());
      size_t idx = absent[pick];
      absent.erase(absent.begin() + pick);
      present.push_back(idx);
      SCOPED_TRACE(StrCat("op=insert ", symbols.Name(pool_names[idx])));
      ASSERT_TRUE(enhanced.Insert(pool_names[idx], pool[idx]).ok());
      ASSERT_TRUE(pairwise.Insert(pool_names[idx], pool[idx]).ok());
      // Exhaustive insertion checks every existing class twice; the
      // traversal never does more than that.
      const Classifier::OpStats& po = pairwise.last_op_stats();
      ASSERT_EQ(po.checks_performed, 2 * po.classes_before);
      const Classifier::OpStats& eo = enhanced.last_op_stats();
      ASSERT_LE(eo.checks_performed, 2 * eo.classes_before);
    } else {
      size_t pick = rng.Index(present.size());
      size_t idx = present[pick];
      present.erase(present.begin() + pick);
      absent.push_back(idx);
      SCOPED_TRACE(StrCat("op=remove ", symbols.Name(pool_names[idx])));
      ASSERT_TRUE(enhanced.Remove(pool_names[idx]).ok());
      ASSERT_TRUE(pairwise.Remove(pool_names[idx]).ok());
      // Removal repairs by reachability alone.
      ASSERT_EQ(enhanced.last_op_stats().checks_performed, 0u);
      ASSERT_EQ(pairwise.last_op_stats().checks_performed, 0u);
    }
    if (rng.Bernoulli(0.15)) {
      // Re-running Classify() with nothing pending must be a no-op.
      const size_t before = enhanced.classify_stats().checks_performed;
      ASSERT_TRUE(enhanced.Classify().ok());
      ASSERT_TRUE(pairwise.Classify().ok());
      ASSERT_EQ(enhanced.classify_stats().checks_performed, before);
    }

    ASSERT_EQ(enhanced.names(), pairwise.names());
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesFreshOracle(enhanced, checker, concept_of));
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesFreshOracle(pairwise, checker, concept_of));
    ASSERT_NO_FATAL_FAILURE(ExpectSameDag(enhanced, pairwise));
    ExpectStatsSane(enhanced);
    ExpectStatsSane(pairwise);
    ASSERT_EQ(enhanced.num_classes(), pairwise.num_classes());
  }
}

// 520 seeded interleavings total (split for ctest parallelism), each
// driving BOTH kEnhancedTraversal and kPairwise incremental classifiers
// against the from-scratch oracle after every mutation.
TEST(IncrementalClassify, RandomizedInterleavingsMatchOracleA) {
  for (uint64_t seed = 0; seed < 260; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunInterleaving(seed));
  }
}

TEST(IncrementalClassify, RandomizedInterleavingsMatchOracleB) {
  for (uint64_t seed = 260; seed < 520; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunInterleaving(seed));
  }
}

// Every name above `name` in the DAG, through Parents().
std::vector<Symbol> Ancestors(const Classifier& classifier, Symbol name) {
  std::vector<Symbol> out;
  std::vector<Symbol> stack = {name};
  while (!stack.empty()) {
    const Symbol y = stack.back();
    stack.pop_back();
    for (Symbol p : classifier.Parents(y)) {
      if (std::find(out.begin(), out.end(), p) != out.end()) continue;
      out.push_back(p);
      stack.push_back(p);
    }
  }
  return out;
}

// SubsumersOf runs Insert's top search over the classified DAG. On the
// interleaving generator's catalogs it returns exactly the classified
// names a flat scan finds, each before its DAG ancestors, and adds
// nothing to the check counters; a pending Add() is not searched.
TEST(IncrementalClassify, SubsumersOfMatchesFlatScanChildrenFirst) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE(StrCat("seed=", seed));
    SymbolTable symbols;
    ql::TermFactory f(&symbols);
    schema::Schema sigma(&f);
    Rng rng(seed);
    gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
    gen::CatalogGenOptions copt;
    copt.num_concepts = 12;
    copt.num_roots = 2;
    copt.fan_out = 2;
    copt.depth = 3;
    copt.noise_fraction = 0.2;
    gen::GeneratedCatalog cat = gen::GenerateCatalog(sig, &f, rng, copt);
    std::vector<ql::ConceptId> queries = cat.concepts;
    for (size_t i = 0; i < 4; ++i) {
      queries.push_back(gen::GenerateConcept(sig, &f, rng));
    }
    SubsumptionChecker checker(sigma);

    for (Classifier::Mode mode : {Classifier::Mode::kEnhancedTraversal,
                                  Classifier::Mode::kPairwise}) {
      Classifier classifier(checker, mode);
      std::vector<Symbol> classified;
      for (size_t i = 0; i < cat.names.size(); ++i) {
        if (!rng.Bernoulli(0.7)) continue;
        ASSERT_TRUE(classifier.Add(cat.names[i], cat.concepts[i]).ok());
        classified.push_back(cat.names[i]);
      }
      ASSERT_TRUE(classifier.Classify().ok());
      // ⊤ subsumes every query, but it is pending, so it is not found.
      ASSERT_TRUE(classifier.Add(symbols.Intern("Pending"), f.Top()).ok());
      const size_t checks = classifier.classify_stats().checks_performed;

      for (ql::ConceptId q : queries) {
        auto got = classifier.SubsumersOf(q);
        ASSERT_TRUE(got.ok()) << got.status();
        std::vector<Symbol> want;
        for (Symbol name : classified) {
          auto sub = checker.Subsumes(q, classifier.ConceptOf(name));
          ASSERT_TRUE(sub.ok()) << sub.status();
          if (*sub) want.push_back(name);
        }
        std::vector<Symbol> got_set = *got;
        auto by_id = [](Symbol a, Symbol b) { return a.id() < b.id(); };
        std::sort(got_set.begin(), got_set.end(), by_id);
        std::sort(want.begin(), want.end(), by_id);
        ASSERT_EQ(got_set, want);
        for (size_t i = 0; i < got->size(); ++i) {
          for (Symbol ancestor : Ancestors(classifier, (*got)[i])) {
            auto pos = std::find(got->begin(), got->end(), ancestor);
            ASSERT_GT(pos - got->begin(), static_cast<ptrdiff_t>(i))
                << symbols.Name(ancestor) << " precedes its descendant "
                << symbols.Name((*got)[i]);
          }
        }
      }
      EXPECT_EQ(classifier.classify_stats().checks_performed, checks);
    }
  }
}

TEST(IncrementalClassify, InsertOneByOneMatchesBatchOnChainDiamond) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("C2")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C2"), fx.S("C3")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("D2")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("D2"), fx.S("C3")).ok());
  SubsumptionChecker checker(fx.sigma);

  std::vector<std::pair<const char*, ql::ConceptId>> entries = {
      {"VTop", fx.f.Primitive("C3")},
      {"VLeft", fx.f.Primitive("C2")},
      {"VRight", fx.f.Primitive("D2")},
      {"VBottom", fx.f.Primitive("C1")},
      {"VAnd", fx.f.And(fx.f.Primitive("C2"), fx.f.Primitive("D2"))},
      {"VAndSwapped", fx.f.And(fx.f.Primitive("D2"), fx.f.Primitive("C2"))},
  };
  std::unordered_map<Symbol, ql::ConceptId> concept_of;
  for (const auto& [name, id] : entries) concept_of[fx.S(name)] = id;

  for (Classifier::Mode mode : {Classifier::Mode::kEnhancedTraversal,
                                Classifier::Mode::kPairwise}) {
    Classifier inc(checker, mode);
    for (const auto& [name, id] : entries) {
      ASSERT_TRUE(inc.Insert(fx.S(name), id).ok());
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesFreshOracle(inc, checker, concept_of));
    }
    // The pinned shape from classify_traversal_test still holds when the
    // DAG was grown one Insert() at a time.
    EXPECT_EQ(inc.Equivalents(fx.S("VAnd")),
              std::vector<Symbol>{fx.S("VAndSwapped")});
    std::vector<Symbol> want_parents = {fx.S("VAnd"), fx.S("VAndSwapped")};
    EXPECT_EQ(inc.Parents(fx.S("VBottom")), want_parents);
  }
}

TEST(IncrementalClassify, RemoveReconnectsChildrenToGrandparents) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("C2")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C2"), fx.S("C3")).ok());
  SubsumptionChecker checker(fx.sigma);
  Classifier inc(checker);
  ASSERT_TRUE(inc.Insert(fx.S("V1"), fx.f.Primitive("C1")).ok());
  ASSERT_TRUE(inc.Insert(fx.S("V2"), fx.f.Primitive("C2")).ok());
  ASSERT_TRUE(inc.Insert(fx.S("V3"), fx.f.Primitive("C3")).ok());
  ASSERT_EQ(inc.Parents(fx.S("V1")), std::vector<Symbol>{fx.S("V2")});

  // Removing the middle of the chain splices V1 under its grandparent.
  ASSERT_TRUE(inc.Remove(fx.S("V2")).ok());
  EXPECT_EQ(inc.Parents(fx.S("V1")), std::vector<Symbol>{fx.S("V3")});
  EXPECT_EQ(inc.Children(fx.S("V3")), std::vector<Symbol>{fx.S("V1")});
  EXPECT_EQ(inc.last_op_stats().edges_added, 1u);
  EXPECT_EQ(inc.num_classes(), 2u);

  // Removing the root leaves V1 parentless.
  ASSERT_TRUE(inc.Remove(fx.S("V3")).ok());
  EXPECT_TRUE(inc.Parents(fx.S("V1")).empty());
  EXPECT_EQ(inc.last_op_stats().edges_added, 0u);
}

// Names whose concept is ⊤ sit above every root: no parents, the former
// roots as children, each other's equivalents. They are ordinary named
// classes, whether they join before or after the catalog, and removing
// them leaves the roots parentless again.
TEST(IncrementalClassify, TopNamesSitAboveEveryRoot) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("C2")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("D1"), fx.S("D2")).ok());
  SubsumptionChecker checker(fx.sigma);
  const std::vector<std::pair<Symbol, ql::ConceptId>> catalog = {
      {fx.S("V1"), fx.f.Primitive("C1")},
      {fx.S("V2"), fx.f.Primitive("C2")},
      {fx.S("W1"), fx.f.Primitive("D1")},
      {fx.S("W2"), fx.f.Primitive("D2")},
  };
  const std::vector<Symbol> roots = {fx.S("V2"), fx.S("W2")};
  const Symbol t1 = fx.S("T1");
  const Symbol t2 = fx.S("T2");
  std::unordered_map<Symbol, ql::ConceptId> concept_of = {
      {t1, fx.f.Top()}, {t2, fx.f.Top()}, {fx.S("E"), fx.f.Primitive("E")}};
  for (const auto& [name, id] : catalog) concept_of[name] = id;

  for (Classifier::Mode mode : {Classifier::Mode::kEnhancedTraversal,
                                Classifier::Mode::kPairwise}) {
    for (const bool tops_first : {true, false}) {
      SCOPED_TRACE(StrCat("pairwise=", mode == Classifier::Mode::kPairwise,
                          " tops_first=", tops_first));
      Classifier inc(checker, mode);
      auto insert = [&](Symbol name) {
        ASSERT_TRUE(inc.Insert(name, concept_of.at(name)).ok());
        ASSERT_NO_FATAL_FAILURE(
            ExpectMatchesFreshOracle(inc, checker, concept_of));
      };
      if (tops_first) {
        ASSERT_NO_FATAL_FAILURE(insert(t1));
        ASSERT_NO_FATAL_FAILURE(insert(t2));
      }
      for (const auto& entry : catalog) {
        ASSERT_NO_FATAL_FAILURE(insert(entry.first));
      }
      if (!tops_first) {
        ASSERT_NO_FATAL_FAILURE(insert(t1));
        EXPECT_EQ(inc.last_op_stats().edges_added, roots.size());
        ASSERT_NO_FATAL_FAILURE(insert(t2));
        EXPECT_EQ(inc.last_op_stats().edges_added, 0u);
      }
      EXPECT_EQ(inc.num_classes(), catalog.size() + 1);
      for (Symbol t : {t1, t2}) {
        EXPECT_TRUE(inc.Parents(t).empty());
        EXPECT_EQ(inc.Children(t), roots);
      }
      EXPECT_EQ(inc.Equivalents(t1), std::vector<Symbol>{t2});
      const std::vector<Symbol> tops = {t1, t2};
      for (Symbol root : roots) EXPECT_EQ(inc.Parents(root), tops);

      ASSERT_TRUE(inc.Remove(t1).ok());
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesFreshOracle(inc, checker, concept_of));
      for (Symbol root : roots) {
        EXPECT_EQ(inc.Parents(root), std::vector<Symbol>{t2});
      }
      ASSERT_TRUE(inc.Remove(t2).ok());
      EXPECT_EQ(inc.last_op_stats().edges_added, 0u);
      EXPECT_EQ(inc.num_classes(), catalog.size());
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesFreshOracle(inc, checker, concept_of));
      for (Symbol root : roots) EXPECT_TRUE(inc.Parents(root).empty());
      // The DAG is still whole: a new root joins beside the old ones.
      ASSERT_NO_FATAL_FAILURE(insert(fx.S("E")));
      EXPECT_TRUE(inc.Parents(fx.S("E")).empty());
      EXPECT_TRUE(inc.Children(fx.S("E")).empty());
    }
  }
}

TEST(IncrementalClassify, RemoveInDiamondAddsNoRedundantEdge) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("C2")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C2"), fx.S("C3")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("D2")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("D2"), fx.S("C3")).ok());
  SubsumptionChecker checker(fx.sigma);
  Classifier inc(checker);
  ASSERT_TRUE(inc.Insert(fx.S("VTop"), fx.f.Primitive("C3")).ok());
  ASSERT_TRUE(inc.Insert(fx.S("VLeft"), fx.f.Primitive("C2")).ok());
  ASSERT_TRUE(inc.Insert(fx.S("VRight"), fx.f.Primitive("D2")).ok());
  ASSERT_TRUE(inc.Insert(fx.S("VBottom"), fx.f.Primitive("C1")).ok());

  // VBottom still reaches VTop through VRight, so deleting VLeft must
  // NOT add a VBottom→VTop edge (it would be redundant).
  ASSERT_TRUE(inc.Remove(fx.S("VLeft")).ok());
  EXPECT_EQ(inc.Parents(fx.S("VBottom")), std::vector<Symbol>{fx.S("VRight")});
  EXPECT_EQ(inc.last_op_stats().edges_added, 0u);

  // Now the path is gone: deleting VRight reconnects VBottom to VTop.
  ASSERT_TRUE(inc.Remove(fx.S("VRight")).ok());
  EXPECT_EQ(inc.Parents(fx.S("VBottom")), std::vector<Symbol>{fx.S("VTop")});
  EXPECT_EQ(inc.last_op_stats().edges_added, 1u);
}

TEST(IncrementalClassify, RemoveFromEquivalenceClassReanchorsTheRep) {
  Fx fx;
  SubsumptionChecker checker(fx.sigma);
  Classifier inc(checker);
  ql::ConceptId ab = fx.f.And(fx.f.Primitive("A"), fx.f.Primitive("B"));
  ql::ConceptId ba = fx.f.And(fx.f.Primitive("B"), fx.f.Primitive("A"));
  ASSERT_TRUE(inc.Insert(fx.S("AB"), ab).ok());
  ASSERT_TRUE(inc.Insert(fx.S("BA"), ba).ok());
  ASSERT_EQ(inc.Equivalents(fx.S("AB")), std::vector<Symbol>{fx.S("BA")});
  ASSERT_EQ(inc.num_classes(), 1u);

  // The class survives the removal of a member...
  ASSERT_TRUE(inc.Remove(fx.S("AB")).ok());
  EXPECT_TRUE(inc.Equivalents(fx.S("BA")).empty());
  EXPECT_EQ(inc.num_classes(), 1u);
  // ...and later insertions classify against the re-anchored rep.
  ql::ConceptId abc = fx.f.And(ab, fx.f.Primitive("C"));
  ASSERT_TRUE(inc.Insert(fx.S("ABC"), abc).ok());
  EXPECT_EQ(inc.Parents(fx.S("ABC")), std::vector<Symbol>{fx.S("BA")});
}

TEST(IncrementalClassify, RemoveThenReinsertMovesNameToTheEnd) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("C2")).ok());
  SubsumptionChecker checker(fx.sigma);
  std::unordered_map<Symbol, ql::ConceptId> concept_of = {
      {fx.S("V1"), fx.f.Primitive("C1")},
      {fx.S("V2"), fx.f.Primitive("C2")},
  };
  Classifier inc(checker);
  ASSERT_TRUE(inc.Insert(fx.S("V1"), concept_of.at(fx.S("V1"))).ok());
  ASSERT_TRUE(inc.Insert(fx.S("V2"), concept_of.at(fx.S("V2"))).ok());
  ASSERT_TRUE(inc.Remove(fx.S("V1")).ok());
  ASSERT_TRUE(inc.Insert(fx.S("V1"), concept_of.at(fx.S("V1"))).ok());
  std::vector<Symbol> want = {fx.S("V2"), fx.S("V1")};
  EXPECT_EQ(inc.names(), want);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshOracle(inc, checker, concept_of));
}

// Satellite: the "idempotent; re-runs after further insertions" contract
// of Classify(). Re-classifying after Add() on an already-classified
// instance must match a fresh classifier over the union, and a Classify()
// with nothing pending must not issue any checks.
TEST(IncrementalClassify, ClassifyRerunAfterAddMatchesFreshClassifier) {
  Fx fx;
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C1"), fx.S("C2")).ok());
  ASSERT_TRUE(fx.sigma.AddIsA(fx.S("C2"), fx.S("C3")).ok());
  SubsumptionChecker checker(fx.sigma);
  std::unordered_map<Symbol, ql::ConceptId> concept_of = {
      {fx.S("V1"), fx.f.Primitive("C1")},
      {fx.S("V2"), fx.f.Primitive("C2")},
      {fx.S("V3"), fx.f.Primitive("C3")},
  };

  Classifier inc(checker);
  ASSERT_TRUE(inc.Add(fx.S("V1"), concept_of.at(fx.S("V1"))).ok());
  ASSERT_TRUE(inc.Classify().ok());
  EXPECT_TRUE(inc.Parents(fx.S("V1")).empty());

  // Idempotent: nothing pending, nothing checked, nothing changed.
  const size_t checks_before = inc.classify_stats().checks_performed;
  ASSERT_TRUE(inc.Classify().ok());
  EXPECT_EQ(inc.classify_stats().checks_performed, checks_before);

  // Re-runs after further insertions: both pending names join the DAG.
  ASSERT_TRUE(inc.Add(fx.S("V3"), concept_of.at(fx.S("V3"))).ok());
  ASSERT_TRUE(inc.Add(fx.S("V2"), concept_of.at(fx.S("V2"))).ok());
  // Until Classify(), pending names have empty lists.
  EXPECT_TRUE(inc.Parents(fx.S("V2")).empty());
  ASSERT_TRUE(inc.Classify().ok());
  EXPECT_EQ(inc.Parents(fx.S("V1")), std::vector<Symbol>{fx.S("V2")});
  EXPECT_EQ(inc.Parents(fx.S("V2")), std::vector<Symbol>{fx.S("V3")});
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshOracle(inc, checker, concept_of));
  ExpectStatsSane(inc);
}

TEST(IncrementalClassify, ErrorsAndPendingRemovals) {
  Fx fx;
  SubsumptionChecker checker(fx.sigma);
  Classifier inc(checker);
  EXPECT_FALSE(inc.Remove(fx.S("Nope")).ok());
  ASSERT_TRUE(inc.Insert(fx.S("V"), fx.f.Primitive("A")).ok());
  EXPECT_FALSE(inc.Insert(fx.S("V"), fx.f.Primitive("B")).ok());
  EXPECT_TRUE(inc.Contains(fx.S("V")));
  EXPECT_EQ(inc.ConceptOf(fx.S("V")), fx.f.Primitive("A"));

  // Removing a pending (never-classified) Add just forgets it.
  ASSERT_TRUE(inc.Add(fx.S("W"), fx.f.Primitive("B")).ok());
  ASSERT_TRUE(inc.Remove(fx.S("W")).ok());
  EXPECT_FALSE(inc.Contains(fx.S("W")));
  ASSERT_TRUE(inc.Classify().ok());
  EXPECT_EQ(inc.names(), std::vector<Symbol>{fx.S("V")});
}

}  // namespace
}  // namespace oodb::calculus
