// Unit tests for the term system: hash-consing, simplification, path
// algebra (inversion, agreement normalization), path cells, metrics,
// printing, and the FOL translation of Table 1 column 2.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "gen/generators.h"
#include "ql/fol.h"
#include "ql/print.h"
#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::ql {
namespace {

struct Fx {
  SymbolTable symbols;
  TermFactory f{&symbols};

  ConceptId P(const char* name) { return f.Primitive(name); }
  Attr A(const char* name, bool inv = false) {
    return Attr{symbols.Intern(name), inv};
  }
};

TEST(TermFactory, HashConsingGivesEqualIds) {
  Fx fx;
  EXPECT_EQ(fx.P("A"), fx.P("A"));
  EXPECT_EQ(fx.f.And(fx.P("A"), fx.P("B")), fx.f.And(fx.P("A"), fx.P("B")));
  EXPECT_NE(fx.f.And(fx.P("A"), fx.P("B")), fx.f.And(fx.P("B"), fx.P("A")));
}

TEST(TermFactory, AndSimplifications) {
  Fx fx;
  ConceptId a = fx.P("A");
  EXPECT_EQ(fx.f.And(a, fx.f.Top()), a);
  EXPECT_EQ(fx.f.And(fx.f.Top(), a), a);
  EXPECT_EQ(fx.f.And(a, a), a);
}

TEST(TermFactory, AndAllFoldsRight) {
  Fx fx;
  ConceptId c = fx.f.AndAll({fx.P("A"), fx.P("B"), fx.P("C")});
  const ConceptNode& n = fx.f.node(c);
  ASSERT_EQ(n.kind, ConceptKind::kAnd);
  EXPECT_EQ(n.lhs, fx.P("A"));
  EXPECT_EQ(fx.f.node(n.rhs).lhs, fx.P("B"));
  EXPECT_EQ(fx.f.AndAll({}), fx.f.Top());
  EXPECT_EQ(fx.f.AndAll({fx.P("A")}), fx.P("A"));
}

TEST(TermFactory, PathInterning) {
  Fx fx;
  PathId p1 = fx.f.MakePath({{fx.A("a"), fx.P("A")}});
  PathId p2 = fx.f.MakePath({{fx.A("a"), fx.P("A")}});
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, fx.f.MakePath({{fx.A("a", true), fx.P("A")}}));
}

TEST(TermFactory, PathAlgebra) {
  Fx fx;
  PathId p = fx.f.MakePath(
      {{fx.A("a"), fx.P("A")}, {fx.A("b"), fx.P("B")}});
  EXPECT_EQ(fx.f.Suffix(p, 0), p);
  EXPECT_EQ(fx.f.Suffix(p, 1), fx.f.MakePath({{fx.A("b"), fx.P("B")}}));
  EXPECT_EQ(fx.f.Suffix(p, 2), fx.f.EmptyPath());
  EXPECT_EQ(fx.f.Concat(fx.f.EmptyPath(), p), p);
  EXPECT_EQ(fx.f.Concat(p, fx.f.EmptyPath()), p);
  EXPECT_EQ(fx.f.Cons({fx.A("a"), fx.P("A")},
                      fx.f.MakePath({{fx.A("b"), fx.P("B")}})),
            p);
}

TEST(TermFactory, InvertPathShiftsFilters) {
  Fx fx;
  // q = (a:A)(b:B)(c:C)  ⇒  q̃ = (c⁻¹:B)(b⁻¹:A)(a⁻¹:⊤), entry = C.
  PathId q = fx.f.MakePath({{fx.A("a"), fx.P("A")},
                            {fx.A("b"), fx.P("B")},
                            {fx.A("c"), fx.P("C")}});
  auto [inv, entry] = fx.f.InvertPath(q);
  EXPECT_EQ(entry, fx.P("C"));
  EXPECT_EQ(PathToString(fx.f, inv), "(c^-1: B)(b^-1: A)(a^-1: ⊤)");
}

TEST(TermFactory, AgreePairDegenerateCases) {
  Fx fx;
  PathId p = fx.f.MakePath({{fx.A("a"), fx.P("A")}});
  EXPECT_EQ(fx.f.AgreePair(p, fx.f.EmptyPath()), fx.f.Agree(p));
  EXPECT_EQ(fx.f.AgreePair(fx.f.EmptyPath(), p), fx.f.Agree(p));
}

TEST(TermFactory, AgreePairMergesEntryFilterIdempotently) {
  Fx fx;
  // p ends in Disease, q ends in Disease: the merged filter stays Disease
  // (the paper's G₁ rewriting).
  PathId p = fx.f.MakePath({{fx.A("a"), fx.P("Disease")}});
  PathId q = fx.f.MakePath({{fx.A("b"), fx.P("Disease")}});
  ConceptId agree = fx.f.AgreePair(p, q);
  EXPECT_EQ(ConceptToString(fx.f, agree),
            "∃(a: Disease)(b^-1: ⊤) ≐ ε");
}

// A factory with a generated schema. A padded one first interns 2^16 + 1
// concepts and paths, so that every id drawn afterwards needs more than
// 16 bits.
struct CellFx {
  SymbolTable symbols;
  TermFactory f{&symbols};
  schema::Schema sigma{&f};
  gen::GeneratedSchema sig;
  Rng rng{26};

  explicit CellFx(bool padded) {
    if (padded) {
      const Attr pad{symbols.Intern("pad"), false};
      for (uint32_t i = 0; i <= (1u << 16); ++i) {
        f.Step(pad, f.Primitive(StrCat("Pad", i)));
      }
    }
    sig = gen::GenerateSchema(&sigma, rng);
  }

  // Restriction lists of one to five steps over the schema's attributes,
  // with filters from gen::GenerateConcept or ⊤, so that lists share
  // attributes, filters and suffixes.
  std::vector<std::vector<Restriction>> Draw(size_t n) {
    std::vector<std::vector<Restriction>> lists;
    for (size_t i = 0; i < n; ++i) {
      std::vector<Restriction> steps(1 + rng.Index(5));
      for (Restriction& r : steps) {
        const Symbol attr = sig.attrs[rng.Index(sig.attrs.size())];
        r.attr = Attr{attr, rng.Bernoulli(0.3)};
        r.filter = f.Top();
        if (rng.Bernoulli(0.6)) r.filter = gen::GenerateConcept(sig, &f, rng);
      }
      lists.push_back(std::move(steps));
    }
    return lists;
  }
};

std::vector<Restriction> Join(std::vector<Restriction> p,
                              const std::vector<Restriction>& q) {
  p.insert(p.end(), q.begin(), q.end());
  return p;
}

TEST(TermFactory, PathCellsHoldWhatMakePathWasGiven) {
  for (bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "padded past 2^16 ids" : "fresh factory");
    CellFx fx(padded);
    TermFactory& f = fx.f;
    for (const std::vector<Restriction>& steps : fx.Draw(200)) {
      const PathId p = f.MakePath(steps);
      std::vector<Restriction> walked;
      for (const Restriction& r : f.path(p)) walked.push_back(r);
      EXPECT_EQ(walked, steps);

      // Suffixes walk tails: they intern nothing and are the paths of
      // the last n - k restrictions.
      const size_t cells = f.num_paths();
      std::vector<PathId> suffixes;
      for (size_t k = 0; k <= steps.size(); ++k) {
        suffixes.push_back(f.Suffix(p, k));
      }
      EXPECT_EQ(f.num_paths(), cells);
      for (size_t k = 0; k <= steps.size(); ++k) {
        EXPECT_EQ(suffixes[k], f.MakePath({steps.begin() + k, steps.end()}));
      }
      EXPECT_EQ(f.num_paths(), cells);

      // A new first step in front of an interned path is one new cell.
      const Attr fresh{fx.symbols.Fresh("step"), false};
      const Restriction step{fresh, f.Top()};
      const PathId longer = f.MakePath(Join({step}, steps));
      EXPECT_EQ(f.num_paths(), cells + 1);
      EXPECT_EQ(f.head(longer), step);
      EXPECT_EQ(f.tail(longer), p);
      EXPECT_EQ(f.Cons(step, p), longer);
      EXPECT_EQ(f.num_paths(), cells + 1);
    }
  }
}

// Concat, InvertPath and AgreePair against the same terms built from
// restriction vectors; the inversion shifts each filter one step back
// (docs/calculus.md, "Data model").
TEST(TermFactory, PathAlgebraMatchesVectorReference) {
  for (bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "padded past 2^16 ids" : "fresh factory");
    CellFx fx(padded);
    TermFactory& f = fx.f;
    const auto lists = fx.Draw(100);
    for (size_t i = 0; i + 1 < lists.size(); ++i) {
      const std::vector<Restriction>& ps = lists[i];
      const std::vector<Restriction>& qs = lists[i + 1];
      const PathId p = f.MakePath(ps);
      const PathId q = f.MakePath(qs);
      EXPECT_EQ(f.Concat(p, q), f.MakePath(Join(ps, qs)));

      std::vector<Restriction> inverted;
      for (size_t k = qs.size(); k-- > 0;) {
        const ConceptId before = k == 0 ? f.Top() : qs[k - 1].filter;
        inverted.push_back(Restriction{qs[k].attr.Inverse(), before});
      }
      const auto [q_inv, entry] = f.InvertPath(q);
      EXPECT_EQ(q_inv, f.MakePath(inverted));
      EXPECT_EQ(entry, qs.back().filter);

      std::vector<Restriction> strengthened = ps;
      strengthened.back().filter = f.And(ps.back().filter, entry);
      const PathId joined = f.MakePath(Join(strengthened, inverted));
      EXPECT_EQ(f.AgreePair(p, q), f.Agree(joined));
    }
  }
}

// Readers walk cursors over paths made before they started and ask for
// their ∃p, while writers intern paths that end in suffixes of the same
// paths. The writers intern the same paths in different orders, so they
// also race to create the same cells.
TEST(TermFactory, ConcurrentCursorsWhileInterning) {
  constexpr size_t kReaders = 2;
  constexpr size_t kWriters = 2;
  constexpr size_t kMade = 3000;  // spans more than one storage chunk
  CellFx fx(/*padded=*/false);
  TermFactory& f = fx.f;
  const auto lists = fx.Draw(64);
  std::vector<PathId> paths;
  for (const auto& steps : lists) paths.push_back(f.MakePath(steps));
  // Path n of a writer: a fresh first step, then a suffix of a drawn path.
  auto made_steps = [&](size_t n) {
    const std::vector<Restriction>& steps = lists[n % lists.size()];
    const Attr attr{fx.symbols.Intern(StrCat("w", n)), n % 2 == 1};
    const auto from = steps.begin() + n % steps.size();
    return Join({Restriction{attr, f.Top()}}, {from, steps.end()});
  };

  const std::vector<ConceptId> unset(paths.size());
  std::vector<std::vector<ConceptId>> exists(kReaders, unset);
  std::vector<std::vector<PathId>> made(kWriters, std::vector<PathId>(kMade));
  // Every thread starts once all of them are running.
  std::atomic<size_t> ready{0};
  auto start_together = [&] {
    ready.fetch_add(1);
    while (ready.load() < kReaders + kWriters) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      start_together();
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < paths.size(); ++i) {
          size_t k = 0;
          for (const Restriction& r : f.path(paths[i])) {
            ASSERT_LT(k, lists[i].size());
            ASSERT_EQ(r, lists[i][k++]);
          }
          ASSERT_EQ(k, lists[i].size());
          exists[t][i] = f.Exists(paths[i]);
        }
      }
    });
  }
  for (size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      start_together();
      for (size_t j = 0; j < kMade; ++j) {
        const size_t n = (j + t * kMade / kWriters) % kMade;
        made[t][n] = f.MakePath(made_steps(n));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(exists[1][i], exists[0][i]);
    EXPECT_EQ(f.node(exists[0][i]).kind, ConceptKind::kExists);
    EXPECT_EQ(f.node(exists[0][i]).path, paths[i]);
  }
  EXPECT_EQ(made[1], made[0]);
  for (size_t n = 0; n < kMade; ++n) {
    const PathId p = made[0][n];
    EXPECT_EQ(f.Restrictions(p), made_steps(n));
    const size_t from = n % lists[n % lists.size()].size();
    EXPECT_EQ(f.tail(p), f.Suffix(paths[n % lists.size()], from));
  }
}

TEST(TermFactory, ConceptSizeCountsPathsAndFilters) {
  Fx fx;
  EXPECT_EQ(fx.f.ConceptSize(fx.f.Top()), 1u);
  EXPECT_EQ(fx.f.ConceptSize(fx.P("A")), 1u);
  ConceptId c = fx.f.And(fx.P("A"), fx.P("B"));
  EXPECT_EQ(fx.f.ConceptSize(c), 2u);
  ConceptId e = fx.f.Exists(
      fx.f.MakePath({{fx.A("a"), fx.P("A")}, {fx.A("b"), fx.f.Top()}}));
  // 1 (∃) + (1 + 1) + (1 + 1).
  EXPECT_EQ(fx.f.ConceptSize(e), 5u);
}

TEST(TermFactory, SubconceptsReachPathFilters) {
  Fx fx;
  ConceptId inner = fx.P("B");
  ConceptId c = fx.f.And(
      fx.P("A"), fx.f.Exists(fx.f.MakePath({{fx.A("a"), inner}})));
  auto subs = fx.f.Subconcepts(c);
  EXPECT_NE(std::find(subs.begin(), subs.end(), inner), subs.end());
  EXPECT_NE(std::find(subs.begin(), subs.end(), fx.P("A")), subs.end());
  EXPECT_NE(std::find(subs.begin(), subs.end(), c), subs.end());
}

TEST(Print, CoversEveryKind) {
  Fx fx;
  EXPECT_EQ(ConceptToString(fx.f, fx.f.Top()), "⊤");
  EXPECT_EQ(ConceptToString(fx.f, fx.P("A")), "A");
  EXPECT_EQ(ConceptToString(fx.f, fx.f.Singleton("c")), "{c}");
  EXPECT_EQ(ConceptToString(fx.f, fx.f.All(fx.A("a"), fx.P("B"))), "∀a.B");
  EXPECT_EQ(ConceptToString(fx.f, fx.f.AtMostOne(fx.A("a"))), "(≤1 a)");
  EXPECT_EQ(ConceptToString(fx.f, fx.f.Exists(fx.f.EmptyPath())), "∃ε");
  EXPECT_EQ(ConceptToString(fx.f, fx.f.Agree(fx.f.EmptyPath())), "∃ε ≐ ε");
  EXPECT_EQ(ConceptToString(
                fx.f, fx.f.ExistsAttr(fx.A("a", true))),
            "∃(a^-1: ⊤)");
}

TEST(Fol, ConceptTranslationMatchesTable1) {
  Fx fx;
  FolVarGen vars(&fx.symbols);
  FolTerm x = FolTerm::Var(fx.symbols.Intern("x"));

  EXPECT_EQ(FormulaToString(fx.f, ConceptToFol(fx.f, fx.P("A"), x, vars)),
            "A(x)");
  EXPECT_EQ(FormulaToString(fx.f,
                            ConceptToFol(fx.f, fx.f.Singleton("c"), x, vars)),
            "x ≐ c");
  ConceptId exists = fx.f.Exists(fx.f.MakePath({{fx.A("a"), fx.P("B")}}));
  EXPECT_EQ(FormulaToString(fx.f, ConceptToFol(fx.f, exists, x, vars)),
            "∃y1. a(x, y1) ∧ B(y1)");
}

TEST(Fol, AgreementTranslatesToALoop) {
  Fx fx;
  FolVarGen vars(&fx.symbols);
  FolTerm x = FolTerm::Var(fx.symbols.Intern("x"));
  ConceptId agree = fx.f.Agree(
      fx.f.MakePath({{fx.A("a"), fx.f.Top()}, {fx.A("b", true), fx.f.Top()}}));
  // (x a z) ∧ (x b z): the loop closes back at x; b is traversed inverted.
  EXPECT_EQ(FormulaToString(fx.f, ConceptToFol(fx.f, agree, x, vars)),
            "∃y1. a(x, y1) ∧ b(x, y1)");
}

TEST(Fol, SlFormsTranslate) {
  Fx fx;
  FolVarGen vars(&fx.symbols);
  FolTerm x = FolTerm::Var(fx.symbols.Intern("x"));
  EXPECT_EQ(FormulaToString(
                fx.f, ConceptToFol(fx.f, fx.f.All(fx.A("a"), fx.P("B")), x,
                                   vars)),
            "∀y1. a(x, y1) → B(y1)");
  EXPECT_EQ(FormulaToString(
                fx.f,
                ConceptToFol(fx.f, fx.f.AtMostOne(fx.A("a")), x, vars)),
            "∀y2. ∀y3. (a(x, y2) ∧ a(x, y3)) → (y2 ≐ y3)");
}

TEST(Fol, EmptyPathIsIdentity) {
  Fx fx;
  FolVarGen vars(&fx.symbols);
  FolTerm s = FolTerm::Var(fx.symbols.Intern("s"));
  FolTerm t = FolTerm::Var(fx.symbols.Intern("t"));
  EXPECT_EQ(FormulaToString(fx.f, PathToFol(fx.f, fx.f.EmptyPath(), s, t,
                                            vars)),
            "s ≐ t");
}

TEST(Fol, AxiomHelpers) {
  Fx fx;
  FolVarGen vars(&fx.symbols);
  EXPECT_EQ(
      FormulaToString(fx.f, InclusionAxiomToFol(fx.f,
                                                fx.symbols.Intern("A"),
                                                fx.P("B"), vars)),
      "∀x. A(x) → B(x)");
  EXPECT_EQ(FormulaToString(
                fx.f, TypingAxiomToFol(fx.f, fx.symbols.Intern("p"),
                                       fx.symbols.Intern("A"),
                                       fx.symbols.Intern("B"), vars)),
            "∀x. ∀y. p(x, y) → (A(x) ∧ B(y))");
}

}  // namespace
}  // namespace oodb::ql
