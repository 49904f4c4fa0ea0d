// The constraint store must answer exactly for the constraints it holds.
// Fixed cases pin key pairs whose 64-bit hashes coincide, and a property
// test runs random facts over small individuals and large concept, path
// and symbol ids (the ids a long-lived factory hands out) against a
// std::set model.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "calculus/constraint.h"

namespace oodb::calculus {
namespace {

std::vector<uint32_t> Ids(const std::vector<Ind>& inds) {
  std::vector<uint32_t> out;
  for (Ind i : inds) out.push_back(i.id);
  return out;
}

TEST(ConstraintStore, MembershipKeysAreExact) {
  // (1, 20475) and (0, 2) share a HashValues key.
  ConstraintSystem store;
  ASSERT_TRUE(store.AddMemb(Ind{1}, 20475));
  EXPECT_FALSE(store.HasMemb(Ind{0}, 2));
  EXPECT_TRUE(store.AddMemb(Ind{0}, 2));
  EXPECT_TRUE(store.HasMemb(Ind{1}, 20475));
}

TEST(ConstraintStore, PathKeysAreExact) {
  // (0, 45048) and (1, 1) share a HashValues key.
  ConstraintSystem store;
  ASSERT_TRUE(store.AddPath(Ind{0}, 45048, Ind{2}));
  EXPECT_TRUE(store.PathTargets(Ind{1}, 1).empty());
  EXPECT_FALSE(store.HasPathFrom(Ind{1}, 1));
  EXPECT_FALSE(store.HasPath(Ind{1}, 1, Ind{2}));
}

TEST(ConstraintStore, AttributeKeysAreExact) {
  ConstraintSystem store;
  ASSERT_TRUE(store.AddAttrPrim(Ind{0}, Symbol(45048), Ind{2}));
  EXPECT_TRUE(store.PrimFillers(Ind{1}, Symbol(1)).empty());
  EXPECT_FALSE(store.HasAnyPrimFiller(Ind{1}, Symbol(1)));
  EXPECT_FALSE(store.HasAttrPrim(Ind{1}, Symbol(1), Ind{2}));
  EXPECT_TRUE(store.Fillers(Ind{1}, ql::Attr{Symbol(1), true}).empty());
}

// The store's contents as plain ordered sets, plus the insertion-ordered
// lists the store promises.
struct Model {
  std::set<std::pair<uint32_t, uint32_t>> membs;
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> attrs;  // s P t
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> paths;  // s p t
  std::map<uint32_t, std::vector<uint32_t>> concepts_of;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>> fillers;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>> inverse;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>> targets;
  std::map<uint32_t, std::vector<uint32_t>> neighbors;

  template <typename Map, typename Key>
  static const std::vector<uint32_t>& Get(const Map& map, const Key& key) {
    static const std::vector<uint32_t> kEmpty;
    auto it = map.find(key);
    return it == map.end() ? kEmpty : it->second;
  }
};

uint32_t Below(Rng& rng, uint32_t n) {
  return static_cast<uint32_t>(rng.Index(n));
}

void ExpectMatches(const ConstraintSystem& store, const Model& model,
                   const std::vector<uint32_t>& concepts,
                   const std::vector<uint32_t>& symbols,
                   const std::vector<uint32_t>& path_ids, Rng& rng) {
  ASSERT_EQ(store.membs().size(), model.membs.size());
  ASSERT_EQ(store.attrs().size(), model.attrs.size());
  ASSERT_EQ(store.paths().size(), model.paths.size());
  for (uint32_t s = 0; s < 64; ++s) {
    const Ind si{s};
    ASSERT_EQ(store.ConceptsOf(si), Model::Get(model.concepts_of, s));
    const std::vector<uint32_t>& ids = store.MembIdsOf(si);
    ASSERT_EQ(ids.size(), store.ConceptsOf(si).size());
    for (size_t k = 0; k < ids.size(); ++k) {
      ASSERT_EQ(store.membs()[ids[k]].s, si);
      ASSERT_EQ(store.membs()[ids[k]].c, store.ConceptsOf(si)[k]);
    }
    ASSERT_EQ(Ids(store.Neighbors(si)), Model::Get(model.neighbors, s));
    for (uint32_t p : symbols) {
      ASSERT_EQ(Ids(store.PrimFillers(si, Symbol(p))),
                Model::Get(model.fillers, std::pair{s, p}));
      ASSERT_EQ(Ids(store.Fillers(si, ql::Attr{Symbol(p), true})),
                Model::Get(model.inverse, std::pair{s, p}));
      ASSERT_EQ(store.HasAnyPrimFiller(si, Symbol(p)),
                !Model::Get(model.fillers, std::pair{s, p}).empty());
    }
    for (uint32_t p : path_ids) {
      ASSERT_EQ(Ids(store.PathTargets(si, p)),
                Model::Get(model.targets, std::pair{s, p}));
      ASSERT_EQ(store.HasPathFrom(si, p),
                !Model::Get(model.targets, std::pair{s, p}).empty());
    }
  }
  // Presence probes, present and absent alike.
  for (int probe = 0; probe < 400; ++probe) {
    const uint32_t s = Below(rng, 64);
    const uint32_t t = Below(rng, 64);
    const uint32_t c = rng.Pick(concepts);
    const uint32_t p = rng.Pick(symbols);
    const uint32_t q = rng.Pick(path_ids);
    ASSERT_EQ(store.HasMemb(Ind{s}, c), model.membs.count({s, c}) > 0);
    ASSERT_EQ(store.HasAttrPrim(Ind{s}, Symbol(p), Ind{t}),
              model.attrs.count({s, p, t}) > 0);
    ASSERT_EQ(store.HasAttr(Ind{t}, ql::Attr{Symbol(p), true}, Ind{s}),
              model.attrs.count({s, p, t}) > 0);
    ASSERT_EQ(store.HasPath(Ind{s}, q, Ind{t}),
              model.paths.count({s, q, t}) > 0);
  }
}

TEST(ConstraintStore, MatchesAnExactModelOnLargeIds) {
  Rng rng(20475);
  ConstraintSystem store;  // reused across rounds, as a pooled engine does
  for (int round = 0; round < 40; ++round) {
    store.Clear();
    Model model;
    // Ids up to 2^20, drawn from small pools so that keys repeat.
    std::vector<uint32_t> concepts, symbols, path_ids;
    for (int i = 0; i < 24; ++i) {
      concepts.push_back(1 + Below(rng, 1u << 20));
      symbols.push_back(1 + Below(rng, 1u << 20));
      path_ids.push_back(1 + Below(rng, 1u << 20));
    }
    for (int step = 0; step < 600; ++step) {
      const uint32_t s = Below(rng, 64);
      const uint32_t t = Below(rng, 64);
      switch (rng.Index(3)) {
        case 0: {
          const uint32_t c = rng.Pick(concepts);
          const bool fresh = model.membs.insert({s, c}).second;
          ASSERT_EQ(store.AddMemb(Ind{s}, c), fresh);
          if (fresh) model.concepts_of[s].push_back(c);
          break;
        }
        case 1: {
          const uint32_t p = rng.Pick(symbols);
          const bool fresh = model.attrs.insert({s, p, t}).second;
          ASSERT_EQ(store.AddAttrPrim(Ind{s}, Symbol(p), Ind{t}), fresh);
          if (fresh) {
            model.fillers[{s, p}].push_back(t);
            model.inverse[{t, p}].push_back(s);
            model.neighbors[s].push_back(t);
            if (t != s) model.neighbors[t].push_back(s);
          }
          break;
        }
        default: {
          const uint32_t q = rng.Pick(path_ids);
          const bool fresh = model.paths.insert({s, q, t}).second;
          ASSERT_EQ(store.AddPath(Ind{s}, q, Ind{t}), fresh);
          if (fresh) model.targets[{s, q}].push_back(t);
          break;
        }
      }
    }
    ExpectMatches(store, model, concepts, symbols, path_ids, rng);
    if (HasFatalFailure()) return;
  }
}

TEST(ConstraintStore, SubstituteMatchesRebuildingFromTheMappedFacts) {
  Rng rng(45048);
  for (int round = 0; round < 20; ++round) {
    ConstraintSystem store;
    for (int step = 0; step < 300; ++step) {
      const Ind s{Below(rng, 64)};
      const Ind t{Below(rng, 64)};
      const uint32_t id = 1 + Below(rng, 1u << 20);
      switch (rng.Index(3)) {
        case 0:
          store.AddMemb(s, id % 97 + 1);
          break;
        case 1:
          store.AddAttrPrim(s, Symbol(id % 13 + 1), t);
          break;
        default:
          store.AddPath(s, id % 11 + 1, t);
          break;
      }
    }
    // Merge every odd individual into its even neighbor.
    auto map = [](Ind i) { return Ind{i.id & ~1u}; };
    ConstraintSystem expected;
    for (const MembFact& m : store.membs()) expected.AddMemb(map(m.s), m.c);
    for (const AttrFact& a : store.attrs()) {
      expected.AddAttrPrim(map(a.s), a.p, map(a.t));
    }
    for (const PathFact& p : store.paths()) {
      expected.AddPath(map(p.s), p.p, map(p.t));
    }
    store.Substitute(map);
    ASSERT_EQ(store.size(), expected.size());
    for (uint32_t s = 0; s < 64; ++s) {
      ASSERT_EQ(store.ConceptsOf(Ind{s}), expected.ConceptsOf(Ind{s}));
      ASSERT_EQ(Ids(store.Neighbors(Ind{s})),
                Ids(expected.Neighbors(Ind{s})));
      for (uint32_t p = 1; p <= 13; ++p) {
        ASSERT_EQ(Ids(store.PrimFillers(Ind{s}, Symbol(p))),
                  Ids(expected.PrimFillers(Ind{s}, Symbol(p))));
      }
      for (uint32_t q = 1; q <= 11; ++q) {
        ASSERT_EQ(Ids(store.PathTargets(Ind{s}, q)),
                  Ids(expected.PathTargets(Ind{s}, q)));
      }
    }
  }
}

}  // namespace
}  // namespace oodb::calculus
