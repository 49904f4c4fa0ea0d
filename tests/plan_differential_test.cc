// Differential test of OPTIMIZE's plan choice: `views::Optimizer`'s
// one-batch catalog scan (memo off, structural pre-filter, counted class
// extents) against a reference built pair by pair, with a fresh checker
// that has no memo and no pre-filter, and with base-scan sizes taken
// from materialized `ClassExtent`s. The worlds are random `gen::` DL
// files whose queries join paths with `where` 30% of the time, on a term
// factory padded past 2^16 ids, so concept, path and symbol ids are
// large. Every planned query is fresh. The comparison is repeated after
// the catalog changes (DropView, DefineView) and after a new state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "gen/dl_gen.h"
#include "ql/term_factory.h"
#include "schema/schema.h"
#include "views/views.h"

namespace oodb {
namespace {

constexpr size_t kViews = 64;
constexpr size_t kQueriesPerStage = 40;
constexpr size_t kSwapped = 8;  // views dropped, and queries made views

struct World : dl::Frontend {
  gen::GeneratedDl dl;

  void Build(Rng& rng) {
    for (int i = 0; i < 70000; ++i) {
      terms->Primitive(symbols.Intern(StrCat("pad", i)));
    }
    ASSERT_GT(terms->num_concepts(), size_t{1} << 16);
    gen::DlGenOptions options;
    options.num_classes = 10;
    options.num_attrs = 6;
    options.num_queries = kViews + 3 * kQueriesPerStage;
    options.where_prob = 0.3;
    options.filter_prob = 0.6;
    dl = gen::GenerateDlSource(rng, options);
    ASSERT_EQ(Load(dl.source), Status::Ok());
  }

  std::unique_ptr<db::Database> NewState(Rng& rng) {
    auto database = std::make_unique<db::Database>(*model, &symbols);
    gen::StateGenOptions options;
    options.num_objects = 200;
    options.num_edges = 400;
    std::string state = gen::GenerateDlState(dl, rng, options);
    EXPECT_TRUE(db::LoadInstance(state, database.get()).ok());
    return database;
  }

  Symbol Query(size_t i) { return symbols.Find(dl.query_names[i]); }
};

// The plan ChoosePlan must produce, decided one (query, view) pair at a
// time by the plain engine.
views::QueryPlan ReferencePlan(World& w, const db::Database& database,
                               const views::ViewCatalog& catalog,
                               Symbol query) {
  calculus::CheckerOptions plain;
  plain.memoize = false;
  plain.prefilter = false;
  calculus::SubsumptionChecker oracle(*w.sigma, plain);
  views::QueryPlan plan;
  auto concept_id = w.translator->QueryConcept(query);
  EXPECT_TRUE(concept_id.ok()) << concept_id.status();
  if (!concept_id.ok()) return plan;

  size_t base_pool = database.num_objects();
  for (Symbol super : w.model->SuperClosure(query)) {
    const dl::ClassDef* def = w.model->FindClass(super);
    if (def == nullptr || def->is_query || super == w.model->object_class) {
      continue;
    }
    base_pool = std::min(base_pool, database.ClassExtent(super).size());
  }
  std::vector<db::ObjectId> pool;
  for (const views::View& view : catalog.views()) {
    auto subsumed = oracle.Subsumes(*concept_id, view.concept_id);
    EXPECT_TRUE(subsumed.ok()) << subsumed.status();
    if (!subsumed.ok() || !*subsumed) continue;
    if (plan.views_used.empty()) {
      pool = view.extent;
    } else {
      std::vector<db::ObjectId> merged;
      std::set_intersection(pool.begin(), pool.end(), view.extent.begin(),
                            view.extent.end(), std::back_inserter(merged));
      pool = std::move(merged);
    }
    plan.views_used.push_back(view.name);
  }
  if (!plan.views_used.empty() && pool.size() <= base_pool) {
    plan.uses_view = true;
    plan.view = plan.views_used[0];
    plan.pool_size = pool.size();
  } else {
    plan.views_used.clear();
    plan.pool_size = base_pool;
  }
  return plan;
}

struct Tally {
  size_t plans = 0;
  size_t using_views = 0;
};

// Plans queries [first, first + count) — none planned before — and
// compares each with the reference.
void ComparePlans(World& w, const db::Database& database,
                  const views::ViewCatalog& catalog,
                  views::Optimizer& optimizer, size_t first, size_t count,
                  Tally* tally) {
  for (size_t i = first; i < first + count; ++i) {
    const Symbol query = w.Query(i);
    auto got = optimizer.ChoosePlan(query);
    ASSERT_TRUE(got.ok()) << got.status();
    const views::QueryPlan want = ReferencePlan(w, database, catalog, query);
    const std::string name = w.dl.query_names[i];
    EXPECT_EQ(got->uses_view, want.uses_view) << name;
    EXPECT_EQ(got->views_used, want.views_used) << name;
    EXPECT_EQ(got->pool_size, want.pool_size) << name;
    if (want.uses_view) {
      EXPECT_EQ(got->view, want.view) << name;
    }
    ++tally->plans;
    tally->using_views += want.uses_view ? 1 : 0;
  }
}

TEST(PlanDifferential, ChoosePlanMatchesAPairByPairOracle) {
  Tally tally;
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    World w;
    ASSERT_NO_FATAL_FAILURE(w.Build(rng));

    // Stage 1: the first 64 query classes are the catalog.
    std::unique_ptr<db::Database> database = w.NewState(rng);
    auto catalog = std::make_unique<views::ViewCatalog>(database.get(),
                                                        w.translator.get());
    for (size_t i = 0; i < kViews; ++i) {
      ASSERT_TRUE(catalog->DefineView(w.Query(i)).ok()) << w.dl.query_names[i];
    }
    auto optimizer = std::make_unique<views::Optimizer>(
        database.get(), catalog.get(), *w.sigma, w.translator.get());
    size_t next = kViews;
    ComparePlans(w, *database, *catalog, *optimizer, next, kQueriesPerStage,
                 &tally);

    // Stage 2: drop some views and make some planned queries views.
    for (size_t i = 0; i < kSwapped; ++i) {
      ASSERT_TRUE(catalog->DropView(w.Query(3 * i)).ok());
      ASSERT_TRUE(catalog->DefineView(w.Query(next + i)).ok());
    }
    next += kQueriesPerStage;
    ComparePlans(w, *database, *catalog, *optimizer, next, kQueriesPerStage,
                 &tally);

    // Stage 3: a new state, as a session's STATE builds it: a fresh
    // database, catalog and optimizer over the long-lived factory.
    std::vector<Symbol> names;
    for (const views::View& view : catalog->views()) names.push_back(view.name);
    optimizer.reset();
    catalog.reset();
    database = w.NewState(rng);
    catalog = std::make_unique<views::ViewCatalog>(database.get(),
                                                   w.translator.get());
    for (Symbol name : names) ASSERT_TRUE(catalog->DefineView(name).ok());
    optimizer = std::make_unique<views::Optimizer>(
        database.get(), catalog.get(), *w.sigma, w.translator.get());
    next += kQueriesPerStage;
    ComparePlans(w, *database, *catalog, *optimizer, next, kQueriesPerStage,
                 &tally);
  }
  std::printf("plan differential: %zu plans, %zu through views\n",
              tally.plans, tally.using_views);
  EXPECT_EQ(tally.plans, 3 * 3 * kQueriesPerStage);
  EXPECT_GT(tally.using_views, 0u);  // the worlds must exercise rewrites
}

}  // namespace
}  // namespace oodb
