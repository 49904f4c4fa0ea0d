// Tests for multi-view intersection planning and randomized maintenance /
// persistence properties of the views layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "base/rng.h"
#include "base/strings.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "schema/schema.h"
#include "views/views.h"

namespace oodb {
namespace {

constexpr const char* kSource = R"(
Class Item with
  attribute
    made_by: Maker
    sold_in: Shop
end Item
Class Maker with
end Maker
Class Shop with
end Shop

QueryClass MadeItems isA Item with
  derived
    (made_by: Maker)
end MadeItems

QueryClass SoldItems isA Item with
  derived
    (sold_in: Shop)
end SoldItems

QueryClass TradedItems isA Item with
  derived
    (made_by: Maker)
    (sold_in: Shop)
end TradedItems
)";

struct Fx : dl::Frontend {
  std::unique_ptr<db::Database> database;

  Fx() {
    EXPECT_EQ(Load(kSource), Status::Ok());
    database = std::make_unique<db::Database>(*model, &symbols);
  }
  Symbol S(const char* s) { return symbols.Intern(s); }
};

TEST(MultiView, IntersectionBeatsEverySingleView) {
  Fx fx;
  Rng rng(42);
  auto maker = *fx.database->CreateObject("acme");
  (void)fx.database->AddToClass(maker, fx.S("Maker"));
  auto shop = *fx.database->CreateObject("store");
  (void)fx.database->AddToClass(shop, fx.S("Shop"));
  // 60 made-only, 60 sold-only, 15 both.
  for (int i = 0; i < 135; ++i) {
    auto o = *fx.database->CreateObject(StrCat("item", i));
    (void)fx.database->AddToClass(o, fx.S("Item"));
    if (i < 60 || i >= 120) {
      (void)fx.database->AddAttr(o, fx.S("made_by"), maker);
    }
    if (i >= 60) (void)fx.database->AddAttr(o, fx.S("sold_in"), shop);
  }

  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ASSERT_TRUE(catalog.DefineView(fx.S("MadeItems")).ok());
  ASSERT_TRUE(catalog.DefineView(fx.S("SoldItems")).ok());
  EXPECT_EQ(catalog.Find(fx.S("MadeItems"))->extent.size(), 75u);
  EXPECT_EQ(catalog.Find(fx.S("SoldItems"))->extent.size(), 75u);

  views::Optimizer optimizer(fx.database.get(), &catalog, *fx.sigma,
                             fx.translator.get());
  views::QueryPlan plan;
  db::EvalStats stats;
  auto answers = optimizer.Execute(fx.S("TradedItems"), &plan, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_TRUE(plan.uses_view);
  EXPECT_EQ(plan.views_used.size(), 2u);
  // The intersection (15) is far below Item (137-2=135) or either view.
  EXPECT_EQ(plan.pool_size, 15u);
  EXPECT_EQ(stats.candidates_examined, 15u);
  EXPECT_EQ(answers->size(), 15u);
  EXPECT_TRUE(plan.uses_residual);

  db::QueryEvaluator eval(*fx.database);
  auto naive = eval.Evaluate(fx.S("TradedItems"));
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(*answers, *naive);
}

TEST(MultiView, RandomUpdateSequenceKeepsIncrementalConsistent) {
  Fx fx;
  Rng rng(777);
  std::vector<db::ObjectId> items, makers, shops;
  for (int i = 0; i < 6; ++i) {
    auto m = *fx.database->CreateObject(StrCat("maker", i));
    (void)fx.database->AddToClass(m, fx.S("Maker"));
    makers.push_back(m);
    auto s = *fx.database->CreateObject(StrCat("shop", i));
    (void)fx.database->AddToClass(s, fx.S("Shop"));
    shops.push_back(s);
  }
  for (int i = 0; i < 40; ++i) {
    auto o = *fx.database->CreateObject(StrCat("item", i));
    (void)fx.database->AddToClass(o, fx.S("Item"));
    items.push_back(o);
  }
  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ASSERT_TRUE(catalog.DefineView(fx.S("TradedItems")).ok());

  db::QueryEvaluator eval(*fx.database);
  Symbol made_by = fx.S("made_by");
  Symbol sold_in = fx.S("sold_in");
  for (int step = 0; step < 120; ++step) {
    db::ObjectId item = rng.Pick(items);
    bool maker_side = rng.Bernoulli(0.5);
    Symbol attr = maker_side ? made_by : sold_in;
    db::ObjectId target = maker_side ? rng.Pick(makers) : rng.Pick(shops);
    // Randomly add or remove edges.
    if (rng.Bernoulli(0.7)) {
      (void)fx.database->AddAttr(item, attr, target);
    } else {
      (void)fx.database->RemoveAttr(item, attr, target);
    }
    ASSERT_TRUE(catalog.RefreshIncremental({item, target}).ok());
    auto expected = eval.Evaluate(fx.S("TradedItems"));
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(catalog.Find(fx.S("TradedItems"))->extent, *expected)
        << "diverged at step " << step;
  }
}

TEST(MultiView, RandomStateDumpLoadRoundTrip) {
  Rng rng(31415);
  for (int round = 0; round < 15; ++round) {
    Fx fx;
    std::vector<db::ObjectId> objects;
    for (int i = 0; i < 20; ++i) {
      auto o = *fx.database->CreateObject(StrCat("o", i));
      objects.push_back(o);
      if (rng.Bernoulli(0.5)) {
        const char* classes[] = {"Item", "Maker", "Shop"};
        (void)fx.database->AddToClass(o, fx.S(classes[rng.Index(3)]));
      }
    }
    for (int i = 0; i < 30; ++i) {
      const char* attrs[] = {"made_by", "sold_in"};
      (void)fx.database->AddAttr(rng.Pick(objects),
                                 fx.S(attrs[rng.Index(2)]),
                                 rng.Pick(objects));
    }
    std::string dump = db::DumpInstance(*fx.database);
    Fx fresh;
    auto loaded = db::LoadInstance(dump, fresh.database.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << dump;
    EXPECT_EQ(db::DumpInstance(*fresh.database), dump);
  }
}

}  // namespace
}  // namespace oodb
