// Tests for piggyback view materialization (Sect. 6: the first view
// evaluation is free) and catalog management.
#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "dl_fixture.h"
#include "gen/dl_gen.h"
#include "schema/schema.h"
#include "views/views.h"

namespace oodb {
namespace {

struct Fx : dl::Frontend {
  std::unique_ptr<db::Database> database;

  Fx() {
    EXPECT_EQ(Load(testing::kMedicalDlSource), Status::Ok());
    database = std::make_unique<db::Database>(*model, &symbols);
    auto loaded = db::LoadInstance(R"(
      Object flu in Disease with
      end flu
      Object alice in Doctor, Female with
        name: an
        skilled_in: flu
      end alice
      Object an in String with
      end an
      Object bob in Patient, Male with
        name: bn
        suffers: flu
        consults: alice
      end bob
      Object bn in String with
      end bn
    )",
                                   database.get());
    EXPECT_TRUE(loaded.ok()) << loaded.status();
  }
  Symbol S(const char* name) { return symbols.Intern(name); }
};

TEST(Piggyback, ReusesComputedAnswersWithoutReevaluation) {
  Fx fx;
  db::QueryEvaluator evaluator(*fx.database);
  auto answers = evaluator.Evaluate(fx.S("ViewPatient"));
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);  // bob

  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ASSERT_TRUE(
      catalog.DefineViewFromAnswers(fx.S("ViewPatient"), *answers).ok());
  const views::View* view = catalog.Find(fx.S("ViewPatient"));
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->extent, *answers);
  EXPECT_EQ(view->refresh_count, 1u);  // no internal evaluation happened
  // The view is fresh: RefreshAll must be a no-op.
  ASSERT_TRUE(catalog.RefreshAll().ok());
  EXPECT_EQ(catalog.Find(fx.S("ViewPatient"))->refresh_count, 1u);
}

TEST(Piggyback, PiggybackedViewMatchesEvaluatedView) {
  Rng rng(99887);
  for (int round = 0; round < 15; ++round) {
    gen::GeneratedDl dl_src = gen::GenerateDlSource(rng);
    dl::Frontend front;
    ASSERT_EQ(front.Load(dl_src.source), Status::Ok());
    db::Database database(*front.model, &front.symbols);
    ASSERT_TRUE(
        db::LoadInstance(gen::GenerateDlState(dl_src, rng), &database)
            .ok());

    db::QueryEvaluator evaluator(database);
    Symbol q = front.symbols.Intern(dl_src.query_names[0]);
    auto answers = evaluator.Evaluate(q);
    ASSERT_TRUE(answers.ok());

    views::ViewCatalog piggy(&database, front.translator.get());
    ASSERT_TRUE(piggy.DefineViewFromAnswers(q, *answers).ok());
    views::ViewCatalog fresh(&database, front.translator.get());
    ASSERT_TRUE(fresh.DefineView(q).ok());
    EXPECT_EQ(piggy.Find(q)->extent, fresh.Find(q)->extent);
  }
}

TEST(Piggyback, RejectsNonStructuralAndDuplicates) {
  Fx fx;
  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  EXPECT_EQ(catalog.DefineViewFromAnswers(fx.S("QueryPatient"), {0})
                .code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(catalog.DefineView(fx.S("ViewPatient")).ok());
  EXPECT_EQ(catalog.DefineViewFromAnswers(fx.S("ViewPatient"), {0}).code(),
            StatusCode::kAlreadyExists);
}

TEST(Catalog, DropViewRemovesAndReindexes) {
  Rng rng(5150);
  gen::GeneratedDl dl_src = gen::GenerateDlSource(rng);
  dl::Frontend front;
  ASSERT_EQ(front.Load(dl_src.source), Status::Ok());
  db::Database database(*front.model, &front.symbols);

  views::ViewCatalog catalog(&database, front.translator.get());
  ASSERT_GE(dl_src.query_names.size(), 2u);
  Symbol q0 = front.symbols.Intern(dl_src.query_names[0]);
  Symbol q1 = front.symbols.Intern(dl_src.query_names[1]);
  ASSERT_TRUE(catalog.DefineView(q0).ok());
  ASSERT_TRUE(catalog.DefineView(q1).ok());
  ASSERT_TRUE(catalog.DropView(q0).ok());
  EXPECT_EQ(catalog.Find(q0), nullptr);
  ASSERT_NE(catalog.Find(q1), nullptr);
  EXPECT_EQ(catalog.views().size(), 1u);
  // Dropping again fails; redefinition succeeds.
  EXPECT_EQ(catalog.DropView(q0).code(), StatusCode::kNotFound);
  EXPECT_TRUE(catalog.DefineView(q0).ok());
  EXPECT_EQ(catalog.Find(q0)->name, q0);
}

}  // namespace
}  // namespace oodb
