// End-to-end randomized properties over complete generated DL workloads:
// parse → translate → evaluate → optimize must all agree, across random
// schemas, random structural queries and random database states.
#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "calculus/subsumption.h"
#include "db/concept_eval.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "db/instance.h"
#include "dl/analyzer.h"
#include "dl/frontend.h"
#include "dl/printer.h"
#include "gen/dl_gen.h"
#include "schema/schema.h"
#include "views/views.h"

namespace oodb {
namespace {

struct World : dl::Frontend {
  std::unique_ptr<db::Database> database;
  gen::GeneratedDl dl;

  // Builds a full random world; returns false if generation produced an
  // (unexpectedly) unparseable artifact — which the test treats as a
  // failure.
  bool Build(Rng& rng) {
    dl = gen::GenerateDlSource(rng);
    if (Status s = Load(dl.source); !s.ok()) {
      ADD_FAILURE() << s << "\n" << dl.source;
      return false;
    }
    database = std::make_unique<db::Database>(*model, &symbols);
    std::string state = gen::GenerateDlState(dl, rng);
    auto loaded = db::LoadInstance(state, database.get());
    if (!loaded.ok()) {
      ADD_FAILURE() << loaded.status() << "\n" << state;
      return false;
    }
    return true;
  }

  Symbol S(const std::string& name) { return symbols.Intern(name); }
};

TEST(EndToEnd, GeneratedWorldsParseAndTranslate) {
  Rng rng(424243);
  for (int round = 0; round < 40; ++round) {
    World world;
    ASSERT_TRUE(world.Build(rng));
    for (const std::string& query : world.dl.query_names) {
      auto concept_id = world.translator->QueryConcept(world.S(query));
      ASSERT_TRUE(concept_id.ok()) << concept_id.status() << "\n"
                                   << world.dl.source;
      EXPECT_TRUE(
          calculus::ValidateQlConcept(*world.terms, *concept_id).ok());
    }
  }
}

TEST(EndToEnd, DlEvaluatorMatchesConceptEvaluatorOnStructuralQueries) {
  Rng rng(515253);
  for (int round = 0; round < 30; ++round) {
    World world;
    ASSERT_TRUE(world.Build(rng));
    db::QueryEvaluator evaluator(*world.database);
    for (const std::string& query : world.dl.query_names) {
      Symbol q = world.S(query);
      auto via_dl = evaluator.Evaluate(q);
      ASSERT_TRUE(via_dl.ok()) << via_dl.status();
      ql::ConceptId concept_id = *world.translator->QueryConcept(q);
      std::vector<db::ObjectId> via_concept;
      for (db::ObjectId o = 0; o < world.database->num_objects(); ++o) {
        if (db::ConceptHolds(*world.database, *world.terms, concept_id,
                             o)) {
          via_concept.push_back(o);
        }
      }
      ASSERT_EQ(*via_dl, via_concept)
          << query << " diverged\n" << world.dl.source;
    }
  }
}

TEST(EndToEnd, OptimizerAgreesWithNaiveOnRandomWorlds) {
  Rng rng(616263);
  for (int round = 0; round < 30; ++round) {
    World world;
    ASSERT_TRUE(world.Build(rng));
    views::ViewCatalog catalog(world.database.get(),
                               world.translator.get());
    // Every generated query is structural: all can be views.
    for (const std::string& view : world.dl.query_names) {
      ASSERT_TRUE(catalog.DefineView(world.S(view)).ok());
    }
    views::Optimizer optimizer(world.database.get(), &catalog,
                               *world.sigma, world.translator.get());
    db::QueryEvaluator evaluator(*world.database);
    for (const std::string& query : world.dl.query_names) {
      views::QueryPlan plan;
      auto optimized = optimizer.Execute(world.S(query), &plan);
      ASSERT_TRUE(optimized.ok()) << optimized.status();
      auto naive = evaluator.Evaluate(world.S(query));
      ASSERT_TRUE(naive.ok());
      ASSERT_EQ(*optimized, *naive)
          << query << " plan: " << plan.explanation << "\n"
          << world.dl.source;
      // A view always subsumes itself, so every query uses SOME view.
      EXPECT_TRUE(plan.uses_view) << query;
    }
  }
}

TEST(EndToEnd, PrinterRoundTripsGeneratedSchemas) {
  Rng rng(717273);
  for (int round = 0; round < 30; ++round) {
    World world;
    ASSERT_TRUE(world.Build(rng));
    std::string printed = dl::ModelToSource(*world.model, world.symbols);
    SymbolTable symbols2;
    auto reparsed = dl::ParseAndAnalyze(printed, &symbols2);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
    EXPECT_EQ(reparsed->classes().size(), world.model->classes().size());
    EXPECT_EQ(dl::ModelToSource(*reparsed, symbols2), printed);
  }
}

TEST(EndToEnd, StateDumpRoundTripsGeneratedWorlds) {
  Rng rng(818283);
  for (int round = 0; round < 20; ++round) {
    World world;
    ASSERT_TRUE(world.Build(rng));
    std::string dump = db::DumpInstance(*world.database);
    World fresh;
    fresh.dl = world.dl;
    ASSERT_EQ(fresh.Load(world.dl.source), Status::Ok());
    fresh.database =
        std::make_unique<db::Database>(*fresh.model, &fresh.symbols);
    auto loaded = db::LoadInstance(dump, fresh.database.get());
    ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << dump;
    EXPECT_EQ(db::DumpInstance(*fresh.database), dump);
  }
}

}  // namespace
}  // namespace oodb
