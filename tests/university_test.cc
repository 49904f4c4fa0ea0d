// End-to-end test over the second bundled domain (university registrar,
// examples/data/): parse from disk, classify, evaluate, optimize —
// everything a downstream user would do, against files shipped with the
// repository.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/deduction.h"
#include "db/evaluator.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "schema/schema.h"
#include "views/views.h"

namespace oodb {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct UniFx : dl::Frontend {
  std::unique_ptr<db::Database> database;

  UniFx() {
    EXPECT_EQ(Load(ReadFileOrDie(std::string(OODB_SOURCE_DIR) +
                                 "/examples/data/university.dl")),
              Status::Ok());
    EXPECT_TRUE(model->warnings().empty()) << model->warnings()[0];
    database = std::make_unique<db::Database>(*model, &symbols);
    auto loaded = db::LoadInstance(
        ReadFileOrDie(std::string(OODB_SOURCE_DIR) +
                      "/examples/data/registrar.odb"),
        database.get());
    EXPECT_TRUE(loaded.ok()) << loaded.status();
  }

  Symbol S(const char* name) { return symbols.Intern(name); }
  db::ObjectId Obj(const char* name) {
    return *database->FindObject(symbols.Find(name));
  }
};

TEST(University, StateIsLegal) {
  UniFx fx;
  auto violations = fx.database->CheckLegalState();
  EXPECT_TRUE(violations.empty()) << violations[0];
}

TEST(University, SubsumptionHierarchyIsDetected) {
  UniFx fx;
  calculus::SubsumptionChecker checker(*fx.sigma);
  auto advised = *fx.translator->QueryConcept(fx.S("AdvisedStudents"));
  auto aligned = *fx.translator->QueryConcept(fx.S("AlignedGrads"));
  auto enrolled = *fx.translator->QueryConcept(fx.S("EnrolledStudents"));

  // Students taking their advisor's course are enrolled students
  // (schema: every course has an identified instructor? taught_by is
  // necessary+single in Course — the broad view follows).
  EXPECT_TRUE(*checker.Subsumes(advised, enrolled));
  // Aligned grads enroll in a course about their thesis topic; taught_by
  // necessity makes them EnrolledStudents too.
  EXPECT_TRUE(*checker.Subsumes(aligned, enrolled));
  // Neither specialized query subsumes the other.
  EXPECT_FALSE(*checker.Subsumes(advised, aligned));
  EXPECT_FALSE(*checker.Subsumes(aligned, advised));
  EXPECT_FALSE(*checker.Subsumes(enrolled, advised));
}

TEST(University, ClassificationOrdersTheCatalog) {
  UniFx fx;
  calculus::SubsumptionChecker checker(*fx.sigma);
  calculus::Classifier classifier(checker);
  for (const char* name :
       {"AdvisedStudents", "AlignedGrads", "EnrolledStudents"}) {
    ASSERT_TRUE(classifier
                    .Add(fx.S(name),
                         *fx.translator->QueryConcept(fx.S(name)))
                    .ok());
  }
  ASSERT_TRUE(classifier.Classify().ok());
  EXPECT_EQ(classifier.Parents(fx.S("AdvisedStudents")),
            std::vector<Symbol>{fx.S("EnrolledStudents")});
  EXPECT_EQ(classifier.Parents(fx.S("AlignedGrads")),
            std::vector<Symbol>{fx.S("EnrolledStudents")});
}

TEST(University, QueriesEvaluateCorrectly) {
  UniFx fx;
  db::QueryEvaluator eval(*fx.database);
  // sue takes dbms taught by her advisor codd.
  auto advised = eval.Evaluate(fx.S("AdvisedStudents"));
  ASSERT_TRUE(advised.ok());
  EXPECT_EQ(*advised, (std::vector<db::ObjectId>{fx.Obj("sue")}));
  // sue's thesis topic (db) matches dbms's topic; uma's (db) does not
  // match lisp's (ai).
  auto aligned = eval.Evaluate(fx.S("AlignedGrads"));
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(*aligned, (std::vector<db::ObjectId>{fx.Obj("sue")}));
  // uma takes only the lisp seminar; sue takes the non-seminar dbms.
  auto purists = eval.Evaluate(fx.S("SeminarPurists"));
  ASSERT_TRUE(purists.ok());
  EXPECT_EQ(*purists, (std::vector<db::ObjectId>{fx.Obj("uma")}));
}

TEST(University, OptimizerUsesTheBroadViewForBothSpecializations) {
  UniFx fx;
  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  ASSERT_TRUE(catalog.DefineView(fx.S("EnrolledStudents")).ok());
  views::Optimizer optimizer(fx.database.get(), &catalog, *fx.sigma,
                             fx.translator.get());
  // AdvisedStudents: base pool = Student extent (3) ties with the view
  // extent (3) → view + residual. AlignedGrads: GradStudent extent (2)
  // is strictly smaller than the view (3) → the cost model keeps the
  // base scan. Either way the answers must match the naive evaluator.
  struct Expectation {
    const char* query;
    bool uses_view;
  };
  for (const Expectation& expected :
       {Expectation{"AdvisedStudents", true},
        Expectation{"AlignedGrads", false}}) {
    views::QueryPlan plan;
    auto optimized = optimizer.Execute(fx.S(expected.query), &plan);
    ASSERT_TRUE(optimized.ok()) << optimized.status();
    EXPECT_EQ(plan.uses_view, expected.uses_view) << expected.query;
    EXPECT_EQ(plan.uses_residual, expected.uses_view) << expected.query;
    db::QueryEvaluator eval(*fx.database);
    auto naive = eval.Evaluate(fx.S(expected.query));
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(*optimized, *naive) << expected.query;
  }
}

TEST(University, DeductionRepairsAnUntypedState) {
  UniFx fx;
  // A new course with an untyped instructor object.
  auto course = *fx.database->CreateObject("algo");
  auto somebody = *fx.database->CreateObject("somebody");
  ASSERT_TRUE(fx.database->AddToClass(course, fx.S("Course")).ok());
  ASSERT_TRUE(
      fx.database->AddAttr(course, fx.S("taught_by"), somebody).ok());
  EXPECT_FALSE(fx.database->InClass(somebody, fx.S("Professor")));
  ASSERT_TRUE(db::DeductiveClosure(fx.database.get()).ok());
  EXPECT_TRUE(fx.database->InClass(somebody, fx.S("Professor")));
  // Agents transitively (Professor isA Agent isA Thing).
  EXPECT_TRUE(fx.database->InClass(somebody, fx.S("Agent")));
  EXPECT_TRUE(fx.database->InClass(somebody, fx.S("Thing")));
}

}  // namespace
}  // namespace oodb
