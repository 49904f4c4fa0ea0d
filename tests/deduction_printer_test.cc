// Tests for the deductive closure of database states and the DL printer
// round-trip, plus parser robustness fuzzing.
#include <gtest/gtest.h>

#include <memory>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/deduction.h"
#include "dl/analyzer.h"
#include "dl/frontend.h"
#include "dl/parser.h"
#include "dl/printer.h"
#include "dl_fixture.h"
#include "ql/print.h"
#include "schema/schema.h"

namespace oodb {
namespace {

struct Fx {
  SymbolTable symbols;
  std::unique_ptr<dl::Model> model;
  std::unique_ptr<db::Database> database;

  Fx() {
    auto m = dl::ParseAndAnalyze(testing::kMedicalDlSource, &symbols);
    EXPECT_TRUE(m.ok()) << m.status();
    model = std::make_unique<dl::Model>(std::move(m).value());
    database = std::make_unique<db::Database>(*model, &symbols);
  }
  Symbol S(const char* name) { return symbols.Intern(name); }
};

TEST(Deduction, DerivesRangeMemberships) {
  Fx fx;
  // bob suffers from something never classified as a Disease.
  auto bob = *fx.database->CreateObject("bob");
  auto mystery = *fx.database->CreateObject("mystery");
  ASSERT_TRUE(fx.database->AddToClass(bob, fx.S("Patient")).ok());
  ASSERT_TRUE(fx.database->AddAttr(bob, fx.S("suffers"), mystery).ok());
  EXPECT_FALSE(fx.database->InClass(mystery, fx.S("Disease")));

  auto stats = db::DeductiveClosure(fx.database.get());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->derived_memberships, 0u);
  // Class-level typing: Patient.suffers: Disease.
  EXPECT_TRUE(fx.database->InClass(mystery, fx.S("Disease")));
  // Attribute typing: suffers ⊑ Patient × Disease was already satisfied
  // for bob; Disease isA Topic closes transitively.
  EXPECT_TRUE(fx.database->InClass(mystery, fx.S("Topic")));
}

TEST(Deduction, DerivesDomainMembershipsFromAttributeDecls) {
  Fx fx;
  auto someone = *fx.database->CreateObject("someone");
  auto something = *fx.database->CreateObject("something");
  // skilled_in ⊑ Person × Topic: an untyped edge types both ends.
  ASSERT_TRUE(
      fx.database->AddAttr(someone, fx.S("skilled_in"), something).ok());
  ASSERT_TRUE(db::DeductiveClosure(fx.database.get()).ok());
  EXPECT_TRUE(fx.database->InClass(someone, fx.S("Person")));
  EXPECT_TRUE(fx.database->InClass(something, fx.S("Topic")));
}

TEST(Deduction, ClosureLeavesOnlyConstraintViolations) {
  Fx fx;
  auto bob = *fx.database->CreateObject("bob");
  auto flu = *fx.database->CreateObject("flu");
  ASSERT_TRUE(fx.database->AddToClass(bob, fx.S("Patient")).ok());
  ASSERT_TRUE(fx.database->AddAttr(bob, fx.S("suffers"), flu).ok());
  ASSERT_TRUE(db::DeductiveClosure(fx.database.get()).ok());
  // Remaining violation: the necessary single `name` of Person —
  // a genuine integrity constraint that deduction cannot repair.
  auto violations = fx.database->CheckLegalState();
  ASSERT_FALSE(violations.empty());
  for (const std::string& v : violations) {
    EXPECT_NE(v.find("name"), std::string::npos) << v;
  }
}

TEST(Deduction, IdempotentOnClosedStates) {
  Fx fx;
  auto bob = *fx.database->CreateObject("bob");
  ASSERT_TRUE(fx.database->AddToClass(bob, fx.S("Patient")).ok());
  ASSERT_TRUE(db::DeductiveClosure(fx.database.get()).ok());
  auto again = db::DeductiveClosure(fx.database.get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->derived_memberships, 0u);
}

// --- Printer round-trip ------------------------------------------------------

TEST(Printer, MedicalModelRoundTrips) {
  Fx fx;
  std::string printed = dl::ModelToSource(*fx.model, fx.symbols);

  SymbolTable symbols2;
  auto reparsed = dl::ParseAndAnalyze(printed, &symbols2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
  // Same declarations survive (plus nothing new).
  EXPECT_EQ(reparsed->classes().size(), fx.model->classes().size());
  EXPECT_EQ(reparsed->attributes().size(), fx.model->attributes().size());
  // Printing the reparsed model reaches a fixed point.
  EXPECT_EQ(dl::ModelToSource(*reparsed, symbols2), printed);
}

TEST(Printer, RoundTripPreservesSubsumption) {
  Fx fx;
  std::string printed = dl::ModelToSource(*fx.model, fx.symbols);
  dl::Frontend reparsed;
  ASSERT_EQ(reparsed.Load(printed), Status::Ok());
  auto q = reparsed.translator->ClassConcept("QueryPatient");
  auto v = reparsed.translator->ClassConcept("ViewPatient");
  ASSERT_TRUE(q.ok() && v.ok());
  calculus::SubsumptionChecker checker(*reparsed.sigma);
  auto verdict = checker.Subsumes(*q, *v);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(*verdict);
}

TEST(Printer, RendersConstraintPrecedenceCorrectly) {
  SymbolTable symbols;
  auto model = dl::ParseAndAnalyze(R"(
    QueryClass Q isA C with
      constraint:
        forall d/Drug not (this takes d) or (d = Aspirin)
    end Q
  )",
                                   &symbols);
  ASSERT_TRUE(model.ok()) << model.status();
  const dl::ClassDef* q = model->FindClass(symbols.Find("Q"));
  std::string rendered =
      dl::FormulaToSource(*model, symbols, *q->constraint);
  EXPECT_EQ(rendered,
            "forall d/Drug not (this takes d) or (d = Aspirin)");
  // And it re-parses to the same structure.
  SymbolTable symbols2;
  auto reparsed = dl::ParseAndAnalyze(
      StrCat("QueryClass Q isA C with constraint: ", rendered, " end Q"),
      &symbols2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
}

// --- Parser robustness (mutation fuzzing) -------------------------------------

TEST(ParserFuzz, MutatedSourcesNeverCrash) {
  Rng rng(13131);
  std::string base = testing::kMedicalDlSource;
  const char kNoise[] = "(){}.:,=/?XY z9";
  for (int round = 0; round < 400; ++round) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Index(6));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Index(mutated.size());
      switch (rng.Index(3)) {
        case 0:  // replace
          mutated[pos] = kNoise[rng.Index(sizeof(kNoise) - 1)];
          break;
        case 1:  // delete
          mutated.erase(pos, 1 + rng.Index(5));
          break;
        default:  // insert
          mutated.insert(pos, 1, kNoise[rng.Index(sizeof(kNoise) - 1)]);
          break;
      }
      if (mutated.empty()) mutated = " ";
    }
    SymbolTable symbols;
    // Must return a Status (ok or error) — never crash or hang.
    auto result = dl::ParseAndAnalyze(mutated, &symbols);
    (void)result;
  }
  SUCCEED();
}

TEST(ParserFuzz, RandomTokenSoupNeverCrashes) {
  Rng rng(909);
  const char* tokens[] = {"Class",  "QueryClass", "Attribute", "isA",
                          "with",   "end",        "derived",   "where",
                          "(",      ")",          ":",         ".",
                          ",",      "=",          "{",         "}",
                          "?",      "/",          "forall",    "not",
                          "constraint", "a",      "B",         "this"};
  for (int round = 0; round < 300; ++round) {
    std::string soup;
    size_t len = 1 + rng.Index(40);
    for (size_t i = 0; i < len; ++i) {
      soup += tokens[rng.Index(std::size(tokens))];
      soup += ' ';
    }
    SymbolTable symbols;
    auto result = dl::ParseAndAnalyze(soup, &symbols);
    (void)result;
  }
  SUCCEED();
}

}  // namespace
}  // namespace oodb
