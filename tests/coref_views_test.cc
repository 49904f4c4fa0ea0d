// Tests for the Sect. 4.4 "variables on paths" extension end-to-end:
// coreference evaluation in the database engine, skolemized subsumption,
// query-class filter inlining, and the deep-structural view requirement.
#include <gtest/gtest.h>

#include <memory>

#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "dl/frontend.h"
#include "ql/print.h"
#include "schema/schema.h"
#include "views/views.h"

namespace oodb {
namespace {

constexpr const char* kSource = R"(
Class Person with
end Person
Class Doctor isA Person with
  attribute
    skilled_in: Disease
end Doctor
Class Patient isA Person with
  attribute
    consults: Doctor
    suffers: Disease
end Patient
Class Disease with
end Disease

// A query referencing another query class in a path filter.
QueryClass ConsultsJoined isA Patient with
  derived
    (consults: Doctor)
end ConsultsJoined
QueryClass NestedQuery isA Person with
  derived
    (knows: ConsultsJoined)
end NestedQuery

// A non-structural query (has a constraint) ...
QueryClass Flagged isA Patient with
  constraint:
    not (this in Doctor)
end Flagged
// ... referenced from an otherwise structural query.
QueryClass UsesFlagged isA Person with
  derived
    (knows: Flagged)
end UsesFlagged

Attribute skilled_in with
  domain: Doctor
  range: Disease
  inverse: specialist
end skilled_in
Attribute knows with
  domain: Person
  range: Person
end knows
)";

struct Fx : dl::Frontend {
  std::unique_ptr<db::Database> database;

  Fx() {
    EXPECT_EQ(Load(kSource), Status::Ok());
    database = std::make_unique<db::Database>(*model, &symbols);
  }

  Symbol S(const char* name) { return symbols.Intern(name); }
};

// Coreference fixture: the same join once via a path variable ?d and once
// via labels + where.
constexpr const char* kCorefSource = R"(
Class Person with
end Person
Class Doctor isA Person with
  attribute
    skilled_in: Disease
end Doctor
Class Patient isA Person with
  attribute
    consults: Doctor
    suffers: Disease
end Patient
Class Disease with
end Disease
Attribute skilled_in with
  domain: Doctor
  range: Disease
  inverse: specialist
end skilled_in

QueryClass CorefPatient isA Patient with
  derived
    (consults: ?d)
    (suffers: Disease).(specialist: ?d)
end CorefPatient

QueryClass JoinPatient isA Patient with
  derived
    l1: (consults: Doctor)
    l2: (suffers: Disease).(specialist: Doctor)
  where
    l1 = l2
end JoinPatient
)";

struct CorefFx : dl::Frontend {
  std::unique_ptr<db::Database> database;

  db::ObjectId alice, bert, pat1, pat2, flu, cough;

  CorefFx() {
    EXPECT_EQ(Load(kCorefSource), Status::Ok());
    database = std::make_unique<db::Database>(*model, &symbols);

    auto S = [&](const char* s) { return symbols.Intern(s); };
    auto obj = [&](const char* name, const char* cls) {
      db::ObjectId o = *database->CreateObject(name);
      (void)database->AddToClass(o, S(cls));
      return o;
    };
    flu = obj("flu", "Disease");
    cough = obj("cough", "Disease");
    alice = obj("alice", "Doctor");
    bert = obj("bert", "Doctor");
    (void)database->AddAttr(alice, S("skilled_in"), flu);
    (void)database->AddAttr(bert, S("skilled_in"), cough);

    // pat1 consults the specialist for their own disease.
    pat1 = obj("pat1", "Patient");
    (void)database->AddAttr(pat1, S("suffers"), flu);
    (void)database->AddAttr(pat1, S("consults"), alice);
    // pat2 consults a doctor who is NOT a specialist for their disease.
    pat2 = obj("pat2", "Patient");
    (void)database->AddAttr(pat2, S("suffers"), flu);
    (void)database->AddAttr(pat2, S("consults"), bert);
  }

  Symbol S(const char* name) { return symbols.Intern(name); }
};

TEST(Coreference, DbEvaluationBindsPathVariables) {
  CorefFx fx;
  db::QueryEvaluator evaluator(*fx.database);
  auto answers = evaluator.Evaluate(fx.S("CorefPatient"));
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, (std::vector<db::ObjectId>{fx.pat1}));
}

TEST(Coreference, VariableAndWhereFormulationsAgreeOnData) {
  CorefFx fx;
  db::QueryEvaluator evaluator(*fx.database);
  auto via_var = evaluator.Evaluate(fx.S("CorefPatient"));
  auto via_where = evaluator.Evaluate(fx.S("JoinPatient"));
  ASSERT_TRUE(via_var.ok() && via_where.ok());
  EXPECT_EQ(*via_var, *via_where);
}

TEST(Coreference, SkolemizedQueryIsSubsumedByJoinView) {
  CorefFx fx;
  // Sect. 4.4: with variables only on the query side, skolemization keeps
  // the calculus sound and complete — CorefPatient ⊑ JoinPatient holds.
  auto c = fx.translator->QueryConcept(fx.S("CorefPatient"));
  auto d = fx.translator->QueryConcept(fx.S("JoinPatient"));
  ASSERT_TRUE(c.ok() && d.ok());
  calculus::SubsumptionChecker checker(*fx.sigma);
  auto verdict = checker.Subsumes(*c, *d);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(*verdict);
  // The converse fails: the join does not force a single shared doctor
  // to be the *same* skolem constant.
  auto converse = checker.Subsumes(*d, *c);
  ASSERT_TRUE(converse.ok());
  EXPECT_FALSE(*converse);
}

TEST(FilterInlining, QueryClassFiltersExpandToTheirConcept) {
  Fx fx;
  auto nested = fx.translator->QueryConcept(fx.S("NestedQuery"));
  ASSERT_TRUE(nested.ok()) << nested.status();
  std::string rendered = ql::ConceptToString(*fx.terms, *nested);
  // The filter is the inlined concept of ConsultsJoined, not a primitive.
  EXPECT_NE(rendered.find("Patient ⊓ ∃(consults: Doctor)"),
            std::string::npos)
      << rendered;
}

TEST(FilterInlining, NonStructuralReferenceWeakensToStructuralPart) {
  Fx fx;
  auto uses = fx.translator->QueryConcept(fx.S("UsesFlagged"));
  ASSERT_TRUE(uses.ok());
  // Flagged's constraint clause is dropped; its structural part (Patient)
  // is inlined — a sound weakening for the query side.
  std::string rendered = ql::ConceptToString(*fx.terms, *uses);
  EXPECT_NE(rendered.find("(knows: Patient)"), std::string::npos)
      << rendered;
}

TEST(DeepStructural, ViewsMayNotReferenceNonStructuralQueries) {
  Fx fx;
  EXPECT_TRUE(dl::IsDeeplyStructural(*fx.model, fx.S("NestedQuery")));
  EXPECT_FALSE(dl::IsDeeplyStructural(*fx.model, fx.S("UsesFlagged")));
  EXPECT_FALSE(dl::IsDeeplyStructural(*fx.model, fx.S("Flagged")));

  views::ViewCatalog catalog(fx.database.get(), fx.translator.get());
  EXPECT_TRUE(catalog.DefineView(fx.S("NestedQuery")).ok());
  auto rejected = catalog.DefineView(fx.S("UsesFlagged"));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace oodb
