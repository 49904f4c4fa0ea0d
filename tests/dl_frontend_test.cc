// Tests for the DL front end: lexer, parser, analyzer, and the
// DL → SL/QL translation of Sect. 3.2 on the paper's running example.
#include <gtest/gtest.h>

#include <string>

#include "calculus/subsumption.h"
#include "dl/analyzer.h"
#include "dl/frontend.h"
#include "dl/lexer.h"
#include "dl/parser.h"
#include "dl_fixture.h"
#include "obs/trace.h"
#include "ql/print.h"
#include "schema/schema.h"

namespace oodb {
namespace {

using dl::Analyze;
using dl::Model;
using dl::ParseAndAnalyze;
using dl::Lexer;
using dl::ParseFile;

TEST(Lexer, TokenizesPunctuationAndIdents) {
  Lexer lexer("Class A isA B, C with l1: (a: {c}).(b: ?x) end");
  std::string kinds;
  for (;;) {
    const dl::Token t = lexer.Advance();
    if (t.kind == dl::TokenKind::kEof) break;
    kinds += t.kind == dl::TokenKind::kIdent ? 'i' : t.text[0];
  }
  ASSERT_TRUE(lexer.status().ok()) << lexer.status();
  // Class A isA B , C with l1 : ( a : { c } ) . ( b : ? x ) end
  EXPECT_EQ(kinds, "iiii,iii:(i:{i}).(i:?i)i");
  // Past the end, every token is the end.
  EXPECT_EQ(lexer.Peek(2).kind, dl::TokenKind::kEof);
}

TEST(Lexer, SkipsComments) {
  Lexer lexer("a // comment until eol\nb");
  EXPECT_EQ(lexer.Peek().text, "a");
  const dl::Token b = lexer.Peek(1);
  EXPECT_EQ(b.text, "b");
  EXPECT_EQ(b.line, 2);
  EXPECT_EQ(lexer.Peek(2).kind, dl::TokenKind::kEof);
  EXPECT_EQ(lexer.Advance().text, "a");
  EXPECT_EQ(lexer.Advance().text, "b");
  EXPECT_TRUE(lexer.status().ok());
}

TEST(Lexer, RejectsIllegalCharacter) {
  Lexer lexer("a $ b");
  EXPECT_EQ(lexer.Advance().text, "a");
  // The illegal character ends the stream, and status() names it.
  EXPECT_EQ(lexer.Advance().kind, dl::TokenKind::kEof);
  EXPECT_EQ(lexer.Peek().kind, dl::TokenKind::kEof);
  EXPECT_EQ(lexer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(lexer.status().message(), "line 1:3: unexpected character '$'");
}

TEST(Lexer, IllegalCharacterWinsOverAnEarlierSyntaxError) {
  // The parse fails at `)` on line 1; the `$` on line 3 is reported.
  auto file = ParseFile("Class A with ) end\nClass B with end\n$");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().message(), "line 3:1: unexpected character '$'");
  // The parse ends at an illegal character even where it could go on.
  auto cut = ParseFile("Class A with end $ Class B with end");
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().message(), "line 1:18: unexpected character '$'");
}

TEST(Parser, ParsesTheMedicalFile) {
  auto file = ParseFile(testing::kMedicalDlSource);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file->classes.size(), 11u);  // 9 schema + 2 query classes
  EXPECT_EQ(file->attributes.size(), 5u);
  const auto& query = file->classes[9];
  EXPECT_TRUE(query.is_query);
  EXPECT_EQ(query.name, "QueryPatient");
  const auto supers = dl::ast::Slice(file->supers, query.supers);
  ASSERT_EQ(supers.size(), 2u);
  EXPECT_EQ(supers[0], "Male");
  const auto derived = dl::ast::Slice(file->derived, query.derived);
  ASSERT_EQ(derived.size(), 2u);
  EXPECT_EQ(derived[0].label, "l1");
  const auto steps = dl::ast::Slice(file->steps, derived[1].steps);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].attr, "suffers");
  EXPECT_EQ(steps[0].filter_kind, dl::ast::PathStep::Filter::kNone);
  ASSERT_EQ(query.where.size(), 1u);
  ASSERT_NE(query.constraint, nullptr);
  EXPECT_EQ(query.constraint->kind, dl::ast::Formula::Kind::kForall);
}

TEST(Parser, ParsesConstraintPrecedence) {
  // `not A or B` must parse as (not A) or B.
  auto f = dl::ParseFormula("not (this in Doctor) or (this in Male)");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ((*f)->kind, dl::ast::Formula::Kind::kOr);
  EXPECT_EQ((*f)->children[0]->kind, dl::ast::Formula::Kind::kNot);
}

TEST(Parser, ParsesNestedParenthesizedFormula) {
  auto f = dl::ParseFormula(
      "forall d/Drug ((this takes d) and not (d = Aspirin))");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ((*f)->kind, dl::ast::Formula::Kind::kForall);
  EXPECT_EQ((*f)->children[0]->kind, dl::ast::Formula::Kind::kAnd);
}

TEST(Parser, ReportsMissingEnd) {
  auto file = ParseFile("Class A with attribute a: B");
  EXPECT_FALSE(file.ok());
}

TEST(Analyzer, ResolvesTheMedicalModel) {
  SymbolTable symbols;
  auto model = ParseAndAnalyze(testing::kMedicalDlSource, &symbols);
  ASSERT_TRUE(model.ok()) << model.status();
  const dl::ClassDef* patient = model->FindClass(symbols.Find("Patient"));
  ASSERT_NE(patient, nullptr);
  EXPECT_FALSE(patient->is_query);
  ASSERT_EQ(patient->supers.size(), 1u);
  EXPECT_EQ(patient->attrs.size(), 3u);
  ASSERT_NE(patient->constraint, nullptr);

  // The synonym `specialist` resolves to skilled_in⁻¹.
  auto attr = model->ResolveAttrName(symbols.Find("specialist"));
  ASSERT_TRUE(attr.has_value());
  EXPECT_EQ(attr->prim, symbols.Find("skilled_in"));
  EXPECT_TRUE(attr->inverted);

  const dl::ClassDef* query = model->FindClass(symbols.Find("QueryPatient"));
  ASSERT_NE(query, nullptr);
  EXPECT_TRUE(query->is_query);
  EXPECT_FALSE(query->IsStructural());  // it has a constraint clause
  const dl::ClassDef* view = model->FindClass(symbols.Find("ViewPatient"));
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->IsStructural());
}

TEST(Analyzer, RejectsSynonymInSchemaDeclaration) {
  SymbolTable symbols;
  auto model = ParseAndAnalyze(R"(
    Attribute a with
      inverse: b
    end a
    Class C with
      attribute
        b: C
    end C
  )",
                               &symbols);
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(Analyzer, RejectsLabelReuseInWhere) {
  SymbolTable symbols;
  auto model = ParseAndAnalyze(R"(
    QueryClass Q with
      derived
        l1: a
        l2: b
        l3: c
      where
        l1 = l2
        l1 = l3
    end Q
  )",
                               &symbols);
  EXPECT_FALSE(model.ok());  // footnote 5: a label at most once in where
}

TEST(Analyzer, RejectsUnknownLabelInWhere) {
  SymbolTable symbols;
  auto model = ParseAndAnalyze(R"(
    QueryClass Q with
      derived
        l1: a
      where
        l1 = l9
    end Q
  )",
                               &symbols);
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
}

TEST(Analyzer, RejectsDerivedOnSchemaClass) {
  SymbolTable symbols;
  auto model = ParseAndAnalyze("Class C with derived l1: a end C", &symbols);
  EXPECT_FALSE(model.ok());
}

TEST(Analyzer, RejectsIsACycle) {
  SymbolTable symbols;
  auto model = ParseAndAnalyze(R"(
    Class A isA B with
    end A
    Class B isA A with
    end B
  )",
                               &symbols);
  EXPECT_FALSE(model.ok());
}

TEST(Analyzer, ImplicitDeclarationsWarnInLenientMode) {
  SymbolTable symbols;
  auto model = ParseAndAnalyze("Class A isA Undeclared with end A", &symbols);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_FALSE(model->warnings().empty());
  const dl::ClassDef* u = model->FindClass(symbols.Find("Undeclared"));
  ASSERT_NE(u, nullptr);
  EXPECT_TRUE(u->implicit);
}

TEST(Analyzer, RejectsDuplicateClass) {
  SymbolTable symbols;
  auto model =
      ParseAndAnalyze("Class A with end A Class A with end A", &symbols);
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kAlreadyExists);
}

// --- The front end in one call ---------------------------------------------

TEST(Frontend, LoadBooksParseAndTranslate) {
  dl::Frontend front;
  obs::TraceContext trace;
  ASSERT_EQ(front.Load(testing::kMedicalDlSource, &trace), Status::Ok());
  EXPECT_GT(trace.phase_ns[static_cast<size_t>(obs::Phase::kParse)], 0u);
  EXPECT_GT(trace.phase_ns[static_cast<size_t>(obs::Phase::kTranslate)], 0u);
  EXPECT_TRUE(front.model->warnings().empty());
  EXPECT_FALSE(front.sigma->inclusions().empty());
  EXPECT_TRUE(front.translator->ClassConcept("QueryPatient").ok());
}

TEST(Frontend, AParseErrorBooksNoTranslation) {
  dl::Frontend front;
  obs::TraceContext trace;
  EXPECT_FALSE(front.Load("Class A isA", &trace).ok());
  EXPECT_GT(trace.phase_ns[static_cast<size_t>(obs::Phase::kParse)], 0u);
  EXPECT_EQ(trace.phase_ns[static_cast<size_t>(obs::Phase::kTranslate)], 0u);
  EXPECT_EQ(front.translator, nullptr);
  EXPECT_TRUE(front.sigma->inclusions().empty());
}

// --- Translation (Sect. 3.2) ----------------------------------------------

struct Translated : dl::Frontend {
  ql::ConceptId query = ql::kInvalidConcept;
  ql::ConceptId view = ql::kInvalidConcept;

  Translated() {
    EXPECT_EQ(Load(testing::kMedicalDlSource), Status::Ok());
    auto q = translator->QueryConcept(symbols.Find("QueryPatient"));
    EXPECT_TRUE(q.ok()) << q.status();
    query = *q;
    auto v = translator->QueryConcept(symbols.Find("ViewPatient"));
    EXPECT_TRUE(v.ok()) << v.status();
    view = *v;
  }
};

TEST(Translate, SchemaMatchesFigure6) {
  Translated t;
  // Figure 6 lists 9 inclusion axioms; the completed schema adds typing
  // axioms for the five attribute declarations.
  // Patient: isA + 3 value restrictions + necessary = 5
  // Person: value restriction + necessary + functional = 3
  // Doctor: isA (our completion) + value restriction = 2
  // Male/Female: isA Person = 2, Disease isA Topic = 1.
  EXPECT_EQ(t.sigma->inclusions().size(), 13u);
  EXPECT_EQ(t.sigma->typings().size(), 5u);
  EXPECT_TRUE(t.sigma->IsNecessaryFor(t.symbols.Find("Patient"),
                                      t.symbols.Find("suffers")));
  EXPECT_TRUE(t.sigma->IsFunctionalFor(t.symbols.Find("Person"),
                                       t.symbols.Find("name")));
}

TEST(Translate, ConceptsMatchSection32) {
  Translated t;
  EXPECT_EQ(ql::ConceptToString(*t.terms, t.query),
            "Male ⊓ Patient ⊓ ∃(consults: Female ⊓ Doctor)"
            "(skilled_in: ⊤)(suffers^-1: ⊤) ≐ ε");
  EXPECT_EQ(ql::ConceptToString(*t.terms, t.view),
            "Patient ⊓ ∃(name: String) ⊓ ∃(consults: Doctor)"
            "(skilled_in: Disease)(suffers^-1: ⊤) ≐ ε");
}

TEST(Translate, SubsumptionHoldsThroughTheFrontEnd) {
  Translated t;
  calculus::SubsumptionChecker checker(*t.sigma);
  auto forward = checker.Subsumes(t.query, t.view);
  ASSERT_TRUE(forward.ok()) << forward.status();
  EXPECT_TRUE(*forward);
  auto backward = checker.Subsumes(t.view, t.query);
  ASSERT_TRUE(backward.ok());
  EXPECT_FALSE(*backward);
}

TEST(Translate, QueryClassSupersAreInlined) {
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  auto model = ParseAndAnalyze(R"(
    Class A with
    end A
    QueryClass Q1 isA A with
      derived
        (a: A)
    end Q1
    QueryClass Q2 isA Q1 with
      derived
        (b: A)
    end Q2
  )",
                               &symbols);
  ASSERT_TRUE(model.ok()) << model.status();
  dl::Translator translator(*model, &terms);
  auto q2 = translator.QueryConcept(symbols.Find("Q2"));
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(ql::ConceptToString(terms, *q2), "A ⊓ ∃(a: A) ⊓ ∃(b: A)");
}

TEST(Translate, PathVariablesAreSkolemized) {
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  auto model = ParseAndAnalyze(R"(
    QueryClass Q with
      derived
        (a: ?x).(b: ?x)
    end Q
  )",
                               &symbols);
  ASSERT_TRUE(model.ok()) << model.status();
  dl::Translator translator(*model, &terms);
  auto q = translator.QueryConcept(symbols.Find("Q"));
  ASSERT_TRUE(q.ok());
  // Both occurrences of ?x become the same skolem constant.
  std::string rendered = ql::ConceptToString(terms, *q);
  EXPECT_NE(rendered.find("{sk_x#"), std::string::npos) << rendered;
  size_t first = rendered.find("{sk_x#");
  size_t second = rendered.find("{sk_x#", first + 1);
  EXPECT_NE(second, std::string::npos);
  EXPECT_EQ(rendered.substr(first, 8), rendered.substr(second, 8));
}

TEST(Translate, Figure2FormulasForPatient) {
  Translated t;
  auto formulas = t.translator->SchemaClassToFol(t.symbols.Find("Patient"));
  ASSERT_TRUE(formulas.ok()) << formulas.status();
  std::vector<std::string> rendered;
  for (const auto& f : *formulas) {
    rendered.push_back(ql::FormulaToString(*t.terms, f));
  }
  ASSERT_EQ(rendered.size(), 6u);
  EXPECT_EQ(rendered[0], "∀x. Patient(x) → Person(x)");
  EXPECT_EQ(rendered[1],
            "∀x. ∀y. (Patient(x) ∧ takes(x, y)) → Drug(y)");
  EXPECT_EQ(rendered[4], "∀x. Patient(x) → (∃y. suffers(x, y))");
  EXPECT_EQ(rendered[5], "∀x. Patient(x) → ¬Doctor(x)");
}

TEST(Translate, Figure2FormulasForSkilledIn) {
  Translated t;
  auto formulas = t.translator->AttributeToFol(t.symbols.Find("skilled_in"));
  ASSERT_TRUE(formulas.ok()) << formulas.status();
  ASSERT_EQ(formulas->size(), 2u);
  EXPECT_EQ(ql::FormulaToString(*t.terms, (*formulas)[0]),
            "∀x. ∀y. skilled_in(x, y) → (Person(x) ∧ Topic(y))");
  EXPECT_EQ(ql::FormulaToString(*t.terms, (*formulas)[1]),
            "∀x. ∀y. (skilled_in(x, y) → specialist(y, x)) ∧ "
            "(specialist(y, x) → skilled_in(x, y))");
}

TEST(Translate, Figure4FormulaForQueryPatient) {
  Translated t;
  auto formula = t.translator->QueryClassToFol(t.symbols.Find("QueryPatient"));
  ASSERT_TRUE(formula.ok()) << formula.status();
  std::string rendered = ql::FormulaToString(*t.terms, *formula);
  // Spot-check the shape of Figure 4: superclass atoms, the labeled
  // paths, the where equality and the constraint clause.
  EXPECT_NE(rendered.find("Male(t)"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("Patient(t)"), std::string::npos);
  EXPECT_NE(rendered.find("consults(t, l1)"), std::string::npos);
  EXPECT_NE(rendered.find("Female(l1)"), std::string::npos);
  EXPECT_NE(rendered.find("skilled_in(l2,"), std::string::npos);
  EXPECT_NE(rendered.find("l1 ≐ l2"), std::string::npos);
  EXPECT_NE(rendered.find("Drug(d)"), std::string::npos);
  EXPECT_NE(rendered.find("d ≐ Aspirin"), std::string::npos);
}

}  // namespace
}  // namespace oodb
