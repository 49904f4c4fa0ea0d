// Experiments E1/E2/E3/E10: regenerates the paper's figures from the
// implementation —
//   Figure 2: FOL translation of the Patient / skilled_in declarations
//   Figure 6: SL schema axioms of the medical database
//   Figure 4: FOL definition of QueryPatient
//   Sect. 3.2: the concepts C_Q and D_V
//   Figure 11: the completion trace deciding C_Q ⊑_Σ D_V
//   Sect. 4.4: skolemized variables-on-paths queries
#include <cstdio>

#include "bench_util.h"
#include "calculus/subsumption.h"
#include "dl/frontend.h"
#include "ql/fol.h"
#include "ql/print.h"
#include "schema/schema.h"

namespace {

// The paper's running example (Figures 1, 3, 5) in DL syntax.
constexpr const char* kMedicalSource = R"(
Class Person with
  attribute, necessary, single
    name: String
end Person

Class Patient isA Person with
  attribute
    takes: Drug
    consults: Doctor
  attribute, necessary
    suffers: Disease
  constraint:
    not (this in Doctor)
end Patient

Class Doctor isA Person with
  attribute
    skilled_in: Disease
end Doctor

Class Male isA Person with
end Male

Class Female isA Person with
end Female

Class Drug with
end Drug

Class Disease isA Topic with
end Disease

Class String with
end String

Class Topic with
end Topic

Attribute skilled_in with
  domain: Person
  range: Topic
  inverse: specialist
end skilled_in

Attribute takes with
  domain: Patient
  range: Drug
end takes

Attribute consults with
  domain: Patient
  range: Doctor
end consults

Attribute suffers with
  domain: Patient
  range: Disease
end suffers

Attribute name with
  domain: Person
  range: String
end name

QueryClass QueryPatient isA Male, Patient with
  derived
    l1: (consults: Female)
    l2: suffers.(specialist: Doctor)
  where
    l1 = l2
  constraint:
    forall d/Drug not (this takes d) or (d = Aspirin)
end QueryPatient

QueryClass ViewPatient isA Patient with
  derived
    (name: String)
    l1: (consults: Doctor).(skilled_in: Disease)
    l2: (suffers: Disease)
  where
    l1 = l2
end ViewPatient

QueryClass CoQueryPatient isA Patient with
  derived
    (consults: ?d)
    (suffers: Disease).(specialist: ?d)
end CoQueryPatient
)";

}  // namespace

int main() {
  using namespace oodb;

  dl::Frontend front;
  if (auto s = front.Load(kMedicalSource); !s.ok()) {
    std::printf("front end error: %s\n", s.ToString().c_str());
    return 1;
  }
  const SymbolTable& symbols = front.symbols;
  const ql::TermFactory& terms = *front.terms;
  const schema::Schema& sigma = *front.sigma;
  dl::Translator& translator = *front.translator;

  bench::Section("Figure 2: declarations of Patient and skilled_in in logic");
  for (const char* name : {"Patient"}) {
    auto formulas = translator.SchemaClassToFol(symbols.Find(name));
    for (const auto& f : *formulas) {
      std::printf("  %s\n", ql::FormulaToString(terms, f).c_str());
    }
  }
  auto attr_formulas = translator.AttributeToFol(symbols.Find("skilled_in"));
  for (const auto& f : *attr_formulas) {
    std::printf("  %s\n", ql::FormulaToString(terms, f).c_str());
  }

  bench::Section("Figure 6: schema axioms of the medical database");
  for (const auto& ax : sigma.inclusions()) {
    std::printf("  %s ⊑ %s\n", symbols.Name(ax.lhs).c_str(),
                ql::ConceptToString(terms, ax.rhs).c_str());
  }
  for (const auto& ax : sigma.typings()) {
    std::printf("  %s ⊑ %s × %s\n", symbols.Name(ax.attr).c_str(),
                symbols.Name(ax.domain).c_str(),
                symbols.Name(ax.range).c_str());
  }

  bench::Section("Figure 4: the query QueryPatient in logic");
  auto query_fol = translator.QueryClassToFol(symbols.Find("QueryPatient"));
  std::printf("  QueryPatient(t) ⇔ %s\n",
              ql::FormulaToString(terms, *query_fol).c_str());

  bench::Section("Section 3.2: the concepts C_Q and D_V");
  auto cq = *translator.QueryConcept(symbols.Find("QueryPatient"));
  auto dv = *translator.QueryConcept(symbols.Find("ViewPatient"));
  std::printf("  C_Q = %s\n", ql::ConceptToString(terms, cq).c_str());
  std::printf("  D_V = %s\n", ql::ConceptToString(terms, dv).c_str());

  bench::Section("Figure 11: completion trace for C_Q ⊑_Σ D_V");
  calculus::SubsumptionChecker::Options options;
  options.record_trace = true;
  calculus::SubsumptionChecker checker(sigma, options);
  auto outcome = checker.SubsumesDetailed(cq, dv);
  for (const auto& event : outcome->trace) {
    std::printf("  [%s] %s\n", calculus::RuleName(event.rule),
                event.text.c_str());
  }
  std::printf("\n  verdict: C_Q %s D_V  (%zu rule applications, "
              "%zu individuals, %zu facts)\n",
              outcome->subsumed ? "⊑_Σ" : "⋢_Σ",
              static_cast<size_t>(outcome->stats.TotalApplications()),
              outcome->stats.individuals, outcome->stats.facts);
  auto reverse = checker.Subsumes(dv, cq);
  std::printf("  reverse: D_V %s C_Q\n", *reverse ? "⊑_Σ" : "⋢_Σ");

  bench::Section(
      "Sect. 4.4 (variables on paths): skolemized coreference query");
  auto co = *translator.QueryConcept(symbols.Find("CoQueryPatient"));
  std::printf("  C(CoQueryPatient) = %s\n",
              ql::ConceptToString(terms, co).c_str());
  auto co_in_view = checker.Subsumes(co, dv);
  std::printf("  CoQueryPatient ⊑_Σ ViewPatient: %s\n",
              *co_in_view ? "yes" : "no");

  return 0;
}
