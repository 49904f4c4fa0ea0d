// Quickstart: the paper's running example end to end in ~60 lines of
// client code — define a DL schema with a query and a view, translate to
// the abstract languages, and decide Σ-subsumption.
//
//   $ ./quickstart
#include <cstdio>

#include "calculus/subsumption.h"
#include "dl/frontend.h"
#include "ql/print.h"

int main() {
  using namespace oodb;

  // 1. The database schema, a query and a view, in the concrete
  //    frame-like language DL (paper Figures 1, 3, 5).
  const char* source = R"(
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

    Attribute skilled_in with
      domain: Person
      range: Topic
      inverse: specialist
    end skilled_in

    // Male patients consulting a female specialist for their disease,
    // taking no drug except Aspirin.
    QueryClass QueryPatient isA Male, Patient with
      derived
        l1: (consults: Female)
        l2: suffers.(specialist: Doctor)
      where
        l1 = l2
      constraint:
        forall d/Drug not (this takes d) or (d = Aspirin)
    end QueryPatient

    // Patients with a stored name consulting a doctor who is a
    // specialist for one of their diseases: a materializable view.
    QueryClass ViewPatient isA Patient with
      derived
        (name: String)
        l1: (consults: Doctor).(skilled_in: Disease)
        l2: (suffers: Disease)
      where
        l1 = l2
    end ViewPatient
  )";

  // 2. The front end: parse and resolve, then translate the structural
  //    schema into SL axioms Σ. Classes like Male/Female/Drug that are
  //    used but not declared are implicitly declared (with warnings).
  dl::Frontend front;
  if (auto s = front.Load(source); !s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const std::string& warning : front.model->warnings()) {
    std::printf("note: %s\n", warning.c_str());
  }

  // 3. Translate the queries into QL concepts.
  ql::ConceptId query = *front.translator->ClassConcept("QueryPatient");
  ql::ConceptId view = *front.translator->ClassConcept("ViewPatient");
  std::printf("\nC_Q = %s\n", ql::ConceptToString(*front.terms, query).c_str());
  std::printf("D_V = %s\n\n", ql::ConceptToString(*front.terms, view).c_str());

  // 4. Decide subsumption (polynomial time, Theorem 4.9).
  calculus::SubsumptionChecker checker(*front.sigma);
  auto outcome = checker.SubsumesDetailed(query, view);
  std::printf("QueryPatient ⊑_Σ ViewPatient?  %s\n",
              outcome->subsumed ? "YES" : "no");
  std::printf("  (%llu rule applications, %zu individuals, %zu facts, "
              "%lld ns)\n",
              static_cast<unsigned long long>(
                  outcome->stats.TotalApplications()),
              outcome->stats.individuals, outcome->stats.facts,
              static_cast<long long>(outcome->stats.duration.count()));

  auto reverse = checker.Subsumes(view, query);
  std::printf("ViewPatient ⊑_Σ QueryPatient?  %s\n",
              *reverse ? "YES" : "no");

  std::printf(
      "\nBecause the view subsumes the query, a query optimizer may answer\n"
      "QueryPatient by filtering the stored extent of ViewPatient instead\n"
      "of scanning the Patient extent (see the medical_optimizer example).\n");
  return 0;
}
