// The full optimizer pipeline on a populated database: materialize the
// view, let the optimizer detect the subsumption, and compare the plans.
//
//   $ ./medical_optimizer
#include <cstdio>

#include "db/database.h"
#include "db/evaluator.h"
#include "dl/frontend.h"
#include "views/views.h"

namespace {

constexpr const char* kSource = R"(
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
Class Topic with
end Topic
Class Disease isA Topic with
end Disease
Attribute skilled_in with
  domain: Person
  range: Topic
  inverse: specialist
end skilled_in
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
)";

}  // namespace

int main() {
  using namespace oodb;

  dl::Frontend front;
  if (auto s = front.Load(kSource); !s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return 1;
  }

  // Populate a small hospital.
  db::Database database(*front.model, &front.symbols);
  auto S = [&](const char* s) { return front.symbols.Intern(s); };
  auto obj = [&](const char* name, const char* cls) {
    db::ObjectId o = *database.CreateObject(name);
    (void)database.AddToClass(o, S(cls));
    return o;
  };
  auto named_person = [&](const char* name, const char* gender) {
    db::ObjectId o = *database.CreateObject(name);
    (void)database.AddToClass(o, S("Person"));
    (void)database.AddToClass(o, S(gender));
    db::ObjectId n = obj((std::string(name) + "_name").c_str(), "String");
    (void)database.AddAttr(o, S("name"), n);
    return o;
  };

  db::ObjectId flu = obj("flu", "Disease");
  db::ObjectId cough = obj("cough", "Disease");
  db::ObjectId aspirin = obj("Aspirin", "Drug");
  db::ObjectId ibuprofen = obj("Ibuprofen", "Drug");

  db::ObjectId alice = named_person("alice", "Female");
  (void)database.AddToClass(alice, S("Doctor"));
  (void)database.AddAttr(alice, S("skilled_in"), flu);

  struct PatientSpec {
    const char* name;
    const char* gender;
    db::ObjectId disease;
    db::ObjectId drug;  // 0 = none
  };
  for (const PatientSpec& spec :
       std::vector<PatientSpec>{{"bob", "Male", flu, aspirin},
                                {"gus", "Male", flu, ibuprofen},
                                {"carol", "Female", flu, 0},
                                {"frank", "Male", cough, 0}}) {
    db::ObjectId o = named_person(spec.name, spec.gender);
    (void)database.AddToClass(o, S("Patient"));
    (void)database.AddAttr(o, S("suffers"), spec.disease);
    (void)database.AddAttr(o, S("consults"), alice);
    if (spec.drug != 0) (void)database.AddAttr(o, S("takes"), spec.drug);
  }

  auto violations = database.CheckLegalState();
  std::printf("legal state: %s\n",
              violations.empty() ? "yes" : violations[0].c_str());

  // Materialize the view and plan the query.
  views::ViewCatalog catalog(&database, front.translator.get());
  if (auto s = catalog.DefineView(S("ViewPatient")); !s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return 1;
  }
  const views::View* view = catalog.Find(S("ViewPatient"));
  std::printf("materialized ViewPatient = {");
  for (db::ObjectId o : view->extent) {
    std::printf(" %s", front.symbols.Name(database.ObjectName(o)).c_str());
  }
  std::printf(" }\n");

  views::Optimizer optimizer(&database, &catalog, *front.sigma,
                             front.translator.get());
  views::QueryPlan plan;
  db::EvalStats stats;
  auto answers = optimizer.Execute(S("QueryPatient"), &plan, &stats);
  std::printf("plan: %s\n", plan.explanation.c_str());
  std::printf("QueryPatient = {");
  for (db::ObjectId o : *answers) {
    std::printf(" %s", front.symbols.Name(database.ObjectName(o)).c_str());
  }
  std::printf(" }   (%zu candidates examined)\n", stats.candidates_examined);

  // An update arrives; incremental maintenance keeps the view fresh.
  std::printf("\nupdate: alice becomes skilled in cough\n");
  (void)database.AddAttr(alice, S("skilled_in"), cough);
  (void)catalog.RefreshIncremental({alice, cough});
  view = catalog.Find(S("ViewPatient"));
  std::printf("refreshed ViewPatient = {");
  for (db::ObjectId o : view->extent) {
    std::printf(" %s", front.symbols.Name(database.ObjectName(o)).c_str());
  }
  std::printf(" }\n");
  return 0;
}
