// The "trader" scenario from the paper's conclusion (Sect. 6): in a
// cooperative information system, the first user asking a query triggers
// normal evaluation; a control component memorizes the query's structural
// part as a materialized view, and subsequent queries are checked for
// subsumption against the memorized views — "each user may want to see
// the patients leaving the hospital next week."
//
//   $ ./trader
#include <cstdio>
#include <vector>

#include "db/database.h"
#include "db/evaluator.h"
#include "dl/frontend.h"
#include "views/views.h"

namespace {

constexpr const char* kSource = R"(
Class Document with
  attribute
    authored_by: Engineer
    reviews: Document
    concerns: Product
  attribute, necessary, single
    status: Status
end Document
Class Report isA Document with
end Report
Class Engineer with
  attribute
    works_on: Product
end Engineer
Class Product with
end Product
Class Status with
end Status
Attribute authored_by with
  domain: Document
  range: Engineer
  inverse: author_of
end authored_by

// User 1: quality reports about a product their author works on.
QueryClass SelfAuditReports isA Report with
  derived
    l1: (concerns: Product)
    l2: (authored_by: Engineer).(works_on: Product)
  where
    l1 = l2
end SelfAuditReports

// User 2: the same, but only for released documents — strictly narrower.
QueryClass ReleasedSelfAudits isA Report with
  derived
    (status: {released})
    l1: (concerns: Product)
    l2: (authored_by: Engineer).(works_on: Product)
  where
    l1 = l2
end ReleasedSelfAudits

// User 3: reports concerning any product — strictly broader: NOT
// subsumed by user 1's view, needs its own evaluation.
QueryClass ProductReports isA Report with
  derived
    (concerns: Product)
end ProductReports
)";

}  // namespace

int main() {
  using namespace oodb;

  dl::Frontend front;
  if (auto s = front.Load(kSource); !s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return 1;
  }

  db::Database database(*front.model, &front.symbols);
  auto S = [&](const char* s) { return front.symbols.Intern(s); };
  auto obj = [&](const char* name, const char* cls) {
    db::ObjectId o = *database.CreateObject(name);
    (void)database.AddToClass(o, S(cls));
    return o;
  };

  db::ObjectId released = obj("released", "Status");
  db::ObjectId draft = obj("draft", "Status");
  db::ObjectId widget = obj("widget", "Product");
  db::ObjectId gadget = obj("gadget", "Product");
  db::ObjectId ada = obj("ada", "Engineer");
  db::ObjectId grace = obj("grace", "Engineer");
  (void)database.AddAttr(ada, S("works_on"), widget);
  (void)database.AddAttr(grace, S("works_on"), gadget);

  struct Doc {
    const char* name;
    db::ObjectId author, product, status;
  };
  for (const Doc& d : std::vector<Doc>{
           {"r1", ada, widget, released},   // self-audit, released
           {"r2", ada, widget, draft},      // self-audit, draft
           {"r3", ada, gadget, released},   // not self-audit
           {"r4", grace, gadget, draft},    // self-audit, draft
           {"r5", grace, widget, released}  // not self-audit
       }) {
    db::ObjectId o = obj(d.name, "Report");
    (void)database.AddAttr(o, S("authored_by"), d.author);
    (void)database.AddAttr(o, S("concerns"), d.product);
    (void)database.AddAttr(o, S("status"), d.status);
  }

  // The trader: every structural query that had to be evaluated from
  // scratch is memorized as a materialized view for later users.
  views::ViewCatalog catalog(&database, front.translator.get());
  views::Optimizer optimizer(&database, &catalog, *front.sigma,
                             front.translator.get());

  auto serve = [&](const char* query) {
    Symbol q = S(query);
    views::QueryPlan plan;
    db::EvalStats stats;
    auto answers = optimizer.Execute(q, &plan, &stats);
    std::printf("user asks %-20s → %s\n", query, plan.explanation.c_str());
    std::printf("  answers: {");
    for (db::ObjectId o : *answers) {
      std::printf(" %s", front.symbols.Name(database.ObjectName(o)).c_str());
    }
    std::printf(" }\n");
    if (!plan.uses_view) {
      const dl::ClassDef* def = database.model().FindClass(q);
      if (def != nullptr && def->IsStructural()) {
        // Piggyback materialization: the answers were just computed, so
        // the view comes for free (paper Sect. 6).
        if (catalog.DefineViewFromAnswers(q, *answers).ok()) {
          std::printf(
              "  trader: memorized '%s' as a materialized view "
              "(no re-evaluation)\n",
              query);
        }
      }
    }
  };

  serve("SelfAuditReports");    // evaluated from scratch, then memorized
  serve("ReleasedSelfAudits");  // subsumed by the memorized view
  serve("ProductReports");      // broader: needs its own evaluation
  serve("ReleasedSelfAudits");  // still answered through the view

  return 0;
}
