// Materialized views and the subsumption-based query optimizer — the
// application the paper builds the calculus for (Sect. 1, 3.2, 6).
//
// Views are structural query classes (no constraint clause, no path
// variables) whose answers are stored. An incoming query is checked
// against the catalog with the polynomial subsumption procedure; if some
// view subsumes it, the optimizer evaluates the query by filtering the
// view's stored extent instead of scanning a base-class extent.
#ifndef OODB_VIEWS_VIEWS_H_
#define OODB_VIEWS_VIEWS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/symbol.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "dl/model.h"
#include "dl/translate.h"
#include "obs/trace.h"
#include "schema/schema.h"

namespace oodb::views {

struct View {
  Symbol name;               // the defining query class (or a fresh name)
  ql::ConceptId concept_id;  // its (complete) QL translation
  std::vector<db::ObjectId> extent;  // sorted materialized answers
  uint64_t materialized_version = 0;
  size_t refresh_count = 0;
  // Dependency radius: view membership of o depends only on objects
  // within this many attribute steps of o (for incremental maintenance).
  size_t radius = 0;
  // True for synthesized views defined directly by a QL concept (no DL
  // query class): materialized and maintained via ConceptHolds.
  bool concept_only = false;
};

class ViewCatalog {
 public:
  // All pointees must outlive the catalog.
  ViewCatalog(db::Database* database, dl::Translator* translator);

  // Registers and materializes a view. Fails (kFailedPrecondition) if the
  // query class is not structural: a view must be captured completely by
  // its concept for subsumption-based reuse to be sound (paper Sect. 3).
  Status DefineView(Symbol query_class);

  // Piggyback materialization (paper Sect. 6: "the first evaluation of
  // the view creates no significant overhead since it is part of the
  // evaluation of the original query"): registers the view using answers
  // the caller just computed at the CURRENT database version, skipping
  // the re-evaluation DefineView would perform. Same structural
  // precondition; `answers` must be sorted.
  Status DefineViewFromAnswers(Symbol query_class,
                               std::vector<db::ObjectId> answers);

  // Removes a view from the catalog.
  Status DropView(Symbol query_class);

  // Defines a *synthesized* view directly from a QL concept under a fresh
  // name — e.g. a CommonSubsumer of a query workload (Sect. 6's shared
  // object sets). The concept must be pure QL and may not contain
  // singletons that do not name current database objects (skolems from
  // path variables would silently empty the extent). Materialized and
  // maintained by direct concept evaluation.
  Status DefineConceptView(Symbol name, ql::ConceptId concept_id);

  // Re-materializes every view that is stale w.r.t. the database version.
  Status RefreshAll();

  // Incremental maintenance: re-checks membership only for objects within
  // each view's dependency radius of the `touched` objects. Equivalent to
  // RefreshAll for updates that touched exactly those objects.
  Status RefreshIncremental(const std::vector<db::ObjectId>& touched);

  const View* Find(Symbol name) const;
  const std::vector<View>& views() const { return views_; }

 private:
  Status Materialize(View& view);
  size_t RadiusOf(Symbol query_class) const;

  db::Database* db_;
  dl::Translator* translator_;
  db::QueryEvaluator evaluator_;
  std::vector<View> views_;
  std::unordered_map<Symbol, size_t> index_;
};

// The chosen evaluation strategy for one query.
struct QueryPlan {
  bool uses_view = false;
  // The subsuming views whose extents are intersected as the candidate
  // pool (every subsuming view only shrinks it). `view` is the first.
  std::vector<Symbol> views_used;
  Symbol view;          // valid iff uses_view
  size_t pool_size = 0; // candidates the plan will examine
  // Number of subsumption checks performed while planning (batch
  // completion: 1 when the catalog is non-empty).
  size_t subsumption_checks = 0;
  // Sect. 6 "minimal filter query": when the query is deeply structural
  // and views are used, candidates are tested against this residual
  // concept R (with V₁ ⊓ … ⊓ Vₖ ⊓ R ≡_Σ Q) instead of the full query.
  bool uses_residual = false;
  ql::ConceptId residual = ql::kInvalidConcept;
  std::string explanation;
};

class Optimizer {
 public:
  // All pointees must outlive the optimizer. `sigma` must be the SL
  // translation of the database's schema.
  Optimizer(db::Database* database, ViewCatalog* catalog,
            const schema::Schema& sigma, dl::Translator* translator);

  // Chooses the cheapest plan: the smallest materialized extent among the
  // views that Σ-subsume the query, else the base scan. When a trace is
  // supplied, the query's translation is booked as its translate phase
  // and the catalog scan as prefilter and engine.
  Result<QueryPlan> ChoosePlan(Symbol query_class,
                               obs::TraceContext* trace = nullptr);

  // Plans and executes; refreshes stale views first (a view must be up to
  // date before its extent may replace the search space).
  Result<std::vector<db::ObjectId>> Execute(Symbol query_class,
                                            QueryPlan* plan_out = nullptr,
                                            db::EvalStats* stats = nullptr);

 private:
  std::vector<db::ObjectId> PlanPool(const QueryPlan& plan) const;

  db::Database* db_;
  ViewCatalog* catalog_;
  dl::Translator* translator_;
  // Runs without the per-pair verdict memo: a cold query's catalog scan
  // would insert one entry per view that no later scan reads.
  calculus::SubsumptionChecker checker_;
  db::QueryEvaluator evaluator_;
};

}  // namespace oodb::views

#endif  // OODB_VIEWS_VIEWS_H_
