#include "views/views.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "base/strings.h"
#include "calculus/services.h"
#include "db/concept_eval.h"
#include "ql/print.h"

namespace oodb::views {

ViewCatalog::ViewCatalog(db::Database* database, dl::Translator* translator)
    : db_(database), translator_(translator), evaluator_(*database) {}

Status ViewCatalog::DefineView(Symbol query_class) {
  return DefineViewFromAnswers(query_class, {});
}

Status ViewCatalog::DefineViewFromAnswers(
    Symbol query_class, std::vector<db::ObjectId> answers) {
  if (index_.count(query_class) > 0) {
    return AlreadyExistsError(
        StrCat("view '", db_->symbols().Name(query_class),
               "' already defined"));
  }
  const dl::ClassDef* def = db_->model().FindClass(query_class);
  if (def == nullptr || !def->is_query) {
    return InvalidArgumentError(
        StrCat("'", db_->symbols().Name(query_class),
               "' is not a query class"));
  }
  if (!dl::IsDeeplyStructural(db_->model(), query_class)) {
    return FailedPreconditionError(
        StrCat("query class '", db_->symbols().Name(query_class),
               "' has a non-structural part (possibly through a referenced "
               "query class) and cannot define a view (paper Sect. 3: views "
               "must be captured completely by their concept)"));
  }
  View view;
  view.name = query_class;
  OODB_ASSIGN_OR_RETURN(view.concept_id,
                        translator_->QueryConcept(query_class));
  view.radius = RadiusOf(query_class);
  if (answers.empty()) {
    OODB_RETURN_IF_ERROR(Materialize(view));
  } else {
    // Piggyback: reuse the caller's freshly computed answers.
    view.extent = std::move(answers);
    view.materialized_version = db_->version();
    view.refresh_count = 1;
  }
  index_.emplace(query_class, views_.size());
  views_.push_back(std::move(view));
  return Status::Ok();
}

namespace {

// Maintenance radius of a bare concept: the longest filtered path chain.
size_t ConceptRadius(const ql::TermFactory& terms, ql::ConceptId c) {
  const ql::ConceptNode n = terms.node(c);
  switch (n.kind) {
    case ql::ConceptKind::kAnd:
      return std::max(ConceptRadius(terms, n.lhs),
                      ConceptRadius(terms, n.rhs));
    case ql::ConceptKind::kExists:
    case ql::ConceptKind::kAgree: {
      size_t radius = 0;
      for (const ql::Restriction& r : terms.path(n.path)) {
        radius += 1 + ConceptRadius(terms, r.filter);
      }
      return radius;
    }
    default:
      return 0;
  }
}

}  // namespace

Status ViewCatalog::DefineConceptView(Symbol name, ql::ConceptId concept_id) {
  if (index_.count(name) > 0 || db_->model().FindClass(name) != nullptr) {
    return AlreadyExistsError(
        StrCat("'", db_->symbols().Name(name),
               "' already names a view or class"));
  }
  const ql::TermFactory& terms = translator_->terms();
  OODB_RETURN_IF_ERROR(calculus::ValidateQlConcept(terms, concept_id));
  for (ql::ConceptId sub : terms.Subconcepts(concept_id)) {
    const ql::ConceptNode& n = terms.node(sub);
    if (n.kind == ql::ConceptKind::kSingleton &&
        !db_->FindObject(n.sym).has_value()) {
      return FailedPreconditionError(
          StrCat("singleton {", db_->symbols().Name(n.sym),
                 "} does not name a database object"));
    }
  }
  View view;
  view.name = name;
  view.concept_id = concept_id;
  view.concept_only = true;
  view.radius = ConceptRadius(terms, concept_id);
  OODB_RETURN_IF_ERROR(Materialize(view));
  index_.emplace(name, views_.size());
  views_.push_back(std::move(view));
  return Status::Ok();
}

Status ViewCatalog::DropView(Symbol query_class) {
  auto it = index_.find(query_class);
  if (it == index_.end()) {
    return NotFoundError(StrCat("no view named '",
                                db_->symbols().Name(query_class), "'"));
  }
  size_t pos = it->second;
  views_.erase(views_.begin() + pos);
  index_.erase(it);
  for (auto& [name, idx] : index_) {
    if (idx > pos) --idx;
  }
  return Status::Ok();
}

Status ViewCatalog::Materialize(View& view) {
  if (view.concept_only) {
    const ql::TermFactory& terms = translator_->terms();
    view.extent.clear();
    for (db::ObjectId o = 0; o < db_->num_objects(); ++o) {
      if (db::ConceptHolds(*db_, terms, view.concept_id, o)) {
        view.extent.push_back(o);
      }
    }
  } else {
    OODB_ASSIGN_OR_RETURN(view.extent, evaluator_.Evaluate(view.name));
  }
  view.materialized_version = db_->version();
  ++view.refresh_count;
  return Status::Ok();
}

Status ViewCatalog::RefreshAll() {
  for (View& view : views_) {
    if (view.materialized_version != db_->version()) {
      OODB_RETURN_IF_ERROR(Materialize(view));
    }
  }
  return Status::Ok();
}

size_t ViewCatalog::RadiusOf(Symbol query_class) const {
  // Longest dependency chain: derived-path length plus the radius of any
  // query class referenced from a filter or a superclass.
  std::unordered_set<Symbol> visiting;
  std::function<size_t(Symbol)> radius = [&](Symbol cls) -> size_t {
    const dl::ClassDef* def = db_->model().FindClass(cls);
    if (def == nullptr || !def->is_query) return 0;
    if (!visiting.insert(cls).second) return 0;  // cycle guard
    size_t best = 0;
    for (Symbol super : def->supers) best = std::max(best, radius(super));
    for (const dl::ResolvedPath& path : def->derived) {
      size_t chain = 0;
      for (const dl::ResolvedStep& step : path.steps) {
        chain += 1;
        if (step.filter.kind == dl::ResolvedFilter::Kind::kClass) {
          chain += radius(step.filter.name);
        }
      }
      best = std::max(best, chain);
    }
    visiting.erase(cls);
    return best;
  };
  return radius(query_class);
}

Status ViewCatalog::RefreshIncremental(
    const std::vector<db::ObjectId>& touched) {
  for (View& view : views_) {
    // Collect every object whose membership may have changed: reachable
    // from a touched object within `radius` steps over any attribute, in
    // either direction (paths may use inverses).
    std::unordered_set<db::ObjectId> affected(touched.begin(), touched.end());
    std::deque<std::pair<db::ObjectId, size_t>> queue;
    for (db::ObjectId o : touched) queue.emplace_back(o, 0);
    while (!queue.empty()) {
      auto [o, depth] = queue.front();
      queue.pop_front();
      if (depth >= view.radius) continue;
      for (const dl::AttributeDef& attr : db_->model().attributes()) {
        for (bool inverted : {false, true}) {
          for (db::ObjectId next :
               db_->AttrValues(o, ql::Attr{attr.name, inverted})) {
            if (affected.insert(next).second) {
              queue.emplace_back(next, depth + 1);
            }
          }
        }
      }
    }
    for (db::ObjectId o : affected) {
      bool in;
      if (view.concept_only) {
        in = db::ConceptHolds(*db_, translator_->terms(), view.concept_id,
                              o);
      } else {
        OODB_ASSIGN_OR_RETURN(in, evaluator_.IsAnswer(view.name, o));
      }
      auto pos = std::lower_bound(view.extent.begin(), view.extent.end(), o);
      bool present = pos != view.extent.end() && *pos == o;
      if (in && !present) {
        view.extent.insert(pos, o);
      } else if (!in && present) {
        view.extent.erase(pos);
      }
    }
    view.materialized_version = db_->version();
    ++view.refresh_count;
  }
  return Status::Ok();
}

const View* ViewCatalog::Find(Symbol name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &views_[it->second];
}

namespace {

calculus::CheckerOptions ScanOptions() {
  calculus::CheckerOptions options;
  options.memoize = false;
  return options;
}

}  // namespace

Optimizer::Optimizer(db::Database* database, ViewCatalog* catalog,
                     const schema::Schema& sigma, dl::Translator* translator)
    : db_(database),
      catalog_(catalog),
      translator_(translator),
      checker_(sigma, ScanOptions()),
      evaluator_(*database) {}

Result<QueryPlan> Optimizer::ChoosePlan(Symbol query_class,
                                        obs::TraceContext* trace) {
  ql::ConceptId query_concept = ql::kInvalidConcept;
  {
    obs::ScopedSpan span(trace, obs::Phase::kTranslate);
    OODB_ASSIGN_OR_RETURN(query_concept,
                          translator_->QueryConcept(query_class));
  }
  QueryPlan plan;
  // Base-scan cost: smallest superclass extent (mirrors the evaluator).
  size_t base_pool = db_->num_objects();
  for (Symbol super : db_->model().SuperClosure(query_class)) {
    const dl::ClassDef* def = db_->model().FindClass(super);
    if (def == nullptr || def->is_query || super == db_->model().object_class) {
      continue;
    }
    base_pool = std::min(base_pool, db_->ClassSize(super));
  }
  plan.pool_size = base_pool;
  plan.explanation = StrCat("base scan over ", base_pool, " candidates");

  // One completion decides the query against the whole catalog
  // (CompletionEngine::RunBatch).
  std::vector<ql::ConceptId> view_concepts;
  for (const View& view : catalog_->views()) {
    view_concepts.push_back(view.concept_id);
  }
  std::vector<bool> verdicts;
  if (!view_concepts.empty()) {
    plan.subsumption_checks = 1;
    OODB_ASSIGN_OR_RETURN(verdicts,
                          checker_.SubsumesBatch(query_concept,
                                                 view_concepts, trace));
  }
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i]) plan.views_used.push_back(catalog_->views()[i].name);
  }
  const std::vector<db::ObjectId> pool = PlanPool(plan);
  // Intersecting (ties prefer views: their candidates are pre-filtered by
  // the subsuming conditions).
  if (!plan.views_used.empty() && pool.size() <= plan.pool_size) {
    plan.uses_view = true;
    plan.view = plan.views_used[0];
    plan.pool_size = pool.size();
    plan.explanation = StrCat(
        "filter ", plan.views_used.size() == 1 ? "materialized view"
                                               : "view intersection",
        " '",
        StrJoinMapped(plan.views_used, " ⊓ ",
                      [&](Symbol s) { return db_->symbols().Name(s); }),
        "' (", pool.size(), " candidates, base scan was ", base_pool, ")");
  } else {
    plan.views_used.clear();
  }
  return plan;
}

// Intersection of the used views' (sorted) extents. Every subsuming
// view's extent is a superset of the answers, so the intersection of all
// of them is the smallest view-derived pool.
std::vector<db::ObjectId> Optimizer::PlanPool(const QueryPlan& plan) const {
  std::vector<db::ObjectId> pool;
  bool first = true;
  for (Symbol name : plan.views_used) {
    const View* view = catalog_->Find(name);
    if (first) {
      pool = view->extent;
      first = false;
    } else {
      std::vector<db::ObjectId> merged;
      std::set_intersection(pool.begin(), pool.end(), view->extent.begin(),
                            view->extent.end(), std::back_inserter(merged));
      pool = std::move(merged);
    }
  }
  return pool;
}

Result<std::vector<db::ObjectId>> Optimizer::Execute(Symbol query_class,
                                                     QueryPlan* plan_out,
                                                     db::EvalStats* stats) {
  OODB_RETURN_IF_ERROR(catalog_->RefreshAll());
  OODB_ASSIGN_OR_RETURN(QueryPlan plan, ChoosePlan(query_class));

  // Residual filtering (Sect. 6's "minimal filter query"): for a deeply
  // structural query Q answered through views V₁…Vₖ, compute R with
  // V₁ ⊓ … ⊓ Vₖ ⊓ R ≡_Σ Q and test pool candidates against R only.
  // Requires a legal state (the equivalence is w.r.t. Σ-interpretations).
  if (plan.uses_view &&
      dl::IsDeeplyStructural(db_->model(), query_class)) {
    OODB_ASSIGN_OR_RETURN(ql::ConceptId query_concept,
                          translator_->QueryConcept(query_class));
    ql::TermFactory& terms = checker_.sigma().terms();
    std::vector<ql::ConceptId> used_concepts;
    for (Symbol name : plan.views_used) {
      used_concepts.push_back(catalog_->Find(name)->concept_id);
    }
    OODB_ASSIGN_OR_RETURN(
        std::optional<ql::ConceptId> residual,
        calculus::ResidualFilter(checker_, &terms, query_concept,
                                 terms.AndAll(used_concepts)));
    if (residual.has_value()) {
      plan.uses_residual = true;
      plan.residual = *residual;
      plan.explanation +=
          StrCat("; residual filter: ",
                 ql::ConceptToString(terms, *residual));
      std::vector<db::ObjectId> pool = PlanPool(plan);
      std::vector<db::ObjectId> answers;
      for (db::ObjectId o : pool) {
        if (db::ConceptHolds(*db_, terms, *residual, o)) {
          answers.push_back(o);
        }
      }
      if (stats != nullptr) {
        stats->candidates_examined += pool.size();
        stats->answers = answers.size();
      }
      if (plan_out != nullptr) *plan_out = plan;
      return answers;
    }
  }

  Result<std::vector<db::ObjectId>> answers =
      plan.uses_view
          ? evaluator_.EvaluateOver(query_class, PlanPool(plan), stats)
          : evaluator_.Evaluate(query_class, stats);
  if (plan_out != nullptr) *plan_out = plan;
  return answers;
}

}  // namespace oodb::views
