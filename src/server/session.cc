#include "server/session.h"

#include <unordered_map>
#include <utility>

#include "base/strings.h"
#include "base/sync.h"
#include "db/instance.h"
#include "dl/analyzer.h"

namespace oodb::server {

Result<std::unique_ptr<Session>> Session::FromSource(
    std::string_view dl_source, obs::TraceContext* trace) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<Session> session(new Session());
  // The session is unpublished, so the lock is uncontended; it is taken
  // anyway because database_/catalog_/optimizer_ are written below and
  // the analysis (rightly) has no notion of "not yet shared".
  base::WriterLock init_lock(&session->mu_);
  session->terms_ = std::make_unique<ql::TermFactory>(&session->symbols_);
  session->sigma_ = std::make_unique<schema::Schema>(session->terms_.get());
  {
    obs::ScopedSpan span(trace, obs::Phase::kParse);
    OODB_ASSIGN_OR_RETURN(dl::Model parsed,
                          dl::ParseAndAnalyze(dl_source, &session->symbols_));
    session->model_ = std::make_unique<dl::Model>(std::move(parsed));
  }
  session->warnings_ = session->model_->warnings();
  {
    obs::ScopedSpan span(trace, obs::Phase::kTranslate);
    session->translator_ = std::make_unique<dl::Translator>(
        *session->model_, session->terms_.get());
    OODB_RETURN_IF_ERROR(
        session->translator_->BuildSchema(session->sigma_.get()));
  }
  session->checker_ =
      std::make_unique<calculus::SubsumptionChecker>(*session->sigma_);
  // An empty state up front: CHECK/CLASSIFY need none, and OPTIMIZE is
  // well-defined over zero objects (plans, not answers).
  session->database_ =
      std::make_unique<db::Database>(*session->model_, &session->symbols_);
  session->catalog_ = std::make_unique<views::ViewCatalog>(
      session->database_.get(), session->translator_.get());
  session->optimizer_ = std::make_unique<views::Optimizer>(
      session->database_.get(), session->catalog_.get(), *session->sigma_,
      session->translator_.get());
  return session;
}

Status Session::LoadState(std::string_view odb_source) {
  // A fresh database invalidates every materialized extent, so the
  // catalog and optimizer are rebuilt; clients re-issue VIEW afterwards.
  auto database =
      std::make_unique<db::Database>(*model_, &symbols_);
  OODB_RETURN_IF_ERROR(db::LoadInstance(odb_source, database.get()).status());
  database_ = std::move(database);
  catalog_ = std::make_unique<views::ViewCatalog>(database_.get(),
                                                  translator_.get());
  optimizer_ = std::make_unique<views::Optimizer>(
      database_.get(), catalog_.get(), *sigma_, translator_.get());
  return Status::Ok();
}

Result<size_t> Session::DefineView(std::string_view name) {
  Symbol s = symbols_.Find(name);
  if (!s.valid() || model_->FindClass(s) == nullptr) {
    return NotFoundError(StrCat("no class named '", name, "'"));
  }
  OODB_RETURN_IF_ERROR(catalog_->DefineView(s));
  {
    // Keep the resident taxonomy in sync: a class UNDEFINEd out of it
    // re-enters on DEFINE, by incremental insertion if the DAG is warm.
    base::MutexLock lock(&classify_mu_);
    taxonomy_excluded_.erase(s);
    if (classifier_ != nullptr && !classifier_->Contains(s)) {
      OODB_ASSIGN_OR_RETURN(ql::ConceptId concept_id, ConceptOf(name));
      OODB_RETURN_IF_ERROR(classifier_->Insert(s, concept_id));
      ++taxonomy_inserts_;
      last_classify_ = classifier_->classify_stats();
      has_classified_ = true;
    }
  }
  return catalog_->Find(s)->extent.size();
}

Result<std::string> Session::UndefineView(std::string_view name) {
  Symbol s = symbols_.Find(name);
  const dl::ClassDef* def = s.valid() ? model_->FindClass(s) : nullptr;
  if (def == nullptr || !def->is_query) {
    return NotFoundError(StrCat("no query class named '", name, "'"));
  }
  bool view_dropped = false;
  if (catalog_->Find(s) != nullptr) {
    OODB_RETURN_IF_ERROR(catalog_->DropView(s));
    view_dropped = true;
  }
  bool taxonomy_removed = false;
  {
    base::MutexLock lock(&classify_mu_);
    if (classifier_ != nullptr && classifier_->Contains(s)) {
      OODB_RETURN_IF_ERROR(classifier_->Remove(s));
      taxonomy_removed = true;
      ++taxonomy_removes_;
      last_classify_ = classifier_->classify_stats();
      has_classified_ = true;
    }
    // Recorded even when the taxonomy is cold, so a later first CLASSIFY
    // builds without the class.
    taxonomy_excluded_.insert(s);
  }
  undefines_.fetch_add(1, std::memory_order_relaxed);
  return StrCat("undefined=", name,
                " view_dropped=", view_dropped ? "true" : "false",
                " taxonomy_removed=", taxonomy_removed ? "true" : "false",
                " views=", catalog_->views().size());
}

Result<ql::ConceptId> Session::ConceptOf(std::string_view name) {
  Symbol s = symbols_.Find(name);
  if (!s.valid()) return NotFoundError(StrCat("no class named '", name, "'"));
  return translator_->ClassConcept(s);
}

Result<bool> Session::Check(std::string_view c, std::string_view d,
                            obs::TraceContext* trace) {
  ql::ConceptId cc = ql::kInvalidConcept;
  ql::ConceptId dd = ql::kInvalidConcept;
  {
    obs::ScopedSpan span(trace, obs::Phase::kTranslate);
    OODB_ASSIGN_OR_RETURN(cc, ConceptOf(c));
    OODB_ASSIGN_OR_RETURN(dd, ConceptOf(d));
  }
  checks_.fetch_add(1, std::memory_order_relaxed);
  return checker_->Subsumes(cc, dd, trace);
}

Result<std::vector<bool>> Session::CheckBatch(Args operands,
                                              obs::TraceContext* trace) {
  const size_t num_pairs = operands.size() / 2;
  std::vector<ql::ConceptId> lhs(num_pairs);
  std::vector<ql::ConceptId> rhs(num_pairs);
  {
    obs::ScopedSpan span(trace, obs::Phase::kTranslate);
    for (size_t i = 0; i < num_pairs; ++i) {
      OODB_ASSIGN_OR_RETURN(lhs[i], ConceptOf(operands[2 * i]));
      OODB_ASSIGN_OR_RETURN(rhs[i], ConceptOf(operands[2 * i + 1]));
    }
  }
  // Group pair indices by left operand, preserving first-seen order, so
  // each distinct C costs one SubsumesBatch call over all its Ds.
  std::unordered_map<ql::ConceptId, size_t> group_of;
  std::vector<std::pair<ql::ConceptId, std::vector<size_t>>> groups;
  for (size_t i = 0; i < num_pairs; ++i) {
    auto [it, inserted] = group_of.emplace(lhs[i], groups.size());
    if (inserted) groups.push_back({lhs[i], {}});
    groups[it->second].second.push_back(i);
  }
  std::vector<bool> verdicts(num_pairs);
  for (const auto& [c, indices] : groups) {
    std::vector<ql::ConceptId> ds;
    ds.reserve(indices.size());
    for (size_t i : indices) ds.push_back(rhs[i]);
    OODB_ASSIGN_OR_RETURN(std::vector<bool> group_verdicts,
                          checker_->SubsumesBatch(c, ds, trace));
    for (size_t k = 0; k < indices.size(); ++k) {
      verdicts[indices[k]] = group_verdicts[k];
    }
  }
  checks_.fetch_add(num_pairs, std::memory_order_relaxed);
  return verdicts;
}

Status Session::EnsureClassifierLocked(obs::TraceContext* trace) {
  if (classifier_ != nullptr) return Status::Ok();
  auto classifier = std::make_unique<calculus::Classifier>(*checker_);
  {
    obs::ScopedSpan span(trace, obs::Phase::kTranslate);
    for (const dl::ClassDef& def : model_->classes()) {
      if (def.name == model_->object_class) continue;
      if (taxonomy_excluded_.count(def.name) > 0) continue;
      OODB_ASSIGN_OR_RETURN(ql::ConceptId concept_id,
                            translator_->ClassConcept(def.name));
      OODB_RETURN_IF_ERROR(classifier->Add(def.name, concept_id));
    }
  }
  {
    // The classification's subsumption checks (prefilter + memo + engine)
    // are attributed to the engine phase as one block.
    obs::ScopedSpan span(trace, obs::Phase::kEngine);
    OODB_RETURN_IF_ERROR(classifier->Classify());
  }
  classifier_ = std::move(classifier);
  return Status::Ok();
}

Result<std::string> Session::Classify(obs::TraceContext* trace) {
  // Mirrors `oodbsub classify`: query classes join the schema hierarchy
  // (paper Sect. 5). The taxonomy is resident: the first call classifies
  // from scratch over the shared warm checker, later calls render the
  // DAG that DefineView/UndefineView keep current incrementally — a warm
  // CLASSIFY issues zero subsumption checks.
  base::MutexLock lock(&classify_mu_);
  OODB_RETURN_IF_ERROR(EnsureClassifierLocked(trace));
  classifies_.fetch_add(1, std::memory_order_relaxed);
  last_classify_ = classifier_->classify_stats();
  has_classified_ = true;
  return classifier_->ToString(symbols_);
}

Result<std::string> Session::Optimize(std::string_view query,
                                      obs::TraceContext* trace) {
  Symbol s = symbols_.Find(query);
  const dl::ClassDef* def = s.valid() ? model_->FindClass(s) : nullptr;
  if (def == nullptr || !def->is_query) {
    return NotFoundError(StrCat("no query class named '", query, "'"));
  }
  // Plan choice books its own translate, prefilter and engine phases.
  OODB_ASSIGN_OR_RETURN(views::QueryPlan plan,
                        optimizer_->ChoosePlan(s, trace));
  optimizes_.fetch_add(1, std::memory_order_relaxed);
  std::string text =
      StrCat("uses_view=", plan.uses_view ? "true" : "false", "\n",
             "view=", plan.uses_view ? symbols_.Name(plan.view) : "-", "\n",
             "views_used=",
             plan.views_used.empty()
                 ? "-"
                 : StrJoinMapped(plan.views_used, ",",
                                 [&](Symbol v) { return symbols_.Name(v); }),
             "\n", "pool=", plan.pool_size, "\n",
             "checks=", plan.subsumption_checks, "\n",
             "plan=", plan.explanation);
  return text;
}

std::string Session::Summary() const {
  size_t queries = 0;
  for (const dl::ClassDef& def : model_->classes()) queries += def.is_query;
  return StrCat("classes=", model_->classes().size() - queries,
                " queries=", queries,
                " axioms=", sigma_->inclusions().size() + sigma_->typings().size(),
                " warnings=", warnings_.size());
}

void Session::AppendMetrics(obs::Collector& out,
                            const obs::Labels& labels) const {
  out.AddCounter("oodb_session_checks_total", "CHECK requests served", labels,
                 checks_.load(std::memory_order_relaxed));
  out.AddCounter("oodb_session_classifies_total", "CLASSIFY requests served",
                 labels, classifies_.load(std::memory_order_relaxed));
  out.AddCounter("oodb_session_optimizes_total", "OPTIMIZE requests served",
                 labels, optimizes_.load(std::memory_order_relaxed));
  out.AddCounter("oodb_session_undefines_total", "UNDEFINE requests served",
                 labels, undefines_.load(std::memory_order_relaxed));
  out.AddGauge("oodb_session_views", "Materialized views resident", labels,
               catalog_->views().size());
  out.AddGauge("oodb_session_objects", "Objects in the database state",
               labels, database_->num_objects());
  checker_->AppendMetrics(out, labels);
  base::MutexLock lock(&classify_mu_);
  if (has_classified_) {
    out.AddGauge("oodb_classify_last_concepts",
                 "Concepts in the most recent classification", labels,
                 last_classify_.concepts);
    out.AddGauge("oodb_classify_last_checks_performed",
                 "Subsumption checks performed by the most recent "
                 "classification",
                 labels, last_classify_.checks_performed);
    out.AddGauge("oodb_classify_last_pairwise_checks",
                 "Pairwise-oracle check count of the most recent "
                 "classification",
                 labels, last_classify_.pairwise_checks);
    out.AddGauge("oodb_classify_last_checks_avoided",
                 "Checks avoided by enhanced traversal in the most recent "
                 "classification",
                 labels, last_classify_.checks_avoided);
    out.AddCounter("oodb_classify_inserts_total",
                   "Incremental taxonomy insertions (DEFINE on a warm DAG)",
                   labels, taxonomy_inserts_);
    out.AddCounter("oodb_classify_removes_total",
                   "Incremental taxonomy removals (UNDEFINE on a warm DAG)",
                   labels, taxonomy_removes_);
  }
}

}  // namespace oodb::server
