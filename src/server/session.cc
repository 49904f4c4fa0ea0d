#include "server/session.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "base/strings.h"
#include "base/sync.h"
#include "db/instance.h"

namespace oodb::server {

Result<std::unique_ptr<Session>> Session::FromSource(
    std::string_view dl_source, obs::TraceContext* trace) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<Session> session(new Session());
  // The session is unpublished, so the lock is uncontended; it is taken
  // anyway because database_/catalog_/optimizer_ are written below and
  // the analysis (rightly) has no notion of "not yet shared".
  base::WriterLock init_lock(&session->mu_);
  OODB_RETURN_IF_ERROR(session->dl_.Load(dl_source, trace));
  session->checker_ =
      std::make_unique<calculus::SubsumptionChecker>(*session->dl_.sigma);
  // An empty state up front: CHECK/CLASSIFY need none, and OPTIMIZE is
  // well-defined over zero objects (plans, not answers).
  session->ResetState(std::make_unique<db::Database>(*session->dl_.model,
                                                     &session->dl_.symbols));
  return session;
}

void Session::ResetState(std::unique_ptr<db::Database> database) {
  database_ = std::move(database);
  catalog_ = std::make_unique<views::ViewCatalog>(database_.get(),
                                                  dl_.translator.get());
  optimizer_ = std::make_unique<views::Optimizer>(
      database_.get(), catalog_.get(), *dl_.sigma, dl_.translator.get());
  PublishSizes();
}

void Session::PublishSizes() {
  views_.store(catalog_->views().size(), std::memory_order_relaxed);
  objects_.store(database_->num_objects(), std::memory_order_relaxed);
}

void Session::PublishTaxonomy() {
  const calculus::Classifier::ClassifyStats& stats =
      classifier_->classify_stats();
  last_concepts_.store(stats.concepts, std::memory_order_relaxed);
  last_checks_performed_.store(stats.checks_performed,
                               std::memory_order_relaxed);
  last_pairwise_checks_.store(stats.pairwise_checks, std::memory_order_relaxed);
  last_checks_avoided_.store(stats.checks_avoided, std::memory_order_relaxed);
  classified_.store(true, std::memory_order_release);
}

namespace {

Reply ReplyOf(Result<std::string> text) {
  return text.ok() ? OkReply(std::move(*text)) : ErrReply(text.status());
}

Status NotASessionVerb(const RequestView& request) {
  return InternalError(StrCat(request.info().name, " is no session verb"));
}

}  // namespace

Reply Session::Handle(const RequestView& request, obs::TraceContext* trace) {
  if (request.verb == Verb::kState) {
    return ReplyOf(LoadState(request.payload, trace));
  }
  if (request.info().mutates) {
    base::WriterLock lock(&mu_);
    return ReplyOf(Mutate(request, trace));
  }
  base::ReaderLock lock(&mu_);
  return ReplyOf(Read(request, trace));
}

std::optional<Reply> Session::AnswerFromMemo(const RequestView& request,
                                             obs::TraceContext* trace) {
  if (!mu_.TryLockShared()) return std::nullopt;
  Result<Settled> text =
      CheckBatch(request.args.From(1), Settle::kMemoOnly, trace);
  mu_.UnlockShared();
  if (!text.ok() || !text->has_value()) return std::nullopt;
  return OkReply(std::move(**text));
}

Result<std::string> Session::LoadState(std::string_view payload,
                                       obs::TraceContext* trace) {
  // Parsed before the writer lock (the model never changes, symbols interns
  // thread-safely), so readers keep the session meanwhile and a payload
  // that fails to parse changes nothing.
  auto database = std::make_unique<db::Database>(*dl_.model, &dl_.symbols);
  {
    obs::ScopedSpan span(trace, obs::Phase::kParse);
    OODB_RETURN_IF_ERROR(db::LoadInstance(payload, database.get()).status());
  }
  // A fresh database invalidates every materialized extent, so the
  // catalog and optimizer are rebuilt; clients re-issue VIEW.
  base::WriterLock lock(&mu_);
  ResetState(std::move(database));
  return std::string("state loaded (views reset, re-issue VIEW)");
}

Result<std::string> Session::Mutate(const RequestView& request,
                                    obs::TraceContext* trace) {
  switch (request.verb) {
    case Verb::kView: {
      // Extent materialization evaluates the view body over the
      // database; attribute it to the engine phase as one block.
      obs::ScopedSpan span(trace, obs::Phase::kEngine);
      const std::string_view name = request.args[1];
      const Symbol s = dl_.translator->FindClass(name);
      if (!s.valid()) {
        return NotFoundError(StrCat("no class named '", name, "'"));
      }
      OODB_RETURN_IF_ERROR(catalog_->DefineView(s));
      PublishSizes();
      {
        // Keep the resident taxonomy in sync: a class UNDEFINEd out of it
        // re-enters on VIEW, by incremental insertion if the DAG is warm.
        base::MutexLock lock(&classify_mu_);
        taxonomy_excluded_.erase(s);
        if (classifier_ != nullptr && !classifier_->Contains(s)) {
          OODB_ASSIGN_OR_RETURN(ql::ConceptId concept_id,
                                dl_.translator->ClassConcept(s));
          const Status inserted = classifier_->Insert(s, concept_id);
          PublishTaxonomy();  // a failed insertion may have counted checks
          OODB_RETURN_IF_ERROR(inserted);
          taxonomy_inserts_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return StrCat("extent=", catalog_->Find(s)->extent.size());
    }
    case Verb::kUndefine: {
      // Taxonomy repair is pure graph surgery (no subsumption checks), but
      // it is still session mutation; attribute it to the engine phase.
      obs::ScopedSpan span(trace, obs::Phase::kEngine);
      const std::string_view name = request.args[1];
      const Symbol s = dl_.translator->FindClass(name);
      const dl::ClassDef* def = s.valid() ? dl_.model->FindClass(s) : nullptr;
      if (def == nullptr || !def->is_query) {
        return NotFoundError(StrCat("no query class named '", name, "'"));
      }
      bool view_dropped = false;
      if (catalog_->Find(s) != nullptr) {
        OODB_RETURN_IF_ERROR(catalog_->DropView(s));
        view_dropped = true;
        PublishSizes();
      }
      bool taxonomy_removed = false;
      {
        base::MutexLock lock(&classify_mu_);
        if (classifier_ != nullptr && classifier_->Contains(s)) {
          OODB_RETURN_IF_ERROR(classifier_->Remove(s));
          taxonomy_removed = true;
          taxonomy_removes_.fetch_add(1, std::memory_order_relaxed);
          PublishTaxonomy();
        }
        // Recorded even when the taxonomy is cold, so a later first
        // CLASSIFY builds without the class.
        taxonomy_excluded_.insert(s);
      }
      undefines_.fetch_add(1, std::memory_order_relaxed);
      return StrCat("undefined=", name,
                    " view_dropped=", view_dropped ? "true" : "false",
                    " taxonomy_removed=", taxonomy_removed ? "true" : "false",
                    " views=", catalog_->views().size());
    }
    default:
      return NotASessionVerb(request);
  }
}

Result<std::string> Session::Read(const RequestView& request,
                                  obs::TraceContext* trace) {
  switch (request.verb) {
    case Verb::kCheck:
    case Verb::kBcheck: {
      // kDecide always settles.
      OODB_ASSIGN_OR_RETURN(
          Settled text,
          CheckBatch(request.args.From(1), Settle::kDecide, trace));
      return std::move(text).value();
    }
    case Verb::kClassify: {
      // Mirrors `oodbsub classify`: query classes join the schema
      // hierarchy (paper Sect. 5). The first call classifies from scratch
      // over the shared warm checker; later calls render the DAG that
      // VIEW/UNDEFINE keep current — a warm CLASSIFY issues no checks.
      base::MutexLock lock(&classify_mu_);
      OODB_RETURN_IF_ERROR(EnsureClassifierLocked(trace));
      classifies_.fetch_add(1, std::memory_order_relaxed);
      return classifier_->ToString(dl_.symbols);
    }
    case Verb::kOptimize: {
      const std::string_view query = request.args[1];
      const Symbol s = dl_.translator->FindClass(query);
      const dl::ClassDef* def = s.valid() ? dl_.model->FindClass(s) : nullptr;
      if (def == nullptr || !def->is_query) {
        return NotFoundError(StrCat("no query class named '", query, "'"));
      }
      // Plan choice books its own translate, prefilter and engine phases.
      OODB_ASSIGN_OR_RETURN(views::QueryPlan plan,
                            optimizer_->ChoosePlan(s, trace));
      optimizes_.fetch_add(1, std::memory_order_relaxed);
      return StrCat(
          "uses_view=", plan.uses_view ? "true" : "false", "\n",
          "view=", plan.uses_view ? dl_.symbols.Name(plan.view) : "-", "\n",
          "views_used=",
          plan.views_used.empty()
              ? "-"
              : StrJoinMapped(plan.views_used, ",",
                              [&](Symbol v) { return dl_.symbols.Name(v); }),
          "\n", "pool=", plan.pool_size, "\n",
          "checks=", plan.subsumption_checks, "\n",
          "plan=", plan.explanation);
    }
    default:
      return NotASessionVerb(request);
  }
}

Result<Session::Settled> Session::CheckBatch(Args operands, Settle settle,
                                             obs::TraceContext* trace) {
  const bool memo_only = settle == Settle::kMemoOnly;
  const size_t num_pairs = operands.size() / 2;
  std::vector<ql::ConceptId> concepts(operands.size());  // C₁ D₁ C₂ D₂ ...
  {
    obs::ScopedSpan span(trace, obs::Phase::kTranslate);
    for (size_t i = 0; i < operands.size(); ++i) {
      if (memo_only) {
        concepts[i] = dl_.translator->ResolvedConcept(operands[i]);
        if (concepts[i] == ql::kInvalidConcept) return Settled();
      } else {
        OODB_ASSIGN_OR_RETURN(concepts[i],
                              dl_.translator->ClassConcept(operands[i]));
      }
    }
  }
  // Pair indices sorted stably by left operand, so each distinct C is one
  // run of `order` and costs one SubsumesBatch call over all its Ds.
  std::vector<size_t> order(num_pairs);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return concepts[2 * a] < concepts[2 * b];
  });
  std::vector<bool> verdicts(num_pairs);
  std::vector<ql::ConceptId> ds;
  std::vector<bool> group;
  for (size_t first = 0, last = 0; first < num_pairs; first = last) {
    const ql::ConceptId c = concepts[2 * order[first]];
    ds.clear();
    for (; last < num_pairs && concepts[2 * order[last]] == c; ++last) {
      ds.push_back(concepts[2 * order[last] + 1]);
    }
    if (memo_only) {
      if (!checker_->SettleFromMemo(c, ds, &group, trace)) return Settled();
    } else {
      OODB_ASSIGN_OR_RETURN(group, checker_->SubsumesBatch(c, ds, trace));
    }
    for (size_t k = first; k < last; ++k) verdicts[order[k]] = group[k - first];
  }
  if (memo_only) checker_->CountMemoHits(num_pairs);
  checks_.fetch_add(num_pairs, std::memory_order_relaxed);
  std::string text = "subsumed=";
  for (size_t i = 0; i < num_pairs; ++i) {
    if (i > 0) text += ',';
    text += verdicts[i] ? "true" : "false";
  }
  return Settled(std::move(text));
}

Status Session::EnsureClassifierLocked(obs::TraceContext* trace) {
  if (classifier_ != nullptr) return Status::Ok();
  auto classifier = std::make_unique<calculus::Classifier>(*checker_);
  {
    obs::ScopedSpan span(trace, obs::Phase::kTranslate);
    for (const dl::ClassDef& def : dl_.model->classes()) {
      if (def.name == dl_.model->object_class) continue;
      if (taxonomy_excluded_.count(def.name) > 0) continue;
      OODB_ASSIGN_OR_RETURN(ql::ConceptId concept_id,
                            dl_.translator->ClassConcept(def.name));
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
  PublishTaxonomy();
  return Status::Ok();
}

std::string Session::Summary() const {
  size_t queries = 0;
  for (const dl::ClassDef& def : dl_.model->classes()) queries += def.is_query;
  return StrCat("classes=", dl_.model->classes().size() - queries,
                " queries=", queries,
                " axioms=",
                dl_.sigma->inclusions().size() + dl_.sigma->typings().size(),
                " warnings=", dl_.model->warnings().size());
}

void Session::AppendMetrics(obs::Collector& out,
                            const obs::Labels& labels) const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  out.AddCounter("oodb_session_checks_total",
                 "Pairs checked (CHECK, and every pair of a BCHECK)", labels,
                 checks_.load(kRelaxed));
  out.AddCounter("oodb_session_classifies_total", "CLASSIFY requests served",
                 labels, classifies_.load(kRelaxed));
  out.AddCounter("oodb_session_optimizes_total", "OPTIMIZE requests served",
                 labels, optimizes_.load(kRelaxed));
  out.AddCounter("oodb_session_undefines_total", "UNDEFINE requests served",
                 labels, undefines_.load(kRelaxed));
  out.AddGauge("oodb_session_views", "Materialized views resident", labels,
               views_.load(kRelaxed));
  out.AddGauge("oodb_session_objects", "Objects in the database state",
               labels, objects_.load(kRelaxed));
  checker_->AppendMetrics(out, labels);
  if (!classified_.load(std::memory_order_acquire)) return;
  out.AddGauge("oodb_classify_last_concepts",
               "Concepts in the most recent classification", labels,
               last_concepts_.load(kRelaxed));
  out.AddGauge("oodb_classify_last_checks_performed",
               "Subsumption checks performed by the most recent "
               "classification",
               labels, last_checks_performed_.load(kRelaxed));
  out.AddGauge("oodb_classify_last_pairwise_checks",
               "Pairwise-oracle check count of the most recent "
               "classification",
               labels, last_pairwise_checks_.load(kRelaxed));
  out.AddGauge("oodb_classify_last_checks_avoided",
               "Checks avoided by enhanced traversal in the most recent "
               "classification",
               labels, last_checks_avoided_.load(kRelaxed));
  out.AddCounter("oodb_classify_inserts_total",
                 "Incremental taxonomy insertions (DEFINE on a warm DAG)",
                 labels, taxonomy_inserts_.load(kRelaxed));
  out.AddCounter("oodb_classify_removes_total",
                 "Incremental taxonomy removals (UNDEFINE on a warm DAG)",
                 labels, taxonomy_removes_.load(kRelaxed));
}

}  // namespace oodb::server
