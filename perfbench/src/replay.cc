#include "replay.h"

#include <map>
#include <string_view>

#include "server/wire.h"
#include "stats.h"

namespace perfbench {
namespace {

// Span names, shared with Report().
constexpr const char* kWire = "server.wire";
constexpr const char* kTranslate = "dl.translate";
constexpr const char* kCheckSpan = "calculus.check";
constexpr const char* kPrefilter = "calculus.prefilter";
constexpr const char* kEngine = "calculus.engine";
constexpr const char* kBatch = "calculus.batch";
constexpr const char* kChoosePlan = "views.choose_plan";
constexpr const char* kMaterialize = "views.materialize";
constexpr const char* kEval = "db.eval";
constexpr const char* kInsert = "calculus.classifier.insert";
constexpr const char* kDrop = "views.drop";
constexpr const char* kRemove = "calculus.classifier.remove";

constexpr const char* kRequestNames[kNumVerbs] = {
    "request.check", "request.bcheck", "request.optimize", "request.view",
    "request.undefine"};

}  // namespace

bool ReplayStack::Load(const std::string& source, std::string* error) {
  const int64_t start = NowNs();
  ref_ = Reference::Build(source, error);
  load_ms_ = static_cast<double>(NowNs() - start) / 1e6;
  if (ref_ == nullptr) return false;
  prefilter_ = std::make_unique<calculus::StructuralPreFilter>(*ref_->sigma);
  engine_ = std::make_unique<calculus::CompletionEngine>(*ref_->sigma);
  return true;
}

bool ReplayStack::LoadState(const std::string& odb, std::string* error) {
  return ref_->LoadState(odb, error);
}

void ReplayStack::MeasureFrom(SpanRecorder* spans) {
  spans_ = spans;
  first_translate_ns_.clear();
  engine_individuals_.clear();
  engine_constraints_.clear();
  plan_checks_.clear();
  plan_pool_.clear();
  plans_ = plans_with_residual_ = 0;
  insert_checks_.clear();
  insert_classes_.clear();
  eval_candidates_ = eval_answers_ = 0;
  batch_ns_per_pair_.clear();
}

int32_t ReplayStack::BeginRequest(uint64_t id, Verb verb) {
  return spans_->Begin(kRequestNames[verb], id);
}

void ReplayStack::CheckRequest(int32_t root, uint64_t id, const std::string& c,
                               const std::string& d) {
  WireRequest(root, id, [&] {
    return server::EncodeBinaryCheckRequest(id, "bench", c, d);
  });
  auto cc = Translate(root, id, c);
  auto dd = Translate(root, id, d);
  bool subsumed = false;
  if (cc.ok() && dd.ok()) {
    auto verdict = Check(root, id, *cc, *dd);
    subsumed = verdict.ok() && *verdict;
  }
  WireReply(root, id, subsumed ? "subsumed=true" : "subsumed=false");
}

void ReplayStack::WireBatch(
    int32_t root, uint64_t id,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  WireRequest(root, id, [&] {
    return server::EncodeBinaryBatchCheckRequest(id, "bench", pairs);
  });
}

void ReplayStack::WireLine(int32_t root, uint64_t id, const std::string& line) {
  WireRequest(root, id, [&] { return server::EncodeBinaryLineRequest(id, line); });
}

// The client's encode is a shadow span: the daemon never runs it, but
// server.wire_ns_per_frame counts the whole codec.
void ReplayStack::WireRequest(int32_t root, uint64_t id,
                              const std::function<std::string()>& encode) {
  std::string frame;
  {
    ScopedSpan span(spans_, kWire, id, root, /*shadow=*/true);
    frame = encode();
  }
  ScopedSpan span(spans_, kWire, id, root);
  server::BinaryRequest parsed;
  size_t consumed = 0;
  std::string error;
  (void)server::ParseBinaryRequest(frame, &consumed, &parsed, &error);
}

void ReplayStack::WireReply(int32_t root, uint64_t id,
                            const std::string& payload) {
  ScopedSpan span(spans_, kWire, id, root);
  std::string frame = server::EncodeBinaryReply(id, server::OkReply(payload));
  (void)frame;
}

Result<ql::ConceptId> ReplayStack::Resolve(const std::string& name) {
  const Symbol s = ref_->Find(name);
  const dl::ClassDef* def = s.valid() ? ref_->model->FindClass(s) : nullptr;
  const bool first = def != nullptr && def->is_query && translated_.insert(s).second;
  const int64_t start = NowNs();
  Result<ql::ConceptId> concept_id = ref_->ConceptOf(name);
  if (first) first_translate_ns_.push_back(static_cast<double>(NowNs() - start));
  return concept_id;
}

Result<ql::ConceptId> ReplayStack::Translate(int32_t root, uint64_t id,
                                             const std::string& name) {
  ScopedSpan span(spans_, kTranslate, id, root);
  return Resolve(name);
}

Result<bool> ReplayStack::Check(int32_t root, uint64_t id, ql::ConceptId c,
                                ql::ConceptId d) {
  const uint64_t misses_before = ref_->checker->cache_stats().misses;
  Result<bool> verdict = [&] {
    ScopedSpan span(spans_, kCheckSpan, id, root);
    return ref_->checker->Subsumes(c, d);
  }();
  if (ref_->checker->cache_stats().misses == misses_before) return verdict;
  // The memo missed, so Subsumes ran the prefilter and maybe the engine:
  // measure both in isolation on the same pair.
  calculus::PreFilterVerdict filtered;
  {
    ScopedSpan span(spans_, kPrefilter, id, root, /*shadow=*/true);
    filtered = prefilter_->Check(c, d);
  }
  if (filtered == calculus::PreFilterVerdict::kReject) return verdict;
  {
    ScopedSpan span(spans_, kEngine, id, root, /*shadow=*/true);
    if (!engine_->Run(c, d).ok()) return verdict;
  }
  const calculus::RunStats& stats = engine_->stats();
  engine_individuals_.push_back(static_cast<double>(stats.individuals));
  engine_constraints_.push_back(static_cast<double>(stats.facts + stats.goals));
  return verdict;
}

Result<std::vector<bool>> ReplayStack::CheckBatch(
    int32_t root, uint64_t id, const std::vector<ql::ConceptId>& lhs,
    const std::vector<ql::ConceptId>& rhs) {
  const int64_t start = NowNs();
  ScopedSpan span(spans_, kBatch, id, root);
  // Pairs sharing a left operand share one SubsumesBatch call, as in the
  // daemon's session.
  std::map<ql::ConceptId, std::vector<size_t>> groups;
  std::vector<ql::ConceptId> order;
  for (size_t i = 0; i < lhs.size(); ++i) {
    auto [it, inserted] = groups.try_emplace(lhs[i]);
    if (inserted) order.push_back(lhs[i]);
    it->second.push_back(i);
  }
  std::vector<bool> verdicts(lhs.size());
  for (ql::ConceptId c : order) {
    const std::vector<size_t>& indices = groups[c];
    std::vector<ql::ConceptId> ds;
    ds.reserve(indices.size());
    for (size_t i : indices) ds.push_back(rhs[i]);
    OODB_ASSIGN_OR_RETURN(std::vector<bool> group,
                          ref_->checker->SubsumesBatch(c, ds));
    for (size_t k = 0; k < indices.size(); ++k) verdicts[indices[k]] = group[k];
  }
  if (!lhs.empty()) {
    batch_ns_per_pair_.push_back(static_cast<double>(NowNs() - start) /
                                 static_cast<double>(lhs.size()));
  }
  return verdicts;
}

Result<views::QueryPlan> ReplayStack::ChoosePlan(int32_t root, uint64_t id,
                                                 const std::string& query) {
  Result<views::QueryPlan> plan = [&] {
    ScopedSpan span(spans_, kChoosePlan, id, root);
    return ref_->optimizer->ChoosePlan(ref_->Find(query));
  }();
  if (plan.ok()) {
    ++plans_;
    plans_with_residual_ += plan->uses_residual ? 1 : 0;
    plan_checks_.push_back(static_cast<double>(plan->subsumption_checks));
    plan_pool_.push_back(static_cast<double>(plan->pool_size));
  }
  return plan;
}

Result<size_t> ReplayStack::DefineView(int32_t root, uint64_t id,
                                       const std::string& q) {
  const Symbol s = ref_->Find(q);
  {
    ScopedSpan span(spans_, kMaterialize, id, root);
    OODB_RETURN_IF_ERROR(ref_->catalog->DefineView(s));
  }
  {
    // The evaluation DefineView ran, once more in isolation.
    oodb::db::EvalStats stats;
    oodb::db::QueryEvaluator evaluator(*ref_->database);
    ScopedSpan span(spans_, kEval, id, root, /*shadow=*/true);
    if (evaluator.Evaluate(s, &stats).ok()) {
      eval_candidates_ += static_cast<double>(stats.candidates_examined);
      eval_answers_ += static_cast<double>(stats.answers);
    }
  }
  if (classifier_ != nullptr && !classifier_->Contains(s)) {
    OODB_ASSIGN_OR_RETURN(ql::ConceptId concept_id, ref_->ConceptOf(q));
    {
      ScopedSpan span(spans_, kInsert, id, root);
      OODB_RETURN_IF_ERROR(classifier_->Insert(s, concept_id));
    }
    insert_checks_.push_back(
        static_cast<double>(classifier_->last_op_stats().checks_performed));
    insert_classes_.push_back(
        static_cast<double>(classifier_->last_op_stats().classes_before));
  }
  return ref_->catalog->Find(s)->extent.size();
}

bool ReplayStack::Undefine(int32_t root, uint64_t id, const std::string& q) {
  const Symbol s = ref_->Find(q);
  if (ref_->catalog->Find(s) != nullptr) {
    ScopedSpan span(spans_, kDrop, id, root);
    if (!ref_->catalog->DropView(s).ok()) return false;
  }
  if (classifier_ != nullptr && classifier_->Contains(s)) {
    ScopedSpan span(spans_, kRemove, id, root);
    if (!classifier_->Remove(s).ok()) return false;
  }
  return true;
}

bool ReplayStack::Classify(std::string* error) {
  const int64_t start = NowNs();
  classifier_ = std::make_unique<calculus::Classifier>(*ref_->checker);
  const dl::Model& model = *ref_->model;
  for (const dl::ClassDef& def : model.classes()) {
    if (def.name == model.object_class) continue;
    auto concept_id = Resolve(ref_->symbols.Name(def.name));
    if (!concept_id.ok() || !classifier_->Add(def.name, *concept_id).ok()) {
      *error = "replay: cannot add a class to the classifier";
      return false;
    }
  }
  if (!classifier_->Classify().ok()) {
    *error = "replay: classification failed";
    return false;
  }
  build_s_ = static_cast<double>(NowNs() - start) / 1e9;
  return true;
}

void ReplayStack::Report(LayerReport* layers) const {
  const std::deque<Span>& spans = spans_->spans();
  const std::vector<int64_t> self = SelfTimes(spans);

  // Durations of each span name, and per-request aggregates.
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : spans) {
    by_name[s.name].push_back(static_cast<double>(s.duration()));
  }
  const std::map<uint64_t, int64_t> layer_sums = LayerSumByRequest(spans, self);
  std::map<std::string, std::vector<double>> layer_sum_by_verb;
  std::vector<double> wire_per_request, check_self;
  for (const auto& [request, indices] : GroupByRequest(spans)) {
    // Set-up work (request id 0) is timed by name only.
    const Span& root = spans[indices.front()];
    if (request == 0 || root.parent != kNoParent) continue;
    layer_sum_by_verb[root.name].push_back(
        static_cast<double>(layer_sums.at(request)));
    // Subsumes minus the prefilter and engine runs it contained: the
    // checker's own time (memo, engine lease, bookkeeping).
    double wire = 0, check = 0, shadow = 0;
    bool has_check = false;
    for (size_t i : indices) {
      const std::string_view name = spans[i].name;
      if (name == kWire) wire += static_cast<double>(self[i]);
      if (name == kCheckSpan) {
        check += static_cast<double>(spans[i].duration());
        has_check = true;
      }
      if (name == kPrefilter || name == kEngine) {
        shadow += static_cast<double>(spans[i].duration());
      }
    }
    wire_per_request.push_back(wire);
    if (has_check) check_self.push_back(std::max(0.0, check - shadow));
  }
  for (int v = 0; v < kNumVerbs; ++v) {
    auto it = layer_sum_by_verb.find(kRequestNames[v]);
    if (it == layer_sum_by_verb.end()) continue;
    layers->Set(std::string("replay.layer_sum_us.") + VerbStem(Verb(v)),
                Median(it->second) / 1e3,
                static_cast<double>(it->second.size()));
  }

  auto median_of = [&](const char* name, double scale) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : Median(it->second) / scale;
  };
  auto count_of = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.size());
  };
  const double n = static_cast<double>(wire_per_request.size());
  layers->Set("server.wire_ns_per_frame", Median(wire_per_request), n);
  layers->Set("dl.load_ms", load_ms_, 1);
  layers->Set("dl.translate_us", Median(first_translate_ns_) / 1e3,
              static_cast<double>(first_translate_ns_.size()));
  layers->Set("calculus.prefilter_ns", median_of(kPrefilter, 1),
              count_of(kPrefilter));
  layers->Set("calculus.engine_run_us", median_of(kEngine, 1e3),
              count_of(kEngine));
  layers->Set("calculus.engine_individuals_per_run", Mean(engine_individuals_),
              static_cast<double>(engine_individuals_.size()));
  layers->Set("calculus.engine_constraints_per_run", Mean(engine_constraints_),
              static_cast<double>(engine_constraints_.size()));
  layers->Set("calculus.check_self_us", Median(check_self) / 1e3,
              static_cast<double>(check_self.size()));
  layers->Set("calculus.batch_us_per_pair", Median(batch_ns_per_pair_) / 1e3,
              static_cast<double>(batch_ns_per_pair_.size()));
  layers->Set("calculus.classifier.build_s", build_s_, build_s_ > 0 ? 1 : 0);
  layers->Set("calculus.classifier.insert_us", median_of(kInsert, 1e3),
              count_of(kInsert));
  layers->Set("calculus.classifier.checks_per_insert", Mean(insert_checks_),
              static_cast<double>(insert_checks_.size()));
  layers->Set("calculus.classifier.classes_per_insert", Mean(insert_classes_),
              static_cast<double>(insert_classes_.size()));
  layers->Set("calculus.classifier.remove_us", median_of(kRemove, 1e3),
              count_of(kRemove));
  layers->Set("views.choose_plan_us", median_of(kChoosePlan, 1e3),
              count_of(kChoosePlan));
  layers->Set("views.plan_checks_per_optimize", Mean(plan_checks_),
              static_cast<double>(plans_));
  layers->Set("views.pool_size_mean", Mean(plan_pool_),
              static_cast<double>(plans_));
  layers->Set("views.residual_share",
              plans_ == 0 ? 0.0
                          : static_cast<double>(plans_with_residual_) /
                                static_cast<double>(plans_),
              static_cast<double>(plans_));
  layers->Set("views.materialize_us", median_of(kMaterialize, 1e3),
              count_of(kMaterialize));
  layers->Set("views.drop_us", median_of(kDrop, 1e3), count_of(kDrop));
  layers->Set("db.eval_us", median_of(kEval, 1e3), count_of(kEval));
  layers->Set("db.candidates_per_answer",
              eval_answers_ > 0 ? eval_candidates_ / eval_answers_ : 0.0,
              eval_answers_);
}

}  // namespace perfbench
