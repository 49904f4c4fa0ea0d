// The traced run's in-process replay: the daemon's request path rebuilt
// from the library's public calls, single-threaded, with a span around
// each call into a layer (server wire codec, dl, calculus, views, db).
//
// Every request gets a root span `request.<verb>` with the layer spans as
// children. Work the daemon does inside one public call but that the
// benchmark cannot see into (the prefilter and the completion run inside
// SubsumptionChecker::Subsumes, the evaluation inside
// ViewCatalog::DefineView) is re-measured in isolation as shadow spans,
// which stay out of the request's layer sum.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "calculus/engine.h"
#include "calculus/prefilter.h"
#include "calculus/services.h"
#include "db/evaluator.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

class ReplayStack {
 public:
  explicit ReplayStack(SpanRecorder* spans) : spans_(spans) {}

  // Parse + analyze + BuildSchema, timed as `dl.load`.
  bool Load(const std::string& source, std::string* error);
  bool LoadState(const std::string& odb, std::string* error);

  // Root span of one request.
  int32_t BeginRequest(uint64_t id, Verb verb);
  void EndRequest(int32_t root) { spans_->End(root); }

  // A whole CHECK request: wire codec, translation of both names,
  // SubsumptionChecker::Subsumes (`calculus.check`, with shadow prefilter
  // and engine runs when the memo missed) and the reply.
  void CheckRequest(int32_t root, uint64_t id, const std::string& c,
                    const std::string& d);

  // Wire codec (`server.wire`): encode the client's frame, parse it as
  // the server does, and encode the reply.
  void WireBatch(int32_t root, uint64_t id,
                 const std::vector<std::pair<std::string, std::string>>& pairs);
  void WireLine(int32_t root, uint64_t id, const std::string& line);
  void WireReply(int32_t root, uint64_t id, const std::string& payload);

  // dl: name → concept (`dl.translate`). A query class's first
  // translation is also kept apart (dl.translate_us).
  Result<ql::ConceptId> Translate(int32_t root, uint64_t id,
                                  const std::string& name);
  // calculus: Session::CheckBatch's grouping over SubsumesBatch
  // (`calculus.batch`).
  Result<std::vector<bool>> CheckBatch(int32_t root, uint64_t id,
                                       const std::vector<ql::ConceptId>& lhs,
                                       const std::vector<ql::ConceptId>& rhs);
  // views: Optimizer::ChoosePlan (`views.choose_plan`).
  Result<views::QueryPlan> ChoosePlan(int32_t root, uint64_t id,
                                      const std::string& query);
  // views + db + calculus: VIEW = ViewCatalog::DefineView
  // (`views.materialize`, shadow `db.eval`) then Classifier::Insert
  // (`calculus.classifier.insert`) when the taxonomy is built.
  Result<size_t> DefineView(int32_t root, uint64_t id, const std::string& q);
  // UNDEFINE = ViewCatalog::DropView (`views.drop`) then
  // Classifier::Remove (`calculus.classifier.remove`).
  bool Undefine(int32_t root, uint64_t id, const std::string& q);
  // The first Classifier::Classify over every class
  // (`calculus.classifier.build`), as the daemon's first CLASSIFY.
  bool Classify(std::string* error);

  // Sends later spans to `spans` and drops the samples taken so far, so
  // that replayed set-up work stays out of the per-layer numbers (the
  // load and first-classification times are kept).
  void MeasureFrom(SpanRecorder* spans);

  calculus::SubsumptionChecker& checker() { return *ref_->checker; }
  Reference& reference() { return *ref_; }

  // Replay-side per-layer numbers (timings, counts and ratios).
  void Report(LayerReport* layers) const;

 private:
  void WireRequest(int32_t root, uint64_t id,
                   const std::function<std::string()>& encode);
  // calculus: SubsumptionChecker::Subsumes (`calculus.check`), plus
  // shadow prefilter and engine runs when the memo missed.
  Result<bool> Check(int32_t root, uint64_t id, ql::ConceptId c,
                     ql::ConceptId d);
  // Name → concept; times a query class's first translation.
  Result<ql::ConceptId> Resolve(const std::string& name);

  SpanRecorder* spans_;
  std::unique_ptr<Reference> ref_;
  std::unique_ptr<calculus::StructuralPreFilter> prefilter_;
  std::unique_ptr<calculus::CompletionEngine> engine_;
  std::unique_ptr<calculus::Classifier> classifier_;
  std::unordered_set<Symbol> translated_;

  // Samples the span tree does not carry.
  std::vector<double> first_translate_ns_;
  std::vector<double> engine_individuals_, engine_constraints_;
  std::vector<double> plan_checks_, plan_pool_;
  size_t plans_ = 0, plans_with_residual_ = 0;
  std::vector<double> insert_checks_, insert_classes_;
  double eval_candidates_ = 0, eval_answers_ = 0;
  double load_ms_ = 0, build_s_ = 0;
  std::vector<double> batch_ns_per_pair_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
