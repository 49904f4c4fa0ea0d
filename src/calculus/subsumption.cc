#include "calculus/subsumption.h"

#include <string>
#include <utility>

#include "base/sync.h"

namespace oodb::calculus {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
// Idle engines kept for reuse; enough for one per worker thread.
constexpr size_t kEnginePoolCapacity = 64;

uint64_t PairMemoKey(ql::ConceptId c, ql::ConceptId d) {
  return (static_cast<uint64_t>(c) << 32) | static_cast<uint64_t>(d);
}
}  // namespace

SubsumptionChecker::EngineLease::EngineLease(
    const SubsumptionChecker* checker)
    : checker_(checker) {
  checker_->pool_acquires_.fetch_add(1, kRelaxed);
  {
    base::MutexLock lock(&checker_->pool_mu_);
    if (!checker_->pool_.empty()) {
      engine_ = std::move(checker_->pool_.back());
      checker_->pool_.pop_back();
    }
  }
  if (engine_ != nullptr) {
    checker_->pool_reuses_.fetch_add(1, kRelaxed);
  } else {
    engine_ = std::make_unique<CompletionEngine>(checker_->sigma_,
                                                 checker_->options_.engine);
  }
}

SubsumptionChecker::EngineLease::~EngineLease() {
  base::MutexLock lock(&checker_->pool_mu_);
  if (checker_->pool_.size() < kEnginePoolCapacity) {
    checker_->pool_.push_back(std::move(engine_));
  }
}

Result<bool> SubsumptionChecker::Subsumes(ql::ConceptId c, ql::ConceptId d,
                                          obs::TraceContext* trace) const {
  OODB_ASSIGN_OR_RETURN(std::vector<bool> verdicts,
                        SubsumesBatch(c, {d}, trace));
  return bool{verdicts[0]};
}

Result<SubsumptionOutcome> SubsumptionChecker::SubsumesDetailed(
    ql::ConceptId c, ql::ConceptId d) const {
  // Fresh engine, never pooled: the explain path must stay a pure oracle.
  CompletionEngine engine(sigma_, options_.engine);
  engine_runs_.fetch_add(1, kRelaxed);
  OODB_RETURN_IF_ERROR(engine.Run(c, d));
  RecordEngineRun(engine.stats(), nullptr);
  SubsumptionOutcome outcome;
  outcome.via_clash = engine.clash();
  outcome.subsumed = engine.clash() || engine.GoalFactHolds();
  outcome.stats = engine.stats();
  outcome.trace = engine.trace();
  return outcome;
}

Result<std::vector<bool>> SubsumptionChecker::SubsumesBatch(
    ql::ConceptId c, const std::vector<ql::ConceptId>& ds,
    obs::TraceContext* trace) const {
  std::vector<bool> verdicts(ds.size(), false);
  // Memoized pairs are settled without joining the run: the shared
  // completion only sees goals whose verdict is genuinely unknown, and
  // a fully warmed batch never leases an engine at all.
  std::vector<size_t> open;
  if (options_.memoize) {
    obs::ScopedSpan span(trace, obs::Phase::kMemo);
    open.reserve(ds.size());
    const size_t hits = PeekMemo(c, ds, &verdicts, &open);
    cache_.CountLookups(hits, open.size());
  } else {
    open.resize(ds.size());
    for (size_t i = 0; i < ds.size(); ++i) open[i] = i;
  }
  if (open.empty()) return verdicts;

  // Pre-filter each remaining goal: a rejected Dᵢ is a non-subsumption
  // no matter what the completion does (the filter abstains whenever the
  // clash branch of Theorem 4.7 is live), so it need not join the run.
  std::vector<ql::ConceptId> live;
  std::vector<size_t> positions;
  if (options_.prefilter && c != ql::kInvalidConcept) {
    obs::ScopedSpan span(trace, obs::Phase::kPrefilter);
    live.reserve(open.size());
    positions.reserve(open.size());
    const ConceptSignature& query = prefilter_.QuerySignature(c);
    for (size_t i : open) {
      if (prefilter_.Check(query, ds[i]) == PreFilterVerdict::kReject) {
        continue;
      }
      live.push_back(ds[i]);
      positions.push_back(i);
    }
    prefilter_checks_.fetch_add(open.size(), kRelaxed);
    prefilter_rejections_.fetch_add(open.size() - live.size(), kRelaxed);
  } else {
    live.reserve(open.size());
    for (size_t i : open) live.push_back(ds[i]);
    positions = open;
  }

  if (!live.empty()) {
    obs::ScopedSpan span(trace, obs::Phase::kEngine);
    EngineLease engine(this);
    engine_runs_.fetch_add(1, kRelaxed);
    OODB_RETURN_IF_ERROR(engine->RunBatch(c, live));
    RecordEngineRun(engine->stats(), trace);
    for (size_t k = 0; k < live.size(); ++k) {
      verdicts[positions[k]] =
          engine->clash() || engine->GoalFactHoldsFor(live[k]);
    }
  }
  if (options_.memoize) {
    obs::ScopedSpan span(trace, obs::Phase::kMemo);
    for (size_t i : open) cache_.Insert(PairMemoKey(c, ds[i]), verdicts[i]);
  }
  return verdicts;
}

bool SubsumptionChecker::SettleFromMemo(ql::ConceptId c,
                                        const std::vector<ql::ConceptId>& ds,
                                        std::vector<bool>* verdicts,
                                        obs::TraceContext* trace) const {
  verdicts->assign(ds.size(), false);
  obs::ScopedSpan span(trace, obs::Phase::kMemo);
  return PeekMemo(c, ds, verdicts, nullptr) == ds.size();
}

size_t SubsumptionChecker::PeekMemo(ql::ConceptId c,
                                    const std::vector<ql::ConceptId>& ds,
                                    std::vector<bool>* verdicts,
                                    std::vector<size_t>* open) const {
  size_t hits = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (std::optional<bool> cached = cache_.Peek(PairMemoKey(c, ds[i]))) {
      (*verdicts)[i] = *cached;
      ++hits;
    } else if (open != nullptr) {
      open->push_back(i);
    } else {
      break;
    }
  }
  return hits;
}

Result<bool> SubsumptionChecker::Satisfiable(ql::ConceptId c) const {
  EngineLease engine(this);
  engine_runs_.fetch_add(1, kRelaxed);
  OODB_RETURN_IF_ERROR(engine->Run(c, ql::kInvalidConcept));
  RecordEngineRun(engine->stats(), nullptr);
  return !engine->clash();
}

Result<bool> SubsumptionChecker::Equivalent(ql::ConceptId c,
                                            ql::ConceptId d) const {
  OODB_ASSIGN_OR_RETURN(bool forward, Subsumes(c, d));
  if (!forward) return false;
  return Subsumes(d, c);
}

void SubsumptionChecker::RecordEngineRun(const RunStats& stats,
                                         obs::TraceContext* trace) const {
  if (obs::Enabled()) {
    const auto ns = stats.duration.count();
    engine_run_ns_.RecordAlways(ns > 0 ? static_cast<uint64_t>(ns) : 0);
    for (size_t i = 0; i < stats.rule_applications.size(); ++i) {
      const uint64_t n = stats.rule_applications[i];
      if (n != 0) rule_totals_[i].fetch_add(n, kRelaxed);
    }
  }
  if (trace != nullptr) {
    for (size_t i = 0; i < stats.rule_applications.size(); ++i) {
      const uint64_t n = stats.rule_applications[i];
      if (n != 0) {
        trace->AddCounter(
            std::string("rule:") + RuleName(static_cast<Rule>(i)), n);
      }
    }
  }
}

void SubsumptionChecker::AppendMetrics(obs::Collector& out,
                                       const obs::Labels& labels) const {
  const CheckerPerfStats s = perf_stats();
  out.AddCounter("oodb_checker_engine_runs_total",
                 "Completion runs actually performed", labels, s.engine_runs);
  out.AddCounter("oodb_prefilter_checks_total",
                 "Structural pre-filter necessary-condition tests", labels,
                 s.prefilter_checks);
  out.AddCounter("oodb_prefilter_rejections_total",
                 "Checks answered false by the pre-filter alone", labels,
                 s.prefilter_rejections);
  out.AddCounter("oodb_engine_pool_acquires_total",
                 "Engine leases handed out", labels, s.pool_acquires);
  out.AddCounter("oodb_engine_pool_reuses_total",
                 "Leases served from the pool without construction", labels,
                 s.pool_reuses);
  out.AddCounter("oodb_memo_hits_total", "Memo cache hits", labels,
                 s.cache.hits);
  out.AddCounter("oodb_memo_misses_total", "Memo cache misses", labels,
                 s.cache.misses);
  out.AddCounter("oodb_memo_insertions_total", "Memo cache insertions",
                 labels, s.cache.insertions);
  out.AddCounter("oodb_memo_evictions_total", "Memo cache evictions", labels,
                 s.cache.evictions);
  out.AddGauge("oodb_memo_entries", "Memo cache resident entries", labels,
               s.cache.entries);
  out.AddHistogram("oodb_engine_run_seconds",
                   "Completion run wall time in seconds", labels,
                   engine_run_ns_, 1e-9);
  for (size_t i = 0; i < rule_totals_.size(); ++i) {
    obs::Labels rule_labels = labels;
    rule_labels.emplace_back("rule", RuleName(static_cast<Rule>(i)));
    out.AddCounter("oodb_engine_rule_applications_total",
                   "Calculus rule applications by rule", rule_labels,
                   rule_totals_[i].load(kRelaxed));
  }
}

CheckerPerfStats SubsumptionChecker::perf_stats() const {
  CheckerPerfStats s;
  s.engine_runs = engine_runs_.load(kRelaxed);
  s.prefilter_checks = prefilter_checks_.load(kRelaxed);
  s.prefilter_rejections = prefilter_rejections_.load(kRelaxed);
  s.pool_acquires = pool_acquires_.load(kRelaxed);
  s.pool_reuses = pool_reuses_.load(kRelaxed);
  s.cache = cache_.Stats();
  return s;
}

}  // namespace oodb::calculus
