// Public API of the paper's core result: deciding C ⊑_Σ D in polynomial
// time (Theorems 4.7 and 4.9).
#ifndef OODB_CALCULUS_SUBSUMPTION_H_
#define OODB_CALCULUS_SUBSUMPTION_H_

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "calculus/engine.h"
#include "calculus/memo_cache.h"
#include "calculus/prefilter.h"
#include "calculus/trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schema/schema.h"

namespace oodb::calculus {

// Result of a subsumption check, with run statistics and (optionally) the
// completion trace for Figure-11 style reproduction.
struct SubsumptionOutcome {
  bool subsumed = false;
  // True iff subsumption holds because C is Σ-unsatisfiable (the clash
  // branch of Theorem 4.7).
  bool via_clash = false;
  RunStats stats;
  std::vector<TraceEvent> trace;
};

// Decides Σ-subsumption of QL concepts. Stateless between calls; one
// checker per (schema, factory) pair. Subsumption checks are sound but —
// by design — complete only for the structural fragment: non-structural
// query parts never reach this layer (paper Sect. 3).
struct CheckerOptions {
  bool record_trace = false;
  // Memoize (C, D) → verdict across calls. Sound because Σ and the term
  // factory are append-only for the checker's lifetime and concept ids
  // are stable. It pays where pairs repeat: CHECK and BCHECK traffic and
  // classification. OPTIMIZE's catalog scan turns it off, because each
  // query is usually planned once and its pairs are never read again
  // (docs/optimizer.md, "Check avoidance").
  bool memoize = true;
  // Entry budget for the sharded memo cache (see memo_cache.h).
  size_t memo_capacity = size_t{1} << 20;
  // Structural pre-filter: test the cheap necessary condition of
  // prefilter.h before spinning up a completion engine. Never changes a
  // verdict (soundness pinned by tests/prefilter_soundness_test.cc);
  // disable only for oracle/ablation comparisons.
  bool prefilter = true;
  EngineOptions engine;
};

// Check-avoidance counters, aggregated across all threads (monotone;
// snapshot via perf_stats()). `engine_runs` counts completions actually
// performed; the difference to `prefilter_checks` + memo hits is the
// work the avoidance layer saved.
struct CheckerPerfStats {
  uint64_t engine_runs = 0;
  uint64_t prefilter_checks = 0;
  uint64_t prefilter_rejections = 0;
  uint64_t pool_acquires = 0;  // engine leases handed out
  uint64_t pool_reuses = 0;    // leases served from the pool (no ctor)
  MemoCacheStats cache;
};

// Thread-safe: any number of threads may call the const check methods on
// one shared checker concurrently. Each call leases a private
// CompletionEngine from a mutex-guarded pool (engines are Reset-reused,
// never shared while leased); the shared pieces — Σ (read-only), the
// term factory (internally synchronized), the signature index of the
// pre-filter and the sharded memo cache — all tolerate concurrent use.
// See docs/optimizer.md, "Threading model" and "Check avoidance".
class SubsumptionChecker {
 public:
  using Options = CheckerOptions;

  explicit SubsumptionChecker(const schema::Schema& sigma,
                              Options options = Options())
      : sigma_(sigma),
        options_(options),
        cache_(options.memo_capacity),
        prefilter_(sigma) {}

  // Whether C ⊑_Σ D: SubsumesBatch(c, {d}, trace). Fails on non-QL inputs
  // or resource caps.
  Result<bool> Subsumes(ql::ConceptId c, ql::ConceptId d,
                        obs::TraceContext* trace = nullptr) const;

  // Decides C ⊑_Σ Dᵢ for every Dᵢ with a SINGLE completion run (the
  // catalog-scan fast path; see CompletionEngine::RunBatch for why this
  // is sound). Memoized pairs are answered from the memo and pre-filtered
  // Dᵢ without entering the run; every other verdict is memoized after
  // it. Returns one verdict per input, in order. When a trace is
  // supplied, the memo/prefilter/engine phases of this call are timed
  // into it and the run's rule-application profile is appended.
  Result<std::vector<bool>> SubsumesBatch(
      ql::ConceptId c, const std::vector<ql::ConceptId>& ds,
      obs::TraceContext* trace = nullptr) const;

  // Subsumes with statistics and optional trace. Always performs the
  // full completion (no pre-filter short-cut, fresh engine): this is the
  // explanation path and the reference oracle.
  Result<SubsumptionOutcome> SubsumesDetailed(ql::ConceptId c,
                                              ql::ConceptId d) const;

  // Whether C is Σ-satisfiable (no clash in the completion of {x:C} : ∅).
  Result<bool> Satisfiable(ql::ConceptId c) const;

  // Whether C ≡_Σ D (mutual subsumption).
  Result<bool> Equivalent(ql::ConceptId c, ql::ConceptId d) const;

  const schema::Schema& sigma() const { return sigma_; }
  const StructuralPreFilter& prefilter() const { return prefilter_; }

  // Memoization statistics (0 when memoize is off).
  size_t cache_hits() const { return cache_.Stats().hits; }
  size_t cache_size() const { return cache_.size(); }
  MemoCacheStats cache_stats() const { return cache_.Stats(); }

  // Snapshot of the check-avoidance counters.
  CheckerPerfStats perf_stats() const;

  // Appends this checker's counters and histograms (memo cache, prefilter,
  // pool, per-rule application totals, completion-run latency) to a metrics
  // snapshot. `labels` is attached to every series, e.g. {{"session", n}}.
  void AppendMetrics(obs::Collector& out, const obs::Labels& labels = {}) const;

  // Completion-run wall-time distribution (nanosecond samples).
  const obs::Histogram& engine_run_histogram() const { return engine_run_ns_; }

  // Aggregate applications of one calculus rule across all runs.
  uint64_t rule_total(Rule rule) const {
    return rule_totals_[static_cast<size_t>(rule)].load(
        std::memory_order_relaxed);
  }

 private:
  // RAII lease of a pooled engine: acquired from the freelist (or
  // constructed on miss), returned on destruction. RunBatch Resets the
  // engine itself, so a reused engine carries no state — only capacity.
  class EngineLease {
   public:
    explicit EngineLease(const SubsumptionChecker* checker);
    ~EngineLease();
    EngineLease(const EngineLease&) = delete;
    EngineLease& operator=(const EngineLease&) = delete;
    CompletionEngine* operator->() { return engine_.get(); }
    CompletionEngine& operator*() { return *engine_; }

   private:
    const SubsumptionChecker* checker_;
    std::unique_ptr<CompletionEngine> engine_;
  };

  // Folds one finished completion run into the observability state: the
  // run-latency histogram, the per-rule totals and (when given) the trace's
  // rule-application counters. Costs one relaxed load when obs is disabled
  // and no trace is attached.
  void RecordEngineRun(const RunStats& stats, obs::TraceContext* trace) const;

  const schema::Schema& sigma_;
  Options options_;
  mutable ShardedMemoCache cache_;
  StructuralPreFilter prefilter_;

  mutable base::Mutex pool_mu_;
  mutable std::vector<std::unique_ptr<CompletionEngine>> pool_
      GUARDED_BY(pool_mu_);

  mutable std::atomic<uint64_t> engine_runs_{0};
  mutable std::atomic<uint64_t> prefilter_checks_{0};
  mutable std::atomic<uint64_t> prefilter_rejections_{0};
  mutable std::atomic<uint64_t> pool_acquires_{0};
  mutable std::atomic<uint64_t> pool_reuses_{0};

  mutable obs::Histogram engine_run_ns_;
  mutable std::array<std::atomic<uint64_t>, static_cast<size_t>(Rule::kCount)>
      rule_totals_{};
};

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_SUBSUMPTION_H_
