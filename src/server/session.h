// One resident unit of daemon state: a parsed DL schema, its SL
// translation, the QL concept table, an (optional) database state, and a
// materialized view catalog — everything a request needs, kept hot across
// requests so the shared checker's memo cache, pre-filter signatures and
// engine pool amortize over the connection stream.
#ifndef OODB_SERVER_SESSION_H_
#define OODB_SERVER_SESSION_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "base/status.h"
#include "base/symbol.h"
#include "base/sync.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "dl/frontend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/wire.h"
#include "views/views.h"

namespace oodb::server {

// Thread compatibility: Handle holds mu_ exclusively for the verbs the
// verb table marks `mutates` (STATE/VIEW/UNDEFINE; STATE only for the
// swap, after parsing its payload unlocked) and shared for the
// rest (CHECK/BCHECK/CLASSIFY/OPTIMIZE only read session structure; the
// checker and the translator — whose concept cache these verbs
// populate — are internally thread-safe). AnswerFromMemo takes the
// shared side only if it is free, and AppendMetrics takes no lock at
// all: it reads atomics the writers publish. The resident taxonomy
// (CLASSIFY) is additionally guarded by classify_mu_, always acquired
// after mu_.
class Session {
 public:
  // Parses and translates a DL source into a fresh session with an empty
  // database state. Parser warnings are collected, not printed.
  static Result<std::unique_ptr<Session>> FromSource(
      std::string_view dl_source, obs::TraceContext* trace = nullptr);

  // Runs one verb whose args[0] names this session — STATE, VIEW,
  // UNDEFINE, CHECK, BCHECK, CLASSIFY or OPTIMIZE — to its reply
  // (docs/server.md §2); a library error is answered `ERR <code> ...`.
  Reply Handle(const RequestView& request, obs::TraceContext* trace)
      EXCLUDES(mu_);

  // A CHECK or BCHECK answered from the memo alone, as Handle would
  // answer it; nullopt when it cannot be — a writer holds mu_, a class
  // name is unresolved, or a pair is not memoized. Never blocks,
  // translates or runs an engine, and moves no counter unless it
  // answers. The event loop calls it (docs/server.md §3).
  std::optional<Reply> AnswerFromMemo(const RequestView& request,
                                      obs::TraceContext* trace)
      EXCLUDES(mu_);

  // One-line summary for the LOAD reply.
  std::string Summary() const;

  // Appends this session's counters plus its checker's metrics to a
  // snapshot (METRICS and STATS both render it). Takes no session lock,
  // so the event loop never waits here behind a writer or a first
  // CLASSIFY.
  void AppendMetrics(obs::Collector& out, const obs::Labels& labels) const;

 private:
  Session() = default;

  // STATE: parses `payload`, then installs it under mu_ (ResetState).
  Result<std::string> LoadState(std::string_view payload,
                                obs::TraceContext* trace) EXCLUDES(mu_);
  // Handle's other verb bodies under each side of mu_; each returns its
  // verb's reply text.
  Result<std::string> Mutate(const RequestView& request,
                             obs::TraceContext* trace) REQUIRES(mu_);
  Result<std::string> Read(const RequestView& request,
                           obs::TraceContext* trace) REQUIRES_SHARED(mu_);

  // Installs a database state (empty, or loaded by STATE) with an empty
  // view catalog; views of the previous state are stale, so they go.
  void ResetState(std::unique_ptr<db::Database> database) REQUIRES(mu_);

  // How CheckBatch settles its pairs. kDecide resolves every name and
  // decides every pair (translation, pre-filter and engine as needed);
  // kMemoOnly reads only resolved names and memoized verdicts.
  enum class Settle : uint8_t { kDecide, kMemoOnly };
  // CheckBatch's reply text; nullopt when kMemoOnly could not settle.
  using Settled = std::optional<std::string>;

  // BCHECK, and CHECK as a batch of one: Cᵢ ⊑_Σ Dᵢ for the flat pairs
  // C₁ D₁ C₂ D₂ ..., one verdict per pair in order, in four steps:
  // resolve the names, group the pairs by left operand, decide each
  // group (one SubsumesBatch call — the catalog-scan fast path one
  // completion run decides), render. kMemoOnly stops at the first
  // unresolved name or memo miss and returns nullopt ("unsettled", not
  // an error), having counted nothing.
  Result<Settled> CheckBatch(Args operands, Settle settle,
                             obs::TraceContext* trace) REQUIRES_SHARED(mu_);

  // Builds the resident classifier over schema + query classes (minus
  // taxonomy exclusions) if absent.
  Status EnsureClassifierLocked(obs::TraceContext* trace)
      REQUIRES(classify_mu_);

  // Publish what AppendMetrics reads: the view and object counts, and
  // the resident classifier's ClassifyStats.
  void PublishSizes() REQUIRES(mu_);
  void PublishTaxonomy() REQUIRES(classify_mu_);

  dl::Frontend dl_;
  std::unique_ptr<calculus::SubsumptionChecker> checker_;
  // The database state and everything derived from it are replaced
  // wholesale by ResetState, so they live under mu_ (exclusive to swap,
  // shared to read). Members above are set once before the session is
  // published and never change.
  std::unique_ptr<db::Database> database_ GUARDED_BY(mu_);
  std::unique_ptr<views::ViewCatalog> catalog_ GUARDED_BY(mu_);
  std::unique_ptr<views::Optimizer> optimizer_ GUARDED_BY(mu_);

  // Request counters tick under the shared lock, so they are atomic.
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> classifies_{0};
  std::atomic<uint64_t> optimizes_{0};
  std::atomic<uint64_t> undefines_{0};
  // Copies of what METRICS reports from locked state, set by its writers
  // under their lock and read by AppendMetrics under none.
  std::atomic<uint64_t> views_{0};
  std::atomic<uint64_t> objects_{0};
  std::atomic<bool> classified_{false};  // the four below are set
  std::atomic<uint64_t> last_concepts_{0};
  std::atomic<uint64_t> last_checks_performed_{0};
  std::atomic<uint64_t> last_pairwise_checks_{0};
  std::atomic<uint64_t> last_checks_avoided_{0};
  std::atomic<uint64_t> taxonomy_inserts_{0};
  std::atomic<uint64_t> taxonomy_removes_{0};
  // classify_mu_ guards the resident incrementally maintained
  // classifier and the set of query classes UNDEFINEd out of it (until a
  // VIEW or LOAD; STATE keeps it, the taxonomy being Σ-level). Lock
  // order: mu_ (either side) before classify_mu_ — declared on mu_ below.
  mutable base::Mutex classify_mu_;
  std::unique_ptr<calculus::Classifier> classifier_ GUARDED_BY(classify_mu_);
  std::unordered_set<Symbol> taxonomy_excluded_ GUARDED_BY(classify_mu_);

  mutable base::SharedMutex mu_ ACQUIRED_BEFORE(classify_mu_);
};

}  // namespace oodb::server

#endif  // OODB_SERVER_SESSION_H_
