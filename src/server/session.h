// One resident unit of daemon state: a parsed DL schema, its SL
// translation, the QL concept table, an (optional) database state, and a
// materialized view catalog — everything a request needs, kept hot across
// requests so the shared checker's memo cache, pre-filter signatures and
// engine pool amortize over the connection stream.
#ifndef OODB_SERVER_SESSION_H_
#define OODB_SERVER_SESSION_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/symbol.h"
#include "base/sync.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "dl/model.h"
#include "dl/translate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ql/term_factory.h"
#include "schema/schema.h"
#include "server/wire.h"
#include "views/views.h"

namespace oodb::server {

// Thread compatibility: LOAD/STATE/VIEW/UNDEFINE mutate the session and
// require the exclusive side of mu(); CHECK/CLASSIFY/OPTIMIZE/STATS only
// read session structure (the checker and the translator — whose
// query-concept memo these verbs populate — are internally thread-safe)
// and run under the shared side. The resident taxonomy (see Classify) is
// additionally guarded by classify_mu_, always acquired after mu(). The
// server enforces this locking.
class Session {
 public:
  // Parses and translates a DL source into a fresh session with an empty
  // database state. Parser warnings are collected, not printed.
  static Result<std::unique_ptr<Session>> FromSource(
      std::string_view dl_source, obs::TraceContext* trace = nullptr);

  // Replaces the database state from `.odb` text. Views defined against
  // the previous state are dropped (their extents are stale by
  // construction); callers re-issue VIEW after STATE.
  Status LoadState(std::string_view odb_source) REQUIRES(mu_);

  // Defines and materializes the named query class as a view. Returns
  // the extent size. If the resident taxonomy is built and the class was
  // previously UNDEFINEd out of it, it is re-inserted incrementally.
  Result<size_t> DefineView(std::string_view name) REQUIRES(mu_);

  // Undefines a query class: drops its materialized view (if any) and
  // removes it from the resident taxonomy via incremental DAG repair.
  // The exclusion survives STATE (the taxonomy is Σ-level, not
  // data-level) and lasts until a DEFINE re-inserts the class or a LOAD
  // replaces the session. Returns a `key=value` summary line.
  Result<std::string> UndefineView(std::string_view name) REQUIRES(mu_);

  // C ⊑_Σ D for two named classes, through the shared warm checker.
  Result<bool> Check(std::string_view c, std::string_view d,
                     obs::TraceContext* trace = nullptr)
      REQUIRES_SHARED(mu_);

  // Cᵢ ⊑_Σ Dᵢ for every pair, one verdict per pair in order (the BCHECK
  // verb). `operands` holds the pairs flat: C₁ D₁ C₂ D₂ ... Pairs sharing
  // a left operand are grouped onto a single SubsumesBatch call — the
  // catalog-scan fast path one completion run decides — so a
  // query-vs-view-catalog batch costs one engine run.
  Result<std::vector<bool>> CheckBatch(Args operands,
                                       obs::TraceContext* trace = nullptr)
      REQUIRES_SHARED(mu_);

  // Classifies schema + query classes; returns the hierarchy rendering.
  // The taxonomy is RESIDENT: the first call classifies from scratch,
  // later calls only render the incrementally-maintained DAG (DEFINE
  // inserts, UNDEFINE removes — no reclassification on a warm session).
  Result<std::string> Classify(obs::TraceContext* trace = nullptr)
      REQUIRES_SHARED(mu_);

  // Runs the optimizer's plan choice for a named query class and renders
  // the plan as `key=value` lines (see docs/server.md).
  Result<std::string> Optimize(std::string_view query,
                               obs::TraceContext* trace = nullptr)
      REQUIRES_SHARED(mu_);

  // One-line summary for the LOAD reply.
  std::string Summary() const;

  // Appends this session's counters plus its checker's metrics to a
  // snapshot (METRICS and STATS both render it). Callers hold at least
  // the shared side of mu().
  void AppendMetrics(obs::Collector& out, const obs::Labels& labels) const
      REQUIRES_SHARED(mu_);

 private:
  // The server is the only caller allowed to lock a session: it picks the
  // side of mu_ per verb (see the class comment) through mu() below.
  friend class Server;

  Session() = default;

  // The session-wide lock, exposed to the server's Reader/WriterLock
  // sites; RETURN_CAPABILITY ties the result to mu_ for the analysis.
  base::SharedMutex& mu() RETURN_CAPABILITY(mu_) { return mu_; }

  // Resolves a class name to its QL concept (query classes are
  // translated; schema classes are primitive concepts).
  Result<ql::ConceptId> ConceptOf(std::string_view name);

  // Builds the resident classifier over schema + query classes (minus
  // taxonomy exclusions) if absent.
  Status EnsureClassifierLocked(obs::TraceContext* trace)
      REQUIRES(classify_mu_);

  SymbolTable symbols_;
  std::unique_ptr<ql::TermFactory> terms_;
  std::unique_ptr<schema::Schema> sigma_;
  std::unique_ptr<dl::Model> model_;
  std::unique_ptr<dl::Translator> translator_;
  std::unique_ptr<calculus::SubsumptionChecker> checker_;
  // The database state and everything derived from it are replaced
  // wholesale by LoadState, so they live under mu_ (exclusive to swap,
  // shared to read). Members above are set once before the session is
  // published and never change.
  std::unique_ptr<db::Database> database_ GUARDED_BY(mu_);
  std::unique_ptr<views::ViewCatalog> catalog_ GUARDED_BY(mu_);
  std::unique_ptr<views::Optimizer> optimizer_ GUARDED_BY(mu_);
  std::vector<std::string> warnings_;

  // Request counters tick under the shared lock, so they are atomic.
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> classifies_{0};
  std::atomic<uint64_t> optimizes_{0};
  std::atomic<uint64_t> undefines_{0};
  // classify_mu_ guards the resident incrementally maintained
  // classifier, the set of query classes UNDEFINEd out of it,
  // insert/remove accounting, and the stats snapshot. Lock order:
  // mu_ (either side) before classify_mu_ — declared on mu_ below.
  mutable base::Mutex classify_mu_;
  std::unique_ptr<calculus::Classifier> classifier_ GUARDED_BY(classify_mu_);
  std::unordered_set<Symbol> taxonomy_excluded_ GUARDED_BY(classify_mu_);
  uint64_t taxonomy_inserts_ GUARDED_BY(classify_mu_) = 0;
  uint64_t taxonomy_removes_ GUARDED_BY(classify_mu_) = 0;
  calculus::Classifier::ClassifyStats last_classify_ GUARDED_BY(classify_mu_);
  bool has_classified_ GUARDED_BY(classify_mu_) = false;

  mutable base::SharedMutex mu_ ACQUIRED_BEFORE(classify_mu_);
};

}  // namespace oodb::server

#endif  // OODB_SERVER_SESSION_H_
