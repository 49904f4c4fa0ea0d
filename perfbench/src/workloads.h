// The benchmark's workloads. Each one generates its inputs from the seed,
// builds an in-process reference over the same inputs, sets up a fresh
// daemon, drives it in closed loops, checks every reply, and can replay
// the request stream it sent in-process with spans around the calls into
// each layer.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/symbol.h"
#include "calculus/subsumption.h"
#include "daemon.h"
#include "db/database.h"
#include "dl/model.h"
#include "dl/translate.h"
#include "ql/term_factory.h"
#include "schema/schema.h"
#include "server/client.h"
#include "spans.h"
#include "views/views.h"

namespace perfbench {

using oodb::Result;
using oodb::Status;
using oodb::Symbol;
using oodb::SymbolTable;
namespace calculus = oodb::calculus;
namespace dl = oodb::dl;
namespace ql = oodb::ql;
namespace schema = oodb::schema;
namespace server = oodb::server;
namespace views = oodb::views;

enum Verb : uint8_t { kCheck, kBcheck, kOptimize, kView, kUndefine, kNumVerbs };

// Lower-case metric stem ("check") and protocol verb ("CHECK").
const char* VerbStem(Verb verb);
const char* VerbWire(Verb verb);

// One request of a timed window, as completed at the client.
struct Sent {
  Verb verb = kCheck;
  // Workload-defined request arguments (pair index, class index, ...).
  uint32_t arg0 = 0;
  uint32_t arg1 = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  // The measured window (a second or less) the request fell in. Each
  // statistic is taken per window and reported as the median over
  // windows, so a disturbed stretch does not move a run's figure.
  uint32_t window = 0;
  bool ok = false;
};

// What one timed window (or one client thread of it) produced.
struct Log {
  // A deque: growing it never copies what is already recorded, which
  // would stall the client mid-window.
  std::deque<Sent> sent;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // ERR + BUSY + transport failures
  uint64_t mismatches = 0;  // replies that disagree with the reference
  std::vector<std::string> notes;  // the first few failures, for stderr
  double window_s = 0.0;
  // Measured seconds of each window (see Sent::window).
  std::map<uint32_t, double> windows;
  // Checks inside one request: 1 for CHECK, the pair count for BCHECK.
  uint64_t check_verdicts = 0;
  // The workload's lead operations (see Workload::lead()), timed like
  // requests.
  std::deque<Sent> lead;

  void Fail(const std::string& what);
  void Mismatch(const std::string& what);
  void Merge(const Log& other);
};

// The parse → translate → check pipeline the daemon's session runs, over
// the same DL source, plus (optionally) a database state with a view
// catalog and optimizer.
struct Reference {
  SymbolTable symbols;
  std::unique_ptr<ql::TermFactory> terms;
  std::unique_ptr<schema::Schema> sigma;
  std::unique_ptr<dl::Model> model;
  std::unique_ptr<dl::Translator> translator;
  std::unique_ptr<calculus::SubsumptionChecker> checker;
  std::unique_ptr<oodb::db::Database> database;
  std::unique_ptr<views::ViewCatalog> catalog;
  std::unique_ptr<views::Optimizer> optimizer;

  // Parses and translates; nullptr (and *error) on failure.
  static std::unique_ptr<Reference> Build(const std::string& source,
                                          std::string* error);
  // Loads a state and rebuilds the catalog and optimizer over it.
  bool LoadState(const std::string& odb, std::string* error);

  Symbol Find(const std::string& name) const { return symbols.Find(name); }
  Result<ql::ConceptId> ConceptOf(const std::string& name);
  Result<bool> Check(const std::string& c, const std::string& d);
};

// Per-layer numbers of one traced run, by metric name, plus their sample
// counts (the base of each ratio or median).
struct LayerReport {
  std::map<std::string, double> values;
  std::map<std::string, double> bases;
  void Set(const std::string& name, double value, double base) {
    values[name] = value;
    bases[name] = base;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs for `seed` and builds the reference.
  virtual bool Prepare(uint64_t seed, std::string* error) = 0;
  // LOAD, STATE, VIEWs and warm-up against a fresh daemon.
  virtual bool Setup(int port, std::string* error) = 0;
  // Drives the daemon in closed loops for `seconds` of measured time.
  // With `spans` set, records one span per request (the traced daemon
  // run). With `probe` set, brackets every measured stretch with
  // probe->Begin() / probe->End().
  virtual Log RunTimed(int port, double seconds, SpanRecorder* spans,
                       WindowProbe* probe) = 0;
  // Checks made after the timed windows (e.g. the final taxonomy).
  virtual void VerifyEnd(int port, Log* log) = 0;
  // Replays the requests of `log` in-process, single-threaded, with spans
  // around the calls into each layer; stops after `budget_s` seconds.
  // Fills the replay's per-layer numbers.
  virtual void Replay(const Log& log, double budget_s, SpanRecorder* spans,
                      LayerReport* layers) = 0;
  // Input sizes actually used (classes, queries, pairs, views, ...).
  virtual std::map<std::string, double> Sizes() const = 0;
  // The operation that characterizes the workload, reported as `lead_*`
  // (e.g. "OPTIMIZE").
  virtual const char* lead() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Number of pairs in one BCHECK frame.
inline constexpr size_t kBatchPairs = 256;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
