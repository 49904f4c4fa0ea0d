#include "workloads.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "calculus/services.h"
#include "db/evaluator.h"
#include "db/instance.h"
#include "dl/analyzer.h"
#include "gen.h"
#include "replay.h"

namespace perfbench {

const char* VerbStem(Verb verb) {
  static constexpr const char* kStems[kNumVerbs] = {
      "check", "bcheck", "optimize", "view", "undefine"};
  return kStems[verb];
}

const char* VerbWire(Verb verb) {
  static constexpr const char* kWire[kNumVerbs] = {
      "CHECK", "BCHECK", "OPTIMIZE", "VIEW", "UNDEFINE"};
  return kWire[verb];
}

void Log::Fail(const std::string& what) {
  ++failed;
  if (notes.size() < 8) notes.push_back("failed: " + what);
}

void Log::Mismatch(const std::string& what) {
  ++mismatches;
  if (notes.size() < 8) notes.push_back("mismatch: " + what);
}

void Log::Merge(const Log& other) {
  sent.insert(sent.end(), other.sent.begin(), other.sent.end());
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  for (const std::string& note : other.notes) {
    if (notes.size() < 8) notes.push_back(note);
  }
  check_verdicts += other.check_verdicts;
  lead.insert(lead.end(), other.lead.begin(), other.lead.end());
}

std::unique_ptr<Reference> Reference::Build(const std::string& source,
                                            std::string* error) {
  auto ref = std::make_unique<Reference>();
  ref->terms = std::make_unique<ql::TermFactory>(&ref->symbols);
  ref->sigma = std::make_unique<schema::Schema>(ref->terms.get());
  auto parsed = dl::ParseAndAnalyze(source, &ref->symbols);
  if (!parsed.ok()) {
    *error = "reference: " + parsed.status().message();
    return nullptr;
  }
  ref->model = std::make_unique<dl::Model>(*std::move(parsed));
  ref->translator =
      std::make_unique<dl::Translator>(*ref->model, ref->terms.get());
  Status built = ref->translator->BuildSchema(ref->sigma.get());
  if (!built.ok()) {
    *error = "reference: " + built.message();
    return nullptr;
  }
  ref->checker = std::make_unique<calculus::SubsumptionChecker>(*ref->sigma);
  return ref;
}

bool Reference::LoadState(const std::string& odb, std::string* error) {
  database = std::make_unique<oodb::db::Database>(*model, &symbols);
  auto loaded = oodb::db::LoadInstance(odb, database.get());
  if (!loaded.ok()) {
    *error = "reference state: " + loaded.status().message();
    return false;
  }
  catalog = std::make_unique<views::ViewCatalog>(database.get(),
                                                 translator.get());
  optimizer = std::make_unique<views::Optimizer>(database.get(), catalog.get(),
                                                 *sigma, translator.get());
  return true;
}

Result<ql::ConceptId> Reference::ConceptOf(const std::string& name) {
  const Symbol s = symbols.Find(name);
  const dl::ClassDef* def = s.valid() ? model->FindClass(s) : nullptr;
  if (def == nullptr) return oodb::NotFoundError("no class " + name);
  if (!def->is_query) return terms->Primitive(s);
  return translator->QueryConcept(s);
}

Result<bool> Reference::Check(const std::string& c, const std::string& d) {
  OODB_ASSIGN_OR_RETURN(ql::ConceptId cc, ConceptOf(c));
  OODB_ASSIGN_OR_RETURN(ql::ConceptId dd, ConceptOf(d));
  return checker->Subsumes(cc, dd);
}

namespace {

using Pair = std::pair<std::string, std::string>;

// Objects in the database state of plan-cold and catalog-churn.
constexpr size_t kObjects = 1000;

constexpr const char* kTracedNames[kNumVerbs] = {
    "daemon.check", "daemon.bcheck", "daemon.optimize", "daemon.view",
    "daemon.undefine"};

// Every connection gets a deadline, so a stuck daemon fails the run
// instead of hanging it.
constexpr int64_t kDeadlineMs = 60000;

Result<server::Client> Open(int port) {
  auto client = server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return client;
  Status armed = client->SetDeadline(kDeadlineMs);
  if (armed.ok()) armed = client->EnableBinary();
  if (!armed.ok()) return armed;
  return client;
}

std::string Verdict(bool subsumed) {
  return subsumed ? "subsumed=true" : "subsumed=false";
}

// A closed loop over one binary connection with up to `depth` requests
// in flight. `submit(seq, &sent)` stages request number `seq` (filling
// the verb and arguments of `sent`) and returns its id; `complete(sent,
// payload)` checks an OK reply. Submission stops at `end_ns` or after
// `limit` requests; the requests in flight are then drained.
using SubmitFn = std::function<Result<uint64_t>(uint64_t seq, Sent* sent)>;
using CompleteFn = std::function<void(const Sent& sent, const std::string&)>;

void Drive(server::Client& client, size_t depth, int64_t end_ns,
           uint64_t limit, uint64_t* seq, Log* log, SpanRecorder* spans,
           const SubmitFn& submit, const CompleteFn& complete) {
  struct InFlight {
    uint64_t id;
    Sent sent;
  };
  std::deque<InFlight> window;
  bool dead = false;
  while (true) {
    while (!dead && window.size() < depth && *seq < limit && NowNs() < end_ns) {
      InFlight f{0, Sent{}};
      f.sent.submit_ns = NowNs();
      Result<uint64_t> id = submit(*seq, &f.sent);
      ++*seq;
      ++log->attempted;
      if (!id.ok()) {
        log->Fail(id.status().message());
        dead = true;
        break;
      }
      f.id = *id;
      window.push_back(f);
    }
    if (window.empty()) break;
    InFlight f = window.front();
    window.pop_front();
    Result<std::string> reply = client.Await(f.id);
    f.sent.done_ns = NowNs();
    if (!reply.ok()) {
      log->Fail(std::string(VerbWire(f.sent.verb)) + ": " +
                reply.status().message());
      continue;
    }
    f.sent.ok = true;
    complete(f.sent, *reply);
    log->sent.push_back(f.sent);
    if (spans != nullptr) {
      spans->Add(Span{kTracedNames[f.sent.verb], f.sent.submit_ns,
                      f.sent.done_ns, kNoParent, f.id, false});
    }
  }
}

// One synchronous request on a binary connection, timed like Drive.
Result<std::string> Roundtrip(server::Client& client, Verb verb,
                              const std::string& line, Sent* sent, Log* log,
                              SpanRecorder* spans) {
  sent->verb = verb;
  sent->submit_ns = NowNs();
  ++log->attempted;
  Result<uint64_t> id = client.SubmitLine(line);
  Result<std::string> reply =
      id.ok() ? client.Await(*id) : Result<std::string>(id.status());
  sent->done_ns = NowNs();
  if (!reply.ok()) {
    log->Fail(line + ": " + reply.status().message());
    return reply;
  }
  sent->ok = true;
  log->sent.push_back(*sent);
  if (spans != nullptr) {
    spans->Add(Span{kTracedNames[verb], sent->submit_ns, sent->done_ns,
                    kNoParent, *id, false});
  }
  return reply;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Key=value lines of an OPTIMIZE reply.
std::map<std::string, std::string> ParseKeyValues(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// check-warm: an E17-sized DL whose every CHECK pair is in the memo.

class CheckWarm : public Workload {
 public:
  bool Prepare(uint64_t seed, std::string* error) override {
    dl_ = GenerateFlatDl(seed, 8, 4, 16);
    ref_ = Reference::Build(dl_.source, error);
    if (ref_ == nullptr) return false;
    for (const std::string& c : dl_.queries) {
      for (const auto* side : {&dl_.queries, &dl_.classes}) {
        for (const std::string& d : *side) {
          auto verdict = ref_->Check(c, d);
          if (!verdict.ok()) continue;
          pairs_.emplace_back(c, d);
          expected_.push_back(*verdict);
        }
      }
    }
    // The order pairs are sent in: a seeded shuffle, cycled.
    order_.resize(pairs_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<uint32_t>(i);
    SplitMix64 rng(seed ^ 0x5eed);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.Index(i)]);
    }
    return !pairs_.empty();
  }

  bool Setup(int port, std::string* error) override {
    auto opened = Open(port);
    if (!opened.ok()) {
      *error = "connect: " + opened.status().message();
      return false;
    }
    server::Client& client = *opened;
    auto loaded = client.Load(kSession, dl_.source);
    if (!loaded.ok()) {
      *error = "LOAD: " + loaded.status().message();
      return false;
    }
    // One untimed pass over every pair puts every verdict in the memo.
    Log warm;
    uint64_t seq = 0;
    Drive(client, 16, std::numeric_limits<int64_t>::max(), pairs_.size(), &seq,
          &warm, nullptr, SubmitCheckFn(client, /*sequential=*/true),
          CompleteCheckFn(&warm));
    if (warm.failed != 0 || warm.mismatches != 0) {
      *error = "warm-up pass: " + (warm.notes.empty() ? "" : warm.notes[0]);
      return false;
    }
    return true;
  }

  Log RunTimed(int port, double seconds, SpanRecorder* spans,
               WindowProbe* probe) override {
    Log log;
    auto opened = Open(port);
    if (!opened.ok()) {
      log.Fail("connect: " + opened.status().message());
      return log;
    }
    server::Client& client = *opened;
    // Alternate 400 ms slices, one measured window each: pipelined CHECK
    // at depth 16, then BCHECK frames of 256 pairs at depth 1, so both
    // see the same conditions.
    constexpr int64_t kSliceNs = 400'000'000;
    if (probe != nullptr) probe->Begin();
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    for (int slice = 0; NowNs() < end; ++slice) {
      const Verb verb = slice % 2 == 0 ? kCheck : kBcheck;
      const int64_t slice_start = NowNs();
      const int64_t slice_end = std::min(end, slice_start + kSliceNs);
      const size_t first = log.sent.size();
      if (verb == kCheck) {
        Drive(client, 16, slice_end, std::numeric_limits<uint64_t>::max(),
              &check_seq_, &log, spans, SubmitCheckFn(client, false),
              CompleteCheckFn(&log));
      } else {
        Drive(client, 1, slice_end, std::numeric_limits<uint64_t>::max(),
              &batch_seq_, &log, spans, SubmitBatchFn(client),
              CompleteBatchFn(&log));
      }
      log.windows[slice] = Seconds(NowNs() - slice_start);
      for (size_t i = first; i < log.sent.size(); ++i) {
        log.sent[i].window = static_cast<uint32_t>(slice);
      }
      if (log.failed != 0) break;
    }
    log.window_s = Seconds(NowNs() - start);
    if (probe != nullptr) probe->End();
    for (const Sent& s : log.sent) {
      if (s.verb == kBcheck) log.lead.push_back(s);
    }
    return log;
  }

  void VerifyEnd(int, Log*) override {}

  void Replay(const Log& log, double budget_s, SpanRecorder* spans,
              LayerReport* layers) override {
    ReplayStack stack(spans);
    std::string error;
    if (!stack.Load(dl_.source, &error)) return;
    // The daemon's warm-up pass, untimed except for first translations.
    const int32_t setup = stack.BeginRequest(0, kCheck);
    for (const Pair& p : pairs_) {
      auto c = stack.Translate(setup, 0, p.first);
      auto d = stack.Translate(setup, 0, p.second);
      if (c.ok() && d.ok()) (void)stack.checker().Subsumes(*c, *d);
    }
    stack.EndRequest(setup);
    // An even sample of the window's requests, both verbs in their
    // proportions. Replaying them in order until the budget ran out
    // recorded tens of millions of spans (a BCHECK frame alone makes over
    // 500): 1.9 GB of memory and a 1.2 GB span file for a 15-s run.
    const size_t stride =
        std::max<size_t>(1, log.sent.size() / kReplayedRequests);
    const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
    uint64_t id = 0;
    for (size_t i = 0; i < log.sent.size(); i += stride) {
      if (NowNs() > deadline) break;
      const Sent& s = log.sent[i];
      ++id;
      const int32_t root = stack.BeginRequest(id, s.verb);
      if (s.verb == kCheck) {
        stack.CheckRequest(root, id, pairs_[s.arg0].first,
                           pairs_[s.arg0].second);
      } else {
        const std::vector<Pair>& frame = BatchFrame(s.arg0);
        stack.WireBatch(root, id, frame);
        std::vector<ql::ConceptId> lhs, rhs;
        for (const Pair& p : frame) {
          auto c = stack.Translate(root, id, p.first);
          auto d = stack.Translate(root, id, p.second);
          lhs.push_back(c.ok() ? *c : ql::kInvalidConcept);
          rhs.push_back(d.ok() ? *d : ql::kInvalidConcept);
        }
        auto verdicts = stack.CheckBatch(root, id, lhs, rhs);
        std::string body = "subsumed=";
        if (verdicts.ok()) {
          for (size_t i = 0; i < verdicts->size(); ++i) {
            body += (i > 0 ? "," : "");
            body += (*verdicts)[i] ? "true" : "false";
          }
        }
        stack.WireReply(root, id, body);
      }
      stack.EndRequest(root);
    }
    stack.Report(layers);
  }

  std::map<std::string, double> Sizes() const override {
    return {{"classes", static_cast<double>(dl_.classes.size())},
            {"query_classes", static_cast<double>(dl_.queries.size())},
            {"check_pairs", static_cast<double>(pairs_.size())},
            {"bcheck_pairs_per_frame", static_cast<double>(kBatchPairs)},
            {"check_depth", 16},
            {"bcheck_depth", 1}};
  }

  const char* lead() const override { return "BCHECK frame"; }

 private:
  static constexpr const char* kSession = "warm";
  // Requests the replay runs at most: a few hundred BCHECK frames among
  // them, and some 0.5 million spans.
  static constexpr size_t kReplayedRequests = 20000;

  SubmitFn SubmitCheckFn(server::Client& client, bool sequential) {
    return [this, &client, sequential](uint64_t seq, Sent* sent) {
      const uint32_t index =
          sequential ? static_cast<uint32_t>(seq)
                     : order_[static_cast<size_t>(seq % order_.size())];
      sent->verb = kCheck;
      sent->arg0 = index;
      return client.SubmitCheck(kSession, pairs_[index].first,
                                pairs_[index].second);
    };
  }

  CompleteFn CompleteCheckFn(Log* log) {
    return [this, log](const Sent& sent, const std::string& reply) {
      ++log->check_verdicts;
      if (reply != Verdict(expected_[sent.arg0])) {
        log->Mismatch("CHECK " + pairs_[sent.arg0].first + " " +
                      pairs_[sent.arg0].second + ": " + reply);
      }
    };
  }

  // Frame k holds the 256 pairs after position k·256 of the cycled order.
  const std::vector<Pair>& BatchFrame(uint32_t start) {
    auto it = frames_.find(start);
    if (it != frames_.end()) return it->second;
    std::vector<Pair> frame;
    for (size_t i = 0; i < kBatchPairs; ++i) {
      frame.push_back(pairs_[order_[(start + i) % order_.size()]]);
    }
    return frames_.emplace(start, std::move(frame)).first->second;
  }

  SubmitFn SubmitBatchFn(server::Client& client) {
    return [this, &client](uint64_t seq, Sent* sent) {
      sent->verb = kBcheck;
      sent->arg0 = static_cast<uint32_t>((seq * kBatchPairs) % order_.size());
      return client.SubmitCheckBatch(kSession, BatchFrame(sent->arg0));
    };
  }

  CompleteFn CompleteBatchFn(Log* log) {
    return [this, log](const Sent& sent, const std::string& reply) {
      log->check_verdicts += kBatchPairs;
      auto verdicts = server::ParseBatchVerdicts(reply, kBatchPairs);
      if (!verdicts.ok()) {
        log->Mismatch("BCHECK reply: " + verdicts.status().message());
        return;
      }
      for (size_t i = 0; i < kBatchPairs; ++i) {
        const uint32_t index = order_[(sent.arg0 + i) % order_.size()];
        if ((*verdicts)[i] != expected_[index]) {
          log->Mismatch("BCHECK pair " + pairs_[index].first + " " +
                        pairs_[index].second);
        }
      }
    };
  }

  GeneratedDl dl_;
  std::unique_ptr<Reference> ref_;
  std::vector<Pair> pairs_;
  std::vector<bool> expected_;
  std::vector<uint32_t> order_;
  std::unordered_map<uint32_t, std::vector<Pair>> frames_;
  uint64_t check_seq_ = 0;
  uint64_t batch_seq_ = 0;
};

// ---------------------------------------------------------------------------
// plan-cold: fresh OPTIMIZE queries and fresh CHECK pairs against a
// 64-view catalog over a 1000-object state.

class PlanCold : public Workload {
 public:
  bool Prepare(uint64_t seed, std::string* error) override {
    dl_ = GenerateFlatDl(seed, 16, 8, kViews + 2 * kPerStream);
    state_ = GenerateState(seed ^ 0x57a7e, dl_, kObjects);
    ref_ = Reference::Build(dl_.source, error);
    if (ref_ == nullptr || !ref_->LoadState(state_, error)) return false;
    views_.assign(dl_.queries.begin(), dl_.queries.begin() + kViews);
    for (const std::string& v : views_) {
      Status defined = ref_->catalog->DefineView(ref_->Find(v));
      if (!defined.ok()) {
        *error = "reference VIEW " + v + ": " + defined.message();
        return false;
      }
    }
    // CHECK targets: every view and every schema class.
    targets_ = views_;
    targets_.insert(targets_.end(), dl_.classes.begin(), dl_.classes.end());
    rng_seed_ = seed ^ 0xc0ffee;
    return true;
  }

  bool Setup(int port, std::string* error) override {
    epoch_ = 0;
    return LoadSession(port, error);
  }

  // Measured stretches of at most kStretchS, each against a freshly
  // loaded session (the reload is not timed), so that every query and
  // pair is cold: one connection streams OPTIMIZE of fresh queries, the
  // other CHECK of fresh queries against a view or schema class, each at
  // depth 1, which keeps both daemon workers busy.
  Log RunTimed(int port, double seconds, SpanRecorder* spans,
               WindowProbe* probe) override {
    Log log;
    auto optimizer = Open(port);
    auto checker = Open(port);
    if (!optimizer.ok() || !checker.ok()) {
      log.Fail("connect failed");
      return log;
    }
    double measured = 0.0;
    while (measured < seconds && log.failed == 0) {
      if (session_used_) {
        std::string error;
        ++epoch_;
        if (!LoadSession(port, &error)) {
          log.Fail(error);
          break;
        }
      }
      session_used_ = true;
      const double stretch = std::min(kStretchS, seconds - measured);
      if (probe != nullptr) probe->Begin();
      const int64_t start = NowNs();
      const int64_t end = start + static_cast<int64_t>(stretch * 1e9);
      Stream streams[2];
      streams[0].client = &*optimizer;
      streams[0].verb = kOptimize;
      streams[1].client = &*checker;
      streams[1].verb = kCheck;
      const bool traced = spans != nullptr;
      std::thread worker([&] { RunStream(&streams[1], end, traced); });
      RunStream(&streams[0], end, traced);
      worker.join();
      const double elapsed = Seconds(NowNs() - start);
      measured += elapsed;
      log.windows[epoch_] = elapsed;
      if (probe != nullptr) probe->End();
      for (Stream& stream : streams) {
        log.Merge(stream.log);
        for (auto& [key, reply] : stream.replies) replies_[key] = std::move(reply);
        if (traced) {
          for (const Span& span : stream.spans.spans()) spans->Add(span);
        }
      }
    }
    log.window_s = measured;
    std::sort(log.sent.begin(), log.sent.end(),
              [](const Sent& a, const Sent& b) { return a.submit_ns < b.submit_ns; });
    for (const Sent& s : log.sent) {
      if (s.verb == kOptimize) log.lead.push_back(s);
    }
    Verify(&log);
    return log;
  }

  void VerifyEnd(int, Log*) override {}

  // Replays the requests of the window's first session.
  void Replay(const Log& log, double budget_s, SpanRecorder* spans,
              LayerReport* layers) override {
    ReplayStack stack(spans);
    std::string error;
    if (!stack.Load(dl_.source, &error) || !stack.LoadState(state_, &error)) {
      return;
    }
    for (const std::string& v : views_) {
      const int32_t setup = stack.BeginRequest(0, kView);
      (void)stack.DefineView(setup, 0, v);
      stack.EndRequest(setup);
    }
    const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
    uint64_t id = 0;
    for (const Sent& s : log.sent) {
      if (NowNs() > deadline || s.window != log.sent.front().window) break;
      ++id;
      const std::string& q = dl_.queries[s.arg0];
      const int32_t root = stack.BeginRequest(id, s.verb);
      if (s.verb == kOptimize) {
        stack.WireLine(root, id, std::string("OPTIMIZE ") + kSession + " " + q);
        (void)stack.Translate(root, id, q);
        (void)stack.ChoosePlan(root, id, q);
        stack.WireReply(root, id, replies_[ReplyKey(s)]);
      } else {
        stack.CheckRequest(root, id, q, targets_[s.arg1]);
      }
      stack.EndRequest(root);
    }
    stack.Report(layers);
  }

  std::map<std::string, double> Sizes() const override {
    return {{"classes", static_cast<double>(dl_.classes.size())},
            {"query_classes", static_cast<double>(dl_.queries.size())},
            {"views", static_cast<double>(views_.size())},
            {"objects", kObjects},
            {"sessions_loaded", static_cast<double>(epoch_ + 1)},
            {"stretch_s", kStretchS},
            {"connections", 2},
            {"depth_per_connection", 1}};
  }

  const char* lead() const override { return "OPTIMIZE"; }

 private:
  static constexpr const char* kSession = "plan";
  static constexpr size_t kViews = 64;
  // Fresh queries per stream and session; more than one stretch uses.
  static constexpr size_t kPerStream = 8000;
  static constexpr size_t kPairsPerCheckQuery = 4;
  static constexpr double kStretchS = 1.0;

  struct Stream {
    server::Client* client = nullptr;
    Verb verb = kCheck;
    Log log;
    std::deque<std::pair<uint64_t, std::string>> replies;
    SpanRecorder spans;
  };

  // A reply's key: session, query and target (a CHECK query has several
  // targets).
  static uint64_t ReplyKey(const Sent& s) {
    return (static_cast<uint64_t>(s.window) << 40) |
           (static_cast<uint64_t>(s.arg0) << 8) | (s.arg1 & 0xff);
  }

  // LOAD + STATE + the 64 VIEWs, extents checked against the reference.
  bool LoadSession(int port, std::string* error) {
    auto opened = Open(port);
    if (!opened.ok()) {
      *error = "connect: " + opened.status().message();
      return false;
    }
    server::Client& client = *opened;
    auto loaded = client.Load(kSession, dl_.source);
    auto stated = loaded.ok() ? client.LoadState(kSession, state_) : loaded;
    if (!stated.ok()) {
      *error = "LOAD/STATE: " + stated.status().message();
      return false;
    }
    for (const std::string& v : views_) {
      auto extent = client.DefineView(kSession, v);
      const size_t want = ref_->catalog->Find(ref_->Find(v))->extent.size();
      if (!extent.ok() || *extent != want) {
        *error = "VIEW " + v + " disagrees with the reference";
        return false;
      }
    }
    session_used_ = false;
    return true;
  }

  // Request k of a stream. OPTIMIZE k asks fresh query k of the first
  // half; CHECK k pairs fresh query k/4 of the second half with the
  // (k%4)-th of four distinct targets drawn for it. Targets depend on the
  // session, so pairs also differ between sessions.
  void RunStream(Stream* stream, int64_t end, bool traced) {
    uint64_t seq = 0;
    const uint32_t epoch = epoch_;
    const bool optimize = stream->verb == kOptimize;
    Drive(*stream->client, 1, end,
          optimize ? kPerStream : kPerStream * kPairsPerCheckQuery, &seq,
          &stream->log, traced ? &stream->spans : nullptr,
          [&](uint64_t k, Sent* sent) -> Result<uint64_t> {
            sent->verb = stream->verb;
            sent->window = epoch;
            if (optimize) {
              sent->arg0 = static_cast<uint32_t>(kViews + k);
              return stream->client->SubmitLine(std::string("OPTIMIZE ") +
                                                kSession + " " +
                                                dl_.queries[sent->arg0]);
            }
            const uint64_t j = k / kPairsPerCheckQuery;
            sent->arg0 = static_cast<uint32_t>(kViews + kPerStream + j);
            const size_t first =
                SplitMix64(rng_seed_ + (uint64_t{epoch} << 32) + j)
                    .Index(targets_.size());
            sent->arg1 = static_cast<uint32_t>(
                (first + (k % kPairsPerCheckQuery) * 17) % targets_.size());
            return stream->client->SubmitCheck(
                kSession, dl_.queries[sent->arg0], targets_[sent->arg1]);
          },
          [&](const Sent& sent, const std::string& reply) {
            stream->replies.emplace_back(ReplyKey(sent), reply);
            if (sent.verb == kCheck) ++stream->log.check_verdicts;
          });
  }

  // Every reply against the in-process reference: CHECK verdicts against
  // the checker, OPTIMIZE plans against an Optimizer over the same state
  // and catalog (a plan depends on the query alone, so each query's plan
  // is computed once).
  void Verify(Log* log) {
    for (const Sent& s : log->sent) {
      const std::string& q = dl_.queries[s.arg0];
      const std::string& reply = replies_[ReplyKey(s)];
      if (s.verb == kCheck) {
        auto verdict = ref_->Check(q, targets_[s.arg1]);
        if (!verdict.ok() || reply != Verdict(*verdict)) {
          log->Mismatch("CHECK " + q + " " + targets_[s.arg1] + ": " + reply);
        }
        continue;
      }
      auto it = plans_.find(s.arg0);
      if (it == plans_.end()) it = plans_.emplace(s.arg0, ExpectedPlan(q)).first;
      auto got = ParseKeyValues(reply);
      if (got.erase("checks") + got.erase("plan") != 2 || got != it->second) {
        log->Mismatch("OPTIMIZE " + q + ": " + reply);
      }
    }
  }

  // The reply fields the reference plan fixes: uses_view, view,
  // views_used and pool.
  std::map<std::string, std::string> ExpectedPlan(const std::string& q) {
    auto plan = ref_->optimizer->ChoosePlan(ref_->Find(q));
    if (!plan.ok()) return {{"error", plan.status().message()}};
    std::string used;
    for (Symbol v : plan->views_used) {
      used += (used.empty() ? "" : ",") + ref_->symbols.Name(v);
    }
    return {{"uses_view", plan->uses_view ? "true" : "false"},
            {"view", plan->uses_view ? ref_->symbols.Name(plan->view) : "-"},
            {"views_used", used.empty() ? "-" : used},
            {"pool", std::to_string(plan->pool_size)}};
  }

  GeneratedDl dl_;
  std::string state_;
  std::unique_ptr<Reference> ref_;
  std::vector<std::string> views_;
  std::vector<std::string> targets_;
  uint64_t rng_seed_ = 0;
  uint32_t epoch_ = 0;
  bool session_used_ = false;
  std::unordered_map<uint64_t, std::string> replies_;
  std::unordered_map<uint32_t, std::map<std::string, std::string>> plans_;
};

// ---------------------------------------------------------------------------
// catalog-churn: UNDEFINE + VIEW over a 2000-class hierarchy-rich catalog
// while a reader CHECKs resident pairs.

class CatalogChurn : public Workload {
 public:
  bool Prepare(uint64_t seed, std::string* error) override {
    dl_ = GenerateCatalogDl(seed, kCatalogQueries);
    state_ = GenerateState(seed ^ 0x57a7e, dl_, kObjects);
    ref_ = Reference::Build(dl_.source, error);
    if (ref_ == nullptr || !ref_->LoadState(state_, error)) return false;
    // Reader pairs: half (class, ancestor), which hold by construction,
    // half (class, random query or schema class).
    SplitMix64 rng(seed ^ 0x7ead);
    for (size_t i = 0; i < kReaderPairs; ++i) {
      const size_t q = rng.Index(dl_.queries.size());
      std::string d;
      if (i % 2 == 0 && dl_.parent[q] >= 0) {
        size_t up = static_cast<size_t>(dl_.parent[q]);
        while (dl_.parent[up] >= 0 && rng.Chance(0.5)) {
          up = static_cast<size_t>(dl_.parent[up]);
        }
        d = dl_.queries[up];
      } else {
        d = rng.Chance(0.5) ? rng.Pick(dl_.queries) : rng.Pick(dl_.classes);
      }
      auto verdict = ref_->Check(dl_.queries[q], d);
      if (!verdict.ok()) {
        *error = "reference CHECK failed";
        return false;
      }
      reader_pairs_.emplace_back(dl_.queries[q], d);
      reader_expected_.push_back(*verdict);
    }
    // Every query class is a view from set-up on, so its extent is
    // checked there and after every VIEW of the timed part.
    for (uint32_t q = 0; q < dl_.queries.size(); ++q) {
      if (ExpectedExtent(q) == SIZE_MAX) {
        *error = "reference evaluation of " + dl_.queries[q] + " failed";
        return false;
      }
    }
    writer_seed_ = seed ^ 0x3417e;
    // The writer's round: every query class once, in a seeded order.
    order_.resize(dl_.queries.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<uint32_t>(i);
    SplitMix64 shuffle(writer_seed_);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[shuffle.Index(i)]);
    }
    return true;
  }

  bool Setup(int port, std::string* error) override {
    auto opened = Open(port);
    if (!opened.ok()) {
      *error = "connect: " + opened.status().message();
      return false;
    }
    server::Client& client = *opened;
    auto loaded = client.Load(kSession, dl_.source);
    auto stated = loaded.ok() ? client.LoadState(kSession, state_) : loaded;
    auto classified = stated.ok() ? client.Classify(kSession) : stated;
    if (!classified.ok()) {
      *error = "LOAD/STATE/CLASSIFY: " + classified.status().message();
      return false;
    }
    // The reader's pairs start warm, as for a planner re-asking.
    for (size_t i = 0; i < reader_pairs_.size(); i += kBatchPairs) {
      std::vector<Pair> frame(
          reader_pairs_.begin() + static_cast<ptrdiff_t>(i),
          reader_pairs_.begin() +
              static_cast<ptrdiff_t>(std::min(i + kBatchPairs, reader_pairs_.size())));
      auto verdicts = client.CheckBatch(kSession, frame);
      if (!verdicts.ok()) {
        *error = "BCHECK warm-up: " + verdicts.status().message();
        return false;
      }
      for (size_t k = 0; k < frame.size(); ++k) {
        if ((*verdicts)[k] != reader_expected_[i + k]) {
          *error = "BCHECK warm-up disagrees with the reference";
          return false;
        }
      }
    }
    // Every query class becomes a view, then the writer's round runs
    // kWarmRounds times. A cycle (UNDEFINE q, VIEW q) restores the catalog
    // and the taxonomy, but q's re-insertion moves it to the end of the
    // lists the classifier searches, so which subsumption checks a cycle
    // makes depends on the cycles before it. After two rounds in the same
    // order, every round repeats the states of the one before: the timed
    // cycles meet the same taxonomy and find their checks in the memo,
    // however many cycles ran before them.
    const size_t n = dl_.queries.size();
    for (uint32_t q = 0; q < n; ++q) {
      auto extent = client.DefineView(kSession, dl_.queries[q]);
      if (!extent.ok() || *extent != ExpectedExtent(q)) {
        *error = "VIEW " + dl_.queries[q] + " disagrees with the reference";
        return false;
      }
    }
    has_view_.assign(n, true);
    views_ = n;
    for (size_t i = 0; i < kWarmRounds * n; ++i) {
      const uint32_t q = order_[i % n];
      auto undefined = client.Undefine(kSession, dl_.queries[q]);
      auto extent = client.DefineView(kSession, dl_.queries[q]);
      if (!undefined.ok() || *undefined != ExpectedUndefine(q, n - 1) ||
          !extent.ok() || *extent != ExpectedExtent(q)) {
        *error = "warm-up cycle of " + dl_.queries[q] +
                 " disagrees with the reference";
        return false;
      }
    }
    cycles_ = 0;
    return true;
  }

  Log RunTimed(int port, double seconds, SpanRecorder* spans,
               WindowProbe* probe) override {
    if (probe != nullptr) probe->Begin();
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    Log writer_log, reader_log;
    SpanRecorder reader_spans;
    std::thread reader([&] {
      auto opened = Open(port);
      if (!opened.ok()) {
        reader_log.Fail("connect: " + opened.status().message());
        return;
      }
      server::Client& client = *opened;
      Drive(client, 1, end, std::numeric_limits<uint64_t>::max(), &reader_seq_,
            &reader_log, spans != nullptr ? &reader_spans : nullptr,
            [&](uint64_t seq, Sent* sent) {
              sent->verb = kCheck;
              sent->arg0 = static_cast<uint32_t>(
                  SplitMix64(writer_seed_ + 0x1000 + seq).Index(reader_pairs_.size()));
              return client.SubmitCheck(kSession, reader_pairs_[sent->arg0].first,
                                        reader_pairs_[sent->arg0].second);
            },
            [&](const Sent& sent, const std::string& reply) {
              ++reader_log.check_verdicts;
              if (reply != Verdict(reader_expected_[sent.arg0])) {
                reader_log.Mismatch("CHECK " + reader_pairs_[sent.arg0].first +
                                    " " + reader_pairs_[sent.arg0].second);
              }
            });
    });
    {
      auto opened = Open(port);
      if (!opened.ok()) {
        writer_log.Fail("connect: " + opened.status().message());
      } else {
        server::Client& client = *opened;
        // Each cycle is completed even when the window closes mid-way, so
        // every class stays resident between cycles.
        while (NowNs() < end && writer_log.failed == 0) {
          const uint32_t q = order_[cycles_ % order_.size()];
          ++cycles_;
          Cycle(client, q, &writer_log, spans);
        }
      }
    }
    reader.join();
    const double elapsed = Seconds(NowNs() - start);
    if (probe != nullptr) probe->End();
    Log log = std::move(writer_log);
    log.Merge(reader_log);
    if (spans != nullptr) {
      for (const Span& s : reader_spans.spans()) spans->Add(s);
    }
    // One-second windows by submit time; the last one may be shorter.
    log.window_s = elapsed;
    for (uint32_t w = 0; w < elapsed; ++w) {
      log.windows[w] = std::min(1.0, elapsed - w);
    }
    for (auto* samples : {&log.sent, &log.lead}) {
      for (Sent& s : *samples) {
        s.window = static_cast<uint32_t>((s.submit_ns - start) / 1'000'000'000);
      }
    }
    std::sort(log.sent.begin(), log.sent.end(),
              [](const Sent& a, const Sent& b) { return a.submit_ns < b.submit_ns; });
    VerifyExtents(&log);
    return log;
  }

  // UNDEFINEs a few more classes, then checks the daemon's taxonomy
  // against a from-scratch classification of the surviving classes.
  void VerifyEnd(int port, Log* log) override {
    auto opened = Open(port);
    if (!opened.ok()) {
      log->Fail("connect: " + opened.status().message());
      return;
    }
    server::Client& client = *opened;
    std::set<std::string> removed;
    SplitMix64 rng(writer_seed_ ^ 0xe4d);
    while (removed.size() < kFinalRemovals) {
      const size_t q = rng.Index(dl_.queries.size());
      if (!removed.insert(dl_.queries[q]).second) continue;
      auto reply = client.Undefine(kSession, dl_.queries[q]);
      if (!reply.ok()) {
        log->Fail("final UNDEFINE: " + reply.status().message());
        return;
      }
      if (has_view_[q]) --views_;
      if (*reply != ExpectedUndefine(q, views_)) {
        log->Mismatch("final UNDEFINE " + dl_.queries[q] + ": " + *reply);
      }
      has_view_[q] = false;
    }
    auto taxonomy = client.Classify(kSession);
    if (!taxonomy.ok()) {
      log->Fail("final CLASSIFY: " + taxonomy.status().message());
      return;
    }
    calculus::Classifier oracle(*ref_->checker);
    const dl::Model& model = *ref_->model;
    for (const dl::ClassDef& def : model.classes()) {
      const std::string name = ref_->symbols.Name(def.name);
      if (def.name == model.object_class || removed.count(name) > 0) continue;
      auto concept_id = ref_->ConceptOf(name);
      if (!concept_id.ok() || !oracle.Add(def.name, *concept_id).ok()) {
        log->Mismatch("oracle cannot add " + name);
        return;
      }
    }
    if (!oracle.Classify().ok()) {
      log->Mismatch("oracle classification failed");
      return;
    }
    taxonomy_size_ = static_cast<double>(oracle.names().size());
    if (Normalize(*taxonomy) != Normalize(oracle.ToString(ref_->symbols))) {
      log->Mismatch("CLASSIFY after churn differs from a fresh classification");
    }
  }

  void Replay(const Log& log, double budget_s, SpanRecorder* spans,
              LayerReport* layers) override {
    // The daemon's set-up, replayed untraced: every query class a view,
    // then the writer's warm rounds, so that the timed cycles meet the
    // same taxonomy and memo as in the daemon.
    SpanRecorder setup_spans;
    ReplayStack stack(&setup_spans);
    std::string error;
    if (!stack.Load(dl_.source, &error) || !stack.LoadState(state_, &error) ||
        !stack.Classify(&error)) {
      return;
    }
    for (const Pair& p : reader_pairs_) {
      auto c = stack.reference().ConceptOf(p.first);
      auto d = stack.reference().ConceptOf(p.second);
      if (c.ok() && d.ok()) (void)stack.checker().Subsumes(*c, *d);
    }
    const int32_t setup = stack.BeginRequest(0, kView);
    for (const std::string& q : dl_.queries) (void)stack.DefineView(setup, 0, q);
    for (size_t i = 0; i < kWarmRounds * order_.size(); ++i) {
      const std::string& q = dl_.queries[order_[i % order_.size()]];
      (void)stack.Undefine(setup, 0, q);
      (void)stack.DefineView(setup, 0, q);
    }
    stack.EndRequest(setup);
    stack.MeasureFrom(spans);
    const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
    uint64_t id = 0;
    for (const Sent& s : log.sent) {
      if (NowNs() > deadline) break;
      ++id;
      const int32_t root = stack.BeginRequest(id, s.verb);
      if (s.verb == kCheck) {
        stack.CheckRequest(root, id, reader_pairs_[s.arg0].first,
                           reader_pairs_[s.arg0].second);
      } else {
        const std::string& q = dl_.queries[s.arg0];
        stack.WireLine(root, id, std::string(VerbWire(s.verb)) + " " +
                                     kSession + " " + q);
        if (s.verb == kView) {
          auto extent = stack.DefineView(root, id, q);
          stack.WireReply(root, id,
                          "extent=" + std::to_string(extent.ok() ? *extent : 0));
        } else {
          (void)stack.Undefine(root, id, q);
          stack.WireReply(root, id, "undefined=" + q);
        }
      }
      stack.EndRequest(root);
    }
    stack.Report(layers);
  }

  std::map<std::string, double> Sizes() const override {
    return {{"classes", static_cast<double>(dl_.classes.size())},
            {"query_classes", static_cast<double>(dl_.queries.size())},
            {"reader_pairs", static_cast<double>(reader_pairs_.size())},
            {"objects", kObjects},
            {"views_at_setup", static_cast<double>(dl_.queries.size())},
            {"views_at_end", static_cast<double>(views_)},
            {"writer_cycles", static_cast<double>(cycles_)},
            {"taxonomy_size_at_end", taxonomy_size_}};
  }

  const char* lead() const override { return "UNDEFINE+VIEW cycle"; }

 private:
  static constexpr const char* kSession = "churn";
  static constexpr size_t kCatalogQueries = 2000;
  static constexpr size_t kReaderPairs = 512;
  static constexpr size_t kFinalRemovals = 16;
  static constexpr size_t kWarmRounds = 2;

  // The UNDEFINE reply for q, leaving `views` views.
  std::string ExpectedUndefine(size_t q, size_t views) const {
    return "undefined=" + dl_.queries[q] +
           " view_dropped=" + (has_view_[q] ? "true" : "false") +
           " taxonomy_removed=true views=" + std::to_string(views);
  }

  // UNDEFINE q then VIEW q; the pair's latency is one lead sample.
  void Cycle(server::Client& client, uint32_t q, Log* log, SpanRecorder* spans) {
    const std::string& name = dl_.queries[q];
    Sent undefine{};
    undefine.arg0 = q;
    if (has_view_[q]) --views_;
    auto reply = Roundtrip(client, kUndefine,
                           std::string("UNDEFINE ") + kSession + " " + name,
                           &undefine, log, spans);
    if (!reply.ok()) return;
    if (*reply != ExpectedUndefine(q, views_)) {
      log->Mismatch("UNDEFINE " + name + ": " + *reply);
    }
    has_view_[q] = false;
    Sent view{};
    view.arg0 = q;
    reply = Roundtrip(client, kView, std::string("VIEW ") + kSession + " " + name,
                      &view, log, spans);
    if (!reply.ok()) return;
    has_view_[q] = true;
    ++views_;
    if (reply->rfind("extent=", 0) != 0) {
      log->Mismatch("VIEW " + name + ": " + *reply);
      return;
    }
    log->sent.back().arg1 =
        static_cast<uint32_t>(std::strtoul(reply->c_str() + 7, nullptr, 10));
    Sent cycle = view;
    cycle.submit_ns = undefine.submit_ns;
    log->lead.push_back(cycle);
  }

  // The extent of query q by QueryEvaluator::Evaluate on the reference
  // state; SIZE_MAX if it fails.
  size_t ExpectedExtent(uint32_t q) {
    auto it = extents_.find(q);
    if (it == extents_.end()) {
      oodb::db::QueryEvaluator evaluator(*ref_->database);
      auto answers = evaluator.Evaluate(ref_->Find(dl_.queries[q]));
      it = extents_.emplace(q, answers.ok() ? answers->size() : SIZE_MAX).first;
    }
    return it->second;
  }

  // VIEW extents of the timed part against the reference.
  void VerifyExtents(Log* log) {
    for (const Sent& s : log->sent) {
      if (s.verb != kView) continue;
      if (ExpectedExtent(s.arg0) != s.arg1) {
        log->Mismatch("VIEW " + dl_.queries[s.arg0] + " extent=" +
                      std::to_string(s.arg1));
      }
    }
  }

  // A taxonomy rendering as name → sorted (equivalents, parents), so
  // that list order does not matter.
  static std::map<std::string, std::string> Normalize(const std::string& text) {
    std::map<std::string, std::string> out;
    std::istringstream lines(text);
    std::string line, current;
    auto sorted_list = [](const std::string& list) {
      std::vector<std::string> items;
      std::istringstream parts(list);
      std::string item;
      while (std::getline(parts, item, ',')) {
        item.erase(0, item.find_first_not_of(' '));
        items.push_back(item);
      }
      std::sort(items.begin(), items.end());
      std::string joined;
      for (const std::string& i : items) joined += i + ",";
      return joined;
    };
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      if (line[0] != ' ') {
        current = line;
        out[current];
        continue;
      }
      const size_t colon = line.find(':');
      const std::string body = line.substr(line.find_first_not_of(' '));
      if (body.rfind("parents:", 0) == 0) {
        out[current] += "parents=" + sorted_list(line.substr(colon + 1)) + ";";
      } else {
        // "≡ a, b": equivalents.
        out[current] += "equiv=" + sorted_list(body.substr(body.find(' ') + 1)) + ";";
      }
    }
    return out;
  }

  GeneratedDl dl_;
  std::string state_;
  std::unique_ptr<Reference> ref_;
  std::vector<Pair> reader_pairs_;
  std::vector<bool> reader_expected_;
  uint64_t writer_seed_ = 0;
  std::vector<uint32_t> order_;
  uint64_t cycles_ = 0;  // timed writer cycles since the last set-up
  uint64_t reader_seq_ = 0;
  std::vector<bool> has_view_;
  size_t views_ = 0;
  double taxonomy_size_ = 0;
  std::unordered_map<uint32_t, size_t> extents_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "check-warm") return std::make_unique<CheckWarm>();
  if (name == "plan-cold") return std::make_unique<PlanCold>();
  if (name == "catalog-churn") return std::make_unique<CatalogChurn>();
  return nullptr;
}

}  // namespace perfbench
