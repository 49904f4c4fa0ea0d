// End-to-end tests of the optimizer daemon: verdicts and plans served
// over the TCP wire protocol must be identical to in-process
// SubsumptionChecker / views::Optimizer results on a seeded corpus, and
// the admission/deadline/drain behaviour must be observable exactly as
// docs/server.md specifies.
#include "server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "dl_fixture.h"
#include "gen/dl_gen.h"
#include "obs/exposition.h"
#include "ql/term_factory.h"
#include "schema/schema.h"
#include "server/client.h"
#include "views/views.h"

namespace oodb::server {
namespace {

// In-process reference: the same parse → translate → check pipeline the
// daemon runs, built directly against the library.
struct Reference : dl::Frontend {
  std::unique_ptr<calculus::SubsumptionChecker> checker;

  static std::unique_ptr<Reference> FromSource(const std::string& source) {
    auto ref = std::make_unique<Reference>();
    if (!ref->Load(source).ok()) return nullptr;
    ref->checker =
        std::make_unique<calculus::SubsumptionChecker>(*ref->sigma);
    return ref;
  }

  Result<ql::ConceptId> ConceptOf(const std::string& name) {
    Symbol s = symbols.Find(name);
    const dl::ClassDef* def = s.valid() ? model->FindClass(s) : nullptr;
    if (def == nullptr) return NotFoundError("no class");
    if (!def->is_query) return terms->Primitive(s);
    return translator->QueryConcept(s);
  }

  // ok-or-error mirrored with the wire verdict in the tests below.
  Result<bool> Check(const std::string& c, const std::string& d) {
    OODB_ASSIGN_OR_RETURN(ql::ConceptId cc, ConceptOf(c));
    OODB_ASSIGN_OR_RETURN(ql::ConceptId dd, ConceptOf(d));
    return checker->Subsumes(cc, dd);
  }
};

Client MustConnect(int port) {
  auto client = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(client).value();
}

// One series of the daemon's registry, from a fresh snapshot.
double Series(Server& server, const std::string& name) {
  return obs::SampleValue(server.registry().Snapshot(), name);
}

TEST(Server, PingStatsAndUnknownSession) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  EXPECT_TRUE(client.Ping().ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("server:"), std::string::npos);

  auto verdict = client.Check("nosuch", "A", "B");
  ASSERT_FALSE(verdict.ok());
  EXPECT_NE(verdict.status().message().find("not_found"), std::string::npos);
  server.Shutdown();
}

TEST(Server, HealthIsOkOnASingleNodeAndValidatesItsFrame) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  // Outside cluster mode there are no peers or replicas to degrade on,
  // so HEALTH is the bare status with no fleet detail.
  auto health = client.Roundtrip("HEALTH");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health, "status=ok");

  auto bad = client.Roundtrip("HEALTH verbose");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("usage: HEALTH"), std::string::npos);
  server.Shutdown();
}

TEST(Server, ClientDeadlineTripsOnAStuckReply) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  ASSERT_FALSE(client.SetDeadline(0).ok());
  ASSERT_TRUE(client.SetDeadline(100).ok());
  EXPECT_TRUE(client.Ping().ok());  // fast replies beat the deadline
  EXPECT_FALSE(client.timed_out());

  auto slow = client.Roundtrip("SLEEP 2000");
  ASSERT_FALSE(slow.ok());
  EXPECT_TRUE(client.timed_out());
  server.Shutdown();
}

TEST(Server, MalformedFramesKeepTheConnectionUsable) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  auto reply = client.Roundtrip("FROBNICATE x y");
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("proto"), std::string::npos);
  reply = client.Roundtrip("CHECK");  // missing session
  ASSERT_FALSE(reply.ok());
  // The connection survives protocol errors:
  EXPECT_TRUE(client.Ping().ok());
  server.Shutdown();
}

TEST(Server, WireVerdictsMatchInProcessCheckerOnSeededCorpus) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  size_t pairs_checked = 0, subsumptions = 0;
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    Rng rng(seed);
    gen::DlGenOptions options;
    options.num_classes = 7;
    options.num_attrs = 4;
    options.num_queries = 8;
    gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);

    auto ref = Reference::FromSource(dl.source);
    ASSERT_NE(ref, nullptr) << dl.source;
    const std::string session = StrCat("corpus", seed);
    auto loaded = client.Load(session, dl.source);
    ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << dl.source;

    // Query × query pairs (the daemon's main workload: incoming query
    // vs view catalog) plus query × schema-class pairs.
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string& c : dl.query_names) {
      for (const std::string& d : dl.query_names) pairs.emplace_back(c, d);
      for (size_t i = 0; i < 4 && i < dl.class_names.size(); ++i) {
        pairs.emplace_back(c, dl.class_names[i]);
      }
    }
    for (const auto& [c, d] : pairs) {
      Result<bool> want = ref->Check(c, d);
      Result<bool> got = client.Check(session, c, d);
      ASSERT_EQ(want.ok(), got.ok())
          << c << " vs " << d << ": " << want.status() << " / "
          << got.status();
      if (want.ok()) {
        ASSERT_EQ(*want, *got) << c << " ⊑? " << d << "\n" << dl.source;
        subsumptions += *want;
      }
      ++pairs_checked;
    }
  }
  // The acceptance bar: a seeded corpus of ≥200 pairs, byte-identical
  // verdicts; and the corpus is non-trivial in both directions.
  EXPECT_GE(pairs_checked, 200u);
  EXPECT_GT(subsumptions, 0u);
  server.Shutdown();
}

// Field accessor for the `key=value` lines of an OPTIMIZE reply.
std::string PlanField(const std::string& payload, const std::string& key) {
  for (std::string_view line : StrSplit(payload, '\n')) {
    if (line.rfind(key + "=", 0) == 0) {
      return std::string(line.substr(key.size() + 1));
    }
  }
  return "";
}

TEST(Server, OptimizePlansMatchDirectOptimizer) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  size_t plans_compared = 0, plans_using_views = 0;
  for (uint64_t seed : {5u, 17u}) {
    Rng rng(seed);
    gen::DlGenOptions options;
    options.num_queries = 6;
    gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);
    gen::StateGenOptions state_options;
    state_options.num_objects = 40;
    std::string state = gen::GenerateDlState(dl, rng, state_options);

    // Wire side.
    auto loaded = client.Load("opt", dl.source);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto state_reply = client.LoadState("opt", state);
    ASSERT_TRUE(state_reply.ok()) << state_reply.status();

    // Direct side, same construction order.
    auto ref = Reference::FromSource(dl.source);
    ASSERT_NE(ref, nullptr);
    db::Database database(*ref->model, &ref->symbols);
    ASSERT_TRUE(db::LoadInstance(state, &database).ok());
    views::ViewCatalog catalog(&database, ref->translator.get());
    views::Optimizer optimizer(&database, &catalog, *ref->sigma,
                               ref->translator.get());

    for (const std::string& name : dl.query_names) {
      Status direct = catalog.DefineView(ref->symbols.Find(name));
      auto wire = client.DefineView("opt", name);
      ASSERT_EQ(direct.ok(), wire.ok()) << name << ": " << direct;
      if (direct.ok()) {
        ASSERT_EQ(catalog.Find(ref->symbols.Find(name))->extent.size(),
                  *wire);
      }
    }
    for (const std::string& name : dl.query_names) {
      auto direct = optimizer.ChoosePlan(ref->symbols.Find(name));
      auto wire = client.Optimize("opt", name);
      ASSERT_EQ(direct.ok(), wire.ok()) << name;
      if (!direct.ok()) continue;
      EXPECT_EQ(PlanField(*wire, "uses_view"),
                direct->uses_view ? "true" : "false");
      EXPECT_EQ(PlanField(*wire, "pool"), std::to_string(direct->pool_size));
      EXPECT_EQ(PlanField(*wire, "checks"),
                std::to_string(direct->subsumption_checks));
      EXPECT_EQ(PlanField(*wire, "plan"), direct->explanation);
      if (direct->uses_view) {
        EXPECT_EQ(PlanField(*wire, "view"),
                  ref->symbols.Name(direct->view));
        ++plans_using_views;
      }
      ++plans_compared;
    }
  }
  EXPECT_GE(plans_compared, 8u);
  EXPECT_GT(plans_using_views, 0u);  // the corpus must exercise rewrites
  server.Shutdown();
}

TEST(Server, BusyBackpressureUnderOverload) {
  ServerOptions options;
  options.num_threads = 1;
  options.max_pending = 1;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  // Occupy the single worker; the admission slot is taken.
  std::thread blocker([&] {
    Client c = MustConnect(*port);
    auto reply = c.Roundtrip("SLEEP 400");
    EXPECT_TRUE(reply.ok()) << reply.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client client = MustConnect(*port);
  auto busy = client.Roundtrip("SLEEP 0");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kResourceExhausted);
  // Control frames bypass admission: the server stays observable.
  EXPECT_TRUE(client.Ping().ok());

  blocker.join();
  // Load shed, not failed: the same request succeeds once the queue has
  // room again.
  auto after = client.Roundtrip("SLEEP 0");
  EXPECT_TRUE(after.ok()) << after.status();
  EXPECT_GE(Series(server, "oodb_server_busy_total"), 1);
  server.Shutdown();
}

TEST(Server, QueuedRequestsPastTheDeadlineAreRejected) {
  ServerOptions options;
  options.num_threads = 1;
  options.max_pending = 8;
  options.deadline_ms = 50;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  std::thread blocker([&] {
    Client c = MustConnect(*port);
    auto reply = c.Roundtrip("SLEEP 300");
    EXPECT_TRUE(reply.ok()) << reply.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Queued behind the sleeper: by the time a worker frees up, the 50 ms
  // budget is long gone — the request is answered without running.
  Client client = MustConnect(*port);
  auto expired = client.Roundtrip("SLEEP 0");
  ASSERT_FALSE(expired.ok());
  EXPECT_NE(expired.status().message().find("deadline"), std::string::npos);
  blocker.join();
  EXPECT_GE(Series(server, "oodb_server_deadline_expired_total"), 1);
  server.Shutdown();
}

TEST(Server, ShutdownDrainsAndRefusesNewConnections) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  {
    Client client = MustConnect(*port);
    ASSERT_TRUE(client.Ping().ok());
    auto reply = client.Shutdown();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, "draining");
  }
  server.Wait();  // completes: drain + teardown have finished
  auto late = Client::Connect("127.0.0.1", *port);
  if (late.ok()) {
    // The listener is closed; at best the connect raced teardown, in
    // which case the first roundtrip must fail.
    EXPECT_FALSE(late->Ping().ok());
  }
}

TEST(Server, ConcurrentRequestsOnAFreshSessionAreSafe) {
  // Regression: the first CHECK/CLASSIFY/OPTIMIZE of a query class
  // populates the translator's query-concept memo. Hitting a just-loaded
  // session from many pool workers at once used to race on that memo
  // (TSan-visible); the translator now serializes it internally.
  ServerOptions options;
  options.num_threads = 4;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  Rng rng(99);
  gen::DlGenOptions gen_options;
  gen_options.num_queries = 8;
  gen::GeneratedDl dl = gen::GenerateDlSource(rng, gen_options);
  {
    Client client = MustConnect(*port);
    auto loaded = client.Load("fresh", dl.source);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
  }

  constexpr size_t kThreads = 8;
  const size_t n = dl.query_names.size();
  std::atomic<size_t> verdicts{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Client c = MustConnect(*port);
      // One worker in three starts with an uncached-path CLASSIFY or
      // OPTIMIZE so all three read verbs contend on the memo.
      if (t % 3 == 1) {
        auto hierarchy = c.Classify("fresh");
        EXPECT_TRUE(hierarchy.ok()) << hierarchy.status();
      } else if (t % 3 == 2) {
        auto plan = c.Optimize("fresh", dl.query_names[t % n]);
        EXPECT_TRUE(plan.ok()) << plan.status();
      }
      for (size_t i = 0; i < n; ++i) {
        const std::string& cc = dl.query_names[(t + i) % n];
        const std::string& dd = dl.query_names[(t + i + 1) % n];
        auto verdict = c.Check("fresh", cc, dd);
        EXPECT_TRUE(verdict.ok()) << verdict.status();
        verdicts.fetch_add(verdict.ok() ? 1 : 0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(verdicts.load(), kThreads * n);
  server.Shutdown();
}

TEST(Server, LoadReplacesSessionAndStateResetsViews) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  Rng rng(7);
  gen::GeneratedDl dl = gen::GenerateDlSource(rng);
  std::string state = gen::GenerateDlState(dl, rng);

  ASSERT_TRUE(client.Load("s", dl.source).ok());
  ASSERT_TRUE(client.LoadState("s", state).ok());
  // Find a view-definable query; verify STATE resets the catalog.
  for (const std::string& name : dl.query_names) {
    auto extent = client.DefineView("s", name);
    if (!extent.ok()) continue;
    auto dup = client.DefineView("s", name);
    EXPECT_FALSE(dup.ok());  // already defined
    ASSERT_TRUE(client.LoadState("s", state).ok());
    auto redefined = client.DefineView("s", name);
    EXPECT_TRUE(redefined.ok()) << redefined.status();
    break;
  }
  // Reloading the session replaces it wholesale.
  ASSERT_TRUE(client.Load("s", dl.source).ok());
  auto stats = client.Stats("s");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("views=0"), std::string::npos);
  server.Shutdown();
}

// A STATE whose payload fails to parse is an ERR that changes nothing:
// the objects, the views and the plans of the earlier state stay.
TEST(Server, MalformedStateLeavesTheSessionAsItWas) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  Rng rng(7);
  const gen::GeneratedDl dl = gen::GenerateDlSource(rng);
  const std::string state = gen::GenerateDlState(dl, rng);
  ASSERT_TRUE(client.Load("s", dl.source).ok());
  ASSERT_TRUE(client.LoadState("s", state).ok());
  std::string view;
  for (const std::string& q : dl.query_names) {
    if (client.DefineView("s", q).ok()) {
      view = q;
      break;
    }
  }
  ASSERT_FALSE(view.empty()) << "no view-definable query";
  auto plan = client.Optimize("s", view);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(PlanField(*plan, "uses_view"), "true") << *plan;

  // One STATS field of session `s`, e.g. "objects=12".
  auto session_field = [&client](const std::string& key) {
    auto stats = client.Stats("s");
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (!stats.ok()) return std::string();
    const size_t at = stats->find(" " + key + "=");
    if (at == std::string::npos) return std::string();
    return stats->substr(at + 1, stats->find_first_of(" \n", at + 1) - at - 1);
  };
  const std::string objects = session_field("objects");
  const std::string views = session_field("views");
  ASSERT_NE(objects, "objects=0");
  ASSERT_EQ(views, "views=1");

  // Valid objects first, then a truncated one: the parse fails late.
  auto bad = client.LoadState("s", state + "Object truncated\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(session_field("objects"), objects);
  EXPECT_EQ(session_field("views"), views);
  auto again = client.Optimize("s", view);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *plan);
  server.Shutdown();
}

// METRICS is answered on the event loop, and a session's metrics take no
// session lock: while a first CLASSIFY holds the session's taxonomy lock
// for the whole classification, METRICS and PING on other connections
// reply at once, long before the CLASSIFY does.
TEST(Server, MetricsAndPingAnswerDuringAFirstClassify) {
  using Clock = std::chrono::steady_clock;
  ServerOptions options;
  options.num_threads = 2;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Rng rng(27);
  gen::DlGenOptions gen_options;
  gen_options.num_classes = 16;
  gen_options.num_attrs = 8;
  gen_options.num_queries = 2000;
  const gen::GeneratedDl dl = gen::GenerateDlSource(rng, gen_options);
  Client loader = MustConnect(*port);
  ASSERT_TRUE(loader.Load("big", dl.source).ok());

  Client classifier = MustConnect(*port);
  ASSERT_TRUE(classifier.EnableBinary().ok());
  const Clock::time_point submitted = Clock::now();
  auto id = classifier.SubmitLine("CLASSIFY big");
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(classifier.Flush().ok());
  Clock::time_point classified;
  std::thread awaiter([&] {
    EXPECT_TRUE(classifier.Await(*id).ok());
    classified = Clock::now();
  });
  // Let a worker take the CLASSIFY and start classifying.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Clock::time_point asked = Clock::now();
  auto metrics = MustConnect(*port).Metrics();
  Client pinger = MustConnect(*port);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(pinger.Ping().ok());
  const Clock::time_point answered = Clock::now();
  awaiter.join();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("oodb_session_checks_total{session=\"big\"}"),
            std::string::npos);

  const auto ms = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  };
  // The catalog is big enough that the classification is still running
  // well after METRICS was sent; the replies came in a fraction of it.
  ASSERT_GT(ms(classified - submitted), 200) << "catalog too small";
  EXPECT_LT(ms(answered - asked), ms(classified - asked) / 4)
      << "METRICS and PING took " << ms(answered - asked)
      << " ms; CLASSIFY finished " << ms(classified - asked)
      << " ms after METRICS was sent";
  server.Shutdown();
}

TEST(Server, MetricsExpositionParsesAndCountersAreMonotone) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  Rng rng(11);
  gen::GeneratedDl dl = gen::GenerateDlSource(rng);
  ASSERT_TRUE(client.Load("m", dl.source).ok());

  auto before_text = client.Metrics();
  ASSERT_TRUE(before_text.ok()) << before_text.status();
  auto before = obs::ParseExposition(*before_text);
  ASSERT_TRUE(before.ok()) << before.status() << "\n" << *before_text;

  // A scripted sequence: 3 checks (one repeated → memo traffic), one
  // classify, one stats, one error (unknown session).
  ASSERT_TRUE(client.Check("m", dl.query_names[0], dl.class_names[0]).ok());
  ASSERT_TRUE(client.Check("m", dl.query_names[0], dl.class_names[0]).ok());
  ASSERT_TRUE(
      client.Check("m", dl.class_names[0], dl.query_names[0]).ok());
  ASSERT_TRUE(client.Classify("m").ok());
  ASSERT_TRUE(client.Stats("m").ok());
  EXPECT_FALSE(client.Check("nosuch", "A", "B").ok());

  auto after_text = client.Metrics();
  ASSERT_TRUE(after_text.ok()) << after_text.status();
  auto after = obs::ParseExposition(*after_text);
  ASSERT_TRUE(after.ok()) << after.status() << "\n" << *after_text;

  // Every counter present before must be present after with a value no
  // smaller: counters are monotone across requests.
  for (const obs::Sample& sample : *before) {
    if (sample.name.size() >= 6 &&
        sample.name.compare(sample.name.size() - 6, 6, "_total") == 0) {
      EXPECT_GE(obs::SampleValue(*after, sample.name, sample.labels, -1),
                sample.value)
          << sample.name;
    }
  }

  // The catalogue promised by docs/observability.md is populated.
  EXPECT_GE(
      obs::SampleValue(*after, "oodb_server_verb_requests_total",
                       {{"verb", "CHECK"}}),
      4.0);
  EXPECT_GE(obs::SampleValue(*after, "oodb_server_verb_errors_total",
                             {{"verb", "CHECK"}}),
            1.0);
  EXPECT_GE(obs::SampleValue(*after, "oodb_memo_hits_total",
                             {{"session", "m"}}),
            1.0);
  EXPECT_GE(obs::SampleValue(*after, "oodb_prefilter_checks_total",
                             {{"session", "m"}}),
            1.0);
  EXPECT_GE(obs::SampleValue(*after, "oodb_session_checks_total",
                             {{"session", "m"}}),
            3.0);
  double rule_applications = 0;
  for (const obs::Sample& sample : *after) {
    if (sample.name == "oodb_engine_rule_applications_total") {
      rule_applications += sample.value;
    }
  }
  EXPECT_GT(rule_applications, 0.0);

  // At least three latency histogram series with recorded samples.
  auto histograms = obs::SummarizeHistograms(*after);
  size_t populated = 0;
  bool saw_check_latency = false;
  for (const obs::HistogramSummary& h : histograms) {
    if (h.count == 0) continue;
    ++populated;
    for (const auto& [key, value] : h.labels) {
      if (h.name == "oodb_server_request_seconds" && key == "verb" &&
          value == "CHECK") {
        saw_check_latency = true;
        EXPECT_GT(h.p50, 0.0);
      }
    }
  }
  EXPECT_GE(populated, 3u) << *after_text;
  EXPECT_TRUE(saw_check_latency) << *after_text;

  // STATS gained the per-verb line without disturbing the original one.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("server:"), std::string::npos);
  EXPECT_NE(stats->find("verbs:"), std::string::npos);
  EXPECT_NE(stats->find("CHECK="), std::string::npos);
  server.Shutdown();
}

// Builds the same resident taxonomy the session keeps: every model class
// except the implicit root, in declaration order. Driven with the same
// Insert/Remove sequence as the wire session, its rendering must stay
// byte-identical to the CLASSIFY payload.
std::unique_ptr<calculus::Classifier> MirrorClassifier(Reference& ref) {
  auto mirror = std::make_unique<calculus::Classifier>(*ref.checker);
  for (const dl::ClassDef& def : ref.model->classes()) {
    if (def.name == ref.model->object_class) continue;
    auto concept_id = ref.ConceptOf(ref.symbols.Name(def.name));
    EXPECT_TRUE(concept_id.ok()) << concept_id.status();
    EXPECT_TRUE(mirror->Add(def.name, *concept_id).ok());
  }
  EXPECT_TRUE(mirror->Classify().ok());
  return mirror;
}

TEST(Server, UndefineKeepsWireTaxonomyIdenticalToMirrorClassifier) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  Rng rng(23);
  gen::DlGenOptions options;
  options.num_queries = 6;
  options.where_prob = 0.0;  // structural-only queries are all viewable
  gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);
  std::string state = gen::GenerateDlState(dl, rng);
  auto ref = Reference::FromSource(dl.source);
  ASSERT_NE(ref, nullptr) << dl.source;
  ASSERT_TRUE(client.Load("tax", dl.source).ok());
  ASSERT_TRUE(client.LoadState("tax", state).ok());

  // Cold build: the first CLASSIFY must match a from-scratch mirror.
  auto mirror = MirrorClassifier(*ref);
  auto payload = client.Classify("tax");
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, mirror->ToString(ref->symbols));

  // Find a query the catalog accepts, with the view actually defined so
  // UNDEFINE exercises both the catalog drop and the taxonomy removal.
  std::string q;
  for (const std::string& name : dl.query_names) {
    if (client.DefineView("tax", name).ok()) {
      q = name;
      break;
    }
  }
  ASSERT_FALSE(q.empty()) << dl.source;
  Symbol qs = ref->symbols.Find(q);

  auto reply = client.Undefine("tax", q);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, StrCat("undefined=", q,
                           " view_dropped=true taxonomy_removed=true"
                           " views=0"));
  ASSERT_TRUE(mirror->Remove(qs).ok());
  payload = client.Classify("tax");
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, mirror->ToString(ref->symbols));

  // A second UNDEFINE of the same class: nothing left to drop or remove.
  reply = client.Undefine("tax", q);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, StrCat("undefined=", q,
                           " view_dropped=false taxonomy_removed=false"
                           " views=0"));

  // Warm-session DEFINE re-inserts incrementally: the class rejoins the
  // resident DAG (at the end of the name order) without a rebuild.
  ASSERT_TRUE(client.DefineView("tax", q).ok());
  auto concept_id = ref->ConceptOf(q);
  ASSERT_TRUE(concept_id.ok()) << concept_id.status();
  ASSERT_TRUE(mirror->Insert(qs, *concept_id).ok());
  EXPECT_EQ(mirror->names().back(), qs);
  payload = client.Classify("tax");
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, mirror->ToString(ref->symbols));

  // The session exposes the incremental-maintenance counters.
  auto stats = client.Stats("tax");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("undefines=2"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("classify_inserts=1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("classify_removes=1"), std::string::npos) << *stats;

  // Error contract.
  EXPECT_FALSE(client.Undefine("nosuch", q).ok());        // unknown session
  EXPECT_FALSE(client.Undefine("tax", "Zilch").ok());     // unknown class
  EXPECT_FALSE(client.Undefine("tax", dl.class_names[0]).ok());  // not a query
  auto malformed = client.Roundtrip("UNDEFINE tax");      // arity
  ASSERT_FALSE(malformed.ok());
  EXPECT_NE(malformed.status().message().find("proto"), std::string::npos);
  // Protocol errors leave the connection usable.
  EXPECT_TRUE(client.Ping().ok());
  server.Shutdown();
}

TEST(Server, UndefineBeforeFirstClassifyExcludesTheClassFromColdBuild) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  Rng rng(29);
  gen::DlGenOptions options;
  options.where_prob = 0.0;
  gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);
  auto ref = Reference::FromSource(dl.source);
  ASSERT_NE(ref, nullptr) << dl.source;
  ASSERT_TRUE(client.Load("cold", dl.source).ok());

  // UNDEFINE while the taxonomy is still cold: no view exists and no DAG
  // to repair, but the exclusion must be recorded...
  const std::string& q = dl.query_names[0];
  auto reply = client.Undefine("cold", q);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, StrCat("undefined=", q,
                           " view_dropped=false taxonomy_removed=false"
                           " views=0"));

  // ...so the first CLASSIFY builds without the class: identical to a
  // mirror that classified everything and then removed it (uniqueness of
  // the transitive reduction makes the two routes agree except for name
  // order, which removal does not disturb).
  auto mirror = MirrorClassifier(*ref);
  Symbol qs = ref->symbols.Find(q);
  ASSERT_TRUE(mirror->Remove(qs).ok());
  auto payload = client.Classify("cold");
  ASSERT_TRUE(payload.ok()) << payload.status();
  EXPECT_EQ(*payload, mirror->ToString(ref->symbols));
  EXPECT_EQ(payload->find(q), std::string::npos) << *payload;
  server.Shutdown();
}

TEST(Server, ConcurrentReadersDuringDefineUndefineWritersAreSafe) {
  // TSan target: VIEW/UNDEFINE take the session writer lock and mutate
  // the resident taxonomy under classify_mu_; CHECK and CLASSIFY run as
  // readers. Races between the incremental DAG repair and the readers'
  // memo/classifier access would be visible here.
  ServerOptions options;
  options.num_threads = 4;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  Rng rng(31);
  gen::DlGenOptions gen_options;
  gen_options.num_queries = 8;
  gen_options.where_prob = 0.0;
  gen::GeneratedDl dl = gen::GenerateDlSource(rng, gen_options);
  std::string state = gen::GenerateDlState(dl, rng);

  std::vector<std::string> viewable;
  {
    Client client = MustConnect(*port);
    ASSERT_TRUE(client.Load("mut", dl.source).ok());
    ASSERT_TRUE(client.LoadState("mut", state).ok());
    ASSERT_TRUE(client.Classify("mut").ok());  // warm the taxonomy
    for (const std::string& name : dl.query_names) {
      if (client.DefineView("mut", name).ok()) viewable.push_back(name);
      if (viewable.size() == 2) break;
    }
  }
  ASSERT_GE(viewable.size(), 2u) << dl.source;

  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 3;
  constexpr size_t kRounds = 25;
  std::atomic<size_t> write_ops{0}, read_ops{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      // Each writer owns one query class: UNDEFINE/VIEW ping-pong keeps
      // the incremental Remove/Insert path hot without inter-writer
      // interference on catalog state.
      Client c = MustConnect(*port);
      const std::string& q = viewable[t];
      for (size_t i = 0; i < kRounds; ++i) {
        auto undefined = c.Undefine("mut", q);
        EXPECT_TRUE(undefined.ok()) << undefined.status();
        auto defined = c.DefineView("mut", q);
        EXPECT_TRUE(defined.ok()) << defined.status();
        write_ops.fetch_add(2);
      }
    });
  }
  for (size_t t = 0; t < kReaders; ++t) {
    workers.emplace_back([&, t] {
      Client c = MustConnect(*port);
      const size_t n = dl.query_names.size();
      for (size_t i = 0; i < kRounds; ++i) {
        auto verdict = c.Check("mut", dl.query_names[(t + i) % n],
                               dl.query_names[(t + i + 1) % n]);
        EXPECT_TRUE(verdict.ok()) << verdict.status();
        auto hierarchy = c.Classify("mut");
        EXPECT_TRUE(hierarchy.ok()) << hierarchy.status();
        read_ops.fetch_add(2);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(write_ops.load(), kWriters * kRounds * 2);
  EXPECT_EQ(read_ops.load(), kReaders * kRounds * 2);

  // After the dust settles the taxonomy is intact: one final wire
  // CLASSIFY must agree with an in-process mirror driven through the same
  // net effect (every class present; writer classes re-inserted last).
  Client client = MustConnect(*port);
  auto payload = client.Classify("mut");
  ASSERT_TRUE(payload.ok()) << payload.status();
  for (const std::string& name : dl.query_names) {
    EXPECT_NE(payload->find(name), std::string::npos) << *payload;
  }
  server.Shutdown();
}

TEST(Server, SlowQueryLogRecordsAllPhasesOfAnExpensiveCheck) {
  ServerOptions options;
  options.slow_threshold_ms = 0;  // log every request
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  // Deliberately expensive: deep path nesting over a recursive attribute
  // forces long derivation chains through the engine.
  std::string source =
      "Class Node with attribute next: Node end Node\n"
      "Attribute next with domain: Node range: Node end next\n";
  const int kDepth = 8;
  auto chain = [](int depth) {
    std::string path;
    for (int i = 0; i < depth; ++i) {
      if (i > 0) path += ".";
      path += "(next: Node)";
    }
    return path;
  };
  source += StrCat("QueryClass Deep isA Node with derived p1: ",
                   chain(kDepth), " p2: ", chain(kDepth),
                   " where p1 = p2 end Deep\n");
  source += StrCat("QueryClass Deeper isA Node with derived q1: ",
                   chain(kDepth + 1), " q2: ", chain(kDepth + 1),
                   " where q1 = q2 end Deeper\n");

  ASSERT_TRUE(client.Load("deep", source).ok());
  ASSERT_TRUE(client.Check("deep", "Deeper", "Deep").ok());

  auto lines = client.TraceLog(16);
  ASSERT_TRUE(lines.ok()) << lines.status();

  // Newest-first JSON lines; find the CHECK entry.
  std::string check_line;
  size_t start = 0;
  while (start < lines->size()) {
    size_t end = lines->find('\n', start);
    if (end == std::string::npos) end = lines->size();
    std::string line = lines->substr(start, end - start);
    if (line.find("\"verb\":\"CHECK\"") != std::string::npos) {
      check_line = line;
      break;
    }
    start = end + 1;
  }
  ASSERT_FALSE(check_line.empty()) << *lines;
  EXPECT_NE(check_line.find("\"session\":\"deep\""), std::string::npos)
      << check_line;
  EXPECT_NE(check_line.find("\"ok\":true"), std::string::npos) << check_line;

  auto phase_ns = [&check_line](const std::string& key) -> uint64_t {
    std::string needle = StrCat("\"", key, "\":");
    size_t pos = check_line.find(needle);
    if (pos == std::string::npos) return 0;
    return std::strtoull(check_line.c_str() + pos + needle.size(), nullptr,
                         10);
  };
  // A CHECK translates its operands, runs the prefilter, consults the
  // memo, runs the engine and sends a reply: all five spans non-zero.
  EXPECT_GT(phase_ns("translate_ns"), 0u) << check_line;
  EXPECT_GT(phase_ns("prefilter_ns"), 0u) << check_line;
  EXPECT_GT(phase_ns("memo_ns"), 0u) << check_line;
  EXPECT_GT(phase_ns("engine_ns"), 0u) << check_line;
  EXPECT_GT(phase_ns("reply_ns"), 0u) << check_line;
  EXPECT_GT(phase_ns("total_ns"), 0u) << check_line;
  // The rule-application profile rode along with the trace.
  EXPECT_NE(check_line.find("\"rule:"), std::string::npos) << check_line;

  // The LOAD entry recorded its parse span.
  std::string load_line;
  start = 0;
  while (start < lines->size()) {
    size_t end = lines->find('\n', start);
    if (end == std::string::npos) end = lines->size();
    std::string line = lines->substr(start, end - start);
    if (line.find("\"verb\":\"LOAD\"") != std::string::npos) {
      load_line = line;
      break;
    }
    start = end + 1;
  }
  ASSERT_FALSE(load_line.empty()) << *lines;
  std::swap(check_line, load_line);
  EXPECT_GT(phase_ns("parse_ns"), 0u) << check_line;
  std::swap(check_line, load_line);

  EXPECT_GE(server.slow_log().recorded(), 2u);
  server.Shutdown();
}

TEST(Server, OptimizeTraceBooksTranslatePrefilterAndEngine) {
  ServerOptions options;
  options.slow_threshold_ms = 0;  // log every request
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);

  // ViewPatient subsumes QueryPatient (the paper's running example), so
  // the plan's catalog scan passes the pre-filter and runs the engine.
  ASSERT_TRUE(client.Load("med", oodb::testing::kMedicalDlSource).ok());
  ASSERT_TRUE(client.DefineView("med", "ViewPatient").ok());
  auto plan = client.Optimize("med", "QueryPatient");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(PlanField(*plan, "view"), "ViewPatient") << *plan;

  auto lines = client.TraceLog(16);
  ASSERT_TRUE(lines.ok()) << lines.status();
  std::string line;
  for (std::string_view candidate : StrSplit(*lines, '\n')) {
    if (candidate.find("\"verb\":\"OPTIMIZE\"") != std::string::npos) {
      line = std::string(candidate);
      break;
    }
  }
  ASSERT_FALSE(line.empty()) << *lines;
  auto field = [&line](const std::string& key) -> uint64_t {
    const std::string needle = StrCat("\"", key, "\":");
    const size_t pos = line.find(needle);
    if (pos == std::string::npos) return 0;
    return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  };
  EXPECT_GT(field("translate_ns"), 0u) << line;
  EXPECT_GT(field("prefilter_ns"), 0u) << line;
  EXPECT_GT(field("engine_ns"), 0u) << line;
  // The optimizer's scan keeps no per-pair memo.
  EXPECT_EQ(field("memo_ns"), 0u) << line;
  // No phase is booked twice: together they fit in the request's total.
  uint64_t phases = 0;
  for (size_t i = 0; i < obs::kNumPhases; ++i) {
    phases += field(StrCat(obs::PhaseName(static_cast<obs::Phase>(i)), "_ns"));
  }
  EXPECT_LE(phases, field("total_ns")) << line;
  server.Shutdown();
}

// A raw connection of either framing (no Client conveniences): hand-
// crafted frames, for exercising the server's parser directly. Replies
// are read through the client's incremental parsers.
struct RawConn {
  int fd = -1;
  bool binary = true;
  std::string in;  // received bytes not yet parsed

  // Connects; a binary connection sends the preamble.
  static RawConn Open(int port, bool binary = true) {
    RawConn conn;
    conn.binary = binary;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(conn.fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    if (binary) {
      EXPECT_TRUE(WriteFully(conn.fd, kBinaryPreamble));
    }
    return conn;
  }

  // Reads one reply (blocking); a text reply carries id 0. `bytes`, when
  // given, receives the reply's bytes as they arrived.
  Result<BinaryReply> ReadReply(std::string* bytes = nullptr) {
    for (;;) {
      size_t consumed = 0;
      BinaryReply out;
      std::string error;
      const ParseStatus status =
          binary ? ParseBinaryReply(in, &consumed, &out, &error)
                 : ParseTextReply(in, &consumed, &out.reply, &error);
      if (status == ParseStatus::kBad) return InternalError(error);
      if (status == ParseStatus::kFrame) {
        if (bytes != nullptr) bytes->assign(in, 0, consumed);
        in.erase(0, consumed);
        return out;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return InternalError("connection closed before a reply");
      in.append(chunk, static_cast<size_t>(n));
    }
  }

  bool AtEof() {
    char c;
    ssize_t n;
    do {
      n = ::recv(fd, &c, 1, 0);
    } while (n < 0 && errno == EINTR);
    return n == 0;
  }

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
};

// The tentpole differential: over the full 384-pair seeded corpus, the
// verdict bytes served by text CHECK (joined), text BCHECK and binary
// BCHECK must be identical — and must match the in-process checker.
TEST(Server, BatchVerdictBytesMatchSingleChecksAcrossFramings) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client text = MustConnect(*port);
  Client binary = MustConnect(*port);
  ASSERT_TRUE(binary.EnableBinary().ok());

  size_t pairs_total = 0;
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    Rng rng(seed);
    gen::DlGenOptions options;
    options.num_classes = 7;
    options.num_attrs = 4;
    options.num_queries = 8;
    gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);

    auto ref = Reference::FromSource(dl.source);
    ASSERT_NE(ref, nullptr) << dl.source;
    const std::string session = StrCat("corpus", seed);
    auto loaded = text.Load(session, dl.source);
    ASSERT_TRUE(loaded.ok()) << loaded.status();

    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string& c : dl.query_names) {
      for (const std::string& d : dl.query_names) pairs.emplace_back(c, d);
      for (size_t i = 0; i < 4 && i < dl.class_names.size(); ++i) {
        pairs.emplace_back(c, dl.class_names[i]);
      }
    }
    pairs_total += pairs.size();

    // Expected bytes from per-pair text CHECKs and the reference.
    std::string expected = "subsumed=";
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto ref_verdict = ref->Check(pairs[i].first, pairs[i].second);
      ASSERT_TRUE(ref_verdict.ok()) << ref_verdict.status();
      auto wire_verdict =
          text.Check(session, pairs[i].first, pairs[i].second);
      ASSERT_TRUE(wire_verdict.ok()) << wire_verdict.status();
      ASSERT_EQ(*ref_verdict, *wire_verdict)
          << pairs[i].first << " ⊑? " << pairs[i].second;
      if (i > 0) expected += ',';
      expected += *ref_verdict ? "true" : "false";
    }

    // Text BCHECK: one line, raw body compared byte for byte.
    std::string line = StrCat("BCHECK ", session);
    for (const auto& [c, d] : pairs) line = StrCat(line, " ", c, " ", d);
    auto text_body = text.Roundtrip(line);
    ASSERT_TRUE(text_body.ok()) << text_body.status();
    EXPECT_EQ(*text_body, expected);

    // Binary BCHECK: one kBatchCheck frame, same bytes.
    auto id = binary.SubmitCheckBatch(session, pairs);
    ASSERT_TRUE(id.ok()) << id.status();
    auto binary_body = binary.Await(*id);
    ASSERT_TRUE(binary_body.ok()) << binary_body.status();
    EXPECT_EQ(*binary_body, expected);

    // And the typed wrapper agrees in both modes.
    auto typed = binary.CheckBatch(session, pairs);
    ASSERT_TRUE(typed.ok()) << typed.status();
    ASSERT_EQ(typed->size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ((*typed)[i], (*ref->Check(pairs[i].first, pairs[i].second)));
    }
  }
  EXPECT_EQ(pairs_total, 384u);
  server.Shutdown();
}

TEST(Server, BatchCheckValidatesItsFrame) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  const std::string source = "Class A with end A\nClass B isA A with end B\n";
  auto loaded = client.Load("s", source);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Zero pairs is a valid (empty) batch.
  auto empty = client.Roundtrip("BCHECK s");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(*empty, "subsumed=");
  auto typed_empty = client.CheckBatch("s", {});
  ASSERT_TRUE(typed_empty.ok());
  EXPECT_TRUE(typed_empty->empty());

  // An odd operand count cannot form pairs.
  auto odd = client.Roundtrip("BCHECK s B A B");
  ASSERT_FALSE(odd.ok());
  EXPECT_NE(odd.status().message().find("proto"), std::string::npos);

  // Unknown names fail the whole batch with the library's error code.
  auto bad = client.Roundtrip("BCHECK s B NoSuchClass");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("not_found"), std::string::npos);

  // A mixed batch with a shared left operand exercises the grouped
  // SubsumesBatch path: B ⊑ A, B ⊑ B, A ⋢ B.
  auto verdicts = client.CheckBatch("s", {{"B", "A"}, {"B", "B"}, {"A", "B"}});
  ASSERT_TRUE(verdicts.ok()) << verdicts.status();
  EXPECT_EQ(*verdicts, (std::vector<bool>{true, true, false}));
  server.Shutdown();
}

TEST(Server, BatchCheckLineListsTheSessionThenEveryPair) {
  EXPECT_EQ(BatchCheckLine("s", {}), "BCHECK s");
  EXPECT_EQ(BatchCheckLine("s", {{"B", "A"}, {"Q1", "Object"}}),
            "BCHECK s B A Q1 Object");
}

// `Object` contains every object (docs/dl_language.md), so it subsumes
// every class and is subsumed by none but itself. CHECK and BCHECK
// resolve it, like every class name, through the translator, which maps
// it to ⊤ — in both framings.
TEST(Server, CheckAndBatchCheckResolveObjectToTop) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client text = MustConnect(*port);
  Client binary = MustConnect(*port);
  ASSERT_TRUE(binary.EnableBinary().ok());
  ASSERT_TRUE(text.Load("s", oodb::testing::kMedicalDlSource).ok());

  for (Client* client : {&text, &binary}) {
    auto up = client->Check("s", "Patient", "Object");
    ASSERT_TRUE(up.ok()) << up.status();
    EXPECT_TRUE(*up);
    auto down = client->Check("s", "Object", "Patient");
    ASSERT_TRUE(down.ok()) << down.status();
    EXPECT_FALSE(*down);
    auto batch = client->CheckBatch("s", {{"Patient", "Object"},
                                          {"Doctor", "Object"},
                                          {"Object", "Patient"},
                                          {"Object", "Object"}});
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_EQ(*batch, (std::vector<bool>{true, true, false, true}));
    EXPECT_FALSE(client->Check("s", "Object", "NoSuchClass").ok());
  }
  auto line = text.Roundtrip("BCHECK s Patient Object Doctor Object");
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(*line, "subsumed=true,true");
  server.Shutdown();
}

// One text request on a fresh connection: the reply's bytes as they
// arrive (the status line, plus an OK reply's payload and terminator).
std::string TextReplyBytes(int port, const std::string& line) {
  RawConn conn = RawConn::Open(port, /*binary=*/false);
  std::string bytes;
  const bool replied =
      WriteFully(conn.fd, line + "\n") && conn.ReadReply(&bytes).ok();
  return replied ? bytes : "";
}

// CHECK is a one-pair BCHECK. In the text framing, and in the binary
// framing as a LINE frame or under the verb's own opcode, the two verbs
// answer a subsumed pair, a refuted pair, an unknown class and an
// unknown session with the same bytes; each answered pair moves the
// session's check counter by exactly one, and each error by none.
TEST(Server, CheckRepliesAreTheBytesOfAOnePairBatchCheck) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  ASSERT_TRUE(
      client.Load("s", "Class A with end A\nClass B isA A with end B\n").ok());
  const auto checks = [&server] {
    return obs::SampleValue(server.registry().Snapshot(),
                            "oodb_session_checks_total", {{"session", "s"}});
  };

  struct Case {
    std::string session, c, d, reply;
    double counted;
  };
  const Case cases[] = {
      {"s", "B", "A", "OK 13\nsubsumed=true\n", 1},
      {"s", "A", "B", "OK 14\nsubsumed=false\n", 1},
      {"s", "B", "Nope", "ERR not_found no class named 'Nope'\n", 0},
      {"gone", "B", "A",
       "ERR not_found no session 'gone' (LOAD one first)\n", 0},
  };
  for (const Case& k : cases) {
    const std::string args = StrCat(k.session, " ", k.c, " ", k.d);
    for (const std::string& line : {"CHECK " + args, "BCHECK " + args}) {
      const double before = checks();
      EXPECT_EQ(TextReplyBytes(*port, line), k.reply) << line;
      EXPECT_EQ(checks() - before, k.counted) << line;
    }
    RawConn conn = RawConn::Open(*port);
    for (const std::string& frame :
         {EncodeBinaryLineRequest(9, "CHECK " + args),
          EncodeBinaryLineRequest(9, "BCHECK " + args),
          EncodeBinaryCheckRequest(9, k.session, k.c, k.d),
          EncodeBinaryBatchCheckRequest(9, k.session, {{k.c, k.d}})}) {
      const double before = checks();
      ASSERT_TRUE(WriteFully(conn.fd, frame));
      auto reply = conn.ReadReply();
      ASSERT_TRUE(reply.ok()) << reply.status();
      // Same id, same reply: the same frame bytes.
      EXPECT_EQ(reply->id, 9u);
      EXPECT_EQ(EncodeReply(reply->reply), k.reply) << args;
      EXPECT_EQ(checks() - before, k.counted) << args;
    }
  }
  server.Shutdown();
}

// Every verb that names a session answers an unknown one alike, STATE
// included.
TEST(Server, EverySessionVerbAnswersAnUnknownSessionAlike) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  const std::string empty;
  for (const char* line :
       {"STATE gone 0", "VIEW gone Q", "UNDEFINE gone Q", "CHECK gone C D",
        "BCHECK gone C D", "CLASSIFY gone", "OPTIMIZE gone Q"}) {
    const bool payload = std::string_view(line).rfind("STATE", 0) == 0;
    auto reply = client.Roundtrip(line, payload ? &empty : nullptr);
    ASSERT_FALSE(reply.ok()) << line;
    EXPECT_EQ(reply.status().message(),
              "not_found: no session 'gone' (LOAD one first)")
        << line;
  }
  server.Shutdown();
}

TEST(Server, BinaryModeServesEveryVerbAndSharesSessionsWithText) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client binary = MustConnect(*port);
  ASSERT_TRUE(binary.EnableBinary().ok());

  // The full verb surface over binary kLine frames (typed wrappers all
  // route through Roundtrip, which pipelines depth-one in binary mode).
  EXPECT_TRUE(binary.Ping().ok());
  const std::string source =
      "Class A with end A\nClass B isA A with end B\nQueryClass Q isA A with end Q\n";
  auto loaded = binary.Load("shared", source);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto extent = binary.DefineView("shared", "Q");
  EXPECT_TRUE(extent.ok()) << extent.status();
  auto verdict = binary.Check("shared", "B", "A");  // kCheck frame
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(*verdict);
  EXPECT_TRUE(binary.Classify("shared").ok());
  EXPECT_TRUE(binary.Optimize("shared", "Q").ok());
  auto stats = binary.Stats("shared");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("session shared:"), std::string::npos);
  auto metrics = binary.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("oodb_server_requests_total"), std::string::npos);
  EXPECT_TRUE(binary.TraceLog(5).ok());
  auto undef = binary.Undefine("shared", "Q");
  EXPECT_TRUE(undef.ok()) << undef.status();

  // A concurrent text connection sees the same session state: the
  // framings share one dispatcher and one session table.
  Client text = MustConnect(*port);
  auto text_verdict = text.Check("shared", "B", "A");
  ASSERT_TRUE(text_verdict.ok()) << text_verdict.status();
  EXPECT_TRUE(*text_verdict);

  // Binary protocol errors surface as ERR frames, connection usable.
  auto bad = binary.Roundtrip("FROBNICATE x");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("proto"), std::string::npos);
  EXPECT_TRUE(binary.Ping().ok());
  server.Shutdown();
}

TEST(Server, PipelinedBinaryRepliesCompleteOutOfOrder) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  ASSERT_TRUE(client.EnableBinary().ok());

  // A slow pooled request then a fast inline one, pipelined on one
  // connection. The PING reply must come back while the SLEEP runs.
  auto slow = client.SubmitLine("SLEEP 400");
  ASSERT_TRUE(slow.ok()) << slow.status();
  auto fast = client.SubmitLine("PING");
  ASSERT_TRUE(fast.ok()) << fast.status();
  const auto t0 = std::chrono::steady_clock::now();
  auto pong = client.Await(*fast);
  const auto fast_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(*pong, "pong");
  EXPECT_LT(fast_ms, 300) << "PING reply waited behind SLEEP";
  auto slept = client.Await(*slow);
  ASSERT_TRUE(slept.ok()) << slept.status();
  EXPECT_EQ(*slept, "slept=400");

  // The reverse await order stashes the early reply until it is claimed.
  auto slow2 = client.SubmitLine("SLEEP 50");
  auto fast2 = client.SubmitLine("PING");
  ASSERT_TRUE(slow2.ok() && fast2.ok());
  auto slept2 = client.Await(*slow2);  // ping reply arrives first, buffered
  ASSERT_TRUE(slept2.ok()) << slept2.status();
  auto pong2 = client.Await(*fast2);  // served from the buffer
  ASSERT_TRUE(pong2.ok()) << pong2.status();
  EXPECT_EQ(*pong2, "pong");
  server.Shutdown();
}

TEST(Server, MalformedBinaryFramesGetAnAddressedErrThenClose) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  {  // Unknown opcode: ERR proto addressed to the frame's id, then EOF.
    RawConn conn = RawConn::Open(*port);
    std::string frame;
    AppendU64(&frame, 55);
    frame.push_back(static_cast<char>(0x7f));
    std::string wire;
    AppendU32(&wire, static_cast<uint32_t>(frame.size()));
    wire += frame;
    ASSERT_TRUE(WriteFully(conn.fd, wire));
    auto reply = conn.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->id, 55u);
    EXPECT_EQ(reply->reply.kind, Reply::Kind::kErr);
    EXPECT_EQ(reply->reply.code, "proto");
    EXPECT_TRUE(conn.AtEof());
  }
  {  // Oversized frame announcement: fatal before any body arrives.
    RawConn conn = RawConn::Open(*port);
    std::string wire;
    AppendU32(&wire, kMaxBinaryFrame + 1);
    ASSERT_TRUE(WriteFully(conn.fd, wire));
    auto reply = conn.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->reply.kind, Reply::Kind::kErr);
    EXPECT_TRUE(conn.AtEof());
  }
  {  // A truncated frame never parses: the server just waits, and the
     // connection closes cleanly when the client gives up.
    RawConn conn = RawConn::Open(*port);
    std::string wire = EncodeBinaryCheckRequest(1, "s", "A", "B");
    ASSERT_TRUE(WriteFully(conn.fd, wire.substr(0, wire.size() - 3)));
    ::shutdown(conn.fd, SHUT_WR);
    EXPECT_TRUE(conn.AtEof());
  }

  // The server survived all three abuses.
  Client client = MustConnect(*port);
  EXPECT_TRUE(client.Ping().ok());
  server.Shutdown();
}

// A LINE frame carries a text command line, so it must be checked like
// one: LOAD/STATE with no session once crashed the daemon (SIGSEGV).
TEST(Server, BinaryLoadOrStateWithoutASessionIsAnErrNotACrash) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  ASSERT_TRUE(client.SetDeadline(5000).ok());
  ASSERT_TRUE(client.EnableBinary().ok());
  for (const char* line : {"LOAD", "STATE"}) {
    auto reply = client.Roundtrip(line);
    ASSERT_FALSE(reply.ok()) << line;
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition)
        << reply.status();
    EXPECT_EQ(reply.status().message().rfind("proto: usage: ", 0), 0u)
        << reply.status();
    EXPECT_TRUE(client.Ping().ok()) << line;
  }
  server.Shutdown();
}

// Blank lines hold no request, but the loop must still consume them:
// enough of them would otherwise fill the input cap and stall the
// connection, its next command never read.
TEST(Server, BlankLinesBeyondTheInputCapDoNotStallTheConnection) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  ASSERT_TRUE(client.SetDeadline(30000).ok());
  // The cap is the largest frame (16 MiB) plus 64 KiB of slack.
  const std::string blanks(size_t{17} << 20, '\n');
  auto reply = client.Roundtrip(blanks + "PING");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, "pong");
  EXPECT_EQ(Series(server, "oodb_server_requests_total"), 1);
  server.Shutdown();
}

// A LOAD/STATE line frames its payload from its shape, even inside a
// malformed envelope: the request gets one ERR, and its payload bytes
// are never read as command lines.
TEST(Server, MalformedEnvelopePayloadsAreNotReadAsCommands) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  ASSERT_TRUE(client.SetDeadline(5000).ok());
  const std::string payload = "FROB";  // an ERR of its own if read
  for (const char* line : {"REPL 0 LOAD s 4", "REPL x LOAD s 4",
                           "FORWARD @x:1 LOAD s 4", "REPL 1 STATE s 4",
                           "FORWARD LOAD s 4"}) {
    auto reply = client.Roundtrip(line, &payload);
    ASSERT_FALSE(reply.ok()) << line;
    EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition)
        << line << ": " << reply.status();
    auto pong = client.Roundtrip("PING");
    ASSERT_TRUE(pong.ok()) << line << ": " << pong.status();
    EXPECT_EQ(*pong, "pong") << line;
  }
  server.Shutdown();
}

// The verb table alone decides what the loop answers inline: every
// on_loop verb is served there (SHUTDOWN is tested on its own).
TEST(Server, EveryInlineVerbOfTheTableIsAnswered) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  for (const VerbInfo& info : kVerbTable) {
    if (!info.on_loop || info.verb == Verb::kShutdown) continue;
    auto reply = client.Roundtrip(info.name);
    EXPECT_TRUE(reply.ok()) << info.name << ": " << reply.status();
  }
  server.Shutdown();
}

// Every verb but SHUTDOWN (plus an unknown one) with 0 to 5 arguments.
std::vector<std::string> ArityLines() {
  std::vector<std::string> lines;
  for (const VerbInfo& info : kVerbTable) {
    if (info.verb == Verb::kShutdown) continue;
    std::string line = info.verb == Verb::kOther ? "FROB" : info.name;
    for (int n = 0; n <= 5; ++n) {
      lines.push_back(line);
      line += StrCat(" x", n);
    }
  }
  return lines;
}

TEST(Server, EveryVerbAtEveryArityGetsExactlyOneReply) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client text = MustConnect(*port);
  Client binary = MustConnect(*port);
  ASSERT_TRUE(text.SetDeadline(5000).ok());
  ASSERT_TRUE(binary.SetDeadline(5000).ok());
  ASSERT_TRUE(binary.EnableBinary().ok());
  for (const std::string& line : ArityLines()) {
    for (Client* client : {&text, &binary}) {
      // A reply of any kind, then the next request is answered in turn:
      // a missing reply times out, an extra one answers the PING.
      auto reply = client->Roundtrip(line);
      EXPECT_NE(reply.status().code(), StatusCode::kInternal)
          << line << ": " << reply.status();
      auto pong = client->Roundtrip("PING");
      ASSERT_TRUE(pong.ok()) << line << ": " << pong.status();
      EXPECT_EQ(*pong, "pong") << line;
    }
  }
  const std::vector<obs::Sample> samples = server.registry().Snapshot();
  EXPECT_EQ(obs::SampleValue(samples, "oodb_server_ok_total") +
                obs::SampleValue(samples, "oodb_server_errors_total") +
                obs::SampleValue(samples, "oodb_server_busy_total"),
            obs::SampleValue(samples, "oodb_server_requests_total"));
  server.Shutdown();
}

// Writes a depth-64 pipeline of BCHECK frames 7 bytes at a time, so the
// connection's input buffer keeps growing and compacting while earlier
// requests run on the workers. Every verdict must match the checker.
TEST(Server, BatchFramesDribbledInSevenByteSlicesMatchTheChecker) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Rng rng(77);
  gen::DlGenOptions options;
  options.num_classes = 7;
  options.num_attrs = 4;
  options.num_queries = 8;
  gen::GeneratedDl dl = gen::GenerateDlSource(rng, options);
  auto ref = Reference::FromSource(dl.source);
  ASSERT_NE(ref, nullptr);
  {
    Client client = MustConnect(*port);
    ASSERT_TRUE(client.Load("drip", dl.source).ok());
  }
  std::vector<std::pair<std::string, std::string>> all;
  for (const std::string& c : dl.query_names) {
    for (const std::string& d : dl.query_names) all.emplace_back(c, d);
    for (size_t i = 0; i < 4 && i < dl.class_names.size(); ++i) {
      all.emplace_back(c, dl.class_names[i]);
    }
  }
  constexpr size_t kDepth = 64;
  std::string wire;
  std::vector<std::vector<std::pair<std::string, std::string>>> batches;
  for (size_t i = 0; i < kDepth; ++i) {
    std::vector<std::pair<std::string, std::string>> batch;
    for (size_t k = 0; k < 12; ++k) {
      batch.push_back(all[(i * 12 + k) % all.size()]);
    }
    wire += EncodeBinaryBatchCheckRequest(i + 1, "drip", batch);
    batches.push_back(std::move(batch));
  }
  RawConn conn = RawConn::Open(*port);
  for (size_t at = 0; at < wire.size(); at += 7) {
    ASSERT_TRUE(WriteFully(conn.fd, std::string_view(wire).substr(at, 7)));
  }
  for (size_t n = 0; n < kDepth; ++n) {
    auto reply = conn.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_GE(reply->id, 1u);
    ASSERT_LE(reply->id, kDepth);
    ASSERT_EQ(reply->reply.kind, Reply::Kind::kOk) << reply->reply.payload;
    auto verdicts = ParseBatchVerdicts(reply->reply.payload, 12);
    ASSERT_TRUE(verdicts.ok()) << verdicts.status();
    const auto& batch = batches[reply->id - 1];
    for (size_t k = 0; k < batch.size(); ++k) {
      auto want = ref->Check(batch[k].first, batch[k].second);
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ((*verdicts)[k], *want)
          << batch[k].first << " vs " << batch[k].second;
    }
  }
  server.Shutdown();
}

// STATS bytes are a contract: scripts scrape its keys. One fixed
// single-client script on a fresh two-worker daemon must give these
// exact replies.
TEST(Server, StatsBytesOfAFixedScriptArePinned) {
  ServerOptions options;
  options.num_threads = 2;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  Rng rng(2024);
  gen::DlGenOptions gen_options;
  gen_options.num_queries = 4;
  const gen::GeneratedDl dl = gen::GenerateDlSource(rng, gen_options);
  ASSERT_TRUE(client.Load("pin", dl.source).ok());
  ASSERT_TRUE(client.DefineView("pin", "Q1").ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.Check("pin", "Q0", "Q1").ok());
  }
  ASSERT_TRUE(
      client.CheckBatch("pin", {{"Q0", "C0"}, {"Q2", "Q3"}, {"Q0", "Q1"}})
          .ok());
  ASSERT_TRUE(client.Classify("pin").ok());
  ASSERT_TRUE(client.Optimize("pin", "Q0").ok());
  ASSERT_TRUE(client.Undefine("pin", "Q3").ok());
  EXPECT_FALSE(client.Roundtrip("CHECK pin Q0").ok());

  auto all = client.Stats();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(*all,
            "server: connections=1 requests=10 ok=8 err=1 busy=0 deadline=0 "
            "pending=1 threads=2 sessions=1\n"
            "verbs: LOAD=1/0 VIEW=1/0 UNDEFINE=1/0 CHECK=3/1 BCHECK=1/0 "
            "CLASSIFY=1/0 OPTIMIZE=1/0 STATS=1/0\n"
            "session pin: checks=5 classifies=1 optimizes=1 undefines=1 "
            "views=1 objects=0\n"
            "engine_runs=28 prefilter_rejections=20/48 memo_hits=3 "
            "memo_misses=48 memo_entries=48 pool_reuses=27/28\n"
            "classify_concepts=9 classify_checks=46/72 classify_avoided=26 "
            "classify_inserts=0 classify_removes=1");
  auto one = client.Stats("pin");
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(*one,
            "server: connections=1 requests=11 ok=9 err=1 busy=0 deadline=0 "
            "pending=1 threads=2 sessions=1\n"
            "verbs: LOAD=1/0 VIEW=1/0 UNDEFINE=1/0 CHECK=3/1 BCHECK=1/0 "
            "CLASSIFY=1/0 OPTIMIZE=1/0 STATS=2/0\n"
            "session pin: checks=5 classifies=1 optimizes=1 undefines=1 "
            "views=1 objects=0\n"
            "engine_runs=28 prefilter_rejections=20/48 memo_hits=3 "
            "memo_misses=48 memo_entries=48 pool_reuses=27/28\n"
            "classify_concepts=9 classify_checks=46/72 classify_avoided=26 "
            "classify_inserts=0 classify_removes=1");
  server.Shutdown();
}

TEST(Server, ManyConcurrentConnectionsStayResponsive) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  // One event loop carries hundreds of connections; the early ones stay
  // live and responsive behind the later ones.
  std::vector<Client> clients;
  clients.reserve(256);
  for (int i = 0; i < 256; ++i) clients.push_back(MustConnect(*port));
  EXPECT_TRUE(clients.front().Ping().ok());
  EXPECT_TRUE(clients[128].Ping().ok());
  EXPECT_TRUE(clients.back().Ping().ok());
  EXPECT_GE(Series(server, "oodb_loop_connections"), 256);
  for (Client& c : clients) EXPECT_TRUE(c.Ping().ok());
  server.Shutdown();
}

// ---- The loop path: memo-warm CHECK/BCHECK answered on the event loop ----

// One request of a pipeline: a command line, plus the payload of a
// LOAD/STATE (empty otherwise).
struct Piped {
  std::string line;
  std::string payload;
};

// Writes `requests` in one write on a fresh connection of either framing
// (binary: one LINE frame each, ids 1..n) and returns their replies'
// text-framing bytes in request order.
std::vector<std::string> Pipeline(int port, bool binary,
                                  const std::vector<Piped>& requests) {
  std::string wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (binary) {
      wire += EncodeBinaryLineRequest(i + 1, requests[i].line,
                                      requests[i].payload);
    } else {
      wire += requests[i].line + "\n";
      if (!requests[i].payload.empty()) wire += requests[i].payload + "\n";
    }
  }
  RawConn conn = RawConn::Open(port, binary);
  EXPECT_TRUE(WriteFully(conn.fd, wire));
  std::vector<std::string> replies(requests.size());
  for (size_t n = 0; n < requests.size(); ++n) {
    auto reply = conn.ReadReply();
    // Text replies carry no id: they come in request order.
    const size_t at = binary && reply.ok() ? reply->id - 1 : n;
    if (!reply.ok() || at >= requests.size()) {
      ADD_FAILURE() << "no reply to request " << n;
      break;
    }
    replies[at] = EncodeReply(reply->reply);
  }
  return replies;
}

Piped LoadRequest(const std::string& session, const std::string& source) {
  return {StrCat("LOAD ", session, " ", source.size()), source};
}

constexpr const char* kASubsumedByB =
    "Class B with end B\nClass A isA B with end A\n";
constexpr const char* kANotSubsumedByB =
    "Class B with end B\nClass A with end A\n";

// A memo-warm CHECK, a LOAD that refutes it, and the same CHECK, in one
// write: the replies follow the requests, and the second CHECK reads the
// new session. The first CHECK is answered on the loop, so the LOAD and
// the check behind it must not be overtaken.
TEST(Server, ChecksPipelinedAroundALoadFollowIt) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  for (const bool binary : {false, true}) {
    const std::vector<std::string> warm = Pipeline(
        *port, binary, {LoadRequest("s", kASubsumedByB), {"CHECK s A B", ""}});
    ASSERT_EQ(warm[1], "OK 13\nsubsumed=true\n") << binary;
    const std::vector<std::string> replies =
        Pipeline(*port, binary,
                 {{"CHECK s A B", ""},
                  LoadRequest("s", kANotSubsumedByB),
                  {"CHECK s A B", ""}});
    EXPECT_EQ(replies[0], "OK 13\nsubsumed=true\n") << binary;
    EXPECT_EQ(replies[1].rfind("OK ", 0), 0u) << binary << replies[1];
    EXPECT_NE(replies[1].find("session=s "), std::string::npos) << replies[1];
    EXPECT_EQ(replies[2], "OK 14\nsubsumed=false\n") << binary;
  }
  server.Shutdown();
}

// A session replaced by LOAD never answers from its predecessor's memo:
// after a warm check and a reload, a new connection's check is decided
// by the new session, and its repeat is a hit in the new memo.
TEST(Server, AReloadedSessionNeverAnswersFromTheOldMemo) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  const auto memo = [&server](const char* series) {
    return obs::SampleValue(server.registry().Snapshot(), series,
                            {{"session", "s"}});
  };
  for (const bool binary : {false, true}) {
    Client first = MustConnect(*port);
    if (binary) {
      ASSERT_TRUE(first.EnableBinary().ok());
    }
    ASSERT_TRUE(first.Load("s", kASubsumedByB).ok());
    for (int i = 0; i < 2; ++i) {
      auto warm = first.Check("s", "A", "B");
      ASSERT_TRUE(warm.ok()) << warm.status();
      EXPECT_TRUE(*warm);
    }
    ASSERT_TRUE(first.Load("s", kANotSubsumedByB).ok());
    Client second = MustConnect(*port);
    if (binary) {
      ASSERT_TRUE(second.EnableBinary().ok());
    }
    for (int i = 0; i < 2; ++i) {
      auto verdict = second.Check("s", "A", "B");
      ASSERT_TRUE(verdict.ok()) << verdict.status();
      EXPECT_FALSE(*verdict) << binary;
    }
    // The new session's own counters: one miss decided it, one hit
    // repeated it.
    EXPECT_EQ(memo("oodb_memo_misses_total"), 1) << binary;
    EXPECT_EQ(memo("oodb_memo_hits_total"), 1) << binary;
  }
  server.Shutdown();
}

// The series a CHECK or BCHECK moves, in one snapshot.
using CheckCounters = std::array<double, 9>;
constexpr const char* kCheckCounterNames[] = {
    "requests", "ok",     "errors",        "verb_requests",
    "checks",   "hits",   "misses",        "request_seconds_count",
    "loop_answers"};

CheckCounters ReadCheckCounters(Server& server, const std::string& verb) {
  const std::vector<obs::Sample> samples = server.registry().Snapshot();
  const obs::Labels by_verb = {{"verb", verb}};
  const obs::Labels by_session = {{"session", "s"}};
  return {obs::SampleValue(samples, "oodb_server_requests_total"),
          obs::SampleValue(samples, "oodb_server_ok_total"),
          obs::SampleValue(samples, "oodb_server_errors_total"),
          obs::SampleValue(samples, "oodb_server_verb_requests_total",
                           by_verb),
          obs::SampleValue(samples, "oodb_session_checks_total", by_session),
          obs::SampleValue(samples, "oodb_memo_hits_total", by_session),
          obs::SampleValue(samples, "oodb_memo_misses_total", by_session),
          obs::SampleValue(samples, "oodb_server_request_seconds_count",
                           by_verb),
          obs::SampleValue(samples, "oodb_server_loop_answers_total",
                           by_verb)};
}

CheckCounters Minus(const CheckCounters& a, const CheckCounters& b) {
  CheckCounters d{};
  for (size_t i = 0; i < d.size(); ++i) d[i] = a[i] - b[i];
  return d;
}

std::string Describe(const CheckCounters& c) {
  std::string text;
  for (size_t i = 0; i < c.size(); ++i) {
    text += StrCat(kCheckCounterNames[i], "=", c[i], " ");
  }
  return text;
}

// The replies and counters of one CHECK or BCHECK do not depend on
// which path runs it. Each case goes cold (the pool decides it), warm
// behind a request that forces the pool path, and warm alone (the loop
// answers it when it may), in both framings: the reply bytes are the
// same, and each run moves the counters by what the case predicts — the
// two warm runs by the same amounts.
TEST(Server, LoopAndPoolAnswerWithTheSameBytesAndCounts) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  const std::string source =
      "Class A with end A\nClass B isA A with end B\n"
      "Class C with end C\nClass D isA C with end D\n";
  // One pair over the loop's inline budget of 1024 pairs a pass.
  std::string over_budget = "BCHECK s";
  std::string over_budget_reply = "subsumed=";
  for (size_t i = 0; i < 1025; ++i) {
    over_budget += i % 2 == 0 ? " D C" : " C D";
    over_budget_reply += i == 0 ? "" : ",";
    over_budget_reply += i % 2 == 0 ? "true" : "false";
  }
  over_budget_reply =
      StrCat("OK ", over_budget_reply.size(), "\n", over_budget_reply, "\n");

  struct Case {
    std::string line;
    std::string reply;
    size_t pairs;
    bool loop;  // answered on the loop when warm
  };
  const Case cases[] = {
      {"CHECK s B A", "OK 13\nsubsumed=true\n", 1, true},
      {"CHECK s A B", "OK 14\nsubsumed=false\n", 1, true},
      {"CHECK s B Object", "OK 13\nsubsumed=true\n", 1, true},
      {"CHECK s Object B", "OK 14\nsubsumed=false\n", 1, true},
      {"BCHECK s A A D A A Object", "OK 24\nsubsumed=true,false,true\n", 3,
       true},
      {"CHECK s B Nope", "ERR not_found no class named 'Nope'\n", 1, false},
      {"CHECK gone B A",
       "ERR not_found no session 'gone' (LOAD one first)\n", 1, false},
      {"BCHECK s", "OK 9\nsubsumed=\n", 0, true},
      {over_budget, over_budget_reply, 1025, false},
  };
  for (const bool binary : {false, true}) {
    ASSERT_EQ(Pipeline(*port, binary, {LoadRequest("s", source)})[0].rfind(
                  "OK ", 0),
              0u);
    for (const Case& k : cases) {
      const std::string verb = k.line.substr(0, k.line.find(' '));
      const bool ok = k.reply.rfind("OK ", 0) == 0;
      const std::string where =
          StrCat(binary ? "binary " : "text ", k.line.substr(0, 40));
      // What one run of the case moves: `warm` decides hits or misses,
      // `loop` whether the loop answered it.
      const auto predicted = [&](bool warm, bool loop) {
        const double pairs = ok ? static_cast<double>(k.pairs) : 0;
        return CheckCounters{1, ok ? 1.0 : 0, ok ? 0 : 1.0, 1, pairs,
                             warm ? pairs : 0, warm ? 0 : pairs, 1,
                             loop ? 1.0 : 0};
      };
      const auto run = [&](const std::vector<Piped>& requests,
                           const std::vector<Piped>& prefix) {
        // The prefix alone, then prefix + case: the difference is the
        // case's share.
        CheckCounters before = ReadCheckCounters(server, verb);
        if (!prefix.empty()) Pipeline(*port, binary, prefix);
        const CheckCounters prefix_delta =
            Minus(ReadCheckCounters(server, verb), before);
        before = ReadCheckCounters(server, verb);
        const std::vector<std::string> replies =
            Pipeline(*port, binary, requests);
        return std::make_pair(
            replies.back(),
            Minus(Minus(ReadCheckCounters(server, verb), before),
                  prefix_delta));
      };

      // Cold: names unresolved or pairs unmemoized, so the pool decides
      // it — except a batch with no pairs, which has nothing to decide.
      const bool vacuous = ok && k.pairs == 0;
      const auto [cold_reply, cold] = run({{k.line, ""}}, {});
      EXPECT_EQ(cold_reply, k.reply) << where;
      EXPECT_EQ(cold, predicted(false, vacuous))
          << where << "\n" << Describe(cold);

      // Warm through the pool: behind a SLEEP still in flight (binary),
      // or behind a warm batch that spends the pass's inline budget
      // (text; a batch with no pairs fits in any budget, so a text
      // connection never pools it).
      const std::vector<Piped> prefix =
          binary ? std::vector<Piped>{{"SLEEP 20", ""}}
                 : std::vector<Piped>{{StrCat("BCHECK s", [] {
                      std::string pairs;
                      for (int i = 0; i < 1024; ++i) pairs += " B A";
                      return pairs;
                    }()), ""}};
      std::optional<CheckCounters> pooled;
      if (binary || k.pairs > 0) {
        std::vector<Piped> requests = prefix;
        requests.push_back({k.line, ""});
        const auto [pooled_reply, delta] = run(requests, prefix);
        EXPECT_EQ(pooled_reply, k.reply) << where;
        EXPECT_EQ(delta, predicted(true, false))
            << where << "\n" << Describe(delta);
        pooled = delta;
      }

      // Warm alone: the loop answers it when it is eligible.
      const auto [loop_reply, loop] = run({{k.line, ""}}, {});
      EXPECT_EQ(loop_reply, k.reply) << where;
      EXPECT_EQ(loop, predicted(true, k.loop))
          << where << "\n" << Describe(loop);
      if (pooled.has_value()) {
        CheckCounters same = loop;
        same.back() = pooled->back();  // the loop counter tells them apart
        EXPECT_EQ(same, *pooled) << where;
      }
    }
  }
  server.Shutdown();
}

// With a 0 ms threshold every request is traced, a loop answer included:
// its TRACE line books the translate, memo and reply phases and nothing
// of the pre-filter or the engine.
TEST(Server, LoopAnswersAreTracedWithTheirPhases) {
  ServerOptions options;
  options.slow_threshold_ms = 0;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  ASSERT_TRUE(client.Load("s", kASubsumedByB).ok());
  const auto loop_answers = [&server](const char* verb) {
    return obs::SampleValue(server.registry().Snapshot(),
                            "oodb_server_loop_answers_total",
                            {{"verb", verb}});
  };
  for (const char* verb : {"CHECK", "BCHECK"}) {
    // A pair of its own for each verb, so its first run is cold.
    const std::string line =
        StrCat(verb, std::string_view(verb) == "CHECK" ? " s A B" : " s B A");
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(client.Roundtrip(line).ok());
    EXPECT_EQ(loop_answers(verb), 1) << verb;
    auto trace = client.TraceLog(1);
    ASSERT_TRUE(trace.ok()) << trace.status();
    const std::string& entry = *trace;
    EXPECT_NE(entry.find(StrCat("\"verb\":\"", verb, "\"")),
              std::string::npos)
        << entry;
    EXPECT_NE(entry.find("\"session\":\"s\""), std::string::npos) << entry;
    EXPECT_NE(entry.find("\"ok\":true"), std::string::npos) << entry;
    const auto field = [&entry](const std::string& key) -> uint64_t {
      const std::string needle = StrCat("\"", key, "\":");
      const size_t pos = entry.find(needle);
      if (pos == std::string::npos) return 0;
      return std::strtoull(entry.c_str() + pos + needle.size(), nullptr, 10);
    };
    EXPECT_GT(field("translate_ns"), 0u) << entry;
    EXPECT_GT(field("memo_ns"), 0u) << entry;
    EXPECT_GT(field("reply_ns"), 0u) << entry;
    EXPECT_EQ(field("prefilter_ns"), 0u) << entry;
    EXPECT_EQ(field("engine_ns"), 0u) << entry;
    EXPECT_GE(field("total_ns"), field("translate_ns") + field("memo_ns") +
                                      field("reply_ns"))
        << entry;
  }
  server.Shutdown();
}

// Writers and loop readers on one session, for over a second: one
// connection cycles VIEW, UNDEFINE and STATE while others send
// memo-warm CHECK and BCHECK frames and OPTIMIZE. Every reply is OK and
// every verdict is the in-process checker's. A check the loop cannot
// answer because a writer holds the session lock falls back to the
// pool; the test reports how many did.
TEST(Server, WritersOverlapLoopReadersOnOneSession) {
  ServerOptions options;
  options.num_threads = 4;
  Server server(options);
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();

  Rng rng(31);
  gen::DlGenOptions gen_options;
  gen_options.num_queries = 8;
  const gen::GeneratedDl dl = gen::GenerateDlSource(rng, gen_options);
  const std::string state = gen::GenerateDlState(dl, rng);
  auto ref = Reference::FromSource(dl.source);
  ASSERT_NE(ref, nullptr);
  Client admin = MustConnect(*port);
  ASSERT_TRUE(admin.Load("rw", dl.source).ok());
  ASSERT_TRUE(admin.LoadState("rw", state).ok());
  std::string view;
  for (const std::string& q : dl.query_names) {
    if (admin.DefineView("rw", q).ok()) {
      view = q;
      break;
    }
  }
  ASSERT_FALSE(view.empty()) << "no view-definable query";
  ASSERT_TRUE(admin.Undefine("rw", view).ok());

  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& c : dl.query_names) {
    for (const std::string& d : dl.query_names) pairs.emplace_back(c, d);
    for (size_t i = 0; i < 2 && i < dl.class_names.size(); ++i) {
      pairs.emplace_back(c, dl.class_names[i]);
    }
  }
  std::vector<bool> expected;
  for (const auto& [c, d] : pairs) {
    auto verdict = ref->Check(c, d);
    ASSERT_TRUE(verdict.ok()) << verdict.status();
    expected.push_back(*verdict);
  }
  auto warm = admin.CheckBatch("rw", pairs);  // every later check is a hit
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(*warm, expected);

  const auto loop_answers = [&server] {
    const std::vector<obs::Sample> samples = server.registry().Snapshot();
    return obs::SampleValue(samples, "oodb_server_loop_answers_total",
                            {{"verb", "CHECK"}}) +
           obs::SampleValue(samples, "oodb_server_loop_answers_total",
                            {{"verb", "BCHECK"}});
  };
  const double loop_before = loop_answers();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> writes{0};
  std::thread writer([&] {
    Client w = MustConnect(*port);
    while (!stop.load()) {
      auto defined = w.DefineView("rw", view);
      EXPECT_TRUE(defined.ok()) << defined.status();
      auto undefined = w.Undefine("rw", view);
      EXPECT_TRUE(undefined.ok()) << undefined.status();
      auto reset = w.LoadState("rw", state);
      EXPECT_TRUE(reset.ok()) << reset.status();
      writes.fetch_add(3);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Client r = MustConnect(*port);
      if (t > 0) {
        ASSERT_TRUE(r.EnableBinary().ok());
      }
      for (size_t i = static_cast<size_t>(t); !stop.load(); ++i) {
        const size_t k = i % pairs.size();
        if (i % 8 == 0) {
          std::vector<std::pair<std::string, std::string>> batch;
          std::vector<bool> want;
          for (size_t j = 0; j < 16; ++j) {
            batch.push_back(pairs[(k + j) % pairs.size()]);
            want.push_back(expected[(k + j) % pairs.size()]);
          }
          auto verdicts = r.CheckBatch("rw", batch);
          ASSERT_TRUE(verdicts.ok()) << verdicts.status();
          EXPECT_EQ(*verdicts, want);
        } else {
          auto verdict = r.Check("rw", pairs[k].first, pairs[k].second);
          ASSERT_TRUE(verdict.ok()) << verdict.status();
          EXPECT_EQ(*verdict, expected[k])
              << pairs[k].first << " ⊑? " << pairs[k].second;
        }
        checks.fetch_add(1);
        if (i % 16 == 5) {
          auto plan =
              r.Optimize("rw", dl.query_names[i % dl.query_names.size()]);
          EXPECT_TRUE(plan.ok()) << plan.status();
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  stop.store(true);
  writer.join();
  for (std::thread& r : readers) r.join();

  // Every check was warm and sent with nothing else in flight on its
  // connection, so each one the loop did not answer met a writer.
  const double answered = loop_answers() - loop_before;
  const double fallbacks = static_cast<double>(checks.load()) - answered;
  ::testing::Test::RecordProperty("checks", static_cast<int>(checks.load()));
  ::testing::Test::RecordProperty("writes", static_cast<int>(writes.load()));
  ::testing::Test::RecordProperty("try_lock_fallbacks",
                                  static_cast<int>(fallbacks));
  std::printf("checks=%llu writes=%llu loop_answers=%.0f "
              "try_lock_fallbacks=%.0f\n",
              static_cast<unsigned long long>(checks.load()),
              static_cast<unsigned long long>(writes.load()), answered,
              fallbacks);
  EXPECT_GT(writes.load(), 0u);
  EXPECT_GT(answered, 0);
  EXPECT_GE(fallbacks, 0);
  server.Shutdown();
}

// ---- Byte mutation of binary frames ----------------------------------------

// Well-formed frames of every encoder: requests against session "s" of
// FrameMutation's daemon, and replies, which the daemon must also survive
// as requests.
std::vector<std::string> SeedFrames() {
  return {
      EncodeBinaryLineRequest(1, "PING"),
      EncodeBinaryLineRequest(2, "CHECK s B A"),
      EncodeBinaryLineRequest(3, "LOAD m 19", "Class M with end M\n"),
      EncodeBinaryCheckRequest(4, "s", "B", "A"),
      EncodeBinaryBatchCheckRequest(5, "s", {{"B", "A"}, {"A", "B"}}),
      EncodeBinaryReply(6, OkReply("subsumed=true\n")),
      EncodeBinaryReply(7, ErrReply("not_found", "no class named 'Nope'")),
      EncodeBinaryReply(8, Reply{Reply::Kind::kBusy, "", ""}),
  };
}

// One seeded mutation: flipped bits, a truncation, a wrong length prefix
// or a wrong length field inside the body.
std::string MutateFrame(std::string frame, Rng& rng) {
  switch (rng.Index(4)) {
    case 0:
      for (size_t n = 1 + rng.Index(3); n > 0; --n) {
        const size_t at = rng.Index(frame.size());
        frame[at] = static_cast<char>(frame[at] ^ (1 << rng.Index(8)));
      }
      break;
    case 1:
      frame.resize(rng.Index(frame.size()));
      break;
    case 2: {
      // Below the header, one byte short or long, at or past the cap, or
      // any value.
      const auto body = static_cast<uint32_t>(frame.size() - 4);
      const uint32_t cap = kMaxBinaryFrame;
      const auto any = static_cast<uint32_t>(rng.Index(size_t{1} << 31));
      const uint32_t lengths[] = {0, 9, body - 1, body + 1, cap, cap + 1, any};
      std::string prefix;
      AppendU32(&prefix, lengths[rng.Index(std::size(lengths))]);
      frame.replace(0, 4, prefix);
      break;
    }
    default: {
      // A u16 string length or a u32 count/length, past the header.
      const size_t range = rng.Bernoulli(0.5) ? 64 : size_t{1} << 31;
      const auto value = static_cast<uint32_t>(rng.Index(range));
      std::string field;
      if (rng.Bernoulli(0.5)) {
        AppendU16(&field, static_cast<uint16_t>(value));
      } else {
        AppendU32(&field, value);
      }
      if (frame.size() >= 13 + field.size()) {
        const size_t at = 13 + rng.Index(frame.size() - 12 - field.size());
        frame.replace(at, field.size(), field);
      }
      break;
    }
  }
  return frame;
}

std::vector<std::string> SeedTextReplies() {
  return {
      EncodeReply(OkReply("")),
      EncodeReply(OkReply("subsumed=true")),
      EncodeReply(OkReply("two\nlines\n")),
      EncodeReply(ErrReply("not_found", "no class named 'Nope'")),
      EncodeReply(Reply{Reply::Kind::kBusy, "", ""}),
  };
}

// One seeded mutation of a text reply: flipped bits, a truncation, or a
// wrong byte count on an OK line.
std::string MutateTextReply(std::string reply, Rng& rng) {
  switch (rng.Index(3)) {
    case 0:
      for (size_t n = 1 + rng.Index(3); n > 0; --n) {
        const size_t at = rng.Index(reply.size());
        reply[at] = static_cast<char>(reply[at] ^ (1 << rng.Index(8)));
      }
      break;
    case 1:
      reply.resize(rng.Index(reply.size()));
      break;
    default: {
      // Zero, one byte short (wrapping at zero) or long, or any count.
      const size_t nl = reply.find('\n');
      uint64_t n = 0;
      if (reply.starts_with("OK ") &&
          ParseSize(std::string_view(reply).substr(3, nl - 3), &n)) {
        const uint64_t counts[] = {0, n - 1, n + 1, rng.Index(size_t{1} << 31)};
        reply.replace(3, nl - 3,
                      std::to_string(counts[rng.Index(std::size(counts))]));
      }
      break;
    }
  }
  return reply;
}

// Parsers fed mutants in buffers of exactly their size (so that ASan sees
// any read past the end) never report consuming more than they were
// given, and a parsed request's arguments lie inside its own bytes. The
// reply parsers get mutants of both framings.
TEST(FrameMutation, ParsersNeverConsumePastTheBuffer) {
  const std::vector<std::string> seeds = SeedFrames();
  const std::vector<std::string> text_seeds = SeedTextReplies();
  Rng rng(2026);
  size_t frames = 0;
  size_t bad = 0;
  size_t touched = 0;
  size_t text_frames = 0;
  size_t text_bad = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string mutant = MutateFrame(seeds[rng.Index(seeds.size())], rng);
    const auto exact = std::make_unique<char[]>(mutant.size());
    std::copy(mutant.begin(), mutant.end(), exact.get());
    const std::string_view buf(exact.get(), mutant.size());
    size_t consumed = 0;
    std::string error;
    BinaryRequest request;
    const ParseStatus status =
        ParseBinaryRequest(buf, &consumed, &request, &error);
    ASSERT_LE(consumed, buf.size()) << "mutant " << i;
    if (status == ParseStatus::kNeedMore) {
      ASSERT_EQ(consumed, 0u);
    }
    if (status == ParseStatus::kBad) ++bad;
    if (status == ParseStatus::kFrame) {
      ++frames;
      // Copying the arguments and the payload reads every byte they span.
      const RequestView view = request.request.view();
      std::string bytes(view.payload);
      for (size_t a = 0; a < view.args.size(); ++a) bytes += view.args[a];
      touched += bytes.size();
    }
    BinaryReply reply;
    ParseBinaryReply(buf, &consumed, &reply, &error);
    ASSERT_LE(consumed, buf.size()) << "mutant " << i;

    const std::string text =
        MutateTextReply(text_seeds[rng.Index(text_seeds.size())], rng);
    const auto text_exact = std::make_unique<char[]>(text.size());
    std::copy(text.begin(), text.end(), text_exact.get());
    const std::string_view text_buf(text_exact.get(), text.size());
    Reply text_reply;
    const ParseStatus text_status =
        ParseTextReply(text_buf, &consumed, &text_reply, &error);
    ASSERT_LE(consumed, text_buf.size()) << "text mutant " << i;
    if (text_status == ParseStatus::kNeedMore) {
      ASSERT_EQ(consumed, 0u) << "text mutant " << i;
    }
    text_frames += text_status == ParseStatus::kFrame;
    text_bad += text_status == ParseStatus::kBad;
  }
  // Mutants reach both outcomes, so they get past the header checks.
  EXPECT_GT(frames, 1000u);
  EXPECT_GT(bad, 1000u);
  EXPECT_GT(touched, 0u);
  EXPECT_GT(text_frames, 1000u);
  EXPECT_GT(text_bad, 1000u);
}

// Reads until the daemon ends the connection (EOF or reset) and returns
// the reply bytes it sent; -1 if it stays open for 10 s.
ssize_t ReadUntilHangUp(int fd) {
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  char buf[4096];
  ssize_t total = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) total += n;
    if (n > 0 || (n < 0 && errno == EINTR)) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return -1;
    return total;
  }
}

// Mutant frames on their own connections, each closed for writing after
// its frame so that a long length prefix cannot leave the daemon waiting.
// The daemon hangs up on every one and still answers PING.
TEST(FrameMutation, DaemonSurvivesMutantFrames) {
  Server server;
  auto port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status();
  Client client = MustConnect(*port);
  ASSERT_TRUE(
      client.Load("s", "Class A with end A\nClass B isA A with end B\n").ok());
  const std::vector<std::string> seeds = SeedFrames();
  Rng rng(26);
  int answered = 0;
  for (int i = 0; i < 300; ++i) {
    RawConn conn = RawConn::Open(*port);
    WriteFully(conn.fd, MutateFrame(seeds[rng.Index(seeds.size())], rng));
    ::shutdown(conn.fd, SHUT_WR);
    const ssize_t replied = ReadUntilHangUp(conn.fd);
    ASSERT_GE(replied, 0) << "mutant " << i << " left the connection open";
    answered += replied > 0;
  }
  // Mutants reach the handlers, not only the framing checks.
  EXPECT_GT(answered, 100);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(MustConnect(*port).Ping().ok());
  server.Shutdown();
}

}  // namespace
}  // namespace oodb::server
