// oodbsub — command-line front end to the library.
//
//   oodbsub translate <schema.dl>
//       print SL axioms, QL concepts of all query classes, FOL renderings
//   oodbsub check <schema.dl> <query> <view>
//       decide Σ-subsumption and explain the verdict
//   oodbsub classify <schema.dl>
//       classify all query classes into a subsumption hierarchy
//   oodbsub minimize <schema.dl> <query>
//       print the Σ-minimized concept of a query class
//   oodbsub query <schema.dl> <state.odb> <query>
//       evaluate a query class over a database state
//   oodbsub optimize <schema.dl> <state.odb> <query> <view...>
//       materialize the views and answer the query through the optimizer
//   oodbsub serve [--port=N] [--threads=N] [--max-pending=N] [--deadline-ms=N]
//           [--metrics-threshold-ms=N]
//       run the optimizer daemon (docs/server.md, docs/observability.md)
//   oodbsub rpc <host:port> <VERB> [args...]
//       send one framed request to a running daemon
//   oodbsub stats <host:port> [session]
//       human-readable snapshot of a running daemon's stats + metrics
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/strings.h"
#include "cluster/cluster_client.h"
#include "cluster/membership.h"
#include "calculus/explain.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "db/evaluator.h"
#include "db/deduction.h"
#include "db/instance.h"
#include "dl/frontend.h"
#include "dl/printer.h"
#include "dl/translate.h"
#include "obs/exposition.h"
#include "ql/fol.h"
#include "ql/print.h"
#include "schema/schema.h"
#include "server/client.h"
#include "server/server.h"
#include "service/thread_pool.h"
#include "views/views.h"

namespace {

using namespace oodb;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError(StrCat("cannot open '", path, "'"));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Everything a subcommand needs: the parsed model, Σ and a translator.
struct Session : dl::Frontend {
  Status Open(const std::string& schema_path) {
    OODB_ASSIGN_OR_RETURN(std::string source, ReadFile(schema_path));
    Status loaded = Load(source);
    if (model != nullptr) {
      for (const std::string& warning : model->warnings()) {
        std::fprintf(stderr, "note: %s\n", warning.c_str());
      }
    }
    return loaded;
  }

  Result<ql::ConceptId> Concept(const std::string& name) {
    return translator->ClassConcept(name);
  }
};

int CmdTranslate(Session& session) {
  std::printf("schema axioms:\n");
  for (const auto& ax : session.sigma->inclusions()) {
    std::printf("  %s ⊑ %s\n", session.symbols.Name(ax.lhs).c_str(),
                ql::ConceptToString(*session.terms, ax.rhs).c_str());
  }
  for (const auto& ax : session.sigma->typings()) {
    std::printf("  %s ⊑ %s × %s\n", session.symbols.Name(ax.attr).c_str(),
                session.symbols.Name(ax.domain).c_str(),
                session.symbols.Name(ax.range).c_str());
  }
  std::printf("\nquery concepts:\n");
  for (const dl::ClassDef& def : session.model->classes()) {
    if (!def.is_query) continue;
    auto concept_id = session.translator->QueryConcept(def.name);
    if (!concept_id.ok()) return Fail(concept_id.status());
    std::printf("  %s = %s\n", session.symbols.Name(def.name).c_str(),
                ql::ConceptToString(*session.terms, *concept_id).c_str());
    auto fol = session.translator->QueryClassToFol(def.name);
    if (fol.ok()) {
      std::printf("    ⇔ %s\n",
                  ql::FormulaToString(*session.terms, *fol).c_str());
    }
  }
  return 0;
}

// One-line check-avoidance summary (behind --stats everywhere).
void PrintPerfStats(const calculus::CheckerPerfStats& perf) {
  std::printf(
      "stats: engine runs %llu, pre-filter rejections %llu/%llu, "
      "memo hits %llu misses %llu, pool reuses %llu/%llu\n",
      static_cast<unsigned long long>(perf.engine_runs),
      static_cast<unsigned long long>(perf.prefilter_rejections),
      static_cast<unsigned long long>(perf.prefilter_checks),
      static_cast<unsigned long long>(perf.cache.hits),
      static_cast<unsigned long long>(perf.cache.misses),
      static_cast<unsigned long long>(perf.pool_reuses),
      static_cast<unsigned long long>(perf.pool_acquires));
}

int CmdCheck(Session& session, const std::string& query,
             const std::string& view, bool stats) {
  auto c = session.Concept(query);
  if (!c.ok()) return Fail(c.status());
  auto d = session.Concept(view);
  if (!d.ok()) return Fail(d.status());
  auto explanation =
      calculus::ExplainSubsumption(*session.sigma, *c, *d);
  if (!explanation.ok()) return Fail(explanation.status());
  std::printf("%s %s %s\n\n%s", query.c_str(),
              explanation->subsumed ? "⊑_Σ" : "⋢_Σ", view.c_str(),
              explanation->text.c_str());
  if (stats) {
    // Run the same pair through the check-avoidance fast path (the
    // explanation above is the deliberately unfiltered oracle).
    calculus::SubsumptionChecker checker(*session.sigma);
    auto verdict = checker.Subsumes(*c, *d);
    if (!verdict.ok()) return Fail(verdict.status());
    PrintPerfStats(checker.perf_stats());
    // Full completion once more for the rule-application profile and the
    // measured run duration (RunStats::duration).
    auto detailed = checker.SubsumesDetailed(*c, *d);
    if (!detailed.ok()) return Fail(detailed.status());
    const calculus::RunStats& rs = detailed->stats;
    std::string rules;
    for (size_t i = 0; i < rs.rule_applications.size(); ++i) {
      const uint64_t count = rs.rule_applications[i];
      if (count == 0) continue;
      rules = StrCat(rules, rules.empty() ? "" : " ",
                     calculus::RuleName(static_cast<calculus::Rule>(i)), "=",
                     count);
    }
    std::printf("rules: %s (total %llu)\n",
                rules.empty() ? "none" : rules.c_str(),
                static_cast<unsigned long long>(rs.TotalApplications()));
    std::printf(
        "engine: %.3f ms (%zu individuals, %zu variables, %zu facts, "
        "%zu goals, %zu rounds)\n",
        static_cast<double>(rs.duration.count()) / 1e6, rs.individuals,
        rs.variables, rs.facts, rs.goals, rs.rounds);
  }
  return explanation->subsumed ? 0 : 2;
}

int CmdClassify(Session& session, size_t threads, bool stats) {
  // Virtual classes are "integrated into the existing class hierarchy by
  // a simple subsumption check" (paper Sect. 5, [AB91]/[SLT91]): classify
  // query classes and schema classes together.
  std::vector<std::pair<Symbol, ql::ConceptId>> concepts;
  for (const dl::ClassDef& def : session.model->classes()) {
    if (def.name == session.model->object_class) continue;
    auto concept_id = session.translator->ClassConcept(def.name);
    if (!concept_id.ok()) return Fail(concept_id.status());
    concepts.emplace_back(def.name, *concept_id);
  }

  // With --threads=N, warm the memo on a worker pool first: one batch per
  // concept against every concept, each deciding all its pairs with at
  // most one completion and memoizing every verdict. The classifier below
  // then answers each of its checks from the memo, so the output is that
  // of the single-threaded run.
  calculus::SubsumptionChecker checker(*session.sigma);
  if (threads > 1) {
    std::vector<ql::ConceptId> ids;
    ids.reserve(concepts.size());
    for (const auto& [name, id] : concepts) ids.push_back(id);
    service::ThreadPool pool(threads);
    const auto start = std::chrono::steady_clock::now();
    pool.ParallelFor(ids.size(), [&](size_t i) {
      // A failed batch memoizes nothing; the classifier reports its error.
      (void)checker.SubsumesBatch(ids[i], ids);
    });
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - start;
    std::fprintf(stderr,
                 "note: warmed %zu x %zu verdicts on %zu threads in %.1f ms "
                 "(%llu cache insertions)\n",
                 ids.size(), ids.size(), pool.size(), wall.count(),
                 static_cast<unsigned long long>(
                     checker.cache_stats().insertions));
  }

  calculus::Classifier classifier(checker);
  for (const auto& [name, id] : concepts) {
    if (auto s = classifier.Add(name, id); !s.ok()) return Fail(s);
  }
  if (auto s = classifier.Classify(); !s.ok()) return Fail(s);
  std::printf("%s", classifier.ToString(session.symbols).c_str());
  if (stats) {
    const calculus::Classifier::ClassifyStats& cs =
        classifier.classify_stats();
    std::printf("stats: %zu concepts, %zu/%zu checks issued (%zu avoided "
                "by traversal)\n",
                cs.concepts, cs.checks_performed, cs.pairwise_checks,
                cs.checks_avoided);
    PrintPerfStats(checker.perf_stats());
  }
  return 0;
}

int CmdMinimize(Session& session, const std::string& query) {
  auto c = session.Concept(query);
  if (!c.ok()) return Fail(c.status());
  calculus::SubsumptionChecker checker(*session.sigma);
  auto minimized =
      calculus::MinimizeConcept(checker, session.terms.get(), *c);
  if (!minimized.ok()) return Fail(minimized.status());
  std::printf("original : %s\n",
              ql::ConceptToString(*session.terms, *c).c_str());
  std::printf("minimized: %s\n",
              ql::ConceptToString(*session.terms, *minimized).c_str());
  return 0;
}

int CmdQuery(Session& session, const std::string& state_path,
             const std::string& query) {
  auto state = ReadFile(state_path);
  if (!state.ok()) return Fail(state.status());
  db::Database database(*session.model, &session.symbols);
  auto loaded = db::LoadInstance(*state, &database);
  if (!loaded.ok()) return Fail(loaded.status());
  for (const std::string& violation : database.CheckLegalState()) {
    std::fprintf(stderr, "warning: illegal state: %s\n", violation.c_str());
  }
  db::QueryEvaluator evaluator(database);
  db::EvalStats stats;
  auto answers = evaluator.Evaluate(session.symbols.Find(query), &stats);
  if (!answers.ok()) return Fail(answers.status());
  std::printf("%s over %zu objects (%zu candidates examined):\n",
              query.c_str(), database.num_objects(),
              stats.candidates_examined);
  for (db::ObjectId o : *answers) {
    std::printf("  %s\n",
                session.symbols.Name(database.ObjectName(o)).c_str());
  }
  return 0;
}

int CmdOptimize(Session& session, const std::string& state_path,
                const std::string& query,
                const std::vector<std::string>& views) {
  auto state = ReadFile(state_path);
  if (!state.ok()) return Fail(state.status());
  db::Database database(*session.model, &session.symbols);
  auto loaded = db::LoadInstance(*state, &database);
  if (!loaded.ok()) return Fail(loaded.status());

  views::ViewCatalog catalog(&database, session.translator.get());
  for (const std::string& view : views) {
    if (auto s = catalog.DefineView(session.symbols.Find(view)); !s.ok()) {
      return Fail(s);
    }
    std::printf("materialized %s (%zu answers)\n", view.c_str(),
                catalog.Find(session.symbols.Find(view))->extent.size());
  }
  views::Optimizer optimizer(&database, &catalog, *session.sigma,
                             session.translator.get());
  views::QueryPlan plan;
  db::EvalStats stats;
  auto answers =
      optimizer.Execute(session.symbols.Find(query), &plan, &stats);
  if (!answers.ok()) return Fail(answers.status());
  std::printf("plan: %s (%zu subsumption checks)\n",
              plan.explanation.c_str(), plan.subsumption_checks);
  std::printf("%s (%zu candidates examined):\n", query.c_str(),
              stats.candidates_examined);
  for (db::ObjectId o : *answers) {
    std::printf("  %s\n",
                session.symbols.Name(database.ObjectName(o)).c_str());
  }
  return 0;
}

int CmdPrint(Session& session) {
  std::printf("%s",
              dl::ModelToSource(*session.model, session.symbols).c_str());
  return 0;
}

int CmdState(Session& session, const std::string& state_path, bool deduce) {
  auto state = ReadFile(state_path);
  if (!state.ok()) return Fail(state.status());
  db::Database database(*session.model, &session.symbols);
  auto loaded = db::LoadInstance(*state, &database);
  if (!loaded.ok()) return Fail(loaded.status());
  std::fprintf(stderr, "loaded %zu objects, %zu memberships, %zu triples\n",
               loaded->objects, loaded->memberships, loaded->attributes);
  if (deduce) {
    auto stats = db::DeductiveClosure(&database);
    if (!stats.ok()) return Fail(stats.status());
    std::fprintf(stderr, "deduced %zu memberships in %zu rounds\n",
                 stats->derived_memberships, stats->rounds);
  }
  auto violations = database.CheckLegalState();
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "illegal: %s\n", violation.c_str());
  }
  std::fprintf(stderr, "state is %s\n",
               violations.empty() ? "legal" : "ILLEGAL");
  std::printf("%s", db::DumpInstance(database).c_str());
  return violations.empty() ? 0 : 3;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  oodbsub translate <schema.dl>\n"
      "  oodbsub print <schema.dl>\n"
      "  oodbsub check <schema.dl> <query> <view> [--stats]\n"
      "  oodbsub classify <schema.dl> [--threads=N] [--stats]\n"
      "  oodbsub minimize <schema.dl> <query>\n"
      "  oodbsub query <schema.dl> <state.odb> <query>\n"
      "  oodbsub optimize <schema.dl> <state.odb> <query> <view...>\n"
      "  oodbsub state <schema.dl> <state.odb> [--deduce]\n"
      "  oodbsub serve [--port=N] [--threads=N] [--max-pending=N]"
      " [--deadline-ms=N]\n"
      "                [--metrics-threshold-ms=N]"
      " [--cluster=host:port,... --replicas=N]\n"
      "  oodbsub rpc [--binary] <host:port> <VERB> [args...]   (LOAD/STATE"
      " take a file path)\n"
      "  oodbsub rpc --cluster=host:port,... [--replicas=N] <VERB> [args...]\n"
      "      route via the failover-aware cluster client; the OWNER"
      " <session>\n"
      "      meta-verb prints the session's owner and replicas without"
      " a request\n"
      "  oodbsub stats <host:port> [session] [--json]\n"
      "  oodbsub stats --cluster=host:port,... [--json]\n"
      "      fan METRICS+HEALTH out to every node; render per-node health\n"
      "      and a fleet-total snapshot (--json: one JSON line per sample)\n"
      "exit codes: 0 ok, 1 error (diagnostics on stderr), 2 not subsumed,\n"
      "            3 illegal state, 4 server busy, 64 usage\n");
  return 64;
}

int CmdServe(const std::vector<std::string>& args) {
  server::ServerOptions options;
  std::string cluster_spec;
  size_t replicas = 1;
  for (const std::string& arg : args) {
    const char* value = nullptr;
    if (arg.rfind("--port=", 0) == 0) {
      value = arg.c_str() + 7;
      options.port = static_cast<uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.c_str() + 10;
      options.num_threads = std::strtoul(value, nullptr, 10);
    } else if (arg.rfind("--max-pending=", 0) == 0) {
      value = arg.c_str() + 14;
      options.max_pending = std::strtoul(value, nullptr, 10);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      value = arg.c_str() + 14;
      options.deadline_ms = std::strtol(value, nullptr, 10);
    } else if (arg.rfind("--metrics-threshold-ms=", 0) == 0) {
      // Slow-query log threshold: 0 logs everything, negative disables
      // request tracing.
      value = arg.c_str() + 23;
      options.slow_threshold_ms = std::strtol(value, nullptr, 10);
    } else if (arg.rfind("--cluster=", 0) == 0) {
      value = arg.c_str() + 10;
      cluster_spec = value;
    } else if (arg.rfind("--replicas=", 0) == 0) {
      value = arg.c_str() + 11;
      replicas = std::strtoul(value, nullptr, 10);
    } else {
      return Usage();
    }
    if (*value == '\0') return Usage();
  }
  if (!cluster_spec.empty()) {
    auto nodes = cluster::ParseClusterSpec(cluster_spec);
    if (!nodes.ok()) return Fail(nodes.status());
    if (options.port == 0) {
      return Fail(InvalidArgumentError(
          "--cluster requires an explicit --port listed in the spec"));
    }
    const size_t self = cluster::SelfIndex(*nodes, options.port);
    if (self == cluster::kNotAMember) {
      return Fail(InvalidArgumentError(
          StrCat("--port=", options.port, " is not in --cluster=",
                 cluster_spec)));
    }
    options.cluster.nodes = std::move(*nodes);
    options.cluster.self = self;
    options.cluster.replicas = replicas;
  }
  server::Server daemon(options);
  auto port = daemon.Start();
  if (!port.ok()) return Fail(port.status());
  // The one line scripts scrape for the ephemeral port; flush before
  // blocking so a pipe reader sees it immediately.
  std::printf("listening on 127.0.0.1:%d\n", *port);
  std::fflush(stdout);
  daemon.Wait();
  const std::vector<obs::Sample> samples = daemon.registry().Snapshot();
  const auto count = [&samples](const char* series) {
    return static_cast<unsigned long long>(obs::SampleValue(samples, series));
  };
  std::fprintf(stderr,
               "drained: %llu requests (%llu ok, %llu err, %llu busy, "
               "%llu deadline) over %llu connections\n",
               count("oodb_server_requests_total"),
               count("oodb_server_ok_total"),
               count("oodb_server_errors_total"),
               count("oodb_server_busy_total"),
               count("oodb_server_deadline_expired_total"),
               count("oodb_server_connections_total"));
  return 0;
}

// `rpc --cluster=SPEC <VERB> [args...]`: route through the cluster
// client instead of one explicit daemon. The connection is always
// binary; reads retry and fail over per docs/cluster.md §4.
int CmdRpcCluster(const std::string& spec, size_t replicas,
                  const std::vector<std::string>& args) {
  auto nodes = cluster::ParseClusterSpec(spec);
  if (!nodes.ok()) return Fail(nodes.status());
  cluster::ClusterConfig config;
  config.nodes = std::move(*nodes);
  config.replicas = replicas;
  if (args.empty()) return Usage();
  cluster::ClusterClient client(config);

  const std::string& verb = args[0];
  if (verb == "OWNER") {
    // Placement query, answered from the ring without any request.
    if (args.size() != 2) return Usage();
    const size_t owner = client.OwnerOf(args[1]);
    std::vector<std::string> addrs;
    for (const size_t node : client.ReplicasOf(args[1])) {
      addrs.push_back(config.nodes[node].ToString());
    }
    std::printf("owner=%s replicas=%s\n",
                config.nodes[owner].ToString().c_str(),
                addrs.empty() ? "none" : StrJoin(addrs, ",").c_str());
    return 0;
  }
  auto roundtrip = [&]() -> Result<std::string> {
    if (verb == "LOAD" || verb == "STATE") {
      if (args.size() != 3) {
        return InvalidArgumentError(StrCat("usage: rpc --cluster=... ", verb,
                                           " <session> <file>"));
      }
      OODB_ASSIGN_OR_RETURN(std::string source, ReadFile(args[2]));
      return verb == "LOAD" ? client.Load(args[1], source)
                            : client.LoadState(args[1], source);
    }
    return client.Call(StrJoin(args, " "));
  };
  auto reply = roundtrip();
  if (!reply.ok()) {
    if (reply.status().code() == StatusCode::kResourceExhausted) {
      std::fprintf(stderr, "busy: admission queue full, retry later\n");
      return 4;
    }
    return Fail(reply.status());
  }
  std::printf("%s\n", reply->c_str());
  return 0;
}

int CmdRpc(std::vector<std::string> args) {
  // `--binary` anywhere after `rpc` switches the connection to the
  // length-prefixed framing before the request is sent. `--cluster=SPEC`
  // (plus optional `--replicas=N`) switches to routed mode.
  bool binary = false;
  std::string cluster_spec;
  size_t replicas = 1;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--binary") {
      binary = true;
      it = args.erase(it);
    } else if (it->rfind("--cluster=", 0) == 0) {
      cluster_spec = it->substr(10);
      if (cluster_spec.empty()) return Usage();
      it = args.erase(it);
    } else if (it->rfind("--replicas=", 0) == 0) {
      replicas = std::strtoul(it->c_str() + 11, nullptr, 10);
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (!cluster_spec.empty()) return CmdRpcCluster(cluster_spec, replicas, args);
  if (args.size() < 2) return Usage();
  const std::string& target = args[0];
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon + 1 == target.size()) {
    return Usage();
  }
  const std::string host = target.substr(0, colon);
  const int port =
      static_cast<int>(std::strtoul(target.c_str() + colon + 1, nullptr, 10));
  auto client = server::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());
  if (binary) {
    Status negotiated = client->EnableBinary();
    if (!negotiated.ok()) return Fail(negotiated);
  }

  const std::string& verb = args[1];
  auto roundtrip = [&]() -> Result<std::string> {
    if (verb == "LOAD" || verb == "STATE") {
      // `rpc ... LOAD <session> <file.dl>`: the CLI frames the file
      // contents as the payload.
      if (args.size() != 4) {
        return InvalidArgumentError(
            StrCat("usage: rpc <host:port> ", verb, " <session> <file>"));
      }
      OODB_ASSIGN_OR_RETURN(std::string source, ReadFile(args[3]));
      return verb == "LOAD" ? client->Load(args[2], source)
                            : client->LoadState(args[2], source);
    }
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    return client->Roundtrip(StrJoin(rest, " "));
  };
  auto reply = roundtrip();
  if (!reply.ok()) {
    if (reply.status().code() == StatusCode::kResourceExhausted) {
      std::fprintf(stderr, "busy: admission queue full, retry later\n");
      return 4;
    }
    return Fail(reply.status());
  }
  std::printf("%s\n", reply->c_str());
  return 0;
}

// One parsed exposition sample as a JSON line, with an optional extra
// "node" field for cluster fan-outs. Names and label keys come from our
// own collectors; values are escaped for quotes/backslashes anyway.
void PrintSampleJson(const obs::Sample& sample, const std::string& node) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::string line = "{";
  if (!node.empty()) {
    line += StrCat("\"node\":\"", escape(node), "\",");
  }
  line += StrCat("\"name\":\"", escape(sample.name), "\",\"labels\":{");
  bool first = true;
  for (const auto& [key, value] : sample.labels) {
    if (!first) line += ",";
    first = false;
    line += StrCat("\"", escape(key), "\":\"", escape(value), "\"");
  }
  char value[64];
  std::snprintf(value, sizeof(value), "%.17g", sample.value);
  line += StrCat("},\"value\":", value, "}");
  std::printf("%s\n", line.c_str());
}

// Fleet aggregation: merge per-node samples by (name, labels). Counters
// and most gauges add; `_max` companions and ages take the max (the sum
// of two maxima means nothing).
void MergeSamples(const std::vector<obs::Sample>& in,
                  std::vector<obs::Sample>* out) {
  auto take_max = [](const std::string& name) {
    return (name.size() >= 4 &&
            name.compare(name.size() - 4, 4, "_max") == 0) ||
           name.find("last_ack_age") != std::string::npos;
  };
  for (const obs::Sample& s : in) {
    obs::Sample* found = nullptr;
    for (obs::Sample& existing : *out) {
      if (existing.name == s.name && existing.labels == s.labels) {
        found = &existing;
        break;
      }
    }
    if (found == nullptr) {
      out->push_back(s);
    } else if (take_max(s.name)) {
      found->value = std::max(found->value, s.value);
    } else {
      found->value += s.value;
    }
  }
}

// `stats --cluster=SPEC [--json]`: fan METRICS (and HEALTH) out to every
// node in the spec and render per-node health plus a fleet-total merged
// snapshot. --json emits every per-node sample as a JSON line with a
// "node" field instead.
int CmdStatsCluster(const std::string& spec, bool json) {
  auto nodes = cluster::ParseClusterSpec(spec);
  if (!nodes.ok()) return Fail(nodes.status());
  size_t scrape_errors = 0;
  std::vector<obs::Sample> fleet;
  for (const cluster::NodeAddr& node : *nodes) {
    const std::string addr = node.ToString();
    auto scrape = [&]() -> Result<std::string> {
      OODB_ASSIGN_OR_RETURN(server::Client client,
                            server::Client::Connect(node.host, node.port));
      OODB_ASSIGN_OR_RETURN(std::string health, client.Roundtrip("HEALTH"));
      OODB_ASSIGN_OR_RETURN(std::string metrics, client.Metrics());
      OODB_ASSIGN_OR_RETURN(std::vector<obs::Sample> samples,
                            obs::ParseExposition(metrics));
      if (json) {
        for (const obs::Sample& s : samples) PrintSampleJson(s, addr);
      } else {
        std::printf("node %s: %s\n", addr.c_str(), health.c_str());
      }
      MergeSamples(samples, &fleet);
      return health;
    };
    if (auto health = scrape(); !health.ok()) {
      ++scrape_errors;
      std::fprintf(stderr, "node %s: scrape failed: %s\n", addr.c_str(),
                   std::string(health.status().message()).c_str());
    }
  }
  if (!json) {
    std::printf("\nfleet: nodes=%zu scrape_errors=%zu\n\n", nodes->size(),
                scrape_errors);
    std::printf("%s", obs::RenderHumanSnapshot(fleet).c_str());
  } else {
    std::fprintf(stderr, "fleet: nodes=%zu scrape_errors=%zu\n",
                 nodes->size(), scrape_errors);
  }
  return scrape_errors == 0 ? 0 : 1;
}

int CmdStats(const std::vector<std::string>& args) {
  bool json = false;
  std::string cluster_spec;
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--cluster=", 0) == 0) {
      cluster_spec = arg.substr(10);
      if (cluster_spec.empty()) return Usage();
    } else {
      rest.push_back(arg);
    }
  }
  if (!cluster_spec.empty()) {
    if (!rest.empty()) return Usage();  // spec replaces the host:port
    return CmdStatsCluster(cluster_spec, json);
  }
  if (rest.empty() || rest.size() > 2) return Usage();
  const std::string& target = rest[0];
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon + 1 == target.size()) {
    return Usage();
  }
  const std::string host = target.substr(0, colon);
  const int port =
      static_cast<int>(std::strtoul(target.c_str() + colon + 1, nullptr, 10));
  auto client = server::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());
  if (json) {
    // Scripting mode: just the parsed metrics snapshot, one JSON line
    // per sample, nothing else on stdout.
    auto metrics = client->Metrics();
    if (!metrics.ok()) return Fail(metrics.status());
    auto samples = obs::ParseExposition(*metrics);
    if (!samples.ok()) return Fail(samples.status());
    for (const obs::Sample& s : *samples) PrintSampleJson(s, "");
    return 0;
  }
  auto stats = rest.size() == 2 ? client->Stats(rest[1]) : client->Stats();
  if (!stats.ok()) return Fail(stats.status());
  std::printf("%s\n\n", stats->c_str());
  auto metrics = client->Metrics();
  if (!metrics.ok()) return Fail(metrics.status());
  // Round-tripping through the parser also validates the exposition.
  auto samples = obs::ParseExposition(*metrics);
  if (!samples.ok()) return Fail(samples.status());
  std::printf("%s", obs::RenderHumanSnapshot(*samples).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // --stats is accepted anywhere after the command; strip it before the
  // positional dispatch below.
  bool stats = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--stats") {
      stats = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (args.empty()) return Usage();
  std::string command = args[0];

  // The daemon-side commands take no schema file.
  if (command == "serve") {
    return CmdServe({args.begin() + 1, args.end()});
  }
  if (command == "rpc") {
    return CmdRpc({args.begin() + 1, args.end()});
  }
  if (command == "stats") {
    return CmdStats({args.begin() + 1, args.end()});
  }

  // Validate the command *before* touching the schema path, so a typo'd
  // command yields usage (64), not a misleading file error.
  const bool known =
      command == "translate" || command == "print" || command == "state" ||
      command == "check" || command == "classify" || command == "minimize" ||
      command == "query" || command == "optimize";
  const size_t n = args.size();
  if (!known || n < 2) return Usage();

  Session session;
  if (auto s = session.Open(args[1]); !s.ok()) return Fail(s);

  if (command == "translate" && n == 2) return CmdTranslate(session);
  if (command == "print" && n == 2) return CmdPrint(session);
  if (command == "state" && (n == 3 || n == 4)) {
    bool deduce = n == 4 && args[3] == "--deduce";
    if (n == 4 && !deduce) return Usage();
    return CmdState(session, args[2], deduce);
  }
  if (command == "check" && n == 4) {
    return CmdCheck(session, args[2], args[3], stats);
  }
  if (command == "classify" && (n == 2 || n == 3)) {
    size_t threads = 1;
    if (n == 3) {
      const std::string& flag = args[2];
      if (flag.rfind("--threads=", 0) != 0) return Usage();
      threads = std::strtoul(flag.c_str() + 10, nullptr, 10);
      if (threads == 0) return Usage();
    }
    return CmdClassify(session, threads, stats);
  }
  if (command == "minimize" && n == 3) {
    return CmdMinimize(session, args[2]);
  }
  if (command == "query" && n == 4) {
    return CmdQuery(session, args[2], args[3]);
  }
  if (command == "optimize" && n >= 5) {
    std::vector<std::string> views(args.begin() + 4, args.end());
    return CmdOptimize(session, args[2], args[3], views);
  }
  return Usage();
}
