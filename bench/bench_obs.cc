// Experiments E18 + E21: observability overhead.
//
// E18 runs the E16 classification workload (hierarchy-rich synthetic
// catalog, enhanced traversal, fresh checker per iteration so memo
// state never carries over) twice: once with the observability layer
// enabled (the default — engine-run histograms, per-rule counters) and
// once with obs::SetEnabled(false). Reports min-of-repeats wall time
// for each mode plus microbenchmarks of the individual instruments.
//
// E21 repeats the discipline against a 3-node in-process fleet: every
// timed request is a CHECK sent to a node that neither owns nor
// replicates its session, so each one crosses the full instrumented hop
// chain — forwarder trace, FORWARD trace header, forward-RTT histogram,
// owner-side trace, and epoll loop metrics on both daemons.
//
// Writes BENCH_obs.json always, and exits non-zero if the measured
// enabled-vs-disabled overhead exceeds its budget — 3% single-node,
// 5% cluster (CI runs `bench_obs --quick` as a Release-mode gate).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "bench_util.h"
#include "calculus/services.h"
#include "calculus/subsumption.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "gen/dl_gen.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "schema/schema.h"
#include "server/client.h"
#include "server/server.h"

namespace {

// The E20 fixture shape: an in-process fleet on a shared static ring.
struct ClusterFixture {
  oodb::cluster::ClusterConfig config;  // self = kNotAMember (client view)
  std::vector<std::unique_ptr<oodb::server::Server>> servers;

  static std::unique_ptr<ClusterFixture> Start(size_t n, size_t replicas) {
    auto fleet = std::make_unique<ClusterFixture>();
    for (size_t i = 0; i < n; ++i) {
      const int port = oodb::bench::GrabPort();
      if (port < 0) return nullptr;
      fleet->config.nodes.push_back(
          oodb::cluster::NodeAddr{"127.0.0.1", port});
    }
    fleet->config.replicas = replicas;
    for (size_t i = 0; i < n; ++i) {
      oodb::server::ServerOptions options;
      options.port = static_cast<uint16_t>(fleet->config.nodes[i].port);
      options.num_threads = 2;  // docs/cluster.md §6: ≥2 in cluster mode
      options.cluster = fleet->config;
      options.cluster.self = i;
      auto server =
          std::make_unique<oodb::server::Server>(std::move(options));
      if (!server->Start().ok()) return nullptr;
      fleet->servers.push_back(std::move(server));
    }
    return fleet;
  }

  void ShutdownAll() {
    for (auto& server : servers) {
      if (server != nullptr) server->Shutdown();
    }
  }
};

// Median of the per-pair on/off ratios — the overhead estimator both
// gates use (see the discipline comment above the E18 loop).
double MedianRatio(std::vector<double> ratios) {
  if (ratios.empty()) return 1.0;
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  return (ratios.size() & 1) ? ratios[mid]
                             : (ratios[mid - 1] + ratios[mid]) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oodb;

  bool quick = false;
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::Section("E18: observability overhead on the E16 workload");

  Rng rng(20260806);
  SymbolTable symbols;
  ql::TermFactory f(&symbols);
  schema::Schema sigma(&f);
  gen::SchemaGenOptions schema_options;
  schema_options.num_classes = 14;
  schema_options.num_attrs = 7;
  schema_options.value_restrictions = 12;
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, schema_options);

  const size_t kSeeds = quick ? 8 : 24;
  const size_t kChain = quick ? 3 : 5;
  const size_t kNoise = quick ? 8 : 20;
  std::vector<ql::ConceptId> concepts;
  for (size_t s = 0; s < kSeeds; ++s) {
    ql::ConceptId c = gen::GenerateConcept(sig, &f, rng);
    concepts.push_back(c);
    for (size_t k = 0; k < kChain; ++k) {
      c = gen::WeakenConcept(sigma, &f, c, rng, 1);
      concepts.push_back(c);
    }
  }
  for (size_t i = 0; i < kNoise; ++i) {
    concepts.push_back(gen::GenerateConcept(sig, &f, rng));
  }
  std::vector<Symbol> names;
  names.reserve(concepts.size());
  for (size_t i = 0; i < concepts.size(); ++i) {
    names.push_back(symbols.Intern(StrCat("N", i)));
  }
  std::printf("  catalog: %zu concepts%s\n\n", concepts.size(),
              quick ? " [quick]" : "");

  // One full classification on a cold checker; returns elapsed ms.
  auto classify_once = [&]() -> double {
    calculus::SubsumptionChecker checker(sigma);
    calculus::Classifier classifier(checker);
    for (size_t i = 0; i < concepts.size(); ++i) {
      if (auto s = classifier.Add(names[i], concepts[i]); !s.ok()) {
        std::fprintf(stderr, "add failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    double ms = 0;
    Status status = Status::Ok();
    ms = bench::TimeUs([&] { status = classifier.Classify(); }) / 1000.0;
    if (!status.ok()) {
      std::fprintf(stderr, "classify failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    return ms;
  };

  // Paired repeats with the two modes measured back-to-back in
  // alternating order: machine-load drift over the measurement window
  // hits both sides of a pair equally, so the per-pair on/off ratio
  // cancels it, and the median over pairs shrugs off the occasional
  // slow window that would trap a min-of-repeats estimate on a shared
  // runner. The minima are still reported as the throughput floor. A
  // quick pair takes about 8 ms and single ratios spread by several
  // percent, so the quick gate needs many pairs for its median to stay
  // well inside the 3% budget.
  const int kRepeats = quick ? 128 : 20;
  obs::SetEnabled(false);
  classify_once();  // untimed warm-up: allocator, caches
  obs::SetEnabled(true);
  classify_once();
  double off_ms = 0, on_ms = 0;
  std::vector<double> e18_ratios;
  e18_ratios.reserve(static_cast<size_t>(kRepeats));
  for (int r = 0; r < kRepeats; ++r) {
    double off, on;
    if ((r & 1) == 0) {
      obs::SetEnabled(false);
      off = classify_once();
      obs::SetEnabled(true);
      on = classify_once();
    } else {
      obs::SetEnabled(true);
      on = classify_once();
      obs::SetEnabled(false);
      off = classify_once();
    }
    if (r == 0 || off < off_ms) off_ms = off;
    if (r == 0 || on < on_ms) on_ms = on;
    if (off > 0) e18_ratios.push_back(on / off);
  }
  obs::SetEnabled(true);
  const double overhead_pct = (MedianRatio(e18_ratios) - 1.0) * 100.0;

  bench::Table table({"mode", "classify min (ms)"});
  table.AddRow({"obs disabled", bench::Fmt(off_ms, 3)});
  table.AddRow({"obs enabled", bench::Fmt(on_ms, 3)});
  table.Print();
  std::printf("\n  overhead: %+.2f%% median of paired ratios (budget 3%%)\n\n",
              overhead_pct);

  // Microbenchmarks: cost per instrument operation in nanoseconds.
  obs::Histogram hist;
  obs::Counter counter;
  const size_t kOps = 2000000;
  obs::SetEnabled(true);
  const double hist_on_ns = bench::TimeUs([&] {
                              for (size_t i = 0; i < kOps; ++i) {
                                hist.Record(i & 0xfffff);
                              }
                            }) *
                            1000.0 / kOps;
  const double counter_on_ns = bench::TimeUs([&] {
                                 for (size_t i = 0; i < kOps; ++i) {
                                   counter.Add(1);
                                 }
                               }) *
                               1000.0 / kOps;
  obs::SetEnabled(false);
  const double hist_off_ns = bench::TimeUs([&] {
                               for (size_t i = 0; i < kOps; ++i) {
                                 hist.Record(i & 0xfffff);
                               }
                             }) *
                             1000.0 / kOps;
  obs::SetEnabled(true);

  std::printf("  instrument cost: histogram record %.1f ns, counter add"
              " %.1f ns, disabled record %.1f ns\n",
              hist_on_ns, counter_on_ns, hist_off_ns);

  // ---- E21: cluster-mode overhead on a 3-node fleet ------------------
  // Every timed request forwards (client -> third node -> owner), so the
  // enabled run pays two instrumented daemons per request: traces with
  // the FORWARD hop header on both sides, the forward-RTT histogram, and
  // the epoll loop histograms. The request unit is a BCHECK batch — the
  // documented bulk verb E20 drives capacity with — so the gate measures
  // per-request instrumentation against a representative request, not a
  // bare syscall ping-pong. Same paired-ratio discipline as E18; the
  // budget is 5% because two event loops are on the path.
  bench::Section("E21: cluster overhead, forwarded BCHECKs on 3 nodes");
  double cluster_off_ms = 0, cluster_on_ms = 0, cluster_overhead_pct = 0;
  const size_t kBatchPairs = 64;
  const size_t kForwardedBatches = quick ? 80 : 160;
  // As for E18, the quick gate needs many short pairs.
  const int kClusterRepeats = quick ? 64 : 24;
  {
    Rng crng(20260808);
    gen::DlGenOptions gen_options;
    gen_options.num_classes = 6;
    gen_options.num_attrs = 3;
    gen_options.num_queries = 6;
    const gen::GeneratedDl dl = gen::GenerateDlSource(crng, gen_options);

    auto fleet = ClusterFixture::Start(3, /*replicas=*/1);
    if (fleet == nullptr) {
      std::fprintf(stderr, "cluster fixture failed to start\n");
      return 1;
    }
    const cluster::Ring ring(fleet->config.nodes);
    // A session plus a node that is neither its owner nor its replica:
    // every CHECK sent there takes the FORWARD hop.
    std::string session;
    size_t owner = 0, third = 0;
    for (int i = 0;; ++i) {
      session = StrCat("e21-", i);
      owner = ring.OwnerOf(session);
      const std::vector<size_t> replicas = ring.ReplicasOf(session, 1);
      third = 3 - owner - replicas[0];
      if (third != owner && third != replicas[0]) break;
    }
    auto via_owner = server::Client::Connect(
        "127.0.0.1", static_cast<uint16_t>(fleet->config.nodes[owner].port));
    auto via_third = server::Client::Connect(
        "127.0.0.1", static_cast<uint16_t>(fleet->config.nodes[third].port));
    if (!via_owner.ok() || !via_third.ok() ||
        !via_owner->Load(session, dl.source).ok()) {
      std::fprintf(stderr, "cluster fixture LOAD failed\n");
      return 1;
    }
    const std::vector<std::string>& q = dl.query_names;
    std::vector<std::pair<std::string, std::string>> batch;
    batch.reserve(kBatchPairs);
    for (size_t i = 0; i < kBatchPairs; ++i) {
      batch.emplace_back(q[i % q.size()], q[(i + i / q.size()) % q.size()]);
    }
    auto forwarded_batches = [&]() -> double {
      return bench::TimeUs([&] {
               for (size_t b = 0; b < kForwardedBatches; ++b) {
                 auto verdicts = via_third->CheckBatch(session, batch);
                 if (!verdicts.ok()) {
                   std::fprintf(stderr, "forwarded BCHECK failed: %s\n",
                                verdicts.status().ToString().c_str());
                   std::exit(1);
                 }
               }
             }) /
             1000.0;
    };
    obs::SetEnabled(false);
    forwarded_batches();  // warm-up: memo shards, peer pools, page cache
    obs::SetEnabled(true);
    forwarded_batches();
    // Paired-ratio discipline (see the E18 loop comment) — doubly
    // important here, where roundtrip-bound timings see noise windows
    // several times larger than the true overhead.
    std::vector<double> ratios;
    ratios.reserve(static_cast<size_t>(kClusterRepeats));
    for (int r = 0; r < kClusterRepeats; ++r) {
      double off, on;
      if ((r & 1) == 0) {
        obs::SetEnabled(false);
        off = forwarded_batches();
        obs::SetEnabled(true);
        on = forwarded_batches();
      } else {
        obs::SetEnabled(true);
        on = forwarded_batches();
        obs::SetEnabled(false);
        off = forwarded_batches();
      }
      if (r == 0 || off < cluster_off_ms) cluster_off_ms = off;
      if (r == 0 || on < cluster_on_ms) cluster_on_ms = on;
      if (off > 0) ratios.push_back(on / off);
    }
    obs::SetEnabled(true);
    fleet->ShutdownAll();
    cluster_overhead_pct = (MedianRatio(ratios) - 1.0) * 100.0;
  }
  bench::Table ctable({"mode", "forwarded BCHECKs min (ms)"});
  ctable.AddRow({"obs disabled", bench::Fmt(cluster_off_ms, 3)});
  ctable.AddRow({"obs enabled", bench::Fmt(cluster_on_ms, 3)});
  ctable.Print();
  std::printf(
      "\n  cluster overhead: %+.2f%% median of paired ratios (budget 5%%)\n\n",
      cluster_overhead_pct);

  bench::JsonWriter json;
  json.Add("bench", std::string("obs_overhead"));
  json.Add("quick", quick);
  json.Add("workload", std::string("classify_enhanced"));
  json.Add("catalog_concepts", concepts.size());
  json.Add("repeats", kRepeats);
  json.Add("classify_off_ms", off_ms);
  json.Add("classify_on_ms", on_ms);
  json.Add("overhead_pct", overhead_pct);
  json.Add("budget_pct", 3.0);
  json.Add("histogram_record_ns", hist_on_ns);
  json.Add("counter_add_ns", counter_on_ns);
  json.Add("disabled_record_ns", hist_off_ns);
  json.Add("cluster_nodes", 3);
  json.Add("cluster_forwarded_batches", kForwardedBatches);
  json.Add("cluster_batch_pairs", kBatchPairs);
  json.Add("cluster_repeats", kClusterRepeats);
  json.Add("cluster_off_ms", cluster_off_ms);
  json.Add("cluster_on_ms", cluster_on_ms);
  json.Add("cluster_overhead_pct", cluster_overhead_pct);
  json.Add("cluster_budget_pct", 5.0);
  bench::AddHostStamp(json);
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", out_path.c_str());

  if (overhead_pct > 3.0) {
    std::fprintf(stderr, "FAIL: observability overhead %.2f%% > 3%%\n",
                 overhead_pct);
    return 1;
  }
  if (cluster_overhead_pct > 5.0) {
    std::fprintf(stderr, "FAIL: cluster observability overhead %.2f%% > 5%%\n",
                 cluster_overhead_pct);
    return 1;
  }
  std::printf("  PASS: overhead within budget\n");
  return 0;
}
