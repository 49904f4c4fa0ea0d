// E20: cluster scaling + failover. Starts in-process daemon fleets of
// 1, 2 and 4 nodes sharing a consistent-hash ring (R=1), spreads 8
// sessions evenly over the ring, and drives each session from its own
// thread through the failover-aware ClusterClient:
//
//   A. scaling   — per batch, the driver sends `SLEEP <pad>` to the
//                  session's owner and then one BCHECK of 256 pairs.
//                  The pad models per-request session work and pins
//                  each batch to pad_ms of *owner worker time*, so
//                  aggregate capacity is worker-bound and additive in
//                  fleet size even on a single-CPU host (where raw
//                  CPU-bound checking cannot scale; the checks
//                  themselves are memo-warm and cheap). Reported
//                  checks/s therefore measures fleet capacity under a
//                  fixed per-batch cost, not single-node CPU.
//   B. failover  — a 3-node fleet, two sessions with distinct owners;
//                  the owner of one is shut down and reads on it must
//                  keep answering from its replica within the client's
//                  retry budget, with verdicts identical to before.
//
// Every wire verdict is verified against precomputed in-process
// SubsumptionChecker results. Writes BENCH_cluster.json; exits non-zero
// on any verdict mismatch, scaling-phase transport error, failover
// failure, or (full mode) 1→4 scaling below 2.5x.
//
// usage: bench_cluster [--quick] [--pad-ms=N] [--out=path]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "bench_util.h"
#include "cluster/cluster_client.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "gen/dl_gen.h"
#include "server/server.h"

namespace oodb {
namespace {

constexpr size_t kSessions = 8;
constexpr size_t kBatchSize = 256;

int Fail(const char* what) {
  std::fprintf(stderr, "bench_cluster: %s\n", what);
  return 1;
}

struct Fleet {
  cluster::ClusterConfig config;  // self = kNotAMember (the client view)
  std::vector<std::unique_ptr<server::Server>> servers;

  static std::unique_ptr<Fleet> Start(size_t n, size_t replicas) {
    auto fleet = std::make_unique<Fleet>();
    for (size_t i = 0; i < n; ++i) {
      const int port = bench::GrabPort();
      if (port < 0) return nullptr;
      fleet->config.nodes.push_back(cluster::NodeAddr{"127.0.0.1", port});
    }
    fleet->config.replicas = replicas;
    for (size_t i = 0; i < n; ++i) {
      server::ServerOptions options;
      options.port = static_cast<uint16_t>(fleet->config.nodes[i].port);
      options.num_threads = 2;  // docs/cluster.md §6: ≥2 in cluster mode
      options.max_pending = 256;
      options.cluster = fleet->config;
      options.cluster.self = i;
      auto server = std::make_unique<server::Server>(std::move(options));
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

// Picks kSessions names the ring spreads evenly: ceil-share per node, so
// every node owns sessions and the fleet's whole worker pool is in play.
std::vector<std::string> EvenSessions(const cluster::Ring& ring, size_t n) {
  const size_t share = kSessions / n;
  std::vector<size_t> owned(n, 0);
  std::vector<std::string> sessions;
  for (size_t i = 0; sessions.size() < kSessions && i < 100000; ++i) {
    const std::string name = StrCat("sess-", i);
    const size_t owner = ring.OwnerOf(name);
    if (owned[owner] >= share) continue;
    owned[owner]++;
    sessions.push_back(name);
  }
  return sessions;
}

struct ScalePhase {
  size_t fleet_size = 0;
  double checks_per_sec = 0;
  uint64_t checks = 0;
  uint64_t transport_errors = 0;
};

int Run(int argc, char** argv) {
  bool quick = false;
  uint64_t pad_ms = 5;
  std::string out = "BENCH_cluster.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--pad-ms=", 0) == 0) {
      pad_ms = std::stoul(arg.substr(9));
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: bench_cluster [--quick] [--pad-ms=N] [--out=path]\n");
      return 64;
    }
  }
  const size_t batches_per_session = quick ? 6 : 40;

  // ---- Seeded corpus with precomputed in-process verdicts ------------
  Rng rng(7);
  gen::DlGenOptions gen_options;
  gen_options.num_classes = 8;
  gen_options.num_attrs = 4;
  gen_options.num_queries = 8;
  gen::GeneratedDl dl = gen::GenerateDlSource(rng, gen_options);
  auto ref = bench::Reference::FromSource(dl.source);
  if (ref == nullptr) return Fail("generated schema failed to parse");

  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<bool> expected;
  for (const std::string& c : dl.query_names) {
    for (const std::string& d : dl.query_names) {
      auto verdict = ref->Check(c, d);
      if (!verdict.ok()) continue;
      pairs.emplace_back(c, d);
      expected.push_back(*verdict);
    }
  }
  if (pairs.size() < 16) return Fail("corpus unexpectedly small");

  std::atomic<uint64_t> mismatches{0};

  // ---- Phase A: scaling sweep over fleet sizes -----------------------
  const std::vector<size_t> kFleets = {1, 2, 4};
  std::vector<ScalePhase> phases;
  for (const size_t n : kFleets) {
    auto fleet = Fleet::Start(n, /*replicas=*/1);
    if (fleet == nullptr) return Fail("fleet failed to start");
    const cluster::Ring ring(fleet->config.nodes);
    const std::vector<std::string> sessions = EvenSessions(ring, n);
    if (sessions.size() != kSessions) return Fail("session spread failed");

    {
      cluster::ClusterClient loader(fleet->config);
      for (const std::string& s : sessions) {
        if (!loader.Load(s, dl.source).ok()) return Fail("LOAD failed");
      }
    }

    ScalePhase phase;
    phase.fleet_size = n;
    std::atomic<uint64_t> errors{0};
    std::vector<std::thread> threads;
    const std::string sleep_line = StrCat("SLEEP ", pad_ms);
    const auto wall_start = std::chrono::steady_clock::now();
    for (size_t t = 0; t < kSessions; ++t) {
      threads.emplace_back([&, t] {
        cluster::ClusterClient client(fleet->config);
        const std::string& session = sessions[t];
        const size_t owner = client.OwnerOf(session);
        for (size_t b = 0; b < batches_per_session; ++b) {
          // The pad charges this batch pad_ms of owner worker time.
          if (!client.CallAt(owner, sleep_line).ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Walk the corpus with a per-session offset so sessions are
          // not in lockstep on the shared memo shards.
          std::vector<std::pair<std::string, std::string>> batch;
          std::vector<bool> want;
          batch.reserve(kBatchSize);
          want.reserve(kBatchSize);
          for (size_t i = 0; i < kBatchSize; ++i) {
            const size_t at = (b * kBatchSize + i * (t + 1)) % pairs.size();
            batch.push_back(pairs[at]);
            want.push_back(expected[at]);
          }
          auto verdicts = client.CheckBatch(session, batch);
          if (!verdicts.ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          for (size_t i = 0; i < kBatchSize; ++i) {
            if ((*verdicts)[i] != want[i]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        errors.fetch_add(client.retry_stats().transport_errors,
                         std::memory_order_relaxed);
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    fleet->ShutdownAll();
    phase.checks = kSessions * batches_per_session * kBatchSize;
    phase.checks_per_sec =
        wall_s > 0 ? static_cast<double>(phase.checks) / wall_s : 0.0;
    phase.transport_errors = errors.load();
    phases.push_back(phase);
  }

  const double scaling_1_to_4 =
      phases[0].checks_per_sec > 0
          ? phases[2].checks_per_sec / phases[0].checks_per_sec
          : 0.0;

  bench::Section("E20: cluster BCHECK capacity vs fleet size");
  bench::Table table({"nodes", "sessions", "checks", "checks_per_sec",
                      "transport_errors"});
  for (const ScalePhase& phase : phases) {
    table.AddRow({std::to_string(phase.fleet_size),
                  std::to_string(kSessions), std::to_string(phase.checks),
                  bench::Fmt(phase.checks_per_sec, 0),
                  std::to_string(phase.transport_errors)});
  }
  table.Print();
  std::printf("pad %llu ms/batch; 1->4 scaling %.2fx\n",
              static_cast<unsigned long long>(pad_ms), scaling_1_to_4);

  // ---- Phase B: failover — reads survive losing the owner ------------
  uint64_t failover_reads = 0, failover_failures = 0, failovers = 0;
  {
    auto fleet = Fleet::Start(3, /*replicas=*/1);
    if (fleet == nullptr) return Fail("failover fleet failed to start");
    cluster::BackoffPolicy backoff;
    backoff.base_ms = 1;
    backoff.cap_ms = 50;
    cluster::ClusterClient client(fleet->config, backoff);

    // Two sessions with distinct owners: one loses its owner, the other
    // is the control.
    std::string doomed, control;
    for (int i = 0; control.empty(); ++i) {
      if (i > 10000) return Fail("no two sessions with distinct owners");
      const std::string name = StrCat("fo-", i);
      if (doomed.empty()) {
        doomed = name;
      } else if (client.OwnerOf(name) != client.OwnerOf(doomed)) {
        control = name;
      }
    }
    for (const std::string& s : {doomed, control}) {
      if (!client.Load(s, dl.source).ok()) return Fail("failover LOAD");
    }
    std::vector<bool> before_doomed, before_control;
    for (size_t i = 0; i < 16; ++i) {
      auto a = client.Check(doomed, pairs[i].first, pairs[i].second);
      auto b = client.Check(control, pairs[i].first, pairs[i].second);
      if (!a.ok() || !b.ok()) return Fail("failover baseline read");
      before_doomed.push_back(*a);
      before_control.push_back(*b);
    }

    const size_t owner = client.OwnerOf(doomed);
    fleet->servers[owner]->Shutdown();
    fleet->servers[owner].reset();

    for (size_t round = 0; round < (quick ? 2u : 8u); ++round) {
      for (size_t i = 0; i < 16; ++i) {
        ++failover_reads;
        auto a = client.Check(doomed, pairs[i].first, pairs[i].second);
        if (!a.ok() || *a != before_doomed[i]) ++failover_failures;
        ++failover_reads;
        auto b = client.Check(control, pairs[i].first, pairs[i].second);
        if (!b.ok() || *b != before_control[i]) ++failover_failures;
      }
    }
    failovers = client.retry_stats().failovers;
    fleet->ShutdownAll();
  }

  bench::Section("E20b: read failover after losing the owner");
  bench::Table fo({"reads", "failures", "client_failovers"});
  fo.AddRow({std::to_string(failover_reads), std::to_string(failover_failures),
             std::to_string(failovers)});
  fo.Print();

  // ---- Artifact ------------------------------------------------------
  uint64_t scale_errors = 0;
  for (const ScalePhase& phase : phases) {
    scale_errors += phase.transport_errors;
  }
  bench::JsonWriter json;
  json.Add("bench", std::string("cluster"));
  json.Add("quick", quick);
  json.Add("fleet_sizes", std::string("1,2,4"));
  json.Add("replicas", static_cast<uint64_t>(1));
  json.Add("sessions", static_cast<uint64_t>(kSessions));
  json.Add("batch_size", static_cast<uint64_t>(kBatchSize));
  json.Add("batches_per_session", static_cast<uint64_t>(batches_per_session));
  json.Add("pad_ms", pad_ms);
  json.Add("corpus_pairs", static_cast<uint64_t>(pairs.size()));
  json.Add("checks_per_sec_n1", phases[0].checks_per_sec);
  json.Add("checks_per_sec_n2", phases[1].checks_per_sec);
  json.Add("checks_per_sec_n4", phases[2].checks_per_sec);
  json.Add("scaling_1_to_4", scaling_1_to_4);
  json.Add("transport_errors", scale_errors);
  json.Add("verdict_mismatches", mismatches.load());
  json.Add("failover_reads", failover_reads);
  json.Add("failover_failures", failover_failures);
  json.Add("client_failovers", failovers);
  if (!json.WriteFile(out)) return Fail("cannot write artifact");
  std::printf("\nwrote %s\n", out.c_str());

  if (mismatches.load() != 0) return Fail("cluster verdicts diverged");
  if (scale_errors != 0) return Fail("transport errors in scaling phase");
  if (failover_failures != 0) return Fail("failover reads failed");
  if (failovers == 0) return Fail("failover phase never failed over");
  // The capacity model is only meaningful with full-length runs; --quick
  // keeps the correctness gates but not the scaling one.
  if (!quick && scaling_1_to_4 < 2.5) {
    return Fail("1->4 aggregate capacity scaling under 2.5x");
  }
  return 0;
}

}  // namespace
}  // namespace oodb

int main(int argc, char** argv) { return oodb::Run(argc, argv); }
