// Cluster-mode tests: the consistent-hash ring (determinism, balance,
// replica placement), membership parsing, the retry/backoff policy of
// the cluster client (no sockets involved), and end-to-end fleets of
// in-process daemons — forwarding, replica reads, the REPL sequence
// protocol, and read failover after killing a session's owner.
#include "cluster/cluster_client.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "cluster/membership.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "gen/dl_gen.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"

namespace oodb::cluster {
namespace {

TEST(Cluster, ParseClusterSpecAcceptsAndRejects) {
  auto nodes = ParseClusterSpec("127.0.0.1:7001,127.0.0.1:7002");
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  ASSERT_EQ(nodes->size(), 2u);
  EXPECT_EQ((*nodes)[0].host, "127.0.0.1");
  EXPECT_EQ((*nodes)[0].port, 7001);
  EXPECT_EQ((*nodes)[1].ToString(), "127.0.0.1:7002");

  EXPECT_FALSE(ParseClusterSpec("").ok());
  EXPECT_FALSE(ParseClusterSpec("127.0.0.1:7001,").ok());
  EXPECT_FALSE(ParseClusterSpec("127.0.0.1").ok());            // no port
  EXPECT_FALSE(ParseClusterSpec("127.0.0.1:0").ok());          // bad port
  EXPECT_FALSE(ParseClusterSpec("127.0.0.1:70000").ok());      // bad port
  EXPECT_FALSE(ParseClusterSpec("127.0.0.1:x").ok());          // bad port
  EXPECT_FALSE(
      ParseClusterSpec("127.0.0.1:7001,127.0.0.1:7001").ok());  // dup

  EXPECT_EQ(SelfIndex(*nodes, 7002), 1u);
  EXPECT_EQ(SelfIndex(*nodes, 7999), kNotAMember);
}

TEST(Cluster, RingIsDeterministicAcrossInstances) {
  auto nodes = ParseClusterSpec(
      "127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004");
  ASSERT_TRUE(nodes.ok());
  const Ring a(*nodes);
  const Ring b(*nodes);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = StrCat("session-", i);
    EXPECT_EQ(a.OwnerOf(key), b.OwnerOf(key));
    EXPECT_EQ(a.ReplicasOf(key, 2), b.ReplicasOf(key, 2));
  }
}

TEST(Cluster, RingBalancesKeysAcrossFourNodes) {
  auto nodes = ParseClusterSpec(
      "127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004");
  ASSERT_TRUE(nodes.ok());
  const Ring ring(*nodes);
  std::vector<size_t> owned(4, 0);
  for (int i = 0; i < 1000; ++i) {
    const size_t owner = ring.OwnerOf(StrCat("session-", i));
    ASSERT_LT(owner, 4u);
    owned[owner]++;
  }
  // 64 vnodes/node keeps every node within a loose band of fair share
  // (250): no node starves (<5%) or hogs (>60%).
  for (size_t n = 0; n < 4; ++n) {
    EXPECT_GE(owned[n], 50u) << "node " << n << " starves";
    EXPECT_LE(owned[n], 600u) << "node " << n << " hogs";
  }
}

TEST(Cluster, ReplicasAreDistinctNonOwnersCappedByFleetSize) {
  auto nodes = ParseClusterSpec(
      "127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003");
  ASSERT_TRUE(nodes.ok());
  const Ring ring(*nodes);
  for (int i = 0; i < 200; ++i) {
    const std::string key = StrCat("s", i);
    const size_t owner = ring.OwnerOf(key);
    for (const size_t r : {size_t{1}, size_t{2}, size_t{5}}) {
      const std::vector<size_t> replicas = ring.ReplicasOf(key, r);
      EXPECT_EQ(replicas.size(), std::min(r, size_t{2}));  // n-1 = 2
      std::set<size_t> seen;
      for (const size_t node : replicas) {
        EXPECT_NE(node, owner);
        EXPECT_TRUE(seen.insert(node).second) << "duplicate replica";
        EXPECT_TRUE(ring.IsReplicaOf(key, node, r));
      }
      EXPECT_FALSE(ring.IsReplicaOf(key, owner, r));
      // The one routing rule: the owner, then, for reads, its replicas.
      std::vector<size_t> reads{owner};
      reads.insert(reads.end(), replicas.begin(), replicas.end());
      EXPECT_EQ(ring.ServersOf(key, r, /*idempotent=*/true), reads);
      EXPECT_EQ(ring.ServersOf(key, r, /*idempotent=*/false),
                std::vector<size_t>{owner});
    }
  }
}

TEST(Cluster, BackoffDelaysStayInTheJitteredEnvelopeAndCap) {
  const BackoffPolicy policy{/*base_ms=*/5, /*cap_ms=*/200,
                             /*max_attempts=*/6, /*jitter=*/0.5};
  Rng rng(42);
  for (size_t retry = 0; retry < 12; ++retry) {
    const uint64_t full =
        std::min<uint64_t>(200, uint64_t{5} << retry);  // deterministic cap
    for (int sample = 0; sample < 64; ++sample) {
      const uint64_t d = policy.DelayMs(retry, rng);
      EXPECT_LE(d, full) << "retry " << retry;
      EXPECT_GE(d, full / 2) << "retry " << retry;  // jitter floor (1-j)*d
    }
  }
  // Far past the cap the shift must not overflow.
  Rng rng2(7);
  EXPECT_LE(policy.DelayMs(63, rng2), 200u);
  // Zero jitter is fully deterministic.
  const BackoffPolicy exact{10, 400, 4, 0.0};
  Rng rng3(1);
  EXPECT_EQ(exact.DelayMs(0, rng3), 10u);
  EXPECT_EQ(exact.DelayMs(1, rng3), 20u);
  EXPECT_EQ(exact.DelayMs(2, rng3), 40u);
  EXPECT_EQ(exact.DelayMs(10, rng3), 400u);  // capped
}

TEST(Cluster, OnlyReadVerbsAreIdempotent) {
  const auto idempotent = [](const char* verb) {
    return server::InfoOf(server::VerbOf(verb)).idempotent;
  };
  // Retried across nodes / served by replicas:
  for (const char* verb :
       {"CHECK", "BCHECK", "CLASSIFY", "STATS", "PING", "METRICS", "TRACE"}) {
    EXPECT_TRUE(idempotent(verb)) << verb;
  }
  // Never replayed blindly:
  for (const char* verb : {"LOAD", "STATE", "VIEW", "UNDEFINE", "OPTIMIZE",
                           "SHUTDOWN", "SLEEP", "REPL", "FORWARD", "check"}) {
    EXPECT_FALSE(idempotent(verb)) << verb;
  }
}

// ---- In-process fleets --------------------------------------------------

// Binds an ephemeral loopback port, reads it back, and releases it for
// the daemon to rebind. A racing process could steal it in the gap; the
// tests assert Start() so a theft fails loudly, not mysteriously.
int GrabPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

struct Fleet {
  ClusterConfig config;  // self = kNotAMember (the client's view)
  std::vector<std::unique_ptr<server::Server>> servers;

  // `slow_threshold_ms` feeds every node's slow-query log; 0 logs every
  // request (the trace-propagation tests), 100 (the default) logs none
  // of the fast test traffic.
  static std::unique_ptr<Fleet> Start(size_t n, size_t replicas,
                                      int64_t slow_threshold_ms = 100) {
    auto fleet = std::make_unique<Fleet>();
    for (size_t i = 0; i < n; ++i) {
      fleet->config.nodes.push_back(
          NodeAddr{"127.0.0.1", GrabPort()});
    }
    fleet->config.replicas = replicas;
    for (size_t i = 0; i < n; ++i) {
      fleet->servers.push_back(StartNode(fleet->config, i,
                                         slow_threshold_ms));
      if (fleet->servers.back() == nullptr) return nullptr;
    }
    return fleet;
  }

  // Starts (or restarts, after a Shutdown) one node of the fleet on its
  // spec'd port.
  static std::unique_ptr<server::Server> StartNode(
      const ClusterConfig& config, size_t i, int64_t slow_threshold_ms) {
    server::ServerOptions options;
    options.port = static_cast<uint16_t>(config.nodes[i].port);
    // ≥2 workers per node: a forwarded mutation occupies one worker on
    // the forwarder while the owner's replication push back to it
    // needs another (docs/cluster.md §6).
    options.num_threads = 2;
    options.slow_threshold_ms = slow_threshold_ms;
    options.cluster = config;
    options.cluster.self = i;
    auto server = std::make_unique<server::Server>(std::move(options));
    auto port = server->Start();
    EXPECT_TRUE(port.ok()) << "node " << i << ": " << port.status();
    if (!port.ok()) return nullptr;
    return server;
  }

  void ShutdownAll() {
    for (auto& server : servers) {
      if (server != nullptr) server->Shutdown();
    }
  }
};

server::Client MustConnect(int port) {
  auto client = server::Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(client).value();
}

// One series of a node's registry, from a fresh snapshot.
double Series(server::Server& node, const std::string& name) {
  return obs::SampleValue(node.registry().Snapshot(), name);
}

std::string TinyCorpus() {
  Rng rng(1234);
  gen::DlGenOptions options;
  options.num_classes = 6;
  options.num_attrs = 3;
  options.num_queries = 6;
  return gen::GenerateDlSource(rng, options).source;
}

TEST(Cluster, TwoNodeFleetForwardsMutationsAndServesReplicaReads) {
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  const Ring ring(fleet->config.nodes);
  // With two nodes and R=1, every session lives on both: one owner, one
  // replica. Address the NON-owner directly, so LOAD/VIEW exercise the
  // FORWARD proxy and CHECK the replica-read path.
  const std::string session = "fwd-session";
  const size_t owner = ring.OwnerOf(session);
  const size_t other = 1 - owner;

  const std::string source = TinyCorpus();
  server::Client via_other =
      MustConnect(fleet->config.nodes[other].port);
  auto loaded = via_other.Load(session, source);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Errors proxy back unchanged too (code intact through FORWARD).
  auto bad = via_other.Check(session, "NoSuchClass", "AlsoMissing");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("not_found"), std::string::npos)
      << bad.status().message();

  // Same verdicts straight from the owner and via the replica.
  server::Client via_owner =
      MustConnect(fleet->config.nodes[owner].port);
  size_t compared = 0;
  for (const char* c : {"Q0", "Q1", "Q2"}) {
    for (const char* d : {"Q0", "Q1", "Q2"}) {
      auto want = via_owner.Check(session, c, d);
      auto got = via_other.Check(session, c, d);
      ASSERT_EQ(want.ok(), got.ok()) << c << " vs " << d;
      if (want.ok()) {
        EXPECT_EQ(*want, *got) << c << " vs " << d;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0u);

  // The forwarder proxied the mutations; the replica served the reads
  // locally; the owner replicated the LOAD.
  server::Server& other_node = *fleet->servers[other];
  EXPECT_GE(Series(other_node, "oodb_server_forwards_total"), 1);
  EXPECT_GE(Series(other_node, "oodb_server_replica_reads_total"), 1);
  EXPECT_GE(Series(other_node, "oodb_server_repl_applies_total"), 1);
  EXPECT_EQ(Series(*fleet->servers[owner], "oodb_server_forwards_total"), 0);

  // STATS grows a cluster line in cluster mode, its keys in this order.
  auto stats = via_owner.Stats();
  ASSERT_TRUE(stats.ok());
  std::string cluster_line;
  for (std::string_view line : StrSplit(*stats, '\n')) {
    if (line.rfind("cluster: ", 0) == 0) cluster_line = std::string(line);
  }
  EXPECT_TRUE(std::regex_match(
      cluster_line,
      std::regex(StrCat(
          "cluster: nodes=2 self=", owner,
          " replicas=1 forwards=\\d+ forward_failures=\\d+ "
          "replica_reads=\\d+ repl_applies=\\d+ repl_dups=\\d+ "
          "repl_gaps=\\d+ repl_sent=\\d+ repl_acked=\\d+ "
          "repl_failures=\\d+ repl_resyncs=\\d+ repl_max_lag=\\d+"))))
      << *stats;
  fleet->ShutdownAll();
}

TEST(Cluster, ReplAppliesInSequenceAcceptsDupsAndRejectsGaps) {
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  // Drive the replica protocol by hand against node 0, whatever it owns:
  // REPL applies are exempt from ownership checks by design.
  server::Client client = MustConnect(fleet->config.nodes[0].port);
  const std::string source = TinyCorpus();

  const std::string load = StrCat("REPL 1 LOAD rs ", source.size());
  auto r = client.Roundtrip(load, &source);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "applied=1");

  // Duplicate delivery acks idempotently.
  r = client.Roundtrip(load, &source);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "applied=1 dup=true");

  // A gap is rejected with the replica's cursor.
  r = client.Roundtrip("REPL 3 VIEW rs Q0");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("replica_gap"), std::string::npos);
  EXPECT_NE(r.status().message().find("have=1"), std::string::npos);

  // The in-sequence mutation lands, and the session answers reads.
  r = client.Roundtrip("REPL 2 VIEW rs Q0");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "applied=2");
  auto verdict = client.Check("rs", "Q0", "Q0");
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(*verdict);

  // A LOAD is a valid resync point at any forward sequence number.
  r = client.Roundtrip(StrCat("REPL 7 LOAD rs ", source.size()), &source);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "applied=7");

  // Non-mutations may not ride REPL.
  r = client.Roundtrip("REPL 8 CHECK rs Q0 Q0");
  ASSERT_FALSE(r.ok());

  const std::vector<obs::Sample> samples =
      fleet->servers[0]->registry().Snapshot();
  EXPECT_EQ(obs::SampleValue(samples, "oodb_server_repl_applies_total"), 3);
  EXPECT_GE(obs::SampleValue(samples, "oodb_server_repl_dups_total"), 1);
  EXPECT_GE(obs::SampleValue(samples, "oodb_server_repl_gaps_total"), 1);
  fleet->ShutdownAll();
}

TEST(Cluster, ClusterClientRoutesToOwnersAndFailsOverReads) {
  auto fleet = Fleet::Start(3, 1);
  ASSERT_NE(fleet, nullptr);
  BackoffPolicy backoff;
  backoff.base_ms = 1;
  backoff.cap_ms = 20;
  backoff.max_attempts = 6;
  ClusterClient client(fleet->config, backoff);

  // Two sessions with different owners, so killing one owner leaves the
  // other session untouched.
  const std::string source = TinyCorpus();
  std::string a, b;
  for (int i = 0; a.empty() || b.empty(); ++i) {
    ASSERT_LT(i, 1000);
    const std::string name = StrCat("sess-", i);
    if (a.empty()) {
      a = name;
      continue;
    }
    if (client.OwnerOf(name) != client.OwnerOf(a)) b = name;
  }
  for (const std::string& s : {a, b}) {
    auto loaded = client.Load(s, source);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto extent = client.DefineView(s, "Q0");
    ASSERT_TRUE(extent.ok()) << extent.status();
  }

  // Baseline verdicts while everything is up.
  auto before_a = client.Check(a, "Q0", "Q1");
  auto before_b = client.Check(b, "Q0", "Q1");
  ASSERT_TRUE(before_a.ok() && before_b.ok());

  // Kill the owner of `a`. Reads on `a` must keep answering (served by
  // its replica within the retry budget), with unchanged verdicts; `b`
  // is unaffected; mutations on `a` fail fast (no owner to apply them).
  const size_t owner_a = client.OwnerOf(a);
  fleet->servers[owner_a]->Shutdown();
  fleet->servers[owner_a].reset();

  for (int i = 0; i < 5; ++i) {
    auto after = client.Check(a, "Q0", "Q1");
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(*after, *before_a);
  }
  EXPECT_GE(client.retry_stats().failovers, 1u);
  auto after_b = client.Check(b, "Q0", "Q1");
  ASSERT_TRUE(after_b.ok()) << after_b.status();
  EXPECT_EQ(*after_b, *before_b);
  EXPECT_FALSE(client.DefineView(a, "Q1").ok());
  fleet->ShutdownAll();
}

// A stalled owner — both of its workers parked — is a transport fault to
// the cluster client once the pool's deadline expires: a read fails over
// to the replica, which answers with the owner's verdict long before the
// owner's workers wake (docs/cluster.md §4).
TEST(Cluster, ReadsFailOverFromAStalledOwnerAfterThePoolDeadline) {
  using Clock = std::chrono::steady_clock;
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  BackoffPolicy backoff;
  backoff.base_ms = 1;
  backoff.cap_ms = 20;
  ClusterClient client(fleet->config, backoff);
  const std::string session = "stalled";
  ASSERT_TRUE(client.Load(session, TinyCorpus()).ok());
  const size_t owner = client.OwnerOf(session);

  constexpr int64_t kParkMs = kDefaultPeerDeadlineMs + 2000;
  const Clock::time_point parked = Clock::now();
  std::vector<server::Client> sleepers;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    sleepers.push_back(MustConnect(fleet->config.nodes[owner].port));
    ASSERT_TRUE(sleepers.back().EnableBinary().ok());
    auto id = sleepers.back().SubmitLine(StrCat("SLEEP ", kParkMs));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
    ASSERT_TRUE(sleepers.back().Flush().ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A pair no node has checked, so that the owner's loop cannot answer it
  // from the memo: it waits for a worker.
  auto verdict = client.Check(session, "Q0", "Q1");
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          Clock::now() - parked)
                          .count();
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_LT(waited, kParkMs) << "the read waited for the stalled owner";
  EXPECT_GE(client.retry_stats().failovers, 1u);

  // The owner, awake again, gives the same verdict.
  for (size_t i = 0; i < sleepers.size(); ++i) {
    EXPECT_TRUE(sleepers[i].Await(ids[i]).ok());
  }
  auto owner_verdict =
      client.CallAt(owner, StrCat("CHECK ", session, " Q0 Q1"));
  ASSERT_TRUE(owner_verdict.ok()) << owner_verdict.status();
  EXPECT_EQ(*owner_verdict, *verdict ? "subsumed=true" : "subsumed=false");
  fleet->ShutdownAll();
}

TEST(Cluster, ForwardedRequestTraceCarriesOriginRouteAndPeer) {
  // Threshold 0: every request lands in the slow-query log, so the hop
  // metadata of a single forwarded CHECK is inspectable on both sides.
  auto fleet = Fleet::Start(3, 1, /*slow_threshold_ms=*/0);
  ASSERT_NE(fleet, nullptr);
  const Ring ring(fleet->config.nodes);
  // Find a session with a node that is neither owner nor replica: a
  // CHECK addressed there must take the FORWARD hop to the owner.
  std::string session;
  size_t owner = 0, third = 0;
  for (int i = 0;; ++i) {
    ASSERT_LT(i, 1000);
    session = StrCat("hop-", i);
    owner = ring.OwnerOf(session);
    const std::vector<size_t> replicas = ring.ReplicasOf(session, 1);
    ASSERT_EQ(replicas.size(), 1u);
    third = 3 - owner - replicas[0];
    if (third != owner && third != replicas[0]) break;
  }

  const std::string source = TinyCorpus();
  server::Client via_owner = MustConnect(fleet->config.nodes[owner].port);
  auto loaded = via_owner.Load(session, source);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  server::Client via_third = MustConnect(fleet->config.nodes[third].port);
  auto verdict = via_third.Check(session, "Q0", "Q0");
  ASSERT_TRUE(verdict.ok()) << verdict.status();

  const size_t fwd = static_cast<size_t>(obs::Phase::kForward);
  const size_t rep = static_cast<size_t>(obs::Phase::kReply);

  // Forwarder side: an ordinary client request whose cost is dominated
  // by the kForward span, attributed to the owner peer.
  obs::TraceContext fwd_trace;
  bool found_fwd = false;
  for (const obs::TraceContext& t :
       fleet->servers[third]->slow_log().Last(16)) {
    if (t.verb == "CHECK") {
      fwd_trace = t;
      found_fwd = true;
      break;
    }
  }
  ASSERT_TRUE(found_fwd);
  EXPECT_EQ(fwd_trace.route, "client");
  EXPECT_EQ(fwd_trace.session, session);
  EXPECT_EQ(fwd_trace.origin_trace_id, 0u);
  EXPECT_EQ(fwd_trace.peer, fleet->config.nodes[owner].ToString());
  EXPECT_GT(fwd_trace.phase_ns[fwd], 0u);
  // The hop breakdown stays within the request total: the forward and
  // reply spans are disjoint slices of total_ns.
  EXPECT_LE(fwd_trace.phase_ns[fwd] + fwd_trace.phase_ns[rep],
            fwd_trace.total_ns);

  // Owner side: the same request arrives as route=forwarded, naming the
  // forwarder as its peer and carrying the forwarder's trace id.
  obs::TraceContext own_trace;
  bool found_own = false;
  for (const obs::TraceContext& t :
       fleet->servers[owner]->slow_log().Last(16)) {
    if (t.verb == "FORWARD" && t.route == "forwarded") {
      own_trace = t;
      found_own = true;
      break;
    }
  }
  ASSERT_TRUE(found_own);
  EXPECT_EQ(own_trace.session, session);
  EXPECT_EQ(own_trace.peer, fleet->config.nodes[third].ToString());
  EXPECT_EQ(own_trace.origin_trace_id, fwd_trace.id);
  fleet->ShutdownAll();
}

TEST(Cluster, ReplicatorLagArithmeticAcrossDupGapResync) {
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  const Ring ring(fleet->config.nodes);
  // Pose as node 0's owner half with our own Replicator, so the lag
  // arithmetic (owner seq − highest replicated seq) is observable
  // directly against node 1 as the live replica.
  std::string session;
  for (int i = 0;; ++i) {
    ASSERT_LT(i, 1000);
    session = StrCat("lag-", i);
    if (ring.OwnerOf(session) == 0) break;
  }
  ClusterConfig config = fleet->config;
  config.self = 0;
  PeerPool pool(config.nodes);
  Replicator repl(config, ring, &pool);
  const std::string source = TinyCorpus();

  // Two unflushed mutations: lag counts entries, max == sum with one
  // replica slot.
  repl.Record(session, server::Verb::kLoad,
              StrCat("LOAD ", session, " ", source.size()),
              source);
  repl.Record(session, server::Verb::kView, StrCat("VIEW ", session, " Q0"),
              "");
  Replicator::Stats s = repl.stats();
  EXPECT_EQ(s.max_lag, 2u);
  EXPECT_EQ(s.lag_sum, 2u);

  repl.Flush(session);
  s = repl.stats();
  EXPECT_EQ(s.sent, 2u);
  EXPECT_EQ(s.acked, 2u);
  EXPECT_EQ(s.max_lag, 0u);
  EXPECT_EQ(s.lag_sum, 0u);

  // Dup: a restarted owner re-pushes from sequence 1; the replica
  // answers dup=true, which still advances the cursor — no failure, no
  // residual lag.
  Replicator fresh(config, ring, &pool);
  fresh.Record(session, server::Verb::kLoad,
               StrCat("LOAD ", session, " ", source.size()),
               source);
  fresh.Flush(session);
  const Replicator::Stats fs = fresh.stats();
  EXPECT_EQ(fs.acked, 1u);
  EXPECT_EQ(fs.failures, 0u);
  EXPECT_EQ(fs.max_lag, 0u);

  // Gap + resync: restart the replica (its applied cursor is gone), then
  // push a fresh entry. The first attempt may burn a stale pooled
  // connection; the push after that hits `replica_gap have=0`, rewinds,
  // and replays the retained log from its leading LOAD.
  fleet->servers[1]->Shutdown();
  fleet->servers[1].reset();
  fleet->servers[1] = Fleet::StartNode(fleet->config, 1, 100);
  ASSERT_NE(fleet->servers[1], nullptr);
  repl.Record(session, server::Verb::kView, StrCat("VIEW ", session, " Q1"),
              "");
  for (int i = 0; i < 5 && repl.stats().resyncs == 0; ++i) {
    repl.Flush(session);
  }
  s = repl.stats();
  EXPECT_GE(s.resyncs, 1u);
  EXPECT_EQ(s.max_lag, 0u);
  EXPECT_EQ(s.lag_sum, 0u);

  // The resynced replica answers reads again.
  server::Client via_replica = MustConnect(config.nodes[1].port);
  auto verdict = via_replica.Check(session, "Q0", "Q0");
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(*verdict);
  fleet->ShutdownAll();
}

TEST(Cluster, HealthVerbReportsDegradationAndPeerDeadlinesFire) {
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  server::Client node0 = MustConnect(fleet->config.nodes[0].port);

  // Healthy fleet: HEALTH is ok and carries the degraded criteria.
  auto health = node0.Roundtrip("HEALTH");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health,
            "status=ok peers_down=0 repl_lag_max=0 repl_lag_sum=0");

  // A borrowed pool connection with a short deadline: a worker parked on
  // a SLEEPing peer fails after ~the deadline, and the fault is
  // classified as a timeout in the per-peer tallies.
  PeerPool pool(fleet->config.nodes, /*deadline_ms=*/100);
  auto borrowed = pool.Acquire(1);
  ASSERT_TRUE(borrowed.ok()) << borrowed.status();
  auto slow = (*borrowed)->Roundtrip("SLEEP 2000");
  ASSERT_FALSE(slow.ok());
  EXPECT_TRUE((*borrowed)->timed_out());
  pool.Release(1, std::move(*borrowed), /*healthy=*/false);
  const std::vector<PeerPool::PeerStats> ps = pool.stats();
  EXPECT_EQ(ps[1].timeouts, 1u);
  EXPECT_EQ(ps[1].consecutive_failures, 1u);

  // Kill the replica and mutate a session node 0 owns: the push fails,
  // the peer shows down, the replica lags — HEALTH flips to degraded and
  // the cluster gauges expose the same facts.
  const Ring ring(fleet->config.nodes);
  std::string session;
  for (int i = 0;; ++i) {
    ASSERT_LT(i, 1000);
    session = StrCat("deg-", i);
    if (ring.OwnerOf(session) == 0) break;
  }
  fleet->servers[1]->Shutdown();
  fleet->servers[1].reset();
  const std::string source = TinyCorpus();
  auto loaded = node0.Load(session, source);
  ASSERT_TRUE(loaded.ok()) << loaded.status();  // replication best-effort

  health = node0.Roundtrip("HEALTH");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("status=degraded"), std::string::npos) << *health;
  EXPECT_NE(health->find("repl_lag_max=1"), std::string::npos) << *health;

  auto metrics = node0.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  auto samples = obs::ParseExposition(*metrics);
  ASSERT_TRUE(samples.ok()) << samples.status();
  const obs::Labels peer1 = {
      {"peer", fleet->config.nodes[1].ToString()}};
  EXPECT_EQ(obs::SampleValue(*samples, "oodb_cluster_peer_up", peer1, -1),
            0.0);
  EXPECT_EQ(obs::SampleValue(*samples, "oodb_cluster_repl_lag_max"), 1.0);
  EXPECT_EQ(obs::SampleValue(*samples, "oodb_cluster_repl_lag_sum"), 1.0);
  fleet->ShutdownAll();
}

// The inner line of a FORWARD envelope is checked like a bare one: a
// wrapped LOAD/STATE with no session once crashed the node (SIGSEGV).
TEST(Cluster, ForwardedLoadOrStateWithoutASessionIsAnErrNotACrash) {
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  server::Client client = MustConnect(fleet->config.nodes[0].port);
  ASSERT_TRUE(client.SetDeadline(5000).ok());
  for (const char* line : {"FORWARD LOAD", "FORWARD @0:1 STATE"}) {
    auto reply = client.Roundtrip(line);
    ASSERT_FALSE(reply.ok()) << line;
    EXPECT_EQ(reply.status().message().rfind("proto: ", 0), 0u)
        << reply.status();
    EXPECT_TRUE(client.Ping().ok()) << line;
  }
  fleet->ShutdownAll();
}

// The table's on_loop verbs are answered on the loop only when bare.
// Inside FORWARD they reach the dispatcher, PING and SHUTDOWN with no
// arguments: they are no command there, and no session lookup reads
// past their empty argument list.
TEST(Cluster, ForwardedLoopVerbsAreUnknownCommands) {
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  server::Client client = MustConnect(fleet->config.nodes[0].port);
  ASSERT_TRUE(client.SetDeadline(5000).ok());
  for (const server::VerbInfo& info : server::kVerbTable) {
    if (!info.on_loop) continue;
    auto reply = client.Roundtrip(StrCat("FORWARD ", info.name));
    ASSERT_FALSE(reply.ok()) << info.name;
    EXPECT_EQ(reply.status().message(),
              StrCat("proto: unknown command '", info.name, "'"));
    EXPECT_TRUE(client.Ping().ok()) << info.name;
  }
  fleet->ShutdownAll();
}

// A cluster node needs two workers (docs/cluster.md §6): the daemon
// raises a smaller pool to two, and leaves a single node's alone.
TEST(Cluster, ANodeRunsAtLeastTwoWorkers) {
  server::ServerOptions options;
  options.num_threads = 1;
  options.cluster.nodes = {NodeAddr{"127.0.0.1", 1}, NodeAddr{"127.0.0.1", 2}};
  options.cluster.self = 0;
  server::Server node(options);
  EXPECT_EQ(Series(node, "oodb_server_threads"), 2);
  options.cluster = ClusterConfig();
  server::Server single(options);
  EXPECT_EQ(Series(single, "oodb_server_threads"), 1);
}

// Every verb but SHUTDOWN (plus an unknown one) with 0 to 5 arguments,
// bare, inside FORWARD and inside REPL, over both framings of a 2-node
// fleet: each request gets exactly one reply and both nodes stay up.
TEST(Cluster, EveryVerbAtEveryArityGetsExactlyOneReplyInAFleet) {
  auto fleet = Fleet::Start(2, 1);
  ASSERT_NE(fleet, nullptr);
  server::Client text = MustConnect(fleet->config.nodes[0].port);
  server::Client binary = MustConnect(fleet->config.nodes[1].port);
  ASSERT_TRUE(text.SetDeadline(5000).ok());
  ASSERT_TRUE(binary.SetDeadline(5000).ok());
  ASSERT_TRUE(binary.EnableBinary().ok());
  for (const server::VerbInfo& info : server::kVerbTable) {
    if (info.verb == server::Verb::kShutdown) continue;
    std::string line = info.verb == server::Verb::kOther ? "FROB" : info.name;
    for (int n = 0; n <= 5; ++n) {
      for (const std::string& wrapped :
           {line, "FORWARD " + line, "REPL 1 " + line}) {
        for (server::Client* client : {&text, &binary}) {
          auto reply = client->Roundtrip(wrapped);
          EXPECT_NE(reply.status().code(), StatusCode::kInternal)
              << wrapped << ": " << reply.status();
          auto pong = client->Roundtrip("PING");
          ASSERT_TRUE(pong.ok()) << wrapped << ": " << pong.status();
          EXPECT_EQ(*pong, "pong") << wrapped;
        }
      }
      line += StrCat(" x", n);
    }
  }
  for (const auto& server : fleet->servers) {
    const std::vector<obs::Sample> samples = server->registry().Snapshot();
    EXPECT_EQ(obs::SampleValue(samples, "oodb_server_ok_total") +
                  obs::SampleValue(samples, "oodb_server_errors_total") +
                  obs::SampleValue(samples, "oodb_server_busy_total"),
              obs::SampleValue(samples, "oodb_server_requests_total"));
  }
  fleet->ShutdownAll();
}

}  // namespace
}  // namespace oodb::cluster
