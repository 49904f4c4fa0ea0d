// Failover-aware client for a daemon fleet (docs/cluster.md §4).
//
// Routing: a request line whose verb names a session (server::kVerbTable)
// goes to that session's owner on the consistent-hash ring; every other
// line (PING, SLEEP, STATS with no argument, ...) goes to node 0. On a
// transport error the client retries — but only for the table's
// idempotent read verbs — with capped exponential backoff, rotating
// through the owner's replicas so reads keep answering while the owner
// is down. Mutations are never retried across nodes: they go to the
// owner and fail fast, because a duplicated DEFINE/LOAD is not safe to
// replay blindly.
#ifndef OODB_CLUSTER_CLUSTER_CLIENT_H_
#define OODB_CLUSTER_CLUSTER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "server/client.h"

namespace oodb::cluster {

// Capped exponential backoff with jitter. Delay for retry i is uniform
// in [(1 - jitter) * d, d] where d = min(base_ms << i, cap_ms): the full
// deterministic envelope is never exceeded, and the jitter keeps a
// thundering herd of clients from re-arriving in lockstep.
struct BackoffPolicy {
  uint64_t base_ms = 5;
  uint64_t cap_ms = 200;
  // Total tries per request, the first one included.
  size_t max_attempts = 6;
  double jitter = 0.5;

  // Delay before retry `retry_index` (0 = the first retry).
  uint64_t DelayMs(size_t retry_index, Rng& rng) const;
};

// Not thread-safe (same contract as server::Client): give each thread
// its own instance. Connections to nodes are dialed lazily, kept in
// binary mode, and redialed transparently after a failure.
class ClusterClient {
 public:
  struct RetryStats {
    uint64_t requests = 0;          // Call() invocations
    uint64_t retries = 0;           // extra attempts after a failure
    uint64_t busy_retries = 0;      // retries caused by BUSY
    uint64_t failovers = 0;         // reads answered by a non-owner
    uint64_t transport_errors = 0;  // connect/roundtrip transport faults
  };

  explicit ClusterClient(ClusterConfig config, BackoffPolicy backoff = {},
                         uint64_t seed = 0x0dd5eedULL);

  // Routes one request line to the owner of its session, retrying and
  // failing over per the class comment. Replies map exactly like
  // server::Client::Roundtrip.
  Result<std::string> Call(const std::string& line,
                           const std::string* payload = nullptr);

  // Sends one line to a specific node, no routing, no retries. For
  // diagnostics and benchmarks that must address a node directly.
  Result<std::string> CallAt(size_t node, const std::string& line,
                             const std::string* payload = nullptr);

  // ---- Typed wrappers mirroring server::Client ----
  Result<std::string> Load(const std::string& session,
                           const std::string& dl_source);
  Result<std::string> LoadState(const std::string& session,
                                const std::string& odb_source);
  Result<size_t> DefineView(const std::string& session,
                            const std::string& query_class);
  Result<bool> Check(const std::string& session, const std::string& c,
                     const std::string& d);
  Result<std::vector<bool>> CheckBatch(
      const std::string& session,
      const std::vector<std::pair<std::string, std::string>>& pairs);

  size_t OwnerOf(std::string_view session) const {
    return ring_.OwnerOf(session);
  }
  std::vector<size_t> ReplicasOf(std::string_view session) const {
    return ring_.ReplicasOf(session, config_.EffectiveReplicas());
  }
  const ClusterConfig& config() const { return config_; }
  const RetryStats& retry_stats() const { return stats_; }

 private:
  // The live connection to `node`, dialing if needed. Any failure here
  // is a transport fault by construction (no request was sent), however
  // the status is coded.
  Result<server::Client*> Conn(size_t node);
  // Forgets the connection to `node` (next Conn redials).
  void Drop(size_t node);

  const ClusterConfig config_;
  const Ring ring_;
  const BackoffPolicy backoff_;
  Rng rng_;
  std::vector<std::unique_ptr<server::Client>> conns_;
  RetryStats stats_;
};

}  // namespace oodb::cluster

#endif  // OODB_CLUSTER_CLUSTER_CLIENT_H_
