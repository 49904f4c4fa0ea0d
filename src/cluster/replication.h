// Owner-side session replication (docs/cluster.md §3).
//
// The owner applies every mutation (LOAD/STATE/VIEW/UNDEFINE) locally,
// appends it to a per-session ordered log with a monotone sequence
// number, and pushes the tail to each replica as `REPL <seq> <line>`
// frames over the ordinary binary protocol. Replicas apply strictly in
// sequence; a replica that sees a gap answers `ERR replica_gap have=<n>`
// and the owner resynchronizes it from the log. A LOAD resets the
// retained log (everything before it is superseded — replicas accept a
// LOAD at any forward sequence number), so the log never grows beyond
// the mutations since the last LOAD.
//
// Replication is synchronous and best-effort: the mutation has already
// succeeded on the owner when the push happens, and a down replica just
// lags until the next mutation's Flush retries it (failure modes in
// docs/cluster.md §6).
#ifndef OODB_CLUSTER_REPLICATION_H_
#define OODB_CLUSTER_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "server/client.h"
#include "server/wire.h"

namespace oodb::cluster {

// Every pooled connection carries send/recv deadlines so a stuck peer
// fails the borrowing worker after this long instead of parking it
// forever (docs/cluster.md §6).
inline constexpr int64_t kDefaultPeerDeadlineMs = 5000;

// A pool of connected binary-mode clients, one free-list per peer node.
// Checkout/return keeps connections out of each other's reply streams:
// a borrowed client is exclusively owned until released. Thread-safe.
// The pool also keeps per-peer health tallies (fed by Acquire/Release
// outcomes) that back the oodb_cluster_peer_* gauges.
class PeerPool {
 public:
  // Liveness tallies for one peer, as seen from this node's traffic.
  struct PeerStats {
    uint64_t dials = 0;      // fresh connections established
    uint64_t failures = 0;   // dial failures + unhealthy releases
    uint64_t timeouts = 0;   // deadline expiries (subset of failures)
    // Failures since the last healthy release; 0 means the peer looked
    // up the last time we talked to it.
    uint64_t consecutive_failures = 0;
    // steady_clock ms of the last healthy release; -1 = never.
    int64_t last_ok_ms = -1;
  };

  // `deadline_ms` arms SO_SNDTIMEO/SO_RCVTIMEO on every fresh
  // connection; <= 0 disables deadlines (tests that freeze peers).
  explicit PeerPool(std::vector<NodeAddr> nodes,
                    int64_t deadline_ms = kDefaultPeerDeadlineMs);

  // Borrows a connected client to `node`, dialing a fresh connection if
  // the free list is empty. Fails if the peer refuses the connection.
  Result<std::unique_ptr<server::Client>> Acquire(size_t node)
      EXCLUDES(mu_);

  // Returns a borrowed client. `healthy=false` drops the connection on
  // the floor instead of recycling it (transport errors poison the
  // framing) and counts a failure — a timeout, specifically, if the
  // client's deadline expired.
  void Release(size_t node, std::unique_ptr<server::Client> client,
               bool healthy) EXCLUDES(mu_);

  const std::vector<NodeAddr>& nodes() const { return nodes_; }
  int64_t deadline_ms() const { return deadline_ms_; }

  // Snapshot of the per-peer tallies, indexed like nodes().
  std::vector<PeerStats> stats() const EXCLUDES(mu_);

 private:
  const std::vector<NodeAddr> nodes_;
  const int64_t deadline_ms_;
  mutable base::Mutex mu_;
  std::vector<std::vector<std::unique_ptr<server::Client>>> idle_
      GUARDED_BY(mu_);
  std::vector<PeerStats> stats_ GUARDED_BY(mu_);
};

// The owner half of the replication protocol: per-session mutation logs
// plus the push/resync loop. One instance per daemon; sessions this
// node does not own simply never get Record() calls here.
class Replicator {
 public:
  struct Stats {
    uint64_t sent = 0;       // REPL frames pushed (including resends)
    uint64_t acked = 0;      // REPL frames acknowledged by a replica
    uint64_t failures = 0;   // transport/BUSY failures (retried later)
    uint64_t resyncs = 0;    // replica_gap answers that rewound a cursor
    uint64_t max_lag = 0;    // worst entries-behind over live logs
    uint64_t lag_sum = 0;    // total entries-behind over all replica slots
  };

  Replicator(const ClusterConfig& config, const Ring& ring,
             PeerPool* peers);

  // Appends one applied mutation (its `verb`, its `line` as rendered by
  // server::RenderLine, and its payload) to the session's log and returns
  // its sequence number. `trace_id` is the owner-side trace id of the
  // request that made the mutation; it rides in the REPL envelope header
  // so the replica's slow-query entry can be joined back to the owner's.
  // A LOAD resets the retained log. Cheap: no I/O.
  uint64_t Record(const std::string& session, server::Verb verb,
                  std::string line, std::string payload,
                  uint64_t trace_id = 0) EXCLUDES(mu_);

  // Pushes every entry not yet acknowledged by each of the session's
  // replicas, in sequence order. Serialized internally; failures leave
  // the cursor in place so the next Flush retries.
  void Flush(const std::string& session) EXCLUDES(mu_, send_mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  struct Entry {
    uint64_t seq = 0;
    std::string line;
    std::string payload;
    uint64_t trace_id = 0;  // owner-side trace id, for the REPL header
  };
  struct Log {
    uint64_t next_seq = 1;
    bool placed = false;            // replicas assigned from the ring
    std::vector<Entry> entries;     // since the last LOAD, ordered
    std::vector<size_t> replicas;   // node indices, fixed by the ring
    std::vector<uint64_t> acked;    // per replica: highest acked seq
  };

  // Sends entries past `acked[slot]` to one replica. Returns true if
  // the replica asked for a resync (the cursor was rewound and the
  // caller should push once more). Takes mu_ briefly; no lock is held
  // across the network round trips.
  bool PushToReplica(const std::string& session, size_t slot)
      EXCLUDES(mu_) REQUIRES(send_mu_);

  const ClusterConfig config_;
  const Ring& ring_;
  PeerPool* const peers_;

  // Lock order: send_mu_ -> mu_ (Flush holds send_mu_ across the push
  // and takes mu_ briefly to snapshot/advance); Record takes mu_ alone.
  base::Mutex send_mu_ ACQUIRED_BEFORE(mu_);
  mutable base::Mutex mu_;
  std::map<std::string, Log> logs_ GUARDED_BY(mu_);

  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> acked_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> resyncs_{0};
};

}  // namespace oodb::cluster

#endif  // OODB_CLUSTER_REPLICATION_H_
