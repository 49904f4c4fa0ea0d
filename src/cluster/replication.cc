#include "cluster/replication.h"

#include <chrono>
#include <utility>

#include "base/strings.h"

namespace oodb::cluster {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PeerPool::PeerPool(std::vector<NodeAddr> nodes, int64_t deadline_ms)
    : nodes_(std::move(nodes)),
      deadline_ms_(deadline_ms),
      idle_(nodes_.size()),
      stats_(nodes_.size()) {}

Result<std::unique_ptr<server::Client>> PeerPool::Acquire(size_t node) {
  if (node >= nodes_.size()) {
    return InvalidArgumentError(StrCat("no cluster node ", node));
  }
  {
    base::MutexLock lock(&mu_);
    if (!idle_[node].empty()) {
      std::unique_ptr<server::Client> client =
          std::move(idle_[node].back());
      idle_[node].pop_back();
      return client;
    }
  }
  auto dialed = [&]() -> Result<std::unique_ptr<server::Client>> {
    OODB_ASSIGN_OR_RETURN(
        server::Client fresh,
        server::Client::Connect(nodes_[node].host, nodes_[node].port));
    auto client = std::make_unique<server::Client>(std::move(fresh));
    if (deadline_ms_ > 0) {
      OODB_RETURN_IF_ERROR(client->SetDeadline(deadline_ms_));
    }
    OODB_RETURN_IF_ERROR(client->EnableBinary());
    return client;
  }();
  base::MutexLock lock(&mu_);
  if (!dialed.ok()) {
    ++stats_[node].failures;
    ++stats_[node].consecutive_failures;
    return dialed.status();
  }
  ++stats_[node].dials;
  return std::move(*dialed);
}

void PeerPool::Release(size_t node, std::unique_ptr<server::Client> client,
                       bool healthy) {
  if (node >= nodes_.size() || client == nullptr) return;
  base::MutexLock lock(&mu_);
  if (!healthy) {
    ++stats_[node].failures;
    ++stats_[node].consecutive_failures;
    if (client->timed_out()) ++stats_[node].timeouts;
    return;  // drop the connection: its framing may be poisoned
  }
  stats_[node].consecutive_failures = 0;
  stats_[node].last_ok_ms = SteadyNowMs();
  idle_[node].push_back(std::move(client));
}

std::vector<PeerPool::PeerStats> PeerPool::stats() const {
  base::MutexLock lock(&mu_);
  return stats_;
}

Replicator::Replicator(const ClusterConfig& config, const Ring& ring,
                       PeerPool* peers)
    : config_(config), ring_(ring), peers_(peers) {}

uint64_t Replicator::Record(const std::string& session, server::Verb verb,
                            std::string line, std::string payload,
                            uint64_t trace_id) {
  base::MutexLock lock(&mu_);
  Log& log = logs_[session];
  if (!log.placed) {
    log.placed = true;
    log.replicas = ring_.ReplicasOf(session, config_.EffectiveReplicas());
    log.acked.assign(log.replicas.size(), 0);
  }
  const uint64_t seq = log.next_seq++;
  // A LOAD rebuilds the session from scratch: everything before it is
  // superseded, so the retained log restarts at the LOAD entry.
  if (verb == server::Verb::kLoad) log.entries.clear();
  log.entries.push_back(
      Entry{seq, std::move(line), std::move(payload), trace_id});
  return seq;
}

void Replicator::Flush(const std::string& session) {
  base::MutexLock send_lock(&send_mu_);
  size_t slots = 0;
  {
    base::MutexLock lock(&mu_);
    auto it = logs_.find(session);
    if (it == logs_.end()) return;
    slots = it->second.replicas.size();
  }
  for (size_t slot = 0; slot < slots; ++slot) {
    // One extra pass when the replica rewinds us (resync): the second
    // push starts from the replica's reported cursor.
    if (PushToReplica(session, slot)) PushToReplica(session, slot);
  }
}

bool Replicator::PushToReplica(const std::string& session, size_t slot) {
  std::vector<Entry> tail;
  size_t node = 0;
  uint64_t acked = 0;
  {
    base::MutexLock lock(&mu_);
    auto it = logs_.find(session);
    if (it == logs_.end() || slot >= it->second.replicas.size()) {
      return false;
    }
    const Log& log = it->second;
    node = log.replicas[slot];
    acked = log.acked[slot];
    for (const Entry& e : log.entries) {
      if (e.seq > acked) tail.push_back(e);
    }
  }
  if (tail.empty()) return false;

  auto borrowed = peers_->Acquire(node);
  if (!borrowed.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::unique_ptr<server::Client> peer = std::move(*borrowed);
  bool healthy = true;
  bool rewound = false;
  for (const Entry& e : tail) {
    // The `@<origin>:<trace>` header names this node and the owner-side
    // trace id so the replica can stamp route/peer/origin on its trace
    // (docs/observability.md §6). Replicas without the header support
    // would see it as a malformed seq, so the fleet upgrades in step.
    const std::string line = StrCat("REPL @", config_.self, ":", e.trace_id,
                                    " ", e.seq, " ", e.line);
    sent_.fetch_add(1, std::memory_order_relaxed);
    Result<server::Reply> r = peer->Exchange(line, e.payload);
    if (r.ok() && r->kind == server::Reply::Kind::kOk) {
      acked = e.seq;
      acked_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    uint64_t have = 0;
    if (r.ok() && r->code == "replica_gap" &&
        r->payload.rfind("have=", 0) == 0 &&
        server::ParseSize(std::string_view(r->payload).substr(5), &have)) {
      // The replica is behind where we believed: rewind the cursor to
      // its applied sequence and let the caller push again.
      resyncs_.fetch_add(1, std::memory_order_relaxed);
      acked = have;
      rewound = true;
      break;
    }
    // Any other ERR, BUSY or a transport error: leave the cursor; a
    // later Flush retries. Transport errors poison the connection's
    // framing.
    failures_.fetch_add(1, std::memory_order_relaxed);
    healthy = r.ok();
    break;
  }
  peers_->Release(node, std::move(peer), healthy);

  base::MutexLock lock(&mu_);
  auto it = logs_.find(session);
  if (it != logs_.end() && slot < it->second.acked.size()) {
    it->second.acked[slot] = acked;
  }
  return rewound;
}

Replicator::Stats Replicator::stats() const {
  Stats s;
  s.sent = sent_.load(std::memory_order_relaxed);
  s.acked = acked_.load(std::memory_order_relaxed);
  s.failures = failures_.load(std::memory_order_relaxed);
  s.resyncs = resyncs_.load(std::memory_order_relaxed);
  base::MutexLock lock(&mu_);
  for (const auto& [name, log] : logs_) {
    for (const uint64_t acked : log.acked) {
      const uint64_t applied = log.next_seq - 1;
      if (applied > acked) {
        s.max_lag = std::max(s.max_lag, applied - acked);
        s.lag_sum += applied - acked;
      }
    }
  }
  return s;
}

}  // namespace oodb::cluster
