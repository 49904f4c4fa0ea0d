// Optimizer-as-a-service: a TCP daemon that keeps named sessions
// (schema, SL axioms, QL concepts, view catalog) resident and answers
// subsumption, classification and optimization requests over the
// framings of wire.h.
//
// One epoll event-loop thread owns every connection (non-blocking
// sockets, partial reads and writes resumed); the work runs on a shared
// service::ThreadPool behind a bounded admission counter (BUSY when
// full, `ERR deadline` past the queue-wait budget), and encoded replies
// come back through a completion queue plus an eventfd. The loop
// answers a CHECK or BCHECK itself when its session settles every pair
// from the memo. SHUTDOWN drains the admitted work, flushes, and
// closes. See docs/server.md §3.
#ifndef OODB_SERVER_SERVER_H_
#define OODB_SERVER_SERVER_H_

#include <sys/types.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "cluster/membership.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/session.h"
#include "server/wire.h"
#include "service/thread_pool.h"

namespace oodb::server {

struct ServerOptions {
  // TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  // back from port()).
  uint16_t port = 0;
  // Worker threads; 0 means std::thread::hardware_concurrency(). A
  // cluster node runs at least 2 (docs/cluster.md §6).
  size_t num_threads = 0;
  // Admission bound: requests admitted (queued or running) at once.
  // Requests beyond it are answered BUSY.
  size_t max_pending = 64;
  // Budget in milliseconds a request may wait in the admission queue
  // before it is answered `ERR deadline` instead of running. 0 = none.
  int64_t deadline_ms = 0;
  // Requests whose total latency is >= this many milliseconds are traced
  // into the slow-query log (TRACE verb). 0 logs every request; negative
  // disables request tracing entirely.
  int64_t slow_threshold_ms = 100;
  // Cluster membership (docs/cluster.md). Empty = single-node mode, no
  // routing or replication. When set, `cluster.self` must be this
  // daemon's index in `cluster.nodes` (ports are static in cluster
  // mode, so the caller knows it before Start()).
  cluster::ClusterConfig cluster;
};

class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  // Joins everything; equivalent to Shutdown() if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens on 127.0.0.1, spawns the event loop. Returns the
  // bound port.
  Result<int> Start();

  // Blocks until a shutdown is requested (SHUTDOWN frame or Shutdown()),
  // then performs the drain + teardown. Call from the owning thread.
  void Wait() EXCLUDES(stop_mu_);

  // Requests shutdown and performs Wait(). Must not be called from a
  // worker or the event-loop thread (it joins them).
  void Shutdown() EXCLUDES(stop_mu_);

  int port() const { return port_; }

  // The daemon's metrics registry: the one source of its counters, read
  // by the METRICS and STATS verbs and by in-process callers through
  // Snapshot().
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::SlowQueryLog& slow_log() const { return slow_log_; }

 private:
  // Per-connection state machine. Owned and touched EXCLUSIVELY by the
  // event-loop thread (thread-confined, hence no lock): workers never see
  // a Connection — they address completions by connection id.
  struct Connection;

  // An encoded reply travelling from a worker back to the event loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;  // already in wire form (text or binary)
  };

  // One admitted request waiting to ride the next pool submission. A
  // parse pass over a pipelined connection collects every complete frame
  // into pending_work_ and hands the burst to the pool as a single task,
  // so the handoff and completion-wakeup costs amortize over the burst.
  struct PooledWork {
    uint64_t request_id = 0;
    std::shared_ptr<obs::TraceContext> trace;
    std::chrono::steady_clock::time_point enqueued;
    Request request;
  };

  // ---- Event-loop side (all run on loop_ only) ----
  void EventLoop();
  void HandleAccept();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  // Parses as many complete frames as the connection's buffers and
  // pipelining bounds allow, dispatching each.
  void ParseFrames(Connection& conn);
  // Parses and handles one frame in the connection's framing; false when
  // no progress is possible.
  bool ParseFrame(Connection& conn);
  // Counts one parsed request and routes it: malformed requests, the
  // table's on_loop verbs and the memo-warm checks AnswerFromMemo takes
  // are answered on the loop, everything else is admitted onto the pool.
  void HandleFrame(Connection& conn, uint64_t request_id, Request request);
  // The loop path: answers a CHECK or BCHECK on the loop when nothing of
  // the connection is staged or in flight, this node runs it, the pass
  // has inline pair budget left, and the session settles every pair
  // from the memo without waiting for its lock. False leaves the request
  // to the pool path, with nothing counted.
  bool AnswerFromMemo(Connection& conn, uint64_t request_id,
                      const Request& request);
  // The reply to a verb the table flags on_loop (PING, HEALTH, METRICS,
  // TRACE, SHUTDOWN), computed on the loop thread.
  Reply AnswerInline(Connection& conn, const Request& request);
  // Appends an inline (loop-thread) reply to the connection's output.
  void QueueReply(Connection& conn, uint64_t request_id, const Reply& reply,
                  Verb verb);
  // Counts one reply by kind and verb: every reply, inline or pooled,
  // passes here exactly once.
  void CountReply(const Reply& reply, Verb verb);
  // Submits the frames collected by the current parse pass as one pool
  // task (rolling them back with shutdown errors if the pool refuses).
  void SubmitPooled(Connection& conn);
  // Drains the completion queue into connection output buffers.
  void DrainCompletions() EXCLUDES(comp_mu_);
  // Enqueues encoded reply bytes, coalescing small appends into the
  // back chunk of the connection's output queue.
  void AppendOutput(Connection& conn, std::string bytes);
  // Advances the output queue past `n` written bytes.
  void ConsumeOutput(Connection& conn, size_t n);
  // One gather write (sendmsg) of the queued output; returns its result.
  ssize_t WriteSome(Connection& conn);
  void FlushOutput(Connection& conn);
  // Keeps EPOLLIN/EPOLLOUT interest in sync with buffer state.
  void UpdateInterest(Connection& conn);
  void CloseConnection(uint64_t conn_id);
  // Best-effort flush of every connection's pending output at teardown.
  void FinalFlush();

  // Counts the reply to a request that ran (on a worker, or from the
  // memo on the loop), encodes it as the reply phase, and records its
  // latency since `start` and its trace. Returns the encoded bytes.
  std::string FinishRequest(uint64_t request_id, bool binary, Verb verb,
                            const Reply& reply,
                            std::chrono::steady_clock::time_point start,
                            obs::TraceContext* trace);

  // ---- Worker side ----
  // Runs one admitted request to its encoded reply: deadline check,
  // Dispatch, then FinishRequest.
  Completion FinalizeOnWorker(uint64_t conn_id, bool binary, PooledWork work);
  // Publishes a burst of encoded replies to the loop: one lock, and one
  // eventfd wakeup per empty→non-empty transition of the queue.
  void PushCompletions(std::vector<Completion> batch) EXCLUDES(comp_mu_);

  // Who handed us this request — decides routing and replication.
  // kClient: an ordinary connection; ownership is checked and the
  //   request may be proxied (FORWARD) to the owning node.
  // kForwarded: another node already routed it here; skip the ownership
  //   check (we are the owner, or a replica serving a failed-over read)
  //   but still replicate mutations.
  // kReplica: a REPL apply; skip both (never re-replicate).
  enum class Route : uint8_t { kClient, kForwarded, kReplica };

  // Where a client's request runs: here (single-node mode, a verb that
  // names no session, or this node owns the session), here as a read of
  // a session this node replicates, or on the owner it is proxied to.
  enum class Placement : uint8_t { kHere, kReplicaRead, kOwner };
  Placement PlaceClientRequest(const RequestView& request) const;

  // Runs one admitted request: FORWARD unwraps to its inner request,
  // REPL to a replica apply, anything else goes to Execute.
  Reply Dispatch(const Request& request, obs::TraceContext* trace);
  // Routes one unwrapped request (ownership check, FORWARD proxy, replica
  // reads), runs it locally, and replicates it if it mutated.
  Reply Execute(const RequestView& request, obs::TraceContext* trace,
                Route route);
  // The single-node dispatch body, no routing and no replication: runs
  // LOAD, STATS and SLEEP, and hands every other verb to the session it
  // names (Session::Handle).
  Reply DispatchLocal(const RequestView& request, obs::TraceContext* trace);
  // REPL <seq> <verb> <session> ...: apply one replicated mutation if it
  // is next in sequence (serialized per daemon by repl_mu_).
  Reply DispatchRepl(const Request& request, obs::TraceContext* trace)
      EXCLUDES(repl_mu_);
  // Stamps an incoming FORWARD/REPL envelope's route and origin on the
  // trace.
  void StampEnvelope(const Envelope& envelope, const char* route,
                     obs::TraceContext* trace) const;
  // Proxies `request` to the owning node as a FORWARD frame; idempotent
  // reads fail over to the session's replicas when the owner is down.
  // The whole proxy attempt is a kForward span on `trace`, and the peer
  // that answered is stamped into trace->peer.
  Reply ForwardToOwner(const RequestView& request, obs::TraceContext* trace);
  // The STATS verb body, rendered from one registry snapshot.
  Reply DispatchStats(const RequestView& request);
  // The HEALTH verb body: "status=ok|degraded|draining" plus, in
  // cluster mode, the degraded criteria (down peers, replica lag).
  std::string HealthText() const;
  // Registers the server counters, the latency histograms and the
  // snapshot callback.
  void RegisterMetrics();
  // Snapshot callback: server gauges, replication and peer stats, and
  // every session's metrics.
  void AppendServerMetrics(obs::Collector& out) const
      EXCLUDES(sessions_mu_);
  std::shared_ptr<Session> FindSession(std::string_view name)
      EXCLUDES(sessions_mu_);
  void RequestShutdown() EXCLUDES(stop_mu_);
  void Teardown();
  void WakeLoop();  // writes the eventfd so a blocked epoll_wait returns

  ServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;  // worker → loop wakeup (completions, teardown)
  int port_ = 0;

  std::unique_ptr<service::ThreadPool> pool_;
  std::atomic<size_t> admitted_{0};  // requests queued or running
  // Per-connection input cap: the largest legal frame (text payload or
  // binary frame) plus header slack. Reading pauses above it.
  size_t in_cap_ = 0;

  // ---- Cluster mode (all null when options_.cluster is empty) ----
  std::unique_ptr<cluster::Ring> ring_;
  std::unique_ptr<cluster::PeerPool> peers_;
  std::unique_ptr<cluster::Replicator> replicator_;

  // Lock order: repl_mu_ -> sessions_mu_ -> stop_mu_; comp_mu_ is a leaf
  // taken by itself (push from workers, swap from the loop) and never
  // held across a call out (see docs/concurrency.md). repl_mu_
  // serializes replica applies across worker threads — it is held across
  // the inner Dispatch so REPL frames for one session apply in sequence
  // order even when pipelined onto different workers.
  base::Mutex repl_mu_ ACQUIRED_BEFORE(sessions_mu_);
  // Per replicated session: highest sequence number applied here.
  std::map<std::string, uint64_t> replica_applied_ GUARDED_BY(repl_mu_);

  mutable base::Mutex sessions_mu_ ACQUIRED_BEFORE(stop_mu_);
  std::map<std::string, std::shared_ptr<Session>, std::less<>> sessions_
      GUARDED_BY(sessions_mu_);

  // mutable: the metrics callback (const) samples the queue depth.
  mutable base::Mutex comp_mu_;
  std::vector<Completion> completions_ GUARDED_BY(comp_mu_);

  // Connection table: event-loop thread only (thread-confined).
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  // Burst under assembly by the current ParseFrames pass (loop-confined;
  // always empty between passes).
  std::vector<PooledWork> pending_work_;
  // Pairs the current ParseFrames pass may still answer on the loop
  // (loop-confined; reset by each pass).
  size_t loop_pairs_left_ = 0;
  uint64_t next_conn_id_ = 2;  // 0 = listen tag, 1 = eventfd tag
  std::thread loop_;

  base::Mutex stop_mu_;
  base::CondVar stop_cv_;
  bool stop_requested_ GUARDED_BY(stop_mu_) = false;
  std::once_flag teardown_once_;
  std::atomic<bool> stopping_{false};   // fast-path flag for request paths
  std::atomic<bool> loop_stop_{false};  // final wakeup for the event loop

  // Connections currently registered (loop-written; the
  // oodb_loop_connections gauge).
  std::atomic<size_t> open_conns_{0};

  obs::MetricsRegistry registry_;
  // Request and reply counters (registry-owned, registered in
  // RegisterMetrics). The cluster ones are null in single-node mode.
  obs::Counter* connections_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* ok_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* busy_ = nullptr;
  obs::Counter* deadline_expired_ = nullptr;
  obs::Counter* forwards_ = nullptr;
  obs::Counter* forward_failures_ = nullptr;
  obs::Counter* replica_reads_ = nullptr;
  obs::Counter* repl_applies_ = nullptr;
  obs::Counter* repl_dups_ = nullptr;
  obs::Counter* repl_gaps_ = nullptr;
  std::array<obs::Counter*, kNumVerbs> verb_requests_{};
  std::array<obs::Counter*, kNumVerbs> verb_errors_{};
  // Requests the loop answered from the memo; null but for CHECK/BCHECK.
  std::array<obs::Counter*, kNumVerbs> loop_answers_{};
  obs::SlowQueryLog slow_log_;
  std::atomic<uint64_t> trace_seq_{0};
  // Request-latency histograms by verb (registry-owned); null for the
  // verb table's on_loop verbs and for kOther. A CHECK or BCHECK the
  // loop answers from the memo is timed in its verb's histogram too.
  std::array<obs::Histogram*, kNumVerbs> latency_{};

  // Event-loop self-instrumentation (registry-owned; docs/observability
  // §6). Recorded once per epoll iteration behind one obs::Enabled()
  // check, so the disabled cost is a single relaxed load per iteration.
  obs::Histogram* loop_batch_hist_ = nullptr;  // events per epoll_wait
  obs::Histogram* loop_lag_hist_ = nullptr;    // iteration service time
  // Unwritten reply bytes across every connection's output queue.
  // Written by the loop thread only; atomic so the scrape callback may
  // read it from another thread.
  mutable std::atomic<size_t> write_queue_bytes_{0};
  // FORWARD round-trip histograms, indexed by peer node (null for self
  // and in single-node mode). Sampled 1-in-8 via forward_samples_.
  std::vector<obs::Histogram*> forward_rtt_;
  std::atomic<uint64_t> forward_samples_{0};
  // "host:port" per node, rendered once: trace stamping on the hot
  // forward/replica paths must not re-allocate it per request.
  std::vector<std::string> peer_names_;
};

}  // namespace oodb::server

#endif  // OODB_SERVER_SERVER_H_
