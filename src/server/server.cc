#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "base/strings.h"
#include "base/sync.h"
#include "cluster/cluster_client.h"
#include "obs/exposition.h"
#include "server/client.h"

namespace oodb::server {

namespace {

// epoll tags: the listener and the eventfd get reserved ids; connections
// use their conns_ key (>= 2).
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kEventTag = 1;

// Soft cap on a connection's unwritten output. Reading (and therefore
// parsing) pauses above it; nothing is ever dropped.
constexpr size_t kMaxOutBuffer = size_t{16} << 20;

// Output-queue chunking: replies append into the back chunk up to this
// size, so a pipelined burst of small replies leaves as a few large
// iovecs instead of hundreds of tiny ones.
constexpr size_t kOutChunk = size_t{8} << 10;

// iovec slots per sendmsg. Deep pipelines with large replies flush in
// several calls; the gather write still beats one send per frame.
constexpr size_t kMaxIov = 64;

// Upper bound on LOAD/STATE payload sizes.
constexpr size_t kMaxPayload = size_t{8} << 20;

// Upper bound on live named sessions.
constexpr size_t kMaxSessions = 64;

// Pipelining bound: pooled requests in flight per binary connection.
// Frames beyond it stay in the connection's input buffer (backpressure
// via paused parsing, then paused reading), never dropped.
constexpr size_t kMaxInflightPerConn = 256;

// Ring-buffer capacity of the slow-query log.
constexpr size_t kSlowLogCapacity = 128;

// Inline budget: (C, D) pairs one parse pass over a connection may
// answer from the memo on the loop. A frame larger than what is left
// goes to the pool, so one burst cannot stall the loop's other
// connections for long.
constexpr size_t kLoopPairsPerPass = 1024;

}  // namespace

// Per-connection state machine, owned by the event-loop thread. A
// connection is always in one of three read states (deciding the
// preamble, streaming frames, read side closed) and flushes its output
// buffer opportunistically, arming EPOLLOUT only while bytes remain.
struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;

  // Protocol negotiation: text vs binary is decided by the first bytes.
  bool preamble_decided = false;
  bool binary = false;

  std::string in;      // received, not yet parsed past in_pos
  size_t in_pos = 0;   // parse cursor into in

  // Output: encoded replies queued as chunks and flushed with a single
  // gather write (sendmsg) per syscall instead of one send per frame.
  std::deque<std::string> outq;
  size_t out_head = 0;   // write cursor into outq.front()
  size_t out_bytes = 0;  // unwritten bytes across the whole queue

  size_t inflight = 0;        // pooled requests outstanding; text: <= 1
  bool rd_eof = false;        // peer half-closed; no more input
  bool closing = false;       // finish inflight + flush, then close
  bool discard_input = false;  // stream unrecoverable: parse no more
  uint32_t armed = 0;          // epoll interest currently registered
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      slow_log_(kSlowLogCapacity, options_.slow_threshold_ms) {
  size_t threads = options_.num_threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  // A cluster node needs two workers: a forwarded mutation parks one on
  // the roundtrip to the owner while the owner's replication push back
  // here needs another (docs/cluster.md §6).
  threads = std::max<size_t>(threads, options_.cluster.enabled() ? 2 : 1);
  pool_ = std::make_unique<service::ThreadPool>(threads);
  // The input cap must admit the largest legal frame in one piece: a
  // text LOAD/STATE payload or a binary frame, plus header slack.
  in_cap_ = std::max(kMaxPayload, size_t{kMaxBinaryFrame}) + (64u << 10);
  if (options_.cluster.enabled()) {
    ring_ = std::make_unique<cluster::Ring>(options_.cluster.nodes);
    peers_ = std::make_unique<cluster::PeerPool>(options_.cluster.nodes);
    replicator_ = std::make_unique<cluster::Replicator>(options_.cluster,
                                                        *ring_, peers_.get());
  }
  RegisterMetrics();
}

void Server::RegisterMetrics() {
  // The request and reply counters, each registered here once: METRICS
  // renders them and STATS reads them back from a snapshot.
  connections_ = registry_.GetCounter("oodb_server_connections_total",
                                      "TCP connections accepted");
  requests_ = registry_.GetCounter("oodb_server_requests_total",
                                   "Frames parsed, including rejected ones");
  ok_ = registry_.GetCounter("oodb_server_ok_total", "OK replies");
  errors_ = registry_.GetCounter("oodb_server_errors_total", "ERR replies");
  busy_ = registry_.GetCounter("oodb_server_busy_total",
                               "BUSY replies (admission bound hit)");
  deadline_expired_ =
      registry_.GetCounter("oodb_server_deadline_expired_total",
                           "Requests expired in the admission queue");
  for (const VerbInfo& info : kVerbTable) {
    const size_t i = static_cast<size_t>(info.verb);
    verb_requests_[i] =
        registry_.GetCounter("oodb_server_verb_requests_total",
                             "Requests by verb", {{"verb", info.name}});
    verb_errors_[i] =
        registry_.GetCounter("oodb_server_verb_errors_total",
                             "ERR replies by verb", {{"verb", info.name}});
  }
  // Latency histograms exist only for verbs that run through the pool;
  // the verbs the loop answers inline are not timed.
  for (const VerbInfo& info : kVerbTable) {
    if (info.on_loop || info.verb == Verb::kOther) continue;
    latency_[static_cast<size_t>(info.verb)] = registry_.GetHistogram(
        "oodb_server_request_seconds",
        "Request latency, from admission (or, for a check the loop answers "
        "from the memo, from the parsed frame) to the reply encoded",
        {{"verb", info.name}}, 1e-9);
  }
  for (const Verb verb : {Verb::kCheck, Verb::kBcheck}) {
    loop_answers_[static_cast<size_t>(verb)] = registry_.GetCounter(
        "oodb_server_loop_answers_total",
        "Requests the event loop answered from the memo, by verb",
        {{"verb", VerbName(verb)}});
  }
  loop_batch_hist_ = registry_.GetHistogram(
      "oodb_loop_ready_batch", "Ready events per epoll_wait return", {}, 1);
  loop_lag_hist_ = registry_.GetHistogram(
      "oodb_loop_iteration_lag_seconds",
      "Event-loop iteration service time (epoll_wait return to "
      "completions drained)",
      {}, 1e-9);
  if (options_.cluster.enabled()) {
    forwards_ =
        registry_.GetCounter("oodb_server_forwards_total",
                             "Requests proxied to another cluster node");
    forward_failures_ =
        registry_.GetCounter("oodb_server_forward_failures_total",
                             "Proxied requests with no reachable peer");
    replica_reads_ =
        registry_.GetCounter("oodb_server_replica_reads_total",
                             "Reads served from this node's replica copies");
    repl_applies_ =
        registry_.GetCounter("oodb_server_repl_applies_total",
                             "Replicated mutations applied in sequence");
    repl_dups_ = registry_.GetCounter("oodb_server_repl_dups_total",
                                      "Replicated mutations already applied");
    repl_gaps_ =
        registry_.GetCounter("oodb_server_repl_gaps_total",
                             "Replication gap rejections (resync trigger)");
    forward_rtt_.assign(options_.cluster.nodes.size(), nullptr);
    peer_names_.reserve(options_.cluster.nodes.size());
    for (size_t i = 0; i < options_.cluster.nodes.size(); ++i) {
      peer_names_.push_back(options_.cluster.nodes[i].ToString());
      if (i == options_.cluster.self) continue;
      forward_rtt_[i] = registry_.GetHistogram(
          "oodb_cluster_forward_roundtrip_seconds",
          "FORWARD proxy round-trip to a peer (network + remote engine)",
          {{"peer", peer_names_[i]}}, 1e-9);
    }
  }
  registry_.AddCallback(
      [this](obs::Collector& out) { AppendServerMetrics(out); });
}

void Server::AppendServerMetrics(obs::Collector& out) const {
  const auto relaxed = std::memory_order_relaxed;
  out.AddCounter("oodb_server_slow_queries_total",
                 "Requests recorded by the slow-query log", {},
                 slow_log_.recorded());
  out.AddGauge("oodb_server_pending",
               "Requests admitted (queued or running)", {},
               admitted_.load(relaxed));
  out.AddGauge("oodb_server_threads", "Worker threads", {}, pool_->size());
  // Event-loop self-instrumentation (the companion histograms
  // oodb_loop_ready_batch / oodb_loop_iteration_lag_seconds are
  // registry-owned and render on their own).
  out.AddGauge("oodb_loop_connections",
               "Connections owned by the event loop", {},
               open_conns_.load(relaxed));
  out.AddGauge("oodb_loop_write_queue_bytes",
               "Unwritten reply bytes across all connection output queues",
               {}, write_queue_bytes_.load(relaxed));
  {
    size_t depth = 0;
    {
      base::MutexLock lock(&comp_mu_);
      depth = completions_.size();
    }
    out.AddGauge("oodb_loop_completion_queue_depth",
                 "Encoded replies awaiting the event loop", {}, depth);
  }
  if (ring_ != nullptr) {
    // Cluster-only series, like the cluster counters RegisterMetrics
    // registers.
    const cluster::Replicator::Stats rs = replicator_->stats();
    out.AddCounter("oodb_server_repl_sent_total",
                   "REPL frames pushed to replicas", {}, rs.sent);
    out.AddCounter("oodb_server_repl_acked_total",
                   "REPL frames acknowledged by replicas", {}, rs.acked);
    out.AddCounter("oodb_server_repl_push_failures_total",
                   "REPL pushes that failed (retried on next flush)", {},
                   rs.failures);
    out.AddCounter("oodb_server_repl_resyncs_total",
                   "Replica resyncs (cursor rewinds)", {}, rs.resyncs);
    // Replication lag, exported under the cluster family alongside the
    // per-peer health gauges.
    out.AddGauge("oodb_cluster_repl_lag_max",
                 "Worst replica lag over live logs, in log entries", {},
                 rs.max_lag);
    out.AddGauge("oodb_cluster_repl_lag_sum",
                 "Total replica lag over all replica slots, in log entries",
                 {}, rs.lag_sum);
    // Per-peer liveness, as seen from this node's FORWARD/REPL traffic.
    const int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    const std::vector<cluster::PeerPool::PeerStats> ps = peers_->stats();
    for (size_t i = 0; i < ps.size(); ++i) {
      if (i == options_.cluster.self) continue;
      const obs::Labels labels = {
          {"peer", options_.cluster.nodes[i].ToString()}};
      out.AddGauge("oodb_cluster_peer_up",
                   "1 if the last exchange with this peer succeeded",
                   labels, ps[i].consecutive_failures == 0 ? 1 : 0);
      out.AddGauge("oodb_cluster_peer_consecutive_failures",
                   "Failures since the last healthy exchange", labels,
                   ps[i].consecutive_failures);
      out.AddGauge(
          "oodb_cluster_peer_last_ack_age_ms",
          "Milliseconds since the last healthy exchange (-1 = never)",
          labels,
          ps[i].last_ok_ms < 0 ? -1 : now_ms - ps[i].last_ok_ms);
      out.AddCounter("oodb_cluster_peer_dials_total",
                     "Fresh connections established to this peer", labels,
                     ps[i].dials);
      out.AddCounter("oodb_cluster_peer_failures_total",
                     "Dial failures plus poisoned connections", labels,
                     ps[i].failures);
      out.AddCounter("oodb_cluster_peer_timeouts_total",
                     "Send/recv deadline expiries (subset of failures)",
                     labels, ps[i].timeouts);
    }
  }
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> all;
  {
    base::MutexLock lock(&sessions_mu_);
    all.assign(sessions_.begin(), sessions_.end());
  }
  out.AddGauge("oodb_server_sessions", "Live named sessions", {}, all.size());
  // sessions_mu_ is released first; a session's metrics take no session
  // lock (docs/concurrency.md).
  for (const auto& [name, session] : all) {
    session->AppendMetrics(out, {{"session", name}});
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) Shutdown();
}

Result<int> Server::Start() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return InternalError("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return FailedPreconditionError(
        StrCat("cannot bind 127.0.0.1:", options_.port));
  }
  if (::listen(fd, 1024) != 0) {
    ::close(fd);
    return InternalError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return InternalError("getsockname() failed");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd_ < 0) {
    ::close(fd);
    return InternalError("epoll_create1()/eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return InternalError("epoll_ctl(listen) failed");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kEventTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    ::close(fd);
    return InternalError("epoll_ctl(eventfd) failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  loop_ = std::thread([this] { EventLoop(); });
  return port_;
}

void Server::EventLoop() {
  bool listener_active = true;
  uint64_t loop_iters = 0;
  std::array<epoll_event, 128> events;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && listener_active) {
      // Deregister and close the listener: the port is released and new
      // connects are refused while the drain completes.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listener_active = false;
    }
    if (loop_stop_.load(std::memory_order_acquire)) {
      // The pool has drained: every admitted request has queued its
      // completion. Route the leftovers and flush what the sockets will
      // take within a bounded grace period.
      DrainCompletions();
      FinalFlush();
      break;
    }
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Iteration sampling: the batch-size histogram is one lock-free
    // record per wakeup. The lag histogram needs two clock reads, which
    // are costly on hosts without a vDSO fast path, so it is taken on
    // 1-in-16 wakeups (bench_obs E21 budget) — it is a service-time
    // distribution; totals come from the verb counters.
    const bool sample_loop = obs::Enabled();
    const bool sample_lag = sample_loop && (loop_iters++ & 15) == 0;
    std::chrono::steady_clock::time_point iter_start;
    if (sample_lag) iter_start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        if (listener_active) HandleAccept();
        continue;
      }
      if (tag == kEventTag) {
        uint64_t counter = 0;
        while (::read(event_fd_, &counter, sizeof(counter)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        HandleReadable(*it->second);
        it = conns_.find(tag);
        if (it == conns_.end()) continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(*it->second);
    }
    DrainCompletions();
    if (sample_loop) loop_batch_hist_->RecordAlways(static_cast<uint64_t>(n));
    if (sample_lag) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - iter_start)
                          .count();
      loop_lag_hist_->RecordAlways(ns > 0 ? static_cast<uint64_t>(ns) : 1);
    }
  }
  // Loop exit: drop whatever is left.
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  open_conns_.store(0, std::memory_order_relaxed);
  write_queue_bytes_.store(0, std::memory_order_relaxed);
  if (listener_active) ::close(listen_fd_);
}

void Server::HandleAccept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept error
    }
    int one = 1;
    // Replies are small and latency-bound: never wait for Nagle.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->armed = EPOLLIN;
    connections_->Add();
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::HandleReadable(Connection& conn) {
  char chunk[32 << 10];
  bool fatal = false;
  while (conn.in.size() - conn.in_pos < in_cap_) {
    ssize_t r = ::read(conn.fd, chunk, sizeof(chunk));
    if (r > 0) {
      conn.in.append(chunk, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {
      // Half-close: the peer may still be waiting for replies to frames
      // it pipelined before the FIN, so finish those before closing.
      conn.rd_eof = true;
      conn.closing = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fatal = true;
    break;
  }
  if (fatal) {
    CloseConnection(conn.id);
    return;
  }
  if (!conn.preamble_decided && !conn.in.empty()) {
    const size_t n = std::min(conn.in.size(), kBinaryPreamble.size());
    if (conn.in.compare(0, n, kBinaryPreamble.data(), n) != 0) {
      conn.preamble_decided = true;  // not a preamble prefix: legacy text
    } else if (conn.in.size() >= kBinaryPreamble.size()) {
      conn.preamble_decided = true;
      conn.binary = true;
      conn.in_pos = kBinaryPreamble.size();
    }
    // else: a strict prefix of the preamble; wait for more bytes.
  }
  ParseFrames(conn);
  FlushOutput(conn);
}

void Server::HandleWritable(Connection& conn) { FlushOutput(conn); }

void Server::ParseFrames(Connection& conn) {
  if (!conn.preamble_decided) return;
  loop_pairs_left_ = kLoopPairsPerPass;
  while (!conn.discard_input) {
    if (conn.out_bytes > kMaxOutBuffer) break;
    if (conn.inflight >= (conn.binary ? kMaxInflightPerConn : 1)) break;
    if (!ParseFrame(conn)) break;
  }
  // Compact once the consumed prefix dominates the buffer.
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1u << 20)) {
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
  }
  if (!pending_work_.empty()) SubmitPooled(conn);
}

bool Server::ParseFrame(Connection& conn) {
  const std::string_view buf = std::string_view(conn.in).substr(conn.in_pos);
  if (buf.empty()) return false;
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  const ParseStatus status =
      conn.binary ? ParseBinaryRequest(buf, &consumed, &req, &error)
                  : ParseTextRequest(buf, kMaxPayload, &consumed, &req.request,
                                     &error);
  conn.in_pos += consumed;  // a frame, or blank text lines
  if (status == ParseStatus::kBad) {
    // The framing is gone: answer if a reply is owed (addressed to the
    // frame's id when the header was readable), then close once it
    // flushes.
    conn.closing = true;
    conn.discard_input = true;
    if (!req.request.ok()) HandleFrame(conn, req.id, std::move(req.request));
  } else if (status == ParseStatus::kFrame) {
    HandleFrame(conn, req.id, std::move(req.request));
  }
  return status == ParseStatus::kFrame;
}

void Server::HandleFrame(Connection& conn, uint64_t request_id,
                         Request request) {
  const Verb verb = request.verb();
  requests_->Add();
  verb_requests_[static_cast<size_t>(verb)]->Add();
  if (!request.ok()) {
    return QueueReply(conn, request_id, ErrReply(kErrProto, request.error()),
                      verb);
  }

  // Control verbs answered inline on the loop — they must work even when
  // the admission queue is saturated. HEALTH/METRICS/TRACE stay
  // observable under overload and while draining by the same rule.
  if (InfoOf(verb).on_loop) {
    return QueueReply(conn, request_id, AnswerInline(conn, request), verb);
  }
  if (stopping_.load(std::memory_order_relaxed)) {
    return QueueReply(conn, request_id,
                      ErrReply(kErrShutdown, "server is draining"), verb);
  }
  // A memo-warm check is answered here and, like the on_loop verbs,
  // bypasses admission.
  if (AnswerFromMemo(conn, request_id, request)) return;

  // Bounded admission: reply BUSY instead of queueing without limit.
  if (admitted_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_pending) {
    admitted_.fetch_sub(1, std::memory_order_acq_rel);
    Reply reply;
    reply.kind = Reply::Kind::kBusy;
    return QueueReply(conn, request_id, reply, verb);
  }

  // Per-request trace: spans are filled on the worker, which also
  // finalizes the trace and the latency histogram when it encodes the
  // reply (the loop only moves bytes from there on).
  std::shared_ptr<obs::TraceContext> trace;
  if (obs::Enabled() && slow_log_.enabled()) {
    trace = std::make_shared<obs::TraceContext>();
    trace->id = trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    trace->verb = VerbName(verb);
    if (const RequestView view = request.view(); view.names_session()) {
      trace->session = view.args[0];
    }
  }

  conn.inflight++;
  PooledWork work;
  work.request_id = request_id;
  work.trace = std::move(trace);
  work.enqueued = std::chrono::steady_clock::now();
  work.request = std::move(request);
  pending_work_.push_back(std::move(work));
}

bool Server::AnswerFromMemo(Connection& conn, uint64_t request_id,
                            const Request& request) {
  const Verb verb = request.verb();
  // An earlier frame staged or in flight would be overtaken: its reply
  // comes back later, and it may be a LOAD or a writer the check must
  // follow.
  if ((verb != Verb::kCheck && verb != Verb::kBcheck) || conn.inflight > 0) {
    return false;
  }
  const RequestView view = request.view();
  const size_t pairs = view.args.size() / 2;  // args: session, C₁ D₁ ...
  if (pairs > loop_pairs_left_) return false;
  const Placement placement = PlaceClientRequest(view);
  if (placement == Placement::kOwner) return false;
  const std::shared_ptr<Session> session = FindSession(view.args[0]);
  if (session == nullptr) return false;

  const auto start = std::chrono::steady_clock::now();
  std::optional<obs::TraceContext> trace;
  if (obs::Enabled() && slow_log_.enabled()) trace.emplace();
  std::optional<Reply> reply =
      session->AnswerFromMemo(view, trace ? &*trace : nullptr);
  if (!reply) return false;

  loop_pairs_left_ -= pairs;
  loop_answers_[static_cast<size_t>(verb)]->Add();
  if (placement == Placement::kReplicaRead) replica_reads_->Add();
  if (trace) {
    trace->id = trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    trace->verb = VerbName(verb);
    trace->session = view.args[0];
  }
  AppendOutput(conn, FinishRequest(request_id, conn.binary, verb, *reply,
                                   start, trace ? &*trace : nullptr));
  return true;
}

Reply Server::AnswerInline(Connection& conn, const Request& request) {
  switch (request.verb()) {
    case Verb::kPing:
      return OkReply("pong");
    case Verb::kHealth:
      return OkReply(HealthText());
    case Verb::kMetrics:
      return OkReply(registry_.RenderPrometheus());
    case Verb::kTrace: {
      const Args args = request.view().args;
      uint64_t n = 10;
      if (!args.empty() && !ParseSize(args[0], &n)) {
        return ErrReply(kErrProto, InfoOf(Verb::kTrace).usage);
      }
      return OkReply(slow_log_.RenderJsonLines(n));
    }
    case Verb::kShutdown:
      RequestShutdown();
      conn.closing = true;
      conn.discard_input = true;
      return OkReply("draining");
    default:  // the verb table flags a verb on_loop that has no case here
      return ErrReply("internal", StrCat(VerbName(request.verb()),
                                         " is not answered inline"));
  }
}

void Server::SubmitPooled(Connection& conn) {
  // Rollback addresses, should the pool refuse the burst (it destroys
  // the unrun task — and the work it captured — when draining).
  std::vector<std::pair<uint64_t, Verb>> staged;
  staged.reserve(pending_work_.size());
  for (const PooledWork& w : pending_work_) {
    staged.emplace_back(w.request_id, w.request.verb());
  }
  const uint64_t conn_id = conn.id;
  const bool binary = conn.binary;
  bool submitted = pool_->Submit(
      [this, conn_id, binary, work = std::move(pending_work_)]() mutable {
        std::vector<Completion> batch;
        batch.reserve(work.size());
        for (PooledWork& w : work) {
          batch.push_back(FinalizeOnWorker(conn_id, binary, std::move(w)));
        }
        PushCompletions(std::move(batch));
      });
  pending_work_.clear();  // moved-from: restore the between-passes invariant
  if (!submitted) {  // pool already draining
    for (const auto& [request_id, verb] : staged) {
      admitted_.fetch_sub(1, std::memory_order_acq_rel);
      conn.inflight--;
      QueueReply(conn, request_id,
                 ErrReply(kErrShutdown, "server is draining"), verb);
    }
  }
}

void Server::QueueReply(Connection& conn, uint64_t request_id,
                        const Reply& reply, Verb verb) {
  CountReply(reply, verb);
  AppendOutput(conn, conn.binary ? EncodeBinaryReply(request_id, reply)
                                 : EncodeReply(reply));
}

void Server::CountReply(const Reply& reply, Verb verb) {
  switch (reply.kind) {
    case Reply::Kind::kOk:
      ok_->Add();
      break;
    case Reply::Kind::kErr:
      errors_->Add();
      verb_errors_[static_cast<size_t>(verb)]->Add();
      break;
    case Reply::Kind::kBusy:
      busy_->Add();
      break;
  }
}

void Server::AppendOutput(Connection& conn, std::string bytes) {
  conn.out_bytes += bytes.size();
  write_queue_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (!conn.outq.empty() &&
      conn.outq.back().size() + bytes.size() <= kOutChunk) {
    conn.outq.back().append(bytes);
  } else {
    conn.outq.push_back(std::move(bytes));
  }
}

void Server::ConsumeOutput(Connection& conn, size_t n) {
  conn.out_bytes -= n;
  write_queue_bytes_.fetch_sub(n, std::memory_order_relaxed);
  while (n > 0) {
    std::string& front = conn.outq.front();
    const size_t avail = front.size() - conn.out_head;
    if (n < avail) {
      conn.out_head += n;
      return;
    }
    n -= avail;
    conn.outq.pop_front();
    conn.out_head = 0;
  }
}

ssize_t Server::WriteSome(Connection& conn) {
  // One gather write per syscall: a pipelined burst of replies leaves in
  // a handful of sendmsg calls, not one send per frame. sendmsg rather
  // than writev for MSG_NOSIGNAL (no SIGPIPE on a dead peer).
  iovec iov[kMaxIov];
  msghdr msg{};
  msg.msg_iov = iov;
  size_t head = conn.out_head;
  for (const std::string& chunk : conn.outq) {
    if (msg.msg_iovlen == kMaxIov) break;
    iov[msg.msg_iovlen].iov_base = const_cast<char*>(chunk.data()) + head;
    iov[msg.msg_iovlen].iov_len = chunk.size() - head;
    head = 0;
    ++msg.msg_iovlen;
  }
  const ssize_t w = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
  if (w > 0) ConsumeOutput(conn, static_cast<size_t>(w));
  return w;
}

Server::Completion Server::FinalizeOnWorker(uint64_t conn_id, bool binary,
                                            PooledWork work) {
  Reply reply;
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - work.enqueued)
                          .count();
  if (options_.deadline_ms > 0 && waited > options_.deadline_ms) {
    deadline_expired_->Add();
    reply = ErrReply(kErrDeadline,
                     StrCat("queued ", waited, " ms, deadline ",
                            options_.deadline_ms, " ms"));
  } else {
    reply = Dispatch(work.request, work.trace.get());
  }
  admitted_.fetch_sub(1, std::memory_order_acq_rel);
  return Completion{conn_id,
                    FinishRequest(work.request_id, binary, work.request.verb(),
                                  reply, work.enqueued, work.trace.get())};
}

std::string Server::FinishRequest(uint64_t request_id, bool binary, Verb verb,
                                  const Reply& reply,
                                  std::chrono::steady_clock::time_point start,
                                  obs::TraceContext* trace) {
  CountReply(reply, verb);
  std::string bytes;
  {
    obs::ScopedSpan span(trace, obs::Phase::kReply);
    bytes = binary ? EncodeBinaryReply(request_id, reply) : EncodeReply(reply);
  }
  if (obs::Enabled()) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    const uint64_t total_ns = ns > 0 ? static_cast<uint64_t>(ns) : 1;
    if (obs::Histogram* hist = latency_[static_cast<size_t>(verb)]) {
      hist->RecordAlways(total_ns);
    }
    if (trace != nullptr) {
      trace->total_ns = total_ns;
      trace->ok = reply.kind == Reply::Kind::kOk;
      slow_log_.Finish(std::move(*trace));
    }
  }
  return bytes;
}

void Server::PushCompletions(std::vector<Completion> batch) {
  bool was_empty;
  {
    base::MutexLock lock(&comp_mu_);
    was_empty = completions_.empty();
    for (Completion& c : batch) completions_.push_back(std::move(c));
  }
  // One wakeup per empty→non-empty transition: the loop drains the whole
  // vector at once, so later pushes ride the same eventfd signal.
  if (was_empty) WakeLoop();
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    base::MutexLock lock(&comp_mu_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  std::vector<uint64_t> touched;
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died while running
    Connection& conn = *it->second;
    AppendOutput(conn, std::move(c.bytes));
    if (conn.inflight > 0) conn.inflight--;
    if (touched.empty() || touched.back() != c.conn_id) {
      touched.push_back(c.conn_id);
    }
  }
  for (uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    // A completion may unblock parsing (text ordering, pipeline bound).
    ParseFrames(*it->second);
    FlushOutput(*it->second);
  }
}

void Server::FlushOutput(Connection& conn) {
  while (conn.out_bytes > 0) {
    const ssize_t w = WriteSome(conn);
    if (w > 0 || (w < 0 && errno == EINTR)) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(conn.id);  // peer is gone; replies are undeliverable
    return;
  }
  // ParseFrames ran before every flush, so an empty pipe here means no
  // further progress is possible on a closing connection.
  if (conn.closing && conn.inflight == 0 && conn.out_bytes == 0) {
    CloseConnection(conn.id);
    return;
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection& conn) {
  uint32_t want = 0;
  const size_t unparsed = conn.in.size() - conn.in_pos;
  const size_t pending = conn.out_bytes;
  if (!conn.rd_eof && !conn.discard_input && unparsed < in_cap_ &&
      pending < kMaxOutBuffer) {
    want |= EPOLLIN;
  }
  if (pending > 0) want |= EPOLLOUT;
  if (want == conn.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed = want;
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  write_queue_bytes_.fetch_sub(it->second->out_bytes,
                               std::memory_order_relaxed);
  conns_.erase(it);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::FinalFlush() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (auto& [id, conn] : conns_) {
    while (conn->out_bytes > 0) {
      const ssize_t w = WriteSome(*conn);
      if (w > 0 || (w < 0 && errno == EINTR)) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (std::chrono::steady_clock::now() >= deadline) break;
        pollfd pfd{conn->fd, POLLOUT, 0};
        ::poll(&pfd, 1, 50);
        continue;
      }
      break;  // peer gone
    }
  }
}

Reply Server::Dispatch(const Request& request, obs::TraceContext* trace) {
  switch (request.verb()) {
    case Verb::kForward: {
      // A peer routed this here: skip the ownership check, but still
      // replicate mutations.
      if (ring_ == nullptr) {
        return ErrReply(kErrProto, "FORWARD outside cluster mode");
      }
      StampEnvelope(request.envelope(), "forwarded", trace);
      const RequestView inner = request.inner();
      if (trace != nullptr && inner.names_session()) {
        trace->session = inner.args[0];
      }
      return Execute(inner, trace, Route::kForwarded);
    }
    case Verb::kRepl:
      return DispatchRepl(request, trace);
    default:
      return Execute(request.view(), trace, Route::kClient);
  }
}

void Server::StampEnvelope(const Envelope& envelope, const char* route,
                           obs::TraceContext* trace) const {
  if (trace == nullptr) return;
  trace->route = route;
  if (!envelope.has_header) return;
  trace->origin_trace_id = envelope.trace_id;
  if (envelope.origin < peer_names_.size()) {
    trace->peer = peer_names_[envelope.origin];
  }
}

Server::Placement Server::PlaceClientRequest(
    const RequestView& request) const {
  if (ring_ == nullptr || !request.names_session()) return Placement::kHere;
  // Ownership: a session verb from an ordinary client on a node that
  // does not own the session is served here only when this node
  // replicates it (reads), otherwise proxied to the owner.
  const std::string_view session = request.args[0];
  if (ring_->OwnerOf(session) == options_.cluster.self) {
    return Placement::kHere;
  }
  const bool replica_read =
      !request.info().mutates &&
      ring_->IsReplicaOf(session, options_.cluster.self,
                         options_.cluster.EffectiveReplicas());
  return replica_read ? Placement::kReplicaRead : Placement::kOwner;
}

Reply Server::Execute(const RequestView& request, obs::TraceContext* trace,
                      Route route) {
  const VerbInfo& info = request.info();
  if (route == Route::kClient) {
    switch (PlaceClientRequest(request)) {
      case Placement::kHere:
        break;
      case Placement::kReplicaRead:
        replica_reads_->Add();
        break;
      case Placement::kOwner:
        return ForwardToOwner(request, trace);
    }
  }

  Reply reply = DispatchLocal(request, trace);

  // Replication hook: the owner logs every applied mutation and pushes
  // it to the session's replicas before the reply leaves this node.
  // Replica applies never re-replicate.
  if (ring_ != nullptr && route != Route::kReplica &&
      reply.kind == Reply::Kind::kOk && info.mutates) {
    const std::string session(request.args[0]);
    // The push is synchronous: its cost is this request's, so it gets
    // its own phase. The REPL header carries this trace's id so the
    // replica's entry can be joined back here.
    obs::ScopedSpan span(trace, obs::Phase::kReplicate);
    replicator_->Record(session, request.verb, RenderLine(request),
                        std::string(request.payload),
                        trace != nullptr ? trace->id : 0);
    replicator_->Flush(session);
  }
  return reply;
}

Reply Server::DispatchRepl(const Request& request, obs::TraceContext* trace) {
  if (ring_ == nullptr) {
    return ErrReply(kErrProto, "REPL outside cluster mode");
  }
  StampEnvelope(request.envelope(), "replica", trace);
  const uint64_t seq = request.envelope().seq;
  const RequestView inner = request.inner();
  const std::string_view session = inner.args[0];
  if (trace != nullptr) trace->session = session;
  // Serialized per daemon: pipelined REPL frames for one session may
  // land on different workers, and they must apply in sequence order.
  base::MutexLock lock(&repl_mu_);
  uint64_t& applied = replica_applied_[std::string(session)];
  if (seq <= applied) {
    // Duplicate delivery (owner retried after a lost ack): idempotent.
    repl_dups_->Add();
    return OkReply(StrCat("applied=", applied, " dup=true"));
  }
  // In-sequence, or a LOAD — which rebuilds the session from scratch and
  // is therefore a valid resync point at any forward sequence number.
  if (seq != applied + 1 && inner.verb != Verb::kLoad) {
    repl_gaps_->Add();
    return ErrReply("replica_gap", StrCat("have=", applied));
  }
  Reply reply = Execute(inner, trace, Route::kReplica);
  if (reply.kind != Reply::Kind::kOk) return reply;
  applied = seq;
  repl_applies_->Add();
  return OkReply(StrCat("applied=", seq));
}

Reply Server::ForwardToOwner(const RequestView& request,
                             obs::TraceContext* trace) {
  forwards_->Add();
  // The whole proxy attempt — dialing, the round trip(s), failover — is
  // the forward phase: total_ns minus forward_ns is what this node
  // spent, forward_ns is network plus the remote node's work.
  obs::ScopedSpan span(trace, obs::Phase::kForward);
  const std::string line =
      StrCat("FORWARD @", options_.cluster.self, ":",
             trace != nullptr ? trace->id : 0, " ", RenderLine(request));
  // The owner first; for idempotent reads, the session's replicas next,
  // so every node keeps answering reads while the owner is down. This
  // node is none of them: it would have served the read itself.
  const std::vector<size_t> targets =
      ring_->ServersOf(request.args[0], options_.cluster.EffectiveReplicas(),
                       request.info().idempotent);
  Reply reply = ErrReply("unavailable", "no cluster peer reachable");
  for (const size_t node : targets) {
    auto peer = peers_->Acquire(node);
    if (!peer.ok()) {
      reply = ErrReply("unavailable", peer.status().message());
      continue;
    }
    // RTT is sampled 1-in-8 attempts: the two clock reads it needs are
    // the expensive part on hosts without a vDSO fast path (bench_obs
    // E21 budget). The histogram is a latency distribution; forward
    // totals come from the per-verb request counters.
    const bool sample =
        obs::Enabled() &&
        (forward_samples_.fetch_add(1, std::memory_order_relaxed) & 7) == 0;
    std::chrono::steady_clock::time_point t0;
    if (sample) t0 = std::chrono::steady_clock::now();
    Result<Reply> r = (*peer)->Exchange(line, request.payload);
    if (sample && node < forward_rtt_.size() &&
        forward_rtt_[node] != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      forward_rtt_[node]->RecordAlways(ns > 0 ? static_cast<uint64_t>(ns)
                                              : 1);
    }
    // A transport fault poisons the connection, and the peer may be
    // down: try the next target. Any reply (OK, ERR or BUSY) is the
    // peer's answer, passed on unchanged.
    peers_->Release(node, std::move(*peer), r.ok());
    if (!r.ok()) {
      reply = ErrReply("unavailable", r.status().message());
      continue;
    }
    if (trace != nullptr && node < peer_names_.size()) {
      trace->peer = peer_names_[node];
    }
    return std::move(r).value();
  }
  forward_failures_->Add();
  return reply;
}

Reply Server::DispatchLocal(const RequestView& request,
                            obs::TraceContext* trace) {
  // The parse checked every argument count against the verb table, so
  // the handlers below index request.args without further checks.
  const Args& args = request.args;
  switch (request.verb) {
    case Verb::kLoad: {
      // Parse/translate outside any lock — LOAD of a big schema must not
      // stall requests against other sessions.
      auto session = Session::FromSource(request.payload, trace);
      if (!session.ok()) return ErrReply(session.status());
      std::string summary = (*session)->Summary();
      std::shared_ptr<Session> replaced;  // destroyed after the lock
      base::MutexLock lock(&sessions_mu_);
      if (sessions_.find(args[0]) == sessions_.end() &&
          sessions_.size() >= kMaxSessions) {
        return ErrReply("resource_exhausted",
                        StrCat("session limit (", kMaxSessions, ") reached"));
      }
      // Replacing is atomic for new requests; in-flight requests finish
      // against the old session via their shared_ptr. The old session is
      // released after the lock, which the event loop also takes.
      replaced = std::exchange(sessions_[std::string(args[0])],
                               std::move(*session));
      return OkReply(StrCat("session=", args[0], " ", summary));
    }
    case Verb::kStats:
      return DispatchStats(request);
    case Verb::kSleep: {
      // Diagnostic: occupies a worker for <ms> — how the tests and the
      // load benchmark provoke BUSY/deadline behaviour deterministically.
      uint64_t ms = 0;
      if (!ParseSize(args[0], &ms) || ms > 10000) {
        return ErrReply(kErrProto, request.info().usage);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return OkReply(StrCat("slept=", ms));
    }
    default:
      break;
  }

  // Every other verb a client can send here names a session, which runs
  // it. An on_loop verb wrapped in FORWARD reaches here, possibly with no
  // arguments, and is no command here.
  if (request.info().session != SessionArg::kRequired) {
    return ErrReply(kErrProto,
                    StrCat("unknown command '", request.info().name, "'"));
  }
  std::shared_ptr<Session> session = FindSession(args[0]);
  if (session == nullptr) {
    return ErrReply("not_found",
                    StrCat("no session '", args[0], "' (LOAD one first)"));
  }
  return session->Handle(request, trace);
}

namespace {

// The STATS text, one template per line: each {series} stands for that
// series' value in the registry snapshot, and a session's lines read
// the series labeled with its name.
constexpr std::string_view kStatsServerLine =
    "server: connections={oodb_server_connections_total} "
    "requests={oodb_server_requests_total} ok={oodb_server_ok_total} "
    "err={oodb_server_errors_total} busy={oodb_server_busy_total} "
    "deadline={oodb_server_deadline_expired_total} "
    "pending={oodb_server_pending} threads={oodb_server_threads} "
    "sessions={oodb_server_sessions}";
// Follows the configured `cluster: nodes=<n> self=<i> replicas=<r> `.
constexpr std::string_view kStatsClusterCounters =
    "forwards={oodb_server_forwards_total} "
    "forward_failures={oodb_server_forward_failures_total} "
    "replica_reads={oodb_server_replica_reads_total} "
    "repl_applies={oodb_server_repl_applies_total} "
    "repl_dups={oodb_server_repl_dups_total} "
    "repl_gaps={oodb_server_repl_gaps_total} "
    "repl_sent={oodb_server_repl_sent_total} "
    "repl_acked={oodb_server_repl_acked_total} "
    "repl_failures={oodb_server_repl_push_failures_total} "
    "repl_resyncs={oodb_server_repl_resyncs_total} "
    "repl_max_lag={oodb_cluster_repl_lag_max}";
// Follows `session <name>: `.
constexpr std::string_view kStatsSessionLines =
    "checks={oodb_session_checks_total} "
    "classifies={oodb_session_classifies_total} "
    "optimizes={oodb_session_optimizes_total} "
    "undefines={oodb_session_undefines_total} views={oodb_session_views} "
    "objects={oodb_session_objects}\n"
    "engine_runs={oodb_checker_engine_runs_total} "
    "prefilter_rejections={oodb_prefilter_rejections_total}/"
    "{oodb_prefilter_checks_total} memo_hits={oodb_memo_hits_total} "
    "memo_misses={oodb_memo_misses_total} memo_entries={oodb_memo_entries} "
    "pool_reuses={oodb_engine_pool_reuses_total}/"
    "{oodb_engine_pool_acquires_total}";
// Present once the session has classified.
constexpr std::string_view kStatsClassifyLine =
    "classify_concepts={oodb_classify_last_concepts} "
    "classify_checks={oodb_classify_last_checks_performed}/"
    "{oodb_classify_last_pairwise_checks} "
    "classify_avoided={oodb_classify_last_checks_avoided} "
    "classify_inserts={oodb_classify_inserts_total} "
    "classify_removes={oodb_classify_removes_total}";

// The value of one series, from the samples carrying `labels`.
uint64_t Count(const std::vector<obs::Sample>& samples,
               const std::string& series, const obs::Labels& labels = {}) {
  return static_cast<uint64_t>(obs::SampleValue(samples, series, labels));
}

// Fills a STATS template from the snapshot.
std::string FillStats(std::string_view line,
                      const std::vector<obs::Sample>& samples,
                      const obs::Labels& labels = {}) {
  std::string text;
  for (size_t open = line.find('{'); open != std::string_view::npos;
       open = line.find('{')) {
    const size_t close = line.find('}', open);
    const std::string series(line.substr(open + 1, close - open - 1));
    text += StrCat(line.substr(0, open), Count(samples, series, labels));
    line.remove_prefix(close + 1);
  }
  text += line;
  return text;
}

}  // namespace

Reply Server::DispatchStats(const RequestView& request) {
  const std::vector<obs::Sample> samples = registry_.Snapshot();
  std::string text = FillStats(kStatsServerLine, samples);
  std::string verbs;
  for (const VerbInfo& info : kVerbTable) {
    const obs::Labels labels = {{"verb", info.name}};
    const uint64_t n =
        Count(samples, "oodb_server_verb_requests_total", labels);
    if (n == 0) continue;
    verbs += StrCat(verbs.empty() ? "" : " ", info.name, "=", n, "/",
                    Count(samples, "oodb_server_verb_errors_total", labels));
  }
  if (!verbs.empty()) text += "\nverbs: " + verbs;
  if (ring_ != nullptr) {
    // Cluster mode only: a single-node daemon's STATS text has no
    // cluster line.
    text += StrCat("\ncluster: nodes=", options_.cluster.nodes.size(),
                   " self=", options_.cluster.self,
                   " replicas=", options_.cluster.EffectiveReplicas(), " ",
                   FillStats(kStatsClusterCounters, samples));
  }
  // Every session has a checks series, and the snapshot lists the
  // sessions in name order.
  bool found = false;
  for (const obs::Sample& sample : samples) {
    if (sample.name != "oodb_session_checks_total") continue;
    const std::string& name = sample.labels.front().second;
    if (request.names_session() && name != request.args[0]) continue;
    found = true;
    const obs::Labels labels = {{"session", name}};
    text += StrCat("\nsession ", name, ": ",
                   FillStats(kStatsSessionLines, samples, labels));
    if (obs::SampleValue(samples, "oodb_classify_last_concepts", labels,
                         -1) >= 0) {
      text += "\n" + FillStats(kStatsClassifyLine, samples, labels);
    }
  }
  if (request.names_session() && !found) {
    return ErrReply("not_found",
                    StrCat("no session '", request.args[0], "'"));
  }
  return OkReply(std::move(text));
}

std::string Server::HealthText() const {
  const char* status = "ok";
  std::string detail;
  if (ring_ != nullptr) {
    // Degraded: a peer whose last exchange failed, or a replica behind
    // its owner's log (docs/cluster.md §2). Both heal without operator
    // action — the next successful exchange / the next flushed mutation
    // — so degraded means "watch", down peers mean "act".
    size_t peers_down = 0;
    const std::vector<cluster::PeerPool::PeerStats> ps = peers_->stats();
    for (size_t i = 0; i < ps.size(); ++i) {
      if (i != options_.cluster.self && ps[i].consecutive_failures > 0) {
        ++peers_down;
      }
    }
    const cluster::Replicator::Stats rs = replicator_->stats();
    if (peers_down > 0 || rs.max_lag > 0) status = "degraded";
    detail = StrCat(" peers_down=", peers_down, " repl_lag_max=", rs.max_lag,
                    " repl_lag_sum=", rs.lag_sum);
  }
  if (stopping_.load(std::memory_order_relaxed)) status = "draining";
  return StrCat("status=", status, detail);
}

std::shared_ptr<Session> Server::FindSession(std::string_view name) {
  base::MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

void Server::RequestShutdown() {
  stopping_.store(true, std::memory_order_release);
  {
    base::MutexLock lock(&stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.NotifyAll();
}

void Server::Wait() {
  {
    base::MutexLock lock(&stop_mu_);
    while (!stop_requested_) stop_cv_.Wait(stop_mu_);
  }
  // The first caller tears down; the others wait until it is done, so
  // every caller may destroy the server afterwards.
  std::call_once(teardown_once_, [this] { Teardown(); });
}

void Server::Shutdown() {
  RequestShutdown();
  Wait();
}

void Server::Teardown() {
  // 1. Wake the loop: it sees stopping_, deregisters + closes the
  //    listener, and starts answering ERR shutdown to new frames. New
  //    connects are refused from here on.
  WakeLoop();

  // 2. Graceful drain: every admitted request runs to completion and
  //    queues its encoded reply; the loop keeps flushing them while we
  //    block here.
  pool_->Drain();

  // 3. Final handshake: the loop routes the remaining completions, gives
  //    the sockets a bounded grace period to take the bytes, closes every
  //    connection, and exits.
  loop_stop_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) loop_.join();

  // 4. The loop is gone: its fds are safe to close from this thread.
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  event_fd_ = -1;
  epoll_fd_ = -1;
  listen_fd_ = -1;  // the loop closed it when it saw stopping_
}

void Server::WakeLoop() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

}  // namespace oodb::server
