// Small client for the optimizer daemon: one TCP connection, the wire.h
// framing. Used by the `oodbsub rpc` subcommand, the load benchmark and
// the end-to-end tests.
//
// Two modes on the same object:
//
// - Text (default): synchronous Roundtrip over the legacy newline
//   protocol, one reply per request in order.
// - Binary: after EnableBinary() the connection speaks the length-
//   prefixed framing. Roundtrip and the typed wrappers keep working
//   (they become submit + await of a single frame), and the pipelined
//   API (SubmitLine/SubmitCheck/SubmitCheckBatch + Await) allows many
//   requests in flight, with replies matched by request id — the server
//   may complete them out of order.
//
// Both modes read replies through one receive buffer and wire.h's
// incremental reply parser for their framing.
#ifndef OODB_SERVER_CLIENT_H_
#define OODB_SERVER_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"
#include "server/wire.h"

namespace oodb::server {

// Not thread-safe: replies are matched to requests by connection order
// (text) or by an unsynchronized id table (binary), so give each thread
// its own client.
class Client {
 public:
  // Connects to the daemon on `host:port` (host is a dotted quad;
  // "127.0.0.1" for the local daemon). The socket is TCP_NODELAY: every
  // request is latency-bound and smaller than a segment.
  static Result<Client> Connect(const std::string& host, int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  // Switches the connection to the binary protocol by sending the
  // negotiation preamble. Call before the first request; irreversible.
  Status EnableBinary();
  bool binary() const { return binary_; }

  // Arms SO_SNDTIMEO/SO_RCVTIMEO on the socket: any later send or
  // receive that stalls past `ms` milliseconds fails the call (and, like
  // every transport fault, kills the connection — the stream position is
  // unknowable after a partial frame). timed_out() reports whether the
  // fault that killed this connection was such an expiry, so pools can
  // count peer timeouts apart from refused/reset connections.
  Status SetDeadline(int64_t ms);
  bool timed_out() const { return timed_out_; }

  // Sends one already-framed request line (no trailing newline) plus an
  // optional payload, and reads the reply. Returns the OK payload;
  // BUSY maps to kResourceExhausted with message "BUSY", ERR frames to
  // kFailedPrecondition with "<code>: <message>". In binary mode this is
  // a pipeline of depth one: SubmitLine + Await.
  Result<std::string> Roundtrip(const std::string& line,
                                const std::string* payload = nullptr);

  // ---- Pipelined binary API (EnableBinary() first) ----

  // Each Submit* stages one frame and returns its request id without
  // waiting for the reply; any number may be in flight. Staged frames
  // are buffered and written in one batch by the next Await (or an
  // explicit Flush), so a pipeline of depth N costs one send, not N.
  Result<uint64_t> SubmitLine(const std::string& line,
                              const std::string* payload = nullptr);
  Result<uint64_t> SubmitCheck(const std::string& session,
                               const std::string& c, const std::string& d);
  Result<uint64_t> SubmitCheckBatch(
      const std::string& session,
      const std::vector<std::pair<std::string, std::string>>& pairs);

  // Writes any staged frames to the socket without awaiting replies.
  Status Flush();

  // Flushes staged frames, then blocks until the reply for `id`
  // arrives, buffering replies to other ids along the way. Maps
  // OK/ERR/BUSY exactly like Roundtrip.
  Result<std::string> Await(uint64_t id);

  // One LINE frame and its reply as the daemon sent it: OK, ERR and
  // BUSY are all values, only a transport fault is an error. The
  // payload is borrowed, so a daemon proxies it without a copy.
  Result<Reply> Exchange(std::string_view line, std::string_view payload);

  // ---- Convenience wrappers over the protocol verbs (both modes) ----
  Status Ping();
  Result<std::string> Load(const std::string& session,
                           const std::string& dl_source);
  Result<std::string> LoadState(const std::string& session,
                                const std::string& odb_source);
  Result<size_t> DefineView(const std::string& session,
                            const std::string& query_class);
  // Drops the view (if materialized) and removes the query class from
  // the session's resident taxonomy. Returns the `undefined=...` line.
  Result<std::string> Undefine(const std::string& session,
                               const std::string& query_class);
  Result<bool> Check(const std::string& session, const std::string& c,
                     const std::string& d);
  // Batched CHECK (the BCHECK verb): one verdict per pair, in order.
  // Text mode sends one BCHECK line; binary mode one kBatchCheck frame.
  Result<std::vector<bool>> CheckBatch(
      const std::string& session,
      const std::vector<std::pair<std::string, std::string>>& pairs);
  Result<std::string> Classify(const std::string& session);
  Result<std::string> Optimize(const std::string& session,
                               const std::string& query_class);
  Result<std::string> Stats(const std::string& session = "");
  // Prometheus text exposition of the daemon's metrics registry.
  Result<std::string> Metrics();
  // Last n slow queries as JSON lines, newest first.
  Result<std::string> TraceLog(size_t n = 10);
  Result<std::string> Shutdown();

 private:
  explicit Client(int fd);

  // Marks the connection dead and, when a deadline is armed and errno
  // says EAGAIN/EWOULDBLOCK, flags the fault as a timeout.
  void NoteTransportFault();
  // Stages one encoded binary frame, returning the id it carries.
  Result<uint64_t> SendFrame(uint64_t id, std::string frame);
  // Reads the next reply off the socket with the parser of this
  // connection's framing (a text reply carries id 0). A malformed reply
  // kills the connection in either framing.
  Result<BinaryReply> ReadReplyFrame();
  // Await without the OK/ERR/BUSY mapping.
  Result<Reply> AwaitReply(uint64_t id);
  // OK payload / ERR / BUSY mapping shared by Roundtrip and Await.
  Result<std::string> ReplyToResult(Reply reply);

  int fd_ = -1;
  bool binary_ = false;
  // Set on the first transport fault (send/recv failure, peer close,
  // malformed frame). The stream position is unknowable from then on,
  // so every later call fails fast instead of desynchronizing — or
  // blocking forever — on a dead socket.
  bool dead_ = false;
  // The fault that set dead_ was a SetDeadline() expiry (EAGAIN on a
  // socket with a send/recv timeout armed), not a refusal or reset.
  bool timed_out_ = false;
  bool deadline_armed_ = false;
  uint64_t next_id_ = 1;
  std::string out_;  // staged frames awaiting Flush
  std::string in_;   // receive buffer, both framings
  size_t in_pos_ = 0;  // parse cursor into in_
  // Replies that arrived while awaiting a different id.
  std::map<uint64_t, Reply> pending_;
};

// The text-framed request line `BCHECK <session> C1 D1 C2 D2 ...`,
// appended in place (linear in its length).
std::string BatchCheckLine(
    const std::string& session,
    const std::vector<std::pair<std::string, std::string>>& pairs);

// Parses a `subsumed=true,false,...` BCHECK reply body into verdicts;
// a CHECK reply is the body of a one-pair BCHECK. `expected` is the
// pair count the request carried.
Result<std::vector<bool>> ParseBatchVerdicts(const std::string& body,
                                             size_t expected);

// Parses an `extent=<n>` VIEW reply body into the extent size.
Result<size_t> ParseExtent(const std::string& body);

}  // namespace oodb::server

#endif  // OODB_SERVER_CLIENT_H_
