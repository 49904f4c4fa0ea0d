// Wire protocols of the optimizer daemon, shared by server and client.
//
// Two framings share one port: the newline-delimited TEXT protocol
// (`<VERB> <args...>\n`, LOAD/STATE followed by `<nbytes>` payload bytes
// and '\n'; replies `OK <n>\n<payload>\n`, `ERR <code> <message>\n` or
// `BUSY\n`, in request order), and the length-prefixed BINARY protocol,
// chosen by the preamble "OSB1" as a connection's first bytes (frames
// `u32 len | u64 id | u8 opcode-or-status | body`, pipelined, replies
// matched by id and possibly out of order). Both framings parse into one
// Request (verb, arguments, payload), which the parser checks against
// one verb table, kVerbTable below. See docs/server.md for the full
// specification.
#ifndef OODB_SERVER_WIRE_H_
#define OODB_SERVER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace oodb::server {

// Status line sent when the admission queue is full (backpressure).
inline constexpr std::string_view kBusyLine = "BUSY\n";

// Error codes used by the protocol layer itself (library errors reuse
// StatusCodeName: "invalid_argument", "not_found", ...).
inline constexpr std::string_view kErrProto = "proto";       // malformed frame
inline constexpr std::string_view kErrDeadline = "deadline"; // queue-wait budget
inline constexpr std::string_view kErrShutdown = "shutdown"; // server draining

// Text command lines and reply status lines longer than this are a
// malformed peer, on the server and the client side alike.
inline constexpr size_t kMaxTextLine = 1 << 16;

// ---- Binary framing constants ---------------------------------------------

// First bytes on a connection that opt into the binary protocol. No text
// verb starts with this sequence, so the framings share one port.
inline constexpr std::string_view kBinaryPreamble = "OSB1";

// Upper bound on `frame_len`; larger announcements are a malformed peer
// and close the connection (the unread bytes are unrecoverable).
inline constexpr uint32_t kMaxBinaryFrame = 16u << 20;

// Upper bound on (C, D) pairs per BCHECK frame / text BCHECK line.
inline constexpr size_t kMaxBatchPairs = 4096;

enum class Opcode : uint8_t {
  kLine = 1,        // any text command line + optional payload
  kCheck = 2,       // CHECK <session> <C> <D>
  kBatchCheck = 3,  // BCHECK <session> <C,D>...
};

enum class BinaryStatus : uint8_t { kOk = 0, kErr = 1, kBusy = 2 };

// ---- Verbs -----------------------------------------------------------------

// Protocol verbs. kOther bins unknown commands.
enum class Verb : uint8_t {
  kPing,
  kLoad,
  kState,
  kView,
  kUndefine,
  kCheck,
  kBcheck,
  kClassify,
  kOptimize,
  kStats,
  kSleep,
  kShutdown,
  kMetrics,
  kTrace,
  kHealth,   // ok/degraded summary for load balancers and smoke tests
  kRepl,     // owner → replica: apply one logged mutation (cluster mode)
  kForward,  // peer → owner: proxy a request for a session we don't own
  kOther,
  kCount,
};

inline constexpr size_t kNumVerbs = static_cast<size_t>(Verb::kCount);

// Whether a verb's first argument names a session (the routing key).
enum class SessionArg : uint8_t { kNone, kRequired, kOptional };

// max_args value for verbs that take any number of arguments.
inline constexpr uint8_t kAnyArgs = 0xff;

// One row of the verb table: everything the parser, the event loop, the
// dispatcher, the sessions, replication and the cluster client need to
// know about a verb. Arity counts the arguments after the verb (for
// FORWARD/REPL, after the envelope: the wrapped request is checked
// against its own row).
struct VerbInfo {
  Verb verb;
  const char* name;    // wire name ("?" for kOther)
  bool on_loop;        // answered inline by the event loop: bypasses
                       // admission and has no latency histogram
  SessionArg session;  // args[0] names a session
  bool mutates;        // changes session state: the owner replicates it,
                       // and the session takes its lock exclusively
  bool idempotent;     // safe to resend and to serve from a replica
  bool payload;        // ends with <nbytes>; a payload follows (LOAD/STATE)
  bool envelope;       // wraps another request (FORWARD/REPL)
  bool pairs;          // after the session, (C, D) pairs (BCHECK)
  uint8_t min_args;
  uint8_t max_args;    // kAnyArgs = unbounded
  const char* usage;   // ERR proto message for a wrong arity
};

inline constexpr SessionArg kNoSession = SessionArg::kNone;
inline constexpr SessionArg kSession = SessionArg::kRequired;

// The verb table, one row per Verb in enum order.
//   verb, name, on_loop, session, mutates, idempotent, payload, envelope,
//   pairs, min_args, max_args, usage
inline constexpr VerbInfo kVerbTable[] = {
    {Verb::kPing, "PING", true, kNoSession, false, true, false, false, false,
     0, kAnyArgs, "usage: PING"},
    {Verb::kLoad, "LOAD", false, kSession, true, false, true, false, false, 2,
     2, "usage: LOAD <session> <nbytes>"},
    {Verb::kState, "STATE", false, kSession, true, false, true, false, false,
     2, 2, "usage: STATE <session> <nbytes>"},
    {Verb::kView, "VIEW", false, kSession, true, false, false, false, false, 2,
     2, "usage: VIEW <session> <query-class>"},
    {Verb::kUndefine, "UNDEFINE", false, kSession, true, false, false, false,
     false, 2, 2, "usage: UNDEFINE <session> <query-class>"},
    {Verb::kCheck, "CHECK", false, kSession, false, true, false, false, false,
     3, 3, "usage: CHECK <session> <C> <D>"},
    {Verb::kBcheck, "BCHECK", false, kSession, false, true, false, false, true,
     1, kAnyArgs, "usage: BCHECK <session> [<C> <D>]..."},
    {Verb::kClassify, "CLASSIFY", false, kSession, false, true, false, false,
     false, 1, 1, "usage: CLASSIFY <session>"},
    {Verb::kOptimize, "OPTIMIZE", false, kSession, false, false, false, false,
     false, 2, 2, "usage: OPTIMIZE <session> <query-class>"},
    {Verb::kStats, "STATS", false, SessionArg::kOptional, false, true, false,
     false, false, 0, kAnyArgs, "usage: STATS [session]"},
    {Verb::kSleep, "SLEEP", false, kNoSession, false, false, false, false,
     false, 1, 1, "usage: SLEEP <ms≤10000>"},
    {Verb::kShutdown, "SHUTDOWN", true, kNoSession, false, false, false, false,
     false, 0, kAnyArgs, "usage: SHUTDOWN"},
    {Verb::kMetrics, "METRICS", true, kNoSession, false, true, false, false,
     false, 0, 0, "usage: METRICS"},
    {Verb::kTrace, "TRACE", true, kNoSession, false, true, false, false, false,
     0, 1, "usage: TRACE [n]"},
    {Verb::kHealth, "HEALTH", true, kNoSession, false, false, false, false,
     false, 0, 0, "usage: HEALTH"},
    {Verb::kRepl, "REPL", false, kNoSession, false, false, false, true, false,
     0, kAnyArgs, "usage: REPL [@o:t] <seq> <verb> <session> ..."},
    {Verb::kForward, "FORWARD", false, kNoSession, false, false, false, true,
     false, 0, kAnyArgs, "usage: FORWARD [@o:t] <verb> ..."},
    {Verb::kOther, "?", false, kNoSession, false, false, false, false, false,
     0, kAnyArgs, ""},
};

constexpr bool VerbTableMatchesEnum() {
  for (size_t i = 0; i < kNumVerbs; ++i) {
    if (static_cast<size_t>(kVerbTable[i].verb) != i) return false;
  }
  return std::size(kVerbTable) == kNumVerbs;
}
static_assert(VerbTableMatchesEnum(),
              "kVerbTable needs exactly one row per Verb, in enum order");

// A replica serves an idempotent verb, so that verb must never mutate.
constexpr bool IdempotentVerbsNeverMutate() {
  for (const VerbInfo& info : kVerbTable) {
    if (info.idempotent && info.mutates) return false;
  }
  return true;
}
static_assert(IdempotentVerbsNeverMutate(),
              "an idempotent verb is served by replicas and must not mutate");

constexpr const VerbInfo& InfoOf(Verb verb) {
  return kVerbTable[static_cast<size_t>(verb)];
}

// "CHECK", "CLASSIFY", ... ("?" for kOther).
inline const char* VerbName(Verb verb) { return InfoOf(verb).name; }
// The verb a wire token names; kOther when it names none.
Verb VerbOf(std::string_view token);

// ---- Requests --------------------------------------------------------------

// Where one argument sits in a request's buffer.
struct ArgSpan {
  uint32_t offset = 0;
  uint32_t size = 0;
};

// A request's arguments, as string_views into the buffer the request
// owns. Cheap to copy; valid while that request lives and is not moved.
class Args {
 public:
  Args() = default;
  Args(const char* base, const ArgSpan* spans, size_t count)
      : base_(base), spans_(spans), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::string_view operator[](size_t i) const {
    return {base_ + spans_[i].offset, spans_[i].size};
  }
  // The arguments from index `first` on.
  Args From(size_t first) const {
    return Args(base_, spans_ + first, count_ - first);
  }

 private:
  const char* base_ = nullptr;
  const ArgSpan* spans_ = nullptr;
  size_t count_ = 0;
};

// One request as the dispatcher sees it: a verb, its arguments and its
// payload, all views into a Request. An envelope's wrapped request is a
// view of the same bytes, so FORWARD/REPL unwrap without a copy.
struct RequestView {
  Verb verb = Verb::kOther;
  Args args;
  std::string_view payload;

  const VerbInfo& info() const { return InfoOf(verb); }
  // True when the verb names a session and args[0] is there to name it.
  bool names_session() const {
    return info().session != SessionArg::kNone && !args.empty();
  }
};

// The envelope fields of a FORWARD/REPL request. The optional header
// `@<origin-node-index>:<trace-id>` names the sending node and its
// request's trace id.
struct Envelope {
  bool has_header = false;
  size_t origin = 0;
  uint64_t trace_id = 0;
  uint64_t seq = 0;  // REPL only: the mutation's sequence number
};

enum class ParseStatus {
  kNeedMore,  // the buffer holds no complete frame yet
  kFrame,     // one frame parsed; *consumed bytes were used
  kBad,       // malformed frame; the stream is unrecoverable
};

struct BinaryRequest;

// A parsed request, from either framing. It owns its bytes: the
// arguments are offsets into a buffer copied once out of the connection
// buffer, so the request stays valid while the event loop appends to and
// compacts that buffer, and across moves. Parsing checks the request
// against the verb table; a handler only ever sees a request whose
// arity matches its verb's row.
class Request {
 public:
  Verb verb() const { return verb_; }
  // False when the request is malformed; error() is then the message of
  // the ERR proto reply it gets.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // The request itself.
  RequestView view() const { return {verb_, ArgsFrom(0), payload()}; }
  // FORWARD/REPL: the wrapped request.
  RequestView inner() const {
    return {inner_verb_, ArgsFrom(inner_at_), payload()};
  }
  const Envelope& envelope() const { return envelope_; }
  std::string_view payload() const {
    return std::string_view(bytes_).substr(payload_.offset, payload_.size);
  }

 private:
  friend bool ParseLine(std::string_view line, std::string_view payload,
                        Request* out);
  friend ParseStatus ParseTextRequest(std::string_view buf,
                                      size_t max_payload, size_t* consumed,
                                      Request* out, std::string* error);
  friend ParseStatus ParseBinaryRequest(std::string_view buf,
                                        size_t* consumed, BinaryRequest* out,
                                        std::string* error);

  Args ArgsFrom(size_t first) const {
    return Args(bytes_.data(), args_.data() + first, args_.size() - first);
  }
  // Resolves `verb_token`, unwraps an envelope and checks the arity
  // against the verb table, recording any failure in error_.
  void Validate(std::string_view verb_token);

  std::string bytes_;           // arguments and payload
  std::vector<ArgSpan> args_;   // every token after the verb
  ArgSpan payload_;
  Verb verb_ = Verb::kOther;
  Verb inner_verb_ = Verb::kOther;
  uint32_t inner_at_ = 0;       // first argument of the wrapped request
  Envelope envelope_;
  std::string error_;
};

// Parses an integer argument with strtoull's rules (base 10); false on
// garbage or overflow.
bool ParseSize(std::string_view token, uint64_t* out);

// The line a request is sent to a peer as: "<VERB> <arg> <arg>...".
std::string RenderLine(const RequestView& request);

// Parses one command line (no trailing newline) plus its payload into
// *out: the text framing, a binary LINE frame and a cluster client all
// use it. Returns out->ok(). Verb and arguments are filled in even when
// the request is malformed.
bool ParseLine(std::string_view line, std::string_view payload, Request* out);

struct Reply {
  enum class Kind { kOk, kErr, kBusy };
  Kind kind = Kind::kOk;
  std::string code;     // kErr only
  std::string payload;  // kOk: result text; kErr: message
};

Reply OkReply(std::string payload);
Reply ErrReply(std::string_view code, std::string_view message);
// The reply to a library error: its StatusCodeName is the code.
Reply ErrReply(const Status& status);

// Serializes a reply into its on-wire text byte form.
std::string EncodeReply(const Reply& reply);

// Replaces control characters (including newlines) with spaces so a
// message can be embedded in a single-line ERR frame.
std::string SanitizeLine(std::string_view text);

// ---- Binary encode / decode ------------------------------------------------

// Little-endian integer append/read helpers for the framing layer.
void AppendU16(std::string* out, uint16_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);

// Client-side request encoders. Strings longer than 65535 bytes are
// truncated-free rejected at the callsite (class names and command lines
// are far below the cap in practice; EncodeBinaryLineRequest callers keep
// lines under the text protocol's 64 KiB line cap anyway).
std::string EncodeBinaryLineRequest(uint64_t id, std::string_view line,
                                    std::string_view payload = {});
std::string EncodeBinaryCheckRequest(uint64_t id, std::string_view session,
                                     std::string_view c, std::string_view d);
std::string EncodeBinaryBatchCheckRequest(
    uint64_t id, std::string_view session,
    const std::vector<std::pair<std::string, std::string>>& pairs);

// Server-side reply encoder.
std::string EncodeBinaryReply(uint64_t id, const Reply& reply);

// A parsed binary request: the client's request id plus the request. A
// LINE frame parses exactly like the same text line; the CHECK and
// BCHECK opcodes set the verb directly.
struct BinaryRequest {
  uint64_t id = 0;
  Request request;
};

struct BinaryReply {
  uint64_t id = 0;
  Reply reply;
};

// Incremental request parsers, one per framing: each examines buf[0..)
// for one complete request. On kFrame, *consumed is the request's full
// byte length; the request may still be malformed (!ok(): answer it ERR
// and go on). On kNeedMore, *consumed leading bytes hold no request and
// may be dropped (blank text lines; always 0 for binary). On kBad,
// *error holds a one-line diagnostic and the request's error() the ERR
// reply owed before the connection closes (empty when none is).
//
// Text: a command line, plus the payload and its terminating '\n' when
// the line's shape announces one (LOAD/STATE <session> <nbytes>, bare or
// wrapped, even in a malformed envelope). Blank lines before it are
// consumed with it. Over-long lines and a missing payload terminator
// close silently; a payload over `max_payload` is answered, then closes.
ParseStatus ParseTextRequest(std::string_view buf, size_t max_payload,
                             size_t* consumed, Request* out,
                             std::string* error);
// Binary: one frame. out->id is the request id if the header was
// readable (0 otherwise), so the server can address its ERR reply.
ParseStatus ParseBinaryRequest(std::string_view buf, size_t* consumed,
                               BinaryRequest* out, std::string* error);

// Incremental reply parsers (client side), one per framing, same
// contract. Text: the status line (at most kMaxTextLine bytes) and, for
// `OK <n>`, the n payload bytes and their '\n', taken by the announced
// length.
ParseStatus ParseTextReply(std::string_view buf, size_t* consumed, Reply* out,
                           std::string* error);
ParseStatus ParseBinaryReply(std::string_view buf, size_t* consumed,
                             BinaryReply* out, std::string* error);

// Writes all of `data` to `fd`, retrying on short writes and EINTR and
// suppressing SIGPIPE. Returns false on any other error.
bool WriteFully(int fd, std::string_view data);

}  // namespace oodb::server

#endif  // OODB_SERVER_WIRE_H_
