#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "base/strings.h"

namespace oodb::server {

Client::Client(int fd) : fd_(fd) {}

Client::Client(Client&& other) noexcept { *this = std::move(other); }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    binary_ = other.binary_;
    dead_ = other.dead_;
    timed_out_ = other.timed_out_;
    deadline_armed_ = other.deadline_armed_;
    next_id_ = other.next_id_;
    out_ = std::move(other.out_);
    in_ = std::move(other.in_);
    in_pos_ = other.in_pos_;
    pending_ = std::move(other.pending_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Client> Client::Connect(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return InternalError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError(StrCat("bad host address '", host, "'"));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return FailedPreconditionError(
        StrCat("cannot connect to ", host, ":", port));
  }
  int one = 1;
  // Requests are single small frames awaited synchronously (or pipelined
  // back to back); Nagle only adds latency here.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

namespace {
Status DeadConnectionError() {
  return InternalError("connection is dead after a transport error");
}
}  // namespace

Status Client::SetDeadline(int64_t ms) {
  if (dead_) return DeadConnectionError();
  if (ms <= 0) return InvalidArgumentError("deadline must be positive");
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return InternalError("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO) failed");
  }
  deadline_armed_ = true;
  return Status::Ok();
}

// Marks the connection dead after a failed send/recv and classifies the
// fault: with a deadline armed, EAGAIN/EWOULDBLOCK means the timer
// expired (a stuck peer), anything else a refusal/reset/close.
void Client::NoteTransportFault() {
  dead_ = true;
  if (deadline_armed_ && (errno == EAGAIN || errno == EWOULDBLOCK)) {
    timed_out_ = true;
  }
}

Status Client::EnableBinary() {
  if (binary_) return Status::Ok();
  if (dead_) return DeadConnectionError();
  if (!WriteFully(fd_, kBinaryPreamble)) {
    NoteTransportFault();
    return InternalError("connection lost while negotiating binary mode");
  }
  binary_ = true;
  return Status::Ok();
}

Result<std::string> Client::ReplyToResult(Reply reply) {
  switch (reply.kind) {
    case Reply::Kind::kOk:
      return std::move(reply.payload);
    case Reply::Kind::kBusy:
      return ResourceExhaustedError("BUSY");
    case Reply::Kind::kErr:
      return FailedPreconditionError(
          StrCat(reply.code, ": ", reply.payload));
  }
  return InternalError("malformed reply");
}

Result<uint64_t> Client::SendFrame(uint64_t id, std::string frame) {
  if (dead_) return DeadConnectionError();
  out_ += frame;
  return id;
}

Status Client::Flush() {
  if (dead_) return DeadConnectionError();
  if (out_.empty()) return Status::Ok();
  if (!WriteFully(fd_, out_)) {
    NoteTransportFault();
    return InternalError("connection lost while sending");
  }
  out_.clear();
  return Status::Ok();
}

Result<uint64_t> Client::SubmitLine(const std::string& line,
                                    const std::string* payload) {
  if (!binary_) return FailedPreconditionError("EnableBinary() first");
  const uint64_t id = next_id_++;
  return SendFrame(id, EncodeBinaryLineRequest(
                           id, line, payload ? *payload : std::string_view{}));
}

Result<uint64_t> Client::SubmitCheck(const std::string& session,
                                     const std::string& c,
                                     const std::string& d) {
  if (!binary_) return FailedPreconditionError("EnableBinary() first");
  const uint64_t id = next_id_++;
  return SendFrame(id, EncodeBinaryCheckRequest(id, session, c, d));
}

Result<uint64_t> Client::SubmitCheckBatch(
    const std::string& session,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (!binary_) return FailedPreconditionError("EnableBinary() first");
  if (pairs.size() > kMaxBatchPairs) {
    return InvalidArgumentError(
        StrCat("batch exceeds ", kMaxBatchPairs, " pairs"));
  }
  const uint64_t id = next_id_++;
  return SendFrame(id, EncodeBinaryBatchCheckRequest(id, session, pairs));
}

Result<BinaryReply> Client::ReadReplyFrame() {
  if (dead_) return DeadConnectionError();
  for (;;) {
    size_t consumed = 0;
    BinaryReply out;
    std::string error;
    const std::string_view buf = std::string_view(in_).substr(in_pos_);
    const ParseStatus status =
        binary_ ? ParseBinaryReply(buf, &consumed, &out, &error)
                : ParseTextReply(buf, &consumed, &out.reply, &error);
    switch (status) {
      case ParseStatus::kFrame:
        // Consume by cursor, not erase: a pipelined burst of replies
        // would otherwise memmove the tail once per frame.
        in_pos_ += consumed;
        if (in_pos_ == in_.size()) {
          in_.clear();
          in_pos_ = 0;
        }
        return out;
      case ParseStatus::kBad:
        dead_ = true;
        return InternalError(StrCat("malformed reply frame: ", error));
      case ParseStatus::kNeedMore:
        break;
    }
    if (in_pos_ > 0) {
      in_.erase(0, in_pos_);
      in_pos_ = 0;
    }
    char chunk[16 << 10];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // The peer closed (or the socket died) with replies outstanding.
      // Mark the client dead so a pipelined caller awaiting further ids
      // fails immediately instead of re-reading a closed socket. n == 0
      // is a clean close, never a timeout — errno is stale there.
      if (n < 0) {
        NoteTransportFault();
      } else {
        dead_ = true;
      }
      return InternalError("connection lost while awaiting reply");
    }
    in_.append(chunk, static_cast<size_t>(n));
  }
}

Result<std::string> Client::Await(uint64_t id) {
  OODB_ASSIGN_OR_RETURN(Reply reply, AwaitReply(id));
  return ReplyToResult(std::move(reply));
}

Result<Reply> Client::AwaitReply(uint64_t id) {
  if (dead_) return DeadConnectionError();
  OODB_RETURN_IF_ERROR(Flush());
  auto it = pending_.find(id);
  if (it != pending_.end()) {
    Reply reply = std::move(it->second);
    pending_.erase(it);
    return reply;
  }
  for (;;) {
    OODB_ASSIGN_OR_RETURN(BinaryReply frame, ReadReplyFrame());
    if (frame.id == id) return std::move(frame.reply);
    pending_[frame.id] = std::move(frame.reply);
  }
}

Result<Reply> Client::Exchange(std::string_view line,
                               std::string_view payload) {
  if (!binary_) return FailedPreconditionError("EnableBinary() first");
  const uint64_t id = next_id_++;
  OODB_RETURN_IF_ERROR(
      SendFrame(id, EncodeBinaryLineRequest(id, line, payload)).status());
  return AwaitReply(id);
}

Result<std::string> Client::Roundtrip(const std::string& line,
                                      const std::string* payload) {
  if (binary_) {
    OODB_ASSIGN_OR_RETURN(uint64_t id, SubmitLine(line, payload));
    return Await(id);
  }
  // Text: one request line (and its payload), then the next reply.
  if (dead_) return DeadConnectionError();
  out_ += line;
  out_ += '\n';
  if (payload != nullptr) {
    out_ += *payload;
    out_ += '\n';
  }
  OODB_RETURN_IF_ERROR(Flush());
  OODB_ASSIGN_OR_RETURN(BinaryReply frame, ReadReplyFrame());
  return ReplyToResult(std::move(frame.reply));
}

std::string BatchCheckLine(
    const std::string& session,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string line = StrCat("BCHECK ", session);
  for (const auto& [c, d] : pairs) line += StrCat(" ", c, " ", d);
  return line;
}

Result<std::vector<bool>> ParseBatchVerdicts(const std::string& body,
                                             size_t expected) {
  constexpr std::string_view kPrefix = "subsumed=";
  if (body.rfind(kPrefix, 0) != 0) {
    return InternalError(StrCat("malformed BCHECK reply '", body, "'"));
  }
  std::vector<bool> verdicts;
  verdicts.reserve(expected);
  std::string_view rest = std::string_view(body).substr(kPrefix.size());
  while (!rest.empty()) {
    size_t comma = rest.find(',');
    std::string_view token = rest.substr(0, comma);
    if (token == "true") {
      verdicts.push_back(true);
    } else if (token == "false") {
      verdicts.push_back(false);
    } else {
      return InternalError(StrCat("malformed BCHECK verdict '",
                                  std::string(token), "'"));
    }
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (verdicts.size() != expected) {
    return InternalError(StrCat("BCHECK returned ", verdicts.size(),
                                " verdicts for ", expected, " pairs"));
  }
  return verdicts;
}

Result<size_t> ParseExtent(const std::string& body) {
  constexpr std::string_view kPrefix = "extent=";
  uint64_t extent = 0;
  if (body.rfind(kPrefix, 0) != 0 ||
      !ParseSize(std::string_view(body).substr(kPrefix.size()), &extent)) {
    return InternalError(StrCat("malformed VIEW reply '", body, "'"));
  }
  return static_cast<size_t>(extent);
}

Status Client::Ping() { return Roundtrip("PING").status(); }

Result<std::string> Client::Load(const std::string& session,
                                 const std::string& dl_source) {
  return Roundtrip(StrCat("LOAD ", session, " ", dl_source.size()),
                   &dl_source);
}

Result<std::string> Client::LoadState(const std::string& session,
                                      const std::string& odb_source) {
  return Roundtrip(StrCat("STATE ", session, " ", odb_source.size()),
                   &odb_source);
}

Result<size_t> Client::DefineView(const std::string& session,
                                  const std::string& query_class) {
  OODB_ASSIGN_OR_RETURN(std::string body,
                        Roundtrip(StrCat("VIEW ", session, " ", query_class)));
  return ParseExtent(body);
}

Result<std::string> Client::Undefine(const std::string& session,
                                     const std::string& query_class) {
  return Roundtrip(StrCat("UNDEFINE ", session, " ", query_class));
}

Result<bool> Client::Check(const std::string& session, const std::string& c,
                           const std::string& d) {
  std::string body;
  if (binary_) {
    OODB_ASSIGN_OR_RETURN(uint64_t id, SubmitCheck(session, c, d));
    OODB_ASSIGN_OR_RETURN(body, Await(id));
  } else {
    OODB_ASSIGN_OR_RETURN(
        body, Roundtrip(StrCat("CHECK ", session, " ", c, " ", d)));
  }
  OODB_ASSIGN_OR_RETURN(std::vector<bool> verdicts,
                        ParseBatchVerdicts(body, 1));
  return bool{verdicts[0]};
}

Result<std::vector<bool>> Client::CheckBatch(
    const std::string& session,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string body;
  if (binary_) {
    OODB_ASSIGN_OR_RETURN(uint64_t id, SubmitCheckBatch(session, pairs));
    OODB_ASSIGN_OR_RETURN(body, Await(id));
  } else {
    OODB_ASSIGN_OR_RETURN(body, Roundtrip(BatchCheckLine(session, pairs)));
  }
  return ParseBatchVerdicts(body, pairs.size());
}

Result<std::string> Client::Classify(const std::string& session) {
  return Roundtrip(StrCat("CLASSIFY ", session));
}

Result<std::string> Client::Optimize(const std::string& session,
                                     const std::string& query_class) {
  return Roundtrip(StrCat("OPTIMIZE ", session, " ", query_class));
}

Result<std::string> Client::Stats(const std::string& session) {
  return Roundtrip(session.empty() ? std::string("STATS")
                                   : StrCat("STATS ", session));
}

Result<std::string> Client::Metrics() { return Roundtrip("METRICS"); }

Result<std::string> Client::TraceLog(size_t n) {
  return Roundtrip(StrCat("TRACE ", n));
}

Result<std::string> Client::Shutdown() { return Roundtrip("SHUTDOWN"); }

}  // namespace oodb::server
