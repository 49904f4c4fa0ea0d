#include "server/wire.h"

#include <sys/socket.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "base/strings.h"

namespace oodb::server {

Reply OkReply(std::string payload) {
  Reply reply;
  reply.kind = Reply::Kind::kOk;
  reply.payload = std::move(payload);
  return reply;
}

Reply ErrReply(std::string_view code, std::string_view message) {
  Reply reply;
  reply.kind = Reply::Kind::kErr;
  reply.code = SanitizeLine(code);
  reply.payload = SanitizeLine(message);
  return reply;
}

Reply ErrReply(const Status& status) {
  return ErrReply(StatusCodeName(status.code()), status.message());
}

std::string EncodeReply(const Reply& reply) {
  switch (reply.kind) {
    case Reply::Kind::kBusy:
      return std::string(kBusyLine);
    case Reply::Kind::kErr:
      return "ERR " + reply.code + " " + reply.payload + "\n";
    case Reply::Kind::kOk:
      return "OK " + std::to_string(reply.payload.size()) + "\n" +
             reply.payload + "\n";
  }
  return std::string(kBusyLine);  // unreachable
}

Verb VerbOf(std::string_view token) {
  for (const VerbInfo& info : kVerbTable) {
    if (token == info.name) return info.verb;  // "?" is kOther's anyway
  }
  return Verb::kOther;
}

bool ParseSize(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  const std::string text(token);  // strtoull needs a terminator
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

namespace {

// The optional `@<origin>:<trace>` header of a FORWARD/REPL envelope.
bool ParseEnvelopeHeader(std::string_view token, Envelope* envelope) {
  const size_t colon = token.find(':');
  uint64_t origin = 0;
  if (token.empty() || token[0] != '@' || colon == std::string_view::npos ||
      !ParseSize(token.substr(1, colon - 1), &origin) ||
      !ParseSize(token.substr(colon + 1), &envelope->trace_id)) {
    return false;
  }
  envelope->has_header = true;
  envelope->origin = static_cast<size_t>(origin);
  return true;
}

bool IsSpace(char c) { return c == ' ' || c == '\t'; }

}  // namespace

void Request::Validate(std::string_view verb_token) {
  verb_ = VerbOf(verb_token);
  if (verb_ == Verb::kOther) {
    error_ = verb_token.empty()
                 ? "empty command"
                 : StrCat("unknown command '", verb_token, "'");
    return;
  }
  const Args args = ArgsFrom(0);
  size_t first = 0;  // the checked request's first argument
  const VerbInfo* info = &InfoOf(verb_);
  if (info->envelope) {
    if (first < args.size() && ParseEnvelopeHeader(args[first], &envelope_)) {
      ++first;
    }
    if (verb_ == Verb::kRepl) {  // then <seq>, from 1
      const bool seq = first < args.size() &&
                       ParseSize(args[first], &envelope_.seq) &&
                       envelope_.seq > 0;
      first = seq ? first + 1 : args.size();
    }
    if (first >= args.size()) {
      error_ = info->usage;
      return;
    }
    inner_verb_ = VerbOf(args[first]);
    const VerbInfo& inner = InfoOf(inner_verb_);
    if (verb_ == Verb::kRepl && !inner.mutates) {
      error_ = StrCat("REPL cannot carry '", args[first], "'");
    } else if (inner_verb_ == Verb::kOther) {
      error_ = StrCat("unknown command '", args[first], "'");
    } else if (inner.envelope) {
      error_ = StrCat("nested ", inner.name);
    }
    if (!ok()) return;
    inner_at_ = static_cast<uint32_t>(++first);
    info = &inner;
  }
  const size_t n = args.size() - first;
  uint64_t nbytes = 0;
  if (n < info->min_args || (info->max_args != kAnyArgs && n > info->max_args) ||
      (info->pairs && (n - 1) % 2 != 0) ||
      (info->payload && !ParseSize(args[first + 1], &nbytes))) {
    error_ = info->usage;
  } else if (info->pairs && (n - 1) / 2 > kMaxBatchPairs) {
    error_ = StrCat("batch exceeds ", kMaxBatchPairs, " pairs");
  }
}

bool ParseLine(std::string_view line, std::string_view payload, Request* out) {
  *out = Request();
  out->bytes_.reserve(line.size() + payload.size());
  out->bytes_.append(line);
  out->bytes_.append(payload);
  out->payload_ = {static_cast<uint32_t>(line.size()),
                   static_cast<uint32_t>(payload.size())};
  std::string_view verb;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSpace(line[i])) ++i;
    const size_t start = i;
    while (i < line.size() && !IsSpace(line[i])) ++i;
    if (i == start) break;
    if (verb.empty()) {
      verb = line.substr(start, i - start);
    } else {
      out->args_.push_back({static_cast<uint32_t>(start),
                            static_cast<uint32_t>(i - start)});
    }
  }
  out->Validate(verb);
  return out->ok();
}

std::string RenderLine(const RequestView& request) {
  std::string line = VerbName(request.verb);
  for (size_t i = 0; i < request.args.size(); ++i) {
    line += ' ';
    line += request.args[i];
  }
  return line;
}

namespace {

// Whether a text line announces a payload, judged from its shape alone:
// LOAD/STATE with two arguments, bare or where an envelope's wrapped
// verb stands, the last a byte count. The payload is framed even when
// the request is otherwise malformed (a bad envelope), so that its bytes
// are never read as command lines.
bool AnnouncesPayload(const RequestView& line, uint64_t* nbytes) {
  const Args args = line.args;
  Verb verb = line.verb;
  size_t first = 0;  // the payload verb's first argument
  if (line.info().envelope) {
    // [@o:t], then for REPL <seq>, then the wrapped verb.
    first = (verb == Verb::kRepl ? 1 : 0) +
            (!args.empty() && args[0].front() == '@' ? 1 : 0);
    if (first >= args.size()) return false;
    verb = VerbOf(args[first++]);
  }
  return InfoOf(verb).payload && args.size() == first + 2 &&
         ParseSize(args[first + 1], nbytes);
}

}  // namespace

ParseStatus ParseTextRequest(std::string_view buf, size_t max_payload,
                             size_t* consumed, Request* out,
                             std::string* error) {
  *out = Request();
  *consumed = 0;
  size_t nl = 0;
  for (;;) {
    nl = buf.find('\n', *consumed);
    const size_t len =
        (nl == std::string_view::npos ? buf.size() : nl) - *consumed;
    if (len > kMaxTextLine) {
      // No reply can be framed for a line we never finish reading.
      *error = StrCat("command line exceeds ", kMaxTextLine, " bytes");
      return ParseStatus::kBad;
    }
    if (nl == std::string_view::npos) return ParseStatus::kNeedMore;
    if (buf.substr(*consumed, len).find_first_not_of(" \t") != buf.npos) {
      break;
    }
    *consumed = nl + 1;  // a blank line holds no request: drop it
  }
  size_t frame_len = nl + 1;
  ParseLine(buf.substr(*consumed, nl - *consumed), {}, out);
  uint64_t nbytes = 0;
  if (AnnouncesPayload(out->view(), &nbytes)) {
    // The payload plus one terminating '\n' follows the line.
    if (nbytes > max_payload) {
      // The payload cannot be admitted: reply, then close (the unread
      // bytes make the stream unrecoverable).
      out->error_ = StrCat("payload exceeds ", max_payload, " bytes");
      *error = out->error_;
      return ParseStatus::kBad;
    }
    if (buf.size() - frame_len < nbytes + 1) return ParseStatus::kNeedMore;
    if (buf[frame_len + nbytes] != '\n') {
      *out = Request();
      *error = "payload is not terminated by a newline";
      return ParseStatus::kBad;
    }
    out->payload_ = {static_cast<uint32_t>(out->bytes_.size()),
                     static_cast<uint32_t>(nbytes)};
    out->bytes_.append(buf.substr(frame_len, nbytes));
    frame_len += nbytes + 1;
  }
  *consumed = frame_len;
  return ParseStatus::kFrame;
}

std::string SanitizeLine(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    out += std::iscntrl(static_cast<unsigned char>(c)) ? ' ' : c;
  }
  return out;
}

// ---- Binary encode ---------------------------------------------------------

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

namespace {

uint16_t GetU16(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(u[0] | (u[1] << 8));
}

uint32_t GetU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

void AppendStr16(std::string* out, std::string_view s) {
  AppendU16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

// Reads a u16-prefixed string out of body[*pos..): *span locates its
// bytes within body. False on overrun.
bool GetSpan16(std::string_view body, size_t* pos, ArgSpan* span) {
  if (body.size() - *pos < 2) return false;
  const uint16_t n = GetU16(body.data() + *pos);
  *pos += 2;
  if (body.size() - *pos < n) return false;
  *span = {static_cast<uint32_t>(*pos), n};
  *pos += n;
  return true;
}


// Stamps the frame header (everything after the length prefix is already
// in `frame`) and returns the finished wire bytes.
std::string FinishFrame(std::string frame) {
  std::string out;
  out.reserve(4 + frame.size());
  AppendU32(&out, static_cast<uint32_t>(frame.size()));
  out += frame;
  return out;
}

}  // namespace

std::string EncodeBinaryLineRequest(uint64_t id, std::string_view line,
                                    std::string_view payload) {
  std::string frame;
  frame.reserve(13 + line.size() + payload.size() + 6);
  AppendU64(&frame, id);
  frame.push_back(static_cast<char>(Opcode::kLine));
  AppendStr16(&frame, line);
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return FinishFrame(std::move(frame));
}

std::string EncodeBinaryCheckRequest(uint64_t id, std::string_view session,
                                     std::string_view c, std::string_view d) {
  std::string frame;
  frame.reserve(9 + session.size() + c.size() + d.size() + 6);
  AppendU64(&frame, id);
  frame.push_back(static_cast<char>(Opcode::kCheck));
  AppendStr16(&frame, session);
  AppendStr16(&frame, c);
  AppendStr16(&frame, d);
  return FinishFrame(std::move(frame));
}

std::string EncodeBinaryBatchCheckRequest(
    uint64_t id, std::string_view session,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string frame;
  AppendU64(&frame, id);
  frame.push_back(static_cast<char>(Opcode::kBatchCheck));
  AppendStr16(&frame, session);
  AppendU32(&frame, static_cast<uint32_t>(pairs.size()));
  for (const auto& [c, d] : pairs) {
    AppendStr16(&frame, c);
    AppendStr16(&frame, d);
  }
  return FinishFrame(std::move(frame));
}

std::string EncodeBinaryReply(uint64_t id, const Reply& reply) {
  std::string frame;
  frame.reserve(9 + reply.code.size() + reply.payload.size() + 8);
  AppendU64(&frame, id);
  switch (reply.kind) {
    case Reply::Kind::kOk:
      frame.push_back(static_cast<char>(BinaryStatus::kOk));
      AppendU32(&frame, static_cast<uint32_t>(reply.payload.size()));
      frame.append(reply.payload);
      break;
    case Reply::Kind::kErr:
      frame.push_back(static_cast<char>(BinaryStatus::kErr));
      AppendStr16(&frame, reply.code);
      AppendU32(&frame, static_cast<uint32_t>(reply.payload.size()));
      frame.append(reply.payload);
      break;
    case Reply::Kind::kBusy:
      frame.push_back(static_cast<char>(BinaryStatus::kBusy));
      break;
  }
  return FinishFrame(std::move(frame));
}

// ---- Binary decode ---------------------------------------------------------

namespace {

// Common header parse: length prefix + id. Returns kFrame when the whole
// frame is buffered, with *body set to the bytes after the id field.
ParseStatus ParseHeader(std::string_view buf, size_t* consumed, uint64_t* id,
                        std::string_view* body, std::string* error) {
  *consumed = 0;
  if (buf.size() < 4) return ParseStatus::kNeedMore;
  const uint32_t frame_len = GetU32(buf.data());
  if (frame_len > kMaxBinaryFrame) {
    *error = "frame length " + std::to_string(frame_len) + " exceeds " +
             std::to_string(kMaxBinaryFrame);
    return ParseStatus::kBad;
  }
  if (frame_len < 9) {  // id (8) + opcode/status (1)
    *error = "frame length " + std::to_string(frame_len) +
             " below the 9-byte header";
    return ParseStatus::kBad;
  }
  if (buf.size() - 4 < frame_len) return ParseStatus::kNeedMore;
  *id = GetU64(buf.data() + 4);
  *body = buf.substr(13, frame_len - 9);
  *consumed = 4 + frame_len;
  return ParseStatus::kFrame;
}

}  // namespace

ParseStatus ParseBinaryRequest(std::string_view buf, size_t* consumed,
                               BinaryRequest* out, std::string* error) {
  out->id = 0;
  Request& req = out->request;
  req = Request();
  std::string_view body;
  ParseStatus st = ParseHeader(buf, consumed, &out->id, &body, error);
  if (st == ParseStatus::kBad) req.error_ = *error;
  if (st != ParseStatus::kFrame) return st;
  const auto op = static_cast<Opcode>(buf[12]);
  size_t pos = 0;
  switch (op) {
    case Opcode::kLine: {
      ArgSpan line;
      if (!GetSpan16(body, &pos, &line) || body.size() - pos < 4) break;
      const uint32_t payload_len = GetU32(body.data() + pos);
      pos += 4;
      if (body.size() - pos != payload_len) break;
      ParseLine(body.substr(line.offset, line.size), body.substr(pos), &req);
      return ParseStatus::kFrame;
    }
    case Opcode::kCheck:
    case Opcode::kBatchCheck: {
      // The operands are spans into a copy of the body, just past their
      // u16 length prefixes.
      ArgSpan session;
      if (!GetSpan16(body, &pos, &session)) break;
      uint32_t pairs = 1;
      if (op == Opcode::kBatchCheck) {
        if (body.size() - pos < 4) break;
        pairs = GetU32(body.data() + pos);
        pos += 4;
        if (pairs > kMaxBatchPairs) {
          *error = "batch of " + std::to_string(pairs) + " pairs exceeds " +
                   std::to_string(kMaxBatchPairs);
          req.error_ = *error;
          return ParseStatus::kBad;
        }
        if (pairs > (body.size() - pos) / 4) break;  // 4 bytes per pair min
      }
      const size_t n = 1 + 2 * size_t{pairs};
      req.args_.reserve(n);
      req.args_.push_back(session);
      for (ArgSpan operand; req.args_.size() < n;) {
        if (!GetSpan16(body, &pos, &operand)) break;
        req.args_.push_back(operand);
      }
      if (req.args_.size() != n || pos != body.size()) break;
      req.bytes_.assign(body);
      req.verb_ = op == Opcode::kCheck ? Verb::kCheck : Verb::kBcheck;
      return ParseStatus::kFrame;
    }
    default:
      *error = "unknown opcode " + std::to_string(buf[12]);
      req.error_ = *error;
      return ParseStatus::kBad;
  }
  *error = "truncated or overlong frame body (opcode " +
           std::to_string(static_cast<int>(op)) + ")";
  req = Request();
  req.error_ = *error;
  return ParseStatus::kBad;
}

ParseStatus ParseBinaryReply(std::string_view buf, size_t* consumed,
                             BinaryReply* out, std::string* error) {
  out->id = 0;
  std::string_view body;
  ParseStatus st = ParseHeader(buf, consumed, &out->id, &body, error);
  if (st != ParseStatus::kFrame) return st;
  const auto status = static_cast<BinaryStatus>(buf[12]);
  size_t pos = 0;
  switch (status) {
    case BinaryStatus::kOk:
    case BinaryStatus::kErr: {  // [str16 code] + u32 length + payload
      const bool ok = status == BinaryStatus::kOk;
      ArgSpan code;
      if (!ok && !GetSpan16(body, &pos, &code)) break;
      if (body.size() - pos < 4) break;
      const uint32_t n = GetU32(body.data() + pos);
      pos += 4;
      if (body.size() - pos != n) break;
      out->reply.kind = ok ? Reply::Kind::kOk : Reply::Kind::kErr;
      out->reply.code.assign(body.substr(code.offset, code.size));
      out->reply.payload.assign(body.data() + pos, n);
      return ParseStatus::kFrame;
    }
    case BinaryStatus::kBusy:
      if (!body.empty()) break;
      out->reply.kind = Reply::Kind::kBusy;
      out->reply.code.clear();
      out->reply.payload.clear();
      return ParseStatus::kFrame;
    default:
      break;
  }
  *error = "malformed binary reply (status " +
           std::to_string(static_cast<int>(buf[12])) + ")";
  return ParseStatus::kBad;
}

ParseStatus ParseTextReply(std::string_view buf, size_t* consumed, Reply* out,
                           std::string* error) {
  *consumed = 0;
  // The status line ends at the first '\n': nothing of the payload can
  // precede it, and the search stops one byte past the line cap.
  const size_t nl = buf.substr(0, kMaxTextLine + 1).find('\n');
  if (nl == std::string_view::npos) {
    if (buf.size() <= kMaxTextLine) return ParseStatus::kNeedMore;
    *error = "reply line exceeds " + std::to_string(kMaxTextLine) + " bytes";
    return ParseStatus::kBad;
  }
  const std::string_view line = buf.substr(0, nl);
  out->code.clear();
  out->payload.clear();
  if (line == "BUSY") {
    out->kind = Reply::Kind::kBusy;
    *consumed = nl + 1;
    return ParseStatus::kFrame;
  }
  if (line.starts_with("ERR ")) {  // ERR <code>[ <message>]
    const std::string_view rest = line.substr(4);
    const size_t space = rest.find(' ');
    out->kind = Reply::Kind::kErr;
    out->code.assign(rest.substr(0, space));
    if (space != std::string_view::npos) {
      out->payload.assign(rest.substr(space + 1));
    }
    *consumed = nl + 1;
    return ParseStatus::kFrame;
  }
  uint64_t n = 0;
  if (!line.starts_with("OK ") || !ParseSize(line.substr(3), &n)) {
    *error = "malformed reply line '" + SanitizeLine(line.substr(0, 64)) + "'";
    return ParseStatus::kBad;
  }
  // The payload is taken by its announced length, never scanned.
  const std::string_view rest = buf.substr(nl + 1);
  if (rest.size() <= n) return ParseStatus::kNeedMore;  // n bytes + '\n'
  if (rest[n] != '\n') {
    *error = "reply payload of " + std::to_string(n) +
             " bytes lacks its terminator";
    return ParseStatus::kBad;
  }
  out->kind = Reply::Kind::kOk;
  out->payload.assign(rest.substr(0, n));
  *consumed = nl + 2 + n;
  return ParseStatus::kFrame;
}

// ---- Blocking fd helpers ---------------------------------------------------

bool WriteFully(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as an error return,
    // not a process-killing SIGPIPE.
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace oodb::server
