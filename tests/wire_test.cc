// Unit tests of the wire framings: encoder/parser roundtrips,
// malformed/truncated/oversized frames, incremental (byte-at-a-time)
// parsing, and the client against a fake daemon that fragments every
// reply — every short-read/short-write path the epoll server and the
// client rely on.
#include "server/wire.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/strings.h"
#include "server/client.h"

#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace oodb::server {
namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

// A request as plain values: the verb's wire name then every argument.
std::vector<std::string> Tokens(const RequestView& request) {
  std::vector<std::string> tokens{VerbName(request.verb)};
  for (size_t i = 0; i < request.args.size(); ++i) {
    tokens.emplace_back(request.args[i]);
  }
  return tokens;
}

TEST(Wire, BinaryCheckRequestRoundtrips) {
  const std::string wire =
      EncodeBinaryCheckRequest(0xdeadbeefcafe1234ull, "sess", "QClass", "VTop");
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  ASSERT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kFrame)
      << error;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(req.id, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(req.request.verb(), Verb::kCheck);
  EXPECT_EQ(Tokens(req.request.view()),
            (std::vector<std::string>{"CHECK", "sess", "QClass", "VTop"}));
  EXPECT_TRUE(req.request.payload().empty());
}

TEST(Wire, BinaryLineRequestCarriesPayloadAndSplitsTokens) {
  const std::string wire =
      EncodeBinaryLineRequest(7, "LOAD demo 11", "class A end");
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  ASSERT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kFrame)
      << error;
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(Tokens(req.request.view()),
            (std::vector<std::string>{"LOAD", "demo", "11"}));
  EXPECT_EQ(req.request.payload(), "class A end");
}

TEST(Wire, BinaryBatchCheckRequestRoundtrips) {
  const Pairs pairs = {{"A", "B"}, {"C", "D"}, {"A", "D"}};
  const std::string wire = EncodeBinaryBatchCheckRequest(42, "s", pairs);
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  ASSERT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kFrame)
      << error;
  EXPECT_EQ(req.id, 42u);
  EXPECT_EQ(req.request.verb(), Verb::kBcheck);
  EXPECT_EQ(Tokens(req.request.view()),
            (std::vector<std::string>{"BCHECK", "s", "A", "B", "C", "D", "A",
                                      "D"}));
}

TEST(Wire, ZeroLengthBatchIsAValidFrame) {
  const std::string wire = EncodeBinaryBatchCheckRequest(1, "s", {});
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  ASSERT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kFrame)
      << error;
  EXPECT_EQ(Tokens(req.request.view()),
            (std::vector<std::string>{"BCHECK", "s"}));
}

TEST(Wire, EveryProperPrefixNeedsMoreAndConsumedAdvancesFrameExactly) {
  const std::string wire =
      EncodeBinaryCheckRequest(99, "session-name", "LongConcept", "D");
  for (size_t n = 0; n < wire.size(); ++n) {
    size_t consumed = 0;
    BinaryRequest req;
    std::string error;
    EXPECT_EQ(ParseBinaryRequest(std::string_view(wire).substr(0, n),
                                 &consumed, &req, &error),
              ParseStatus::kNeedMore)
        << "prefix of " << n << " bytes";
  }
  // Two frames back to back: each parse consumes exactly one.
  std::string two = wire + EncodeBinaryBatchCheckRequest(100, "s", {{"A", "B"}});
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  ASSERT_EQ(ParseBinaryRequest(two, &consumed, &req, &error),
            ParseStatus::kFrame);
  EXPECT_EQ(req.id, 99u);
  ASSERT_EQ(consumed, wire.size());
  std::string_view rest = std::string_view(two).substr(consumed);
  ASSERT_EQ(ParseBinaryRequest(rest, &consumed, &req, &error),
            ParseStatus::kFrame);
  EXPECT_EQ(req.id, 100u);
  EXPECT_EQ(consumed, rest.size());
}

TEST(Wire, OversizedFrameLengthIsRejectedBeforeBuffering) {
  std::string wire;
  AppendU32(&wire, kMaxBinaryFrame + 1);
  // Only the length prefix has arrived; the announcement alone is fatal.
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  EXPECT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kBad);
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(Wire, FrameLengthBelowHeaderIsRejected) {
  std::string wire;
  AppendU32(&wire, 8);  // 9 is the minimum (id + opcode)
  wire.append(8, '\0');
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  EXPECT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kBad);
}

TEST(Wire, UnknownOpcodeIsRejectedWithTheFrameId) {
  std::string frame;
  AppendU64(&frame, 77);
  frame.push_back(static_cast<char>(0x5a));
  std::string wire;
  AppendU32(&wire, static_cast<uint32_t>(frame.size()));
  wire += frame;
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  EXPECT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kBad);
  EXPECT_EQ(req.id, 77u);  // readable header: the ERR reply is addressable
  EXPECT_NE(error.find("opcode"), std::string::npos) << error;
}

TEST(Wire, TruncatedBodyInsideACompleteFrameIsRejected) {
  // A kCheck frame whose declared strings overrun the frame body.
  std::string frame;
  AppendU64(&frame, 5);
  frame.push_back(static_cast<char>(Opcode::kCheck));
  AppendU16(&frame, 200);  // string of 200 bytes... that never arrives
  frame += "ab";
  std::string wire;
  AppendU32(&wire, static_cast<uint32_t>(frame.size()));
  wire += frame;
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  EXPECT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kBad);
  EXPECT_EQ(req.id, 5u);
}

TEST(Wire, TrailingGarbageAfterAValidBodyIsRejected) {
  std::string good = EncodeBinaryCheckRequest(3, "s", "A", "B");
  // Extend the frame by one byte and fix up the length prefix.
  std::string frame = good.substr(4) + "!";
  std::string wire;
  AppendU32(&wire, static_cast<uint32_t>(frame.size()));
  wire += frame;
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  EXPECT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kBad);
}

TEST(Wire, BatchCountAboveTheCapIsRejected) {
  std::string frame;
  AppendU64(&frame, 9);
  frame.push_back(static_cast<char>(Opcode::kBatchCheck));
  AppendU16(&frame, 1);
  frame += "s";
  AppendU32(&frame, static_cast<uint32_t>(kMaxBatchPairs + 1));
  std::string wire;
  AppendU32(&wire, static_cast<uint32_t>(frame.size()));
  wire += frame;
  size_t consumed = 0;
  BinaryRequest req;
  std::string error;
  EXPECT_EQ(ParseBinaryRequest(wire, &consumed, &req, &error),
            ParseStatus::kBad);
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

// ---- The verb table and the text framing ----------------------------------

// Everything a request carries, as one comparable string.
std::string Describe(const Request& req) {
  std::string out = StrCat(StrJoin(Tokens(req.view()), " "),
                           "|payload=", req.payload(), "|error=", req.error());
  if (InfoOf(req.verb()).envelope && req.ok()) {
    const Envelope& e = req.envelope();
    out += StrCat("|header=", e.has_header, " origin=", e.origin,
                  " trace=", e.trace_id, " seq=", e.seq,
                  "|inner=", StrJoin(Tokens(req.inner()), " "));
  }
  return out;
}

// Parses `wire` as one text-framed request with a 64-byte payload cap.
ParseStatus ParseText(std::string_view wire, Request* req,
                      size_t* consumed = nullptr) {
  size_t used = 0;
  std::string error;
  const ParseStatus status = ParseTextRequest(wire, 64, &used, req, &error);
  if (consumed != nullptr) *consumed = used;
  return status;
}

TEST(Wire, VerbNamesRoundTripThroughTheTable) {
  for (const VerbInfo& info : kVerbTable) {
    if (info.verb == Verb::kOther) continue;
    EXPECT_EQ(VerbOf(VerbName(info.verb)), info.verb) << info.name;
  }
  EXPECT_EQ(VerbOf("FROBNICATE"), Verb::kOther);
  EXPECT_EQ(VerbOf("check"), Verb::kOther);  // verbs are case-sensitive
  EXPECT_EQ(VerbOf("?"), Verb::kOther);
  EXPECT_EQ(VerbOf(""), Verb::kOther);
  EXPECT_STREQ(VerbName(Verb::kOther), "?");
}

TEST(Wire, TextLoadCarriesItsPayload) {
  const std::string frame = "LOAD demo 11\nclass A end\n";
  const std::string wire = frame + "PING\n";
  Request req;
  size_t consumed = 0;
  ASSERT_EQ(ParseText(wire, &req, &consumed), ParseStatus::kFrame);
  EXPECT_TRUE(req.ok()) << req.error();
  EXPECT_EQ(Tokens(req.view()),
            (std::vector<std::string>{"LOAD", "demo", "11"}));
  EXPECT_EQ(req.payload(), "class A end");
  EXPECT_EQ(consumed, frame.size());
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(ParseText(std::string_view(wire).substr(0, n), &req),
              ParseStatus::kNeedMore)
        << "prefix of " << n << " bytes";
  }
}

TEST(Wire, TextPayloadVerbWithoutAByteCountIsAnsweredAndSkipped) {
  // ERR and keep the connection: only the line is consumed.
  for (const char* line :
       {"LOAD", "LOAD demo", "LOAD demo x11", "LOAD demo -", "STATE demo 1 2"}) {
    const std::string wire = std::string(line) + "\nPING\n";
    Request req;
    size_t consumed = 0;
    ASSERT_EQ(ParseText(wire, &req, &consumed), ParseStatus::kFrame) << line;
    EXPECT_FALSE(req.ok()) << line;
    EXPECT_EQ(req.error(), InfoOf(req.verb()).usage) << line;
    EXPECT_EQ(consumed, std::string(line).size() + 1) << line;
  }
}

TEST(Wire, TextPayloadOverTheCapIsAnsweredThenCloses) {
  Request req;
  EXPECT_EQ(ParseText("LOAD demo 65\n", &req), ParseStatus::kBad);
  EXPECT_EQ(req.verb(), Verb::kLoad);
  EXPECT_EQ(req.error(), "payload exceeds 64 bytes");
  // Wrapped, the reply is owed under the envelope's verb.
  EXPECT_EQ(ParseText("FORWARD STATE demo 999\n", &req), ParseStatus::kBad);
  EXPECT_EQ(req.verb(), Verb::kForward);
  EXPECT_FALSE(req.ok());
}

TEST(Wire, TextPayloadWithoutItsTerminatorClosesSilently) {
  Request req;
  EXPECT_EQ(ParseText("LOAD demo 3\nabcX", &req), ParseStatus::kBad);
  EXPECT_TRUE(req.ok());  // no reply is owed
}

TEST(Wire, OverlongTextLineClosesSilently) {
  Request req;
  const std::string line(kMaxTextLine + 1, 'A');
  EXPECT_EQ(ParseText(line, &req), ParseStatus::kBad);
  EXPECT_TRUE(req.ok());
  EXPECT_EQ(ParseText(line + "\n", &req), ParseStatus::kBad);
  EXPECT_TRUE(req.ok());
  // At the cap the line may still end.
  EXPECT_EQ(ParseText(std::string(kMaxTextLine, 'A'), &req),
            ParseStatus::kNeedMore);
}

TEST(Wire, BlankTextLinesAreConsumed) {
  const std::string wire = "\n \t\nPING\n";
  Request req;
  size_t consumed = 0;
  ASSERT_EQ(ParseText(wire, &req, &consumed), ParseStatus::kFrame);
  EXPECT_EQ(req.verb(), Verb::kPing);
  EXPECT_EQ(consumed, wire.size());
  // With no request after them, the blank lines are still consumed, so
  // they never pile up in the connection's input buffer.
  EXPECT_EQ(ParseText("\n\n", &req, &consumed), ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 2u);
  EXPECT_EQ(ParseText("\n \nPI", &req, &consumed), ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(ParseText("\nLOAD s 5\nab", &req, &consumed),
            ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 1u);
  EXPECT_EQ(ParseText("PI", &req, &consumed), ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 0u);
}

TEST(Wire, MalformedEnvelopesStillFrameTheirPayload) {
  // The payload is framed from the line's shape, so a bad envelope is
  // answered once and its payload bytes are never read as commands.
  for (const char* line :
       {"REPL 0 LOAD s 3", "REPL x LOAD s 3", "REPL @0:1 0 STATE s 3",
        "FORWARD @x:1 LOAD s 3", "REPL 1 LOAD s 3"}) {
    const std::string frame = std::string(line) + "\nabc\n";
    Request req;
    size_t consumed = 0;
    ASSERT_EQ(ParseText(frame + "PING\n", &req, &consumed),
              ParseStatus::kFrame)
        << line;
    EXPECT_EQ(consumed, frame.size()) << line;
    EXPECT_EQ(req.payload(), "abc") << line;
    EXPECT_EQ(req.ok(), std::string_view(line) == "REPL 1 LOAD s 3")
        << line << ": " << req.error();
  }
  // Over the cap, a malformed envelope is answered, then closes.
  Request req;
  EXPECT_EQ(ParseText("REPL 0 LOAD s 65\n", &req), ParseStatus::kBad);
  EXPECT_EQ(req.error(), "payload exceeds 64 bytes");
  // Shapes that announce no payload consume the line alone.
  for (const char* line : {"FORWARD LOAD s 3 x", "FORWARD REPL 1 LOAD s 3",
                           "REPL 5 @0:1 LOAD s 3"}) {
    size_t consumed = 0;
    ASSERT_EQ(ParseText(std::string(line) + "\nabc\n", &req, &consumed),
              ParseStatus::kFrame)
        << line;
    EXPECT_EQ(consumed, std::string(line).size() + 1) << line;
    EXPECT_FALSE(req.ok()) << line;
  }
}

TEST(Wire, EnvelopesUnwrapWithAndWithoutAHeader) {
  Request req;
  ASSERT_EQ(ParseText("FORWARD CHECK s A B\n", &req), ParseStatus::kFrame);
  EXPECT_EQ(Describe(req),
            "FORWARD CHECK s A B|payload=|error=|header=false origin=0 "
            "trace=0 seq=0|inner=CHECK s A B");
  ASSERT_EQ(ParseText("FORWARD @2:77 CHECK s A B\n", &req),
            ParseStatus::kFrame);
  EXPECT_EQ(Describe(req),
            "FORWARD @2:77 CHECK s A B|payload=|error=|header=true origin=2 "
            "trace=77 seq=0|inner=CHECK s A B");
  ASSERT_EQ(ParseText("REPL 5 VIEW s Q\n", &req), ParseStatus::kFrame);
  EXPECT_EQ(Describe(req),
            "REPL 5 VIEW s Q|payload=|error=|header=false origin=0 trace=0 "
            "seq=5|inner=VIEW s Q");
  // A wrapped LOAD/STATE frames its payload exactly like the bare line.
  ASSERT_EQ(ParseText("REPL @0:9 3 LOAD s 4\nabcd\n", &req),
            ParseStatus::kFrame);
  EXPECT_EQ(Describe(req),
            "REPL @0:9 3 LOAD s 4|payload=abcd|error=|header=true origin=0 "
            "trace=9 seq=3|inner=LOAD s 4");

  // Malformed envelopes: ERR, and the connection stays usable.
  const std::pair<const char*, const char*> bad[] = {
      {"FORWARD", "usage: FORWARD [@o:t] <verb> ..."},
      {"FORWARD @0:1", "usage: FORWARD [@o:t] <verb> ..."},
      {"FORWARD LOAD", "usage: LOAD <session> <nbytes>"},
      {"FORWARD @0:1 STATE", "usage: STATE <session> <nbytes>"},
      {"FORWARD CHECK s A", "usage: CHECK <session> <C> <D>"},
      {"FORWARD FORWARD CHECK s A B", "nested FORWARD"},
      {"FORWARD FROB x", "unknown command 'FROB'"},
      {"REPL VIEW s Q", "usage: REPL [@o:t] <seq> <verb> <session> ..."},
      {"REPL 0 VIEW s Q", "usage: REPL [@o:t] <seq> <verb> <session> ..."},
      {"REPL 1", "usage: REPL [@o:t] <seq> <verb> <session> ..."},
      {"REPL 1 CHECK s A B", "REPL cannot carry 'CHECK'"},
      {"REPL @0:1 2 VIEW s", "usage: VIEW <session> <query-class>"},
  };
  for (const auto& [line, error] : bad) {
    ASSERT_EQ(ParseText(std::string(line) + "\n", &req), ParseStatus::kFrame)
        << line;
    EXPECT_EQ(req.error(), error) << line;
  }
}

TEST(Wire, EveryVerbParsesAlikeFromTextAndBinaryLine) {
  std::vector<std::pair<std::string, std::string>> cases = {
      {"LOAD s 3", "abc"},
      {"STATE s 1", "x"},
      {"FORWARD @1:2 LOAD s 3", "abc"},
      {"REPL 4 STATE s 3", "abc"},
      {"", ""},
  };
  for (const VerbInfo& info : kVerbTable) {
    std::string line = info.verb == Verb::kOther ? "FROB" : info.name;
    for (size_t n = 0; n <= 5; ++n) {
      cases.emplace_back(line, "");
      line += StrCat(" x", n);
    }
  }
  for (const auto& [line, payload] : cases) {
    const std::string text =
        line + "\n" + (payload.empty() ? "" : payload + "\n");
    Request from_text;
    const ParseStatus status = ParseText(text, &from_text);
    if (line.empty()) {
      // A blank text line is skipped; an empty LINE frame is malformed.
      EXPECT_EQ(status, ParseStatus::kNeedMore);
    } else {
      ASSERT_EQ(status, ParseStatus::kFrame) << line;
    }
    const std::string wire = EncodeBinaryLineRequest(9, line, payload);
    size_t consumed = 0;
    BinaryRequest from_binary;
    std::string error;
    ASSERT_EQ(ParseBinaryRequest(wire, &consumed, &from_binary, &error),
              ParseStatus::kFrame)
        << line;
    if (line.empty()) {
      EXPECT_EQ(from_binary.request.error(), "empty command");
      continue;
    }
    EXPECT_EQ(Describe(from_binary.request), Describe(from_text)) << line;
  }
}

TEST(Wire, CheckOpcodesParseLikeTheirTextLines) {
  const std::pair<std::string, std::string> cases[] = {
      {EncodeBinaryCheckRequest(1, "s", "A", "B"), "CHECK s A B\n"},
      {EncodeBinaryBatchCheckRequest(2, "s", {{"A", "B"}, {"C", "D"}}),
       "BCHECK s A B C D\n"},
      {EncodeBinaryBatchCheckRequest(3, "s", {}), "BCHECK s\n"},
  };
  for (const auto& [wire, text] : cases) {
    size_t consumed = 0;
    BinaryRequest from_binary;
    std::string error;
    ASSERT_EQ(ParseBinaryRequest(wire, &consumed, &from_binary, &error),
              ParseStatus::kFrame)
        << error;
    Request from_text;
    ASSERT_EQ(ParseText(text, &from_text), ParseStatus::kFrame);
    EXPECT_TRUE(from_text.ok()) << from_text.error();
    EXPECT_EQ(Describe(from_binary.request), Describe(from_text)) << text;
  }
}

TEST(Wire, RequestsOwnTheirBytes) {
  // The parsed request must not point into the buffer it came from, nor
  // into storage a move relocates (short strings live inline).
  std::string wire = EncodeBinaryCheckRequest(1, "s", "A", "B");
  size_t consumed = 0;
  BinaryRequest parsed;
  std::string error;
  ASSERT_EQ(ParseBinaryRequest(wire, &consumed, &parsed, &error),
            ParseStatus::kFrame);
  wire.assign(wire.size(), '#');
  Request moved = std::move(parsed.request);
  std::vector<Request> many;
  many.push_back(std::move(moved));
  many.resize(64);  // reallocates, moving the request again
  EXPECT_EQ(Describe(many[0]), "CHECK s A B|payload=|error=");
}

TEST(Wire, BinaryRepliesRoundtripAllThreeKinds) {
  const uint64_t id = 0x0123456789abcdefull;
  for (const Reply& sent :
       {OkReply("subsumed=true,false"), ErrReply("proto", "bad frame"),
        [] {
          Reply r;
          r.kind = Reply::Kind::kBusy;
          return r;
        }()}) {
    const std::string wire = EncodeBinaryReply(id, sent);
    // Every proper prefix needs more bytes.
    for (size_t n = 0; n < wire.size(); ++n) {
      size_t consumed = 0;
      BinaryReply out;
      std::string error;
      EXPECT_EQ(ParseBinaryReply(std::string_view(wire).substr(0, n),
                                 &consumed, &out, &error),
                ParseStatus::kNeedMore);
    }
    size_t consumed = 0;
    BinaryReply out;
    std::string error;
    ASSERT_EQ(ParseBinaryReply(wire, &consumed, &out, &error),
              ParseStatus::kFrame)
        << error;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(out.id, id);
    EXPECT_EQ(out.reply.kind, sent.kind);
    EXPECT_EQ(out.reply.code, sent.code);
    EXPECT_EQ(out.reply.payload, sent.payload);
  }
}

TEST(Wire, UnknownReplyStatusIsRejected) {
  std::string frame;
  AppendU64(&frame, 1);
  frame.push_back(static_cast<char>(9));
  std::string wire;
  AppendU32(&wire, static_cast<uint32_t>(frame.size()));
  wire += frame;
  size_t consumed = 0;
  BinaryReply out;
  std::string error;
  EXPECT_EQ(ParseBinaryReply(wire, &consumed, &out, &error),
            ParseStatus::kBad);
}

// Every text reply parses back from its encoding: each proper prefix
// needs more bytes, the whole reply is one frame, and a stream of
// replies fed one byte at a time yields them in order.
TEST(Wire, TextRepliesRoundtripThroughTheIncrementalParser) {
  Reply busy;
  busy.kind = Reply::Kind::kBusy;
  const std::vector<Reply> sent = {
      OkReply(""), OkReply("subsumed=true"),
      OkReply("a\nmulti-line\n\npayload\n"), ErrReply("proto", "bad frame"),
      ErrReply("not_found", ""), busy};
  std::string stream;
  for (const Reply& reply : sent) {
    const std::string wire = EncodeReply(reply);
    stream += wire;
    for (size_t n = 0; n < wire.size(); ++n) {
      size_t consumed = 1;
      Reply out;
      std::string error;
      EXPECT_EQ(ParseTextReply(std::string_view(wire).substr(0, n),
                               &consumed, &out, &error),
                ParseStatus::kNeedMore)
          << wire.substr(0, n);
      EXPECT_EQ(consumed, 0u);
    }
  }
  std::string buf;
  std::vector<Reply> got;
  for (const char c : stream) {
    buf += c;
    size_t consumed = 0;
    Reply out;
    std::string error;
    const ParseStatus status = ParseTextReply(buf, &consumed, &out, &error);
    ASSERT_NE(status, ParseStatus::kBad) << error;
    if (status == ParseStatus::kFrame) {
      EXPECT_EQ(consumed, buf.size());
      buf.erase(0, consumed);
      got.push_back(std::move(out));
    }
  }
  EXPECT_TRUE(buf.empty());
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].kind, sent[i].kind) << i;
    EXPECT_EQ(got[i].code, sent[i].code) << i;
    EXPECT_EQ(got[i].payload, sent[i].payload) << i;
  }
}

TEST(Wire, MalformedTextRepliesAreRejected) {
  const std::string overlong(kMaxTextLine + 1, 'x');
  for (const std::string& wire :
       {std::string("OK \n\n"), std::string("OK x\nx\n"),
        std::string("OK 3\nabcX"), std::string("HELLO\n"),
        std::string("ok 0\n\n"), overlong}) {
    size_t consumed = 0;
    Reply out;
    std::string error;
    EXPECT_EQ(ParseTextReply(wire, &consumed, &out, &error), ParseStatus::kBad)
        << wire.substr(0, 16);
    EXPECT_FALSE(error.empty());
  }
  // A status line at the cap still waits for its '\n'.
  size_t consumed = 0;
  Reply out;
  std::string error;
  EXPECT_EQ(ParseTextReply(overlong.substr(1), &consumed, &out, &error),
            ParseStatus::kNeedMore);
  // ERR without a message has an empty one.
  ASSERT_EQ(ParseTextReply("ERR proto\n", &consumed, &out, &error),
            ParseStatus::kFrame);
  EXPECT_EQ(out.code, "proto");
  EXPECT_EQ(out.payload, "");
}

// A loopback listener that the test plays the daemon on, by hand.
struct FakeServer {
  int listen_fd = -1;
  int port = 0;

  FakeServer() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        ::listen(listen_fd, 1) == 0 &&
        ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
            0) {
      port = ntohs(addr.sin_port);
    }
  }
  ~FakeServer() { ::close(listen_fd); }

  // Accepts one connection, with Nagle off so that each send is a segment.
  int Accept() {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
};

// The client reads replies that arrive one byte per send through its one
// receive buffer: OK with an empty and with a multi-line payload, ERR
// with and without a message, BUSY, and then a reply cut short by the
// peer's close, which kills the client.
void ExpectClientReadsRepliesWrittenOneBytePerSend(bool binary) {
  Reply busy;
  busy.kind = Reply::Kind::kBusy;
  const std::vector<Reply> replies = {
      OkReply(""), OkReply("line one\nline two\n\nline four"),
      ErrReply("proto", "bad frame"), ErrReply("proto", ""), busy};
  FakeServer fake;
  ASSERT_NE(fake.port, 0);
  auto client = Client::Connect("127.0.0.1", fake.port);
  ASSERT_TRUE(client.ok()) << client.status();
  const int fd = fake.Accept();
  ASSERT_GE(fd, 0);
  if (binary) {
    ASSERT_TRUE(client->EnableBinary().ok());
  }
  // Binary request ids run from 1; the last reply is cut mid-payload.
  std::string wire;
  for (size_t i = 0; i < replies.size(); ++i) {
    wire += binary ? EncodeBinaryReply(i + 1, replies[i])
                   : EncodeReply(replies[i]);
  }
  const std::string last =
      binary ? EncodeBinaryReply(replies.size() + 1, OkReply("truncated"))
             : EncodeReply(OkReply("truncated"));
  wire += last.substr(0, last.size() - 3);
  // The fake daemon half-closes after the cut reply, so that the client
  // reads EOF (not a reset) once the bytes before it are read.
  std::thread writer([&] {
    for (const char c : wire) {
      if (!WriteFully(fd, std::string_view(&c, 1))) break;
    }
    ::shutdown(fd, SHUT_WR);
  });

  // No ASSERT until the writer is joined.
  auto empty = client->Roundtrip("PING");
  EXPECT_TRUE(empty.ok() && empty->empty()) << empty.status();
  auto lines = client->Roundtrip("STATS");
  EXPECT_TRUE(lines.ok() && *lines == "line one\nline two\n\nline four")
      << lines.status();
  auto err = client->Roundtrip("CHECK");
  EXPECT_EQ(err.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(err.status().message(), "proto: bad frame");
  auto bare = client->Roundtrip("CHECK");
  EXPECT_EQ(bare.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(bare.status().message(), "proto: ");
  auto busy_reply = client->Roundtrip("CLASSIFY s");
  EXPECT_EQ(busy_reply.status().code(), StatusCode::kResourceExhausted);
  auto cut = client->Roundtrip("PING");
  EXPECT_EQ(cut.status().code(), StatusCode::kInternal);
  writer.join();
  // Dead from here on: the call fails without touching the socket.
  EXPECT_EQ(client->Roundtrip("PING").status().code(), StatusCode::kInternal);
  ::close(fd);
}

// The binary framing. The name is older than the client's reader: the
// frames it reassembles were once read with a ReadFully helper.
TEST(Wire, ReadFullyReassemblesAFrameWrittenByteByByte) {
  ExpectClientReadsRepliesWrittenOneBytePerSend(/*binary=*/true);
}

// The text framing. The name is older than the client's reader: the
// frames it reassembles were once read with a FrameReader.
TEST(Wire, FrameReaderHandlesFragmentedTextFrames) {
  ExpectClientReadsRepliesWrittenOneBytePerSend(/*binary=*/false);
}

// A malformed text reply kills the client: the stream position is lost,
// so the well-formed reply behind it is never read.
TEST(Wire, MalformedTextReplyKillsTheClient) {
  FakeServer fake;
  ASSERT_NE(fake.port, 0);
  auto client = Client::Connect("127.0.0.1", fake.port);
  ASSERT_TRUE(client.ok()) << client.status();
  const int fd = fake.Accept();
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteFully(fd, "HELLO 5\nOK 4\npong\n"));
  auto bad = client->Roundtrip("PING");
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
  EXPECT_EQ(client->Roundtrip("PING").status().code(), StatusCode::kInternal);
  ::close(fd);
}

// A reply frame truncated mid-header (the peer dies 6 bytes into the
// next frame) must surface as a transport error on the pipelined Await
// — and poison the client, so every later call fails fast instead of
// rereading a closed socket.
TEST(Wire, TruncatedReplyMidHeaderFailsAwaitAndPoisonsTheClient) {
  FakeServer fake;
  ASSERT_NE(fake.port, 0);
  auto client = Client::Connect("127.0.0.1", fake.port);
  ASSERT_TRUE(client.ok()) << client.status().message();
  int sfd = fake.Accept();
  ASSERT_GE(sfd, 0);

  ASSERT_TRUE(client->EnableBinary().ok());
  auto id1 = client->SubmitLine("PING");
  auto id2 = client->SubmitLine("PING");
  ASSERT_TRUE(id1.ok() && id2.ok());
  ASSERT_TRUE(client->Flush().ok());

  // The fake server answers the first request in full, truncates the
  // second reply mid-header, and dies.
  const std::string first = EncodeBinaryReply(*id1, OkReply("pong"));
  const std::string second = EncodeBinaryReply(*id2, OkReply("pong"));
  ASSERT_TRUE(WriteFully(sfd, first));
  ASSERT_TRUE(WriteFully(sfd, std::string_view(second).substr(0, 6)));
  ::close(sfd);

  auto r1 = client->Await(*id1);
  ASSERT_TRUE(r1.ok()) << r1.status().message();
  EXPECT_EQ(*r1, "pong");
  auto r2 = client->Await(*id2);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInternal);

  // Dead from here on: no call may touch the socket again.
  auto again = client->Await(*id2);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInternal);
  auto rt = client->Roundtrip("PING");
  ASSERT_FALSE(rt.ok());
  EXPECT_EQ(rt.status().code(), StatusCode::kInternal);
  auto id3 = client->SubmitLine("PING");
  EXPECT_FALSE(id3.ok());
}

TEST(Wire, WriteFullySurvivesAClosedPeerWithoutSignalling) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // First writes may land in the socket buffer; eventually the dead peer
  // must surface as `false`, never as SIGPIPE.
  bool ok = true;
  for (int i = 0; i < 64 && ok; ++i) {
    ok = WriteFully(fds[0], std::string(4096, 'y'));
  }
  EXPECT_FALSE(ok);
  ::close(fds[0]);
}

}  // namespace
}  // namespace oodb::server
