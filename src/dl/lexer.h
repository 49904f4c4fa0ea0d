// Pull lexer for DL source text and `.odb` states. All words lex as
// identifiers; keywords are contextual (so `name`, `domain` or `single`
// remain usable as attribute and class names). `//` starts a line comment.
// Tokens are lexed on demand, and a token's text is a view into the
// source, which must outlive every token taken from it.
#ifndef OODB_DL_LEXER_H_
#define OODB_DL_LEXER_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "base/status.h"

namespace oodb::dl {

enum class TokenKind : uint8_t {
  kIdent,
  kComma,     // ,
  kColon,     // :
  kDot,       // .
  kLParen,    // (
  kRParen,    // )
  kEquals,    // =
  kSlash,     // /
  kLBrace,    // {
  kRBrace,    // }
  kQuestion,  // ?
  kEof,
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;  // empty for kEof
  int line = 0;
};

// Hands out the tokens of `source` in order, with a lookahead of up to
// kLookahead tokens. An illegal character ends the token stream: from
// there on every token is kEof, and status() holds the kInvalidArgument
// error naming it. Past the end, every token is kEof as well.
class Lexer {
 public:
  static constexpr size_t kLookahead = 3;

  explicit Lexer(std::string_view source) : source_(source) {}

  // The token `ahead` places after the next one (0: the next token).
  // Requires ahead < kLookahead.
  const Token& Peek(size_t ahead = 0) {
    assert(ahead < kLookahead);
    while (size_ <= ahead) {
      ahead_[(head_ + size_) % kRing] = Lex();
      ++size_;
    }
    return ahead_[(head_ + ahead) % kRing];
  }

  // Consumes the next token.
  Token Advance() {
    Token token = Peek();
    head_ = (head_ + 1) % kRing;
    --size_;
    return token;
  }

  // A parse's result, unless the source holds an illegal character: that
  // error wins over a syntax error, wherever each of them is, so a failed
  // parse lexes the rest of the source first.
  template <typename T>
  Result<T> Finish(Result<T> parsed) {
    if (!parsed.ok()) {
      while (Advance().kind != TokenKind::kEof) {
      }
    }
    if (!status_.ok()) return status_;
    return parsed;
  }

  const Status& status() const { return status_; }

 private:
  Token Lex();

  std::string_view source_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  Status status_;
  // A ring of the `size_` tokens lexed but not consumed, from `head_`.
  static constexpr size_t kRing = 4;  // a power of two ≥ kLookahead
  std::array<Token, kRing> ahead_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace oodb::dl

#endif  // OODB_DL_LEXER_H_
