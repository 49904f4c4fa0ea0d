#include "dl/lexer.h"

#include "base/strings.h"

namespace oodb::dl {

namespace {

// ASCII classes, as <cctype> draws them in the C locale.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }

}  // namespace

Token Lexer::Lex() {
  if (!status_.ok()) return Token{TokenKind::kEof, {}, line_};
  while (pos_ < source_.size()) {
    const char c = source_[pos_];
    if (c == '\n') {
      ++line_;
      column_ = 1;
      ++pos_;
      continue;
    }
    if (IsSpace(c)) {
      ++column_;
      ++pos_;
      continue;
    }
    if (c == '/' && pos_ + 1 < source_.size() && source_[pos_ + 1] == '/') {
      while (pos_ < source_.size() && source_[pos_] != '\n') ++pos_;
      continue;
    }
    const size_t start = pos_;
    Token token{TokenKind::kIdent, {}, line_};
    if (IsIdentStart(c)) {
      while (pos_ < source_.size() && IsIdentChar(source_[pos_])) ++pos_;
    } else {
      switch (c) {
        case ',': token.kind = TokenKind::kComma; break;
        case ':': token.kind = TokenKind::kColon; break;
        case '.': token.kind = TokenKind::kDot; break;
        case '(': token.kind = TokenKind::kLParen; break;
        case ')': token.kind = TokenKind::kRParen; break;
        case '=': token.kind = TokenKind::kEquals; break;
        case '/': token.kind = TokenKind::kSlash; break;
        case '{': token.kind = TokenKind::kLBrace; break;
        case '}': token.kind = TokenKind::kRBrace; break;
        case '?': token.kind = TokenKind::kQuestion; break;
        default:
          status_ = InvalidArgumentError(StrCat("line ", line_, ":", column_,
                                                ": unexpected character '",
                                                c, "'"));
          return Token{TokenKind::kEof, {}, line_};
      }
      ++pos_;
    }
    token.text = source_.substr(start, pos_ - start);
    column_ += static_cast<int>(pos_ - start);
    return token;
  }
  return Token{TokenKind::kEof, {}, line_};
}

}  // namespace oodb::dl
