#include "dl/parser.h"

#include <utility>

#include "base/strings.h"
#include "dl/lexer.h"

namespace oodb::dl {

namespace {

using ast::Formula;
using ast::FormulaPtr;

// Identifiers that end an attribute/derived/where entry list when they
// start the next section.
bool IsSectionKeyword(std::string_view word) {
  return word == "attribute" || word == "derived" || word == "where" ||
         word == "constraint" || word == "end";
}

// Parses from a pull lexer. An illegal character ends the token stream
// like the end of the source does, and Lexer::Finish then puts the
// lexer's error in place of the parse's result.
class Parser {
 public:
  explicit Parser(Lexer* lexer) : lexer_(*lexer) {}

  Result<ast::File> ParseFileBody() {
    while (!AtEof()) {
      if (IsWord("Class") || IsWord("QueryClass")) {
        OODB_ASSIGN_OR_RETURN(ast::ClassDecl decl, ParseClass());
        file_.classes.push_back(std::move(decl));
      } else if (IsWord("Attribute")) {
        OODB_ASSIGN_OR_RETURN(ast::AttributeDecl decl, ParseAttribute());
        file_.attributes.push_back(decl);
      } else {
        return Error(Peek(), "expected Class, QueryClass or Attribute");
      }
    }
    return std::move(file_);
  }

  Result<FormulaPtr> ParseTopLevelFormula() {
    OODB_ASSIGN_OR_RETURN(FormulaPtr f, ParseFormulaExpr());
    if (!AtEof()) return Error(Peek(), "trailing input after formula");
    return f;
  }

 private:
  // --- token helpers -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) { return lexer_.Peek(ahead); }
  Token Advance() { return lexer_.Advance(); }
  bool AtEof() { return Peek().kind == TokenKind::kEof; }
  bool Is(TokenKind k, size_t ahead = 0) { return Peek(ahead).kind == k; }
  bool IsWord(std::string_view w, size_t ahead = 0) {
    return Is(TokenKind::kIdent, ahead) && Peek(ahead).text == w;
  }
  bool ConsumeWord(std::string_view w) {
    if (!IsWord(w)) return false;
    Advance();
    return true;
  }
  bool Consume(TokenKind k) {
    if (!Is(k)) return false;
    Advance();
    return true;
  }

  Status Error(const Token& t, std::string_view message) const {
    return InvalidArgumentError(
        StrCat("line ", t.line, ": ", message, " (got '",
               t.kind == TokenKind::kEof ? "<eof>" : t.text, "')"));
  }

  Result<std::string_view> ExpectIdent(std::string_view what) {
    if (!Is(TokenKind::kIdent)) {
      return Status(StatusCode::kInvalidArgument,
                    Error(Peek(), StrCat("expected ", what)).message());
    }
    return Advance().text;
  }

  Status Expect(TokenKind k, std::string_view what) {
    if (!Consume(k)) return Error(Peek(), StrCat("expected ", what));
    return Status::Ok();
  }

  // --- declarations -------------------------------------------------------

  // The run of `pool` from `begin` to its end.
  template <typename T>
  static ast::Run RunFrom(const std::vector<T>& pool, size_t begin) {
    return ast::Run{static_cast<uint32_t>(begin),
                    static_cast<uint32_t>(pool.size())};
  }

  // A class's lists are appended to the pools as its sections come, and
  // no other declaration's come in between, so each is one run.
  Result<ast::ClassDecl> ParseClass() {
    ast::ClassDecl decl;
    decl.line = Peek().line;
    decl.is_query = Peek().text == "QueryClass";
    const size_t supers = file_.supers.size();
    const size_t attrs = file_.attrs.size();
    const size_t derived = file_.derived.size();
    const size_t where = file_.where.size();
    Advance();  // Class / QueryClass
    OODB_ASSIGN_OR_RETURN(decl.name, ExpectIdent("class name"));
    if (ConsumeWord("isA")) {
      do {
        OODB_ASSIGN_OR_RETURN(std::string_view super,
                              ExpectIdent("superclass"));
        file_.supers.push_back(super);
      } while (Consume(TokenKind::kComma));
    }
    OODB_RETURN_IF_ERROR(ExpectWord("with"));
    while (!IsWord("end")) {
      if (AtEof()) return Error(Peek(), "expected section or end");
      if (IsWord("attribute")) {
        OODB_RETURN_IF_ERROR(ParseAttrSection());
      } else if (IsWord("derived")) {
        OODB_RETURN_IF_ERROR(ParseDerivedSection());
      } else if (IsWord("where")) {
        OODB_RETURN_IF_ERROR(ParseWhereSection());
      } else if (IsWord("constraint")) {
        Advance();
        OODB_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'"));
        if (decl.constraint != nullptr) {
          return Error(Peek(), "duplicate constraint clause");
        }
        OODB_ASSIGN_OR_RETURN(decl.constraint, ParseFormulaExpr());
      } else {
        return Error(Peek(),
                     "expected attribute, derived, where, constraint or end");
      }
    }
    Advance();  // end
    // Optional trailing class name.
    if (Is(TokenKind::kIdent) && Peek().text == decl.name) Advance();
    decl.supers = RunFrom(file_.supers, supers);
    decl.attrs = RunFrom(file_.attrs, attrs);
    decl.derived = RunFrom(file_.derived, derived);
    decl.where = RunFrom(file_.where, where);
    return decl;
  }

  Status ExpectWord(std::string_view w) {
    if (!ConsumeWord(w)) return Error(Peek(), StrCat("expected '", w, "'"));
    return Status::Ok();
  }

  Status ParseAttrSection() {
    Advance();  // attribute
    bool necessary = false;
    bool single = false;
    while (Consume(TokenKind::kComma)) {
      if (ConsumeWord("necessary")) {
        necessary = true;
      } else if (ConsumeWord("single")) {
        single = true;
      } else {
        return Error(Peek(), "expected 'necessary' or 'single'");
      }
    }
    // Entries: `a : C` until the next section keyword / end.
    while (Is(TokenKind::kIdent) && !IsSectionKeyword(Peek().text)) {
      ast::AttrEntry entry;
      entry.line = Peek().line;
      entry.necessary = necessary;
      entry.single = single;
      OODB_ASSIGN_OR_RETURN(entry.attr, ExpectIdent("attribute name"));
      OODB_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'"));
      OODB_ASSIGN_OR_RETURN(entry.range, ExpectIdent("range class"));
      file_.attrs.push_back(entry);
    }
    return Status::Ok();
  }

  Status ParseDerivedSection() {
    Advance();  // derived
    for (;;) {
      if (Is(TokenKind::kIdent) && IsSectionKeyword(Peek().text)) break;
      if (!Is(TokenKind::kIdent) && !Is(TokenKind::kLParen)) break;
      ast::DerivedPath path;
      path.line = Peek().line;
      // `label : path` iff an identifier is directly followed by ':' and
      // the token after it starts a path (identifier or '(').
      if (Is(TokenKind::kIdent) && Is(TokenKind::kColon, 1)) {
        path.label = Advance().text;
        Advance();  // ':'
      }
      const size_t steps = file_.steps.size();
      OODB_RETURN_IF_ERROR(ParsePathSteps());
      path.steps = RunFrom(file_.steps, steps);
      file_.derived.push_back(path);
    }
    return Status::Ok();
  }

  Status ParsePathSteps() {
    do {
      ast::PathStep step;
      step.line = Peek().line;
      if (Consume(TokenKind::kLParen)) {
        OODB_ASSIGN_OR_RETURN(step.attr, ExpectIdent("attribute name"));
        OODB_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'"));
        if (Consume(TokenKind::kLBrace)) {
          step.filter_kind = ast::PathStep::Filter::kConstant;
          OODB_ASSIGN_OR_RETURN(step.filter, ExpectIdent("constant"));
          OODB_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "'}'"));
        } else if (Consume(TokenKind::kQuestion)) {
          step.filter_kind = ast::PathStep::Filter::kVariable;
          OODB_ASSIGN_OR_RETURN(step.filter, ExpectIdent("variable"));
        } else {
          step.filter_kind = ast::PathStep::Filter::kClass;
          OODB_ASSIGN_OR_RETURN(step.filter, ExpectIdent("class name"));
        }
        OODB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      } else {
        OODB_ASSIGN_OR_RETURN(step.attr, ExpectIdent("attribute name"));
        step.filter_kind = ast::PathStep::Filter::kNone;
      }
      file_.steps.push_back(step);
    } while (Consume(TokenKind::kDot));
    return Status::Ok();
  }

  Status ParseWhereSection() {
    Advance();  // where
    while (Is(TokenKind::kIdent) && !IsSectionKeyword(Peek().text)) {
      ast::WhereEq eq;
      eq.line = Peek().line;
      OODB_ASSIGN_OR_RETURN(eq.lhs, ExpectIdent("label"));
      OODB_RETURN_IF_ERROR(Expect(TokenKind::kEquals, "'='"));
      OODB_ASSIGN_OR_RETURN(eq.rhs, ExpectIdent("label"));
      file_.where.push_back(eq);
    }
    return Status::Ok();
  }

  Result<ast::AttributeDecl> ParseAttribute() {
    ast::AttributeDecl decl;
    decl.line = Peek().line;
    Advance();  // Attribute
    OODB_ASSIGN_OR_RETURN(decl.name, ExpectIdent("attribute name"));
    OODB_RETURN_IF_ERROR(ExpectWord("with"));
    while (!IsWord("end")) {
      if (AtEof()) return Error(Peek(), "expected attribute property or end");
      OODB_ASSIGN_OR_RETURN(std::string_view prop,
                            ExpectIdent("attribute property"));
      OODB_RETURN_IF_ERROR(Expect(TokenKind::kColon, "':'"));
      OODB_ASSIGN_OR_RETURN(std::string_view value,
                            ExpectIdent("property value"));
      if (prop == "domain") {
        decl.domain = value;
      } else if (prop == "range") {
        decl.range = value;
      } else if (prop == "inverse") {
        decl.inverse = value;
      } else {
        return InvalidArgumentError(
            StrCat("line ", decl.line, ": unknown attribute property '", prop,
                   "' (expected domain, range or inverse)"));
      }
    }
    Advance();  // end
    if (Is(TokenKind::kIdent) && Peek().text == decl.name) Advance();
    return decl;
  }

  // --- constraint formulas -------------------------------------------------

  Result<FormulaPtr> ParseFormulaExpr() {
    // Quantifiers scope maximally to the right (paper Fig. 3).
    if (IsWord("forall") || IsWord("exists")) {
      auto f = std::make_unique<Formula>();
      f->line = Peek().line;
      f->kind = Peek().text == "forall" ? Formula::Kind::kForall
                                        : Formula::Kind::kExists;
      Advance();
      OODB_ASSIGN_OR_RETURN(f->var, ExpectIdent("quantified variable"));
      OODB_RETURN_IF_ERROR(Expect(TokenKind::kSlash, "'/'"));
      OODB_ASSIGN_OR_RETURN(f->cls, ExpectIdent("class name"));
      OODB_ASSIGN_OR_RETURN(FormulaPtr body, ParseFormulaExpr());
      f->children.push_back(std::move(body));
      return f;
    }
    return ParseOr();
  }

  Result<FormulaPtr> ParseOr() {
    OODB_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseAnd());
    while (IsWord("or")) {
      int line = Advance().line;
      OODB_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseAnd());
      auto f = std::make_unique<Formula>();
      f->kind = Formula::Kind::kOr;
      f->line = line;
      f->children.push_back(std::move(lhs));
      f->children.push_back(std::move(rhs));
      lhs = std::move(f);
    }
    return lhs;
  }

  Result<FormulaPtr> ParseAnd() {
    OODB_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseUnary());
    while (IsWord("and")) {
      int line = Advance().line;
      OODB_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseUnary());
      auto f = std::make_unique<Formula>();
      f->kind = Formula::Kind::kAnd;
      f->line = line;
      f->children.push_back(std::move(lhs));
      f->children.push_back(std::move(rhs));
      lhs = std::move(f);
    }
    return lhs;
  }

  Result<FormulaPtr> ParseUnary() {
    if (IsWord("not")) {
      int line = Advance().line;
      OODB_ASSIGN_OR_RETURN(FormulaPtr inner, ParseUnary());
      auto f = std::make_unique<Formula>();
      f->kind = Formula::Kind::kNot;
      f->line = line;
      f->children.push_back(std::move(inner));
      return f;
    }
    if (IsWord("forall") || IsWord("exists")) return ParseFormulaExpr();
    if (!Is(TokenKind::kLParen)) {
      return Error(Peek(), "expected '(', 'not' or a quantifier");
    }
    // '(' starts either an atom or a parenthesized formula. An atom begins
    // with a term (`this` or an identifier) followed by `in`, `=` or an
    // attribute name.
    bool atom = false;
    if (IsWord("this", 1) || Is(TokenKind::kIdent, 1)) {
      if (IsWord("forall", 1) || IsWord("exists", 1) || IsWord("not", 1)) {
        atom = false;
      } else if (Is(TokenKind::kIdent, 2) || Is(TokenKind::kEquals, 2)) {
        atom = true;
      }
    }
    if (atom) return ParseAtom();
    Advance();  // '('
    OODB_ASSIGN_OR_RETURN(FormulaPtr inner, ParseFormulaExpr());
    OODB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return inner;
  }

  Result<ast::Term> ParseTerm() {
    ast::Term t;
    t.line = Peek().line;
    if (ConsumeWord("this")) {
      t.kind = ast::Term::Kind::kThis;
      return t;
    }
    t.kind = ast::Term::Kind::kIdent;
    OODB_ASSIGN_OR_RETURN(t.name, ExpectIdent("term"));
    return t;
  }

  Result<FormulaPtr> ParseAtom() {
    int line = Peek().line;
    OODB_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    auto f = std::make_unique<Formula>();
    f->line = line;
    OODB_ASSIGN_OR_RETURN(f->t1, ParseTerm());
    if (Consume(TokenKind::kEquals)) {
      f->kind = Formula::Kind::kEq;
      OODB_ASSIGN_OR_RETURN(f->t2, ParseTerm());
    } else if (ConsumeWord("in")) {
      f->kind = Formula::Kind::kIn;
      OODB_ASSIGN_OR_RETURN(f->cls, ExpectIdent("class name"));
    } else if (Is(TokenKind::kIdent)) {
      f->kind = Formula::Kind::kAttr;
      f->attr = Advance().text;
      OODB_ASSIGN_OR_RETURN(f->t2, ParseTerm());
    } else {
      return Error(Peek(), "expected 'in', '=' or an attribute name");
    }
    OODB_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return f;
  }

  Lexer& lexer_;
  ast::File file_;  // filled by ParseFileBody
};

}  // namespace

Result<ast::File> ParseFile(std::string_view source) {
  Lexer lexer(source);
  Parser parser(&lexer);
  return lexer.Finish(parser.ParseFileBody());
}

Result<ast::FormulaPtr> ParseFormula(std::string_view source) {
  Lexer lexer(source);
  Parser parser(&lexer);
  return lexer.Finish(parser.ParseTopLevelFormula());
}

}  // namespace oodb::dl
