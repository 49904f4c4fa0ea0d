#include "db/instance.h"

#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "dl/lexer.h"

namespace oodb::db {

namespace {

// One `Object` frame. Its names are views into the parsed state.
struct ObjectDecl {
  std::string_view name;
  std::vector<std::string_view> classes;
  // attr → value
  std::vector<std::pair<std::string_view, std::string_view>> attrs;
  int line = 0;
};

class InstanceParser {
 public:
  explicit InstanceParser(dl::Lexer* lexer) : lexer_(*lexer) {}

  Result<std::vector<ObjectDecl>> Parse() {
    std::vector<ObjectDecl> decls;
    while (!AtEof()) {
      if (!IsWord("Object")) {
        return Error("expected 'Object'");
      }
      Advance();
      ObjectDecl decl;
      decl.line = Peek().line;
      OODB_ASSIGN_OR_RETURN(decl.name, ExpectIdent("object name"));
      if (IsWord("in")) {
        Advance();
        do {
          OODB_ASSIGN_OR_RETURN(std::string_view cls,
                                ExpectIdent("class name"));
          decl.classes.push_back(cls);
        } while (Consume(dl::TokenKind::kComma));
      }
      if (IsWord("with")) {
        Advance();
        while (Is(dl::TokenKind::kIdent) && !IsWord("end")) {
          OODB_ASSIGN_OR_RETURN(std::string_view attr,
                                ExpectIdent("attribute name"));
          if (!Consume(dl::TokenKind::kColon)) return Error("expected ':'");
          OODB_ASSIGN_OR_RETURN(std::string_view value,
                                ExpectIdent("object name"));
          decl.attrs.emplace_back(attr, value);
        }
      }
      if (!IsWord("end")) return Error("expected 'end'");
      Advance();
      if (Is(dl::TokenKind::kIdent) && Peek().text == decl.name) Advance();
      decls.push_back(std::move(decl));
    }
    return decls;
  }

 private:
  const dl::Token& Peek() { return lexer_.Peek(); }
  dl::Token Advance() { return lexer_.Advance(); }
  bool AtEof() { return Peek().kind == dl::TokenKind::kEof; }
  bool Is(dl::TokenKind k) { return Peek().kind == k; }
  bool IsWord(std::string_view w) {
    return Is(dl::TokenKind::kIdent) && Peek().text == w;
  }
  bool Consume(dl::TokenKind k) {
    if (!Is(k)) return false;
    Advance();
    return true;
  }
  Status Error(std::string_view message) {
    return InvalidArgumentError(StrCat("line ", Peek().line, ": ", message,
                                       " (got '", Peek().text, "')"));
  }
  Result<std::string_view> ExpectIdent(std::string_view what) {
    if (!Is(dl::TokenKind::kIdent)) {
      return Status(StatusCode::kInvalidArgument,
                    Error(StrCat("expected ", what)).message());
    }
    return Advance().text;
  }

  dl::Lexer& lexer_;
};

}  // namespace

Result<LoadStats> LoadInstance(std::string_view source, Database* database) {
  dl::Lexer lexer(source);
  InstanceParser parser(&lexer);
  OODB_ASSIGN_OR_RETURN(std::vector<ObjectDecl> decls,
                        lexer.Finish(parser.Parse()));

  LoadStats stats;
  SymbolTable& symbols = database->symbols();

  // Pass 1: create all declared objects (duplicates are errors).
  std::vector<ObjectId> declared;
  declared.reserve(decls.size());
  for (const ObjectDecl& decl : decls) {
    auto created = database->CreateObject(decl.name);
    if (!created.ok()) {
      return Status(created.status().code(),
                    StrCat("line ", decl.line, ": ",
                           created.status().message()));
    }
    declared.push_back(*created);
    ++stats.objects;
  }
  // Referenced-but-undeclared value objects are created on demand.
  auto resolve = [&](std::string_view name, int line) -> Result<ObjectId> {
    if (auto found = database->FindObject(symbols.Intern(name))) {
      return *found;
    }
    auto created = database->CreateObject(name);
    if (!created.ok()) {
      return Status(created.status().code(),
                    StrCat("line ", line, ": ", created.status().message()));
    }
    ++stats.objects;
    return *created;
  };

  // Pass 2: memberships and attribute values.
  for (size_t i = 0; i < decls.size(); ++i) {
    const ObjectDecl& decl = decls[i];
    const ObjectId o = declared[i];
    for (std::string_view cls : decl.classes) {
      Status added = database->AddToClass(o, symbols.Intern(cls));
      if (!added.ok()) {
        return Status(added.code(), StrCat("line ", decl.line, ": ",
                                           added.message()));
      }
      ++stats.memberships;
    }
    for (const auto& [attr, value] : decl.attrs) {
      OODB_ASSIGN_OR_RETURN(ObjectId v, resolve(value, decl.line));
      Status added = database->AddAttr(o, symbols.Intern(attr), v);
      if (!added.ok()) {
        return Status(added.code(), StrCat("line ", decl.line, ": ",
                                           added.message()));
      }
      ++stats.attributes;
    }
  }
  return stats;
}

std::string DumpInstance(const Database& database) {
  const SymbolTable& symbols = database.symbols();
  std::string out;
  // Stable order: by object id.
  for (ObjectId o = 0; o < database.num_objects(); ++o) {
    const std::string& name = symbols.Name(database.ObjectName(o));
    std::vector<std::string> classes;
    for (const dl::ClassDef& def : database.model().classes()) {
      if (def.is_query || def.name == database.model().object_class) {
        continue;
      }
      if (database.InClass(o, def.name)) {
        classes.push_back(symbols.Name(def.name));
      }
    }
    // attribute → sorted values, attributes sorted by name.
    std::map<std::string, std::vector<std::string>> attrs;
    for (const dl::AttributeDef& def : database.model().attributes()) {
      for (ObjectId v :
           database.AttrValues(o, ql::Attr{def.name, false})) {
        attrs[symbols.Name(def.name)].push_back(
            symbols.Name(database.ObjectName(v)));
      }
    }
    out += StrCat("Object ", name);
    if (!classes.empty()) out += StrCat(" in ", StrJoin(classes, ", "));
    if (!attrs.empty()) {
      out += " with\n";
      for (auto& [attr, values] : attrs) {
        std::sort(values.begin(), values.end());
        for (const std::string& v : values) {
          out += StrCat("  ", attr, ": ", v, "\n");
        }
      }
      out += StrCat("end ", name, "\n");
    } else {
      out += StrCat(" with\nend ", name, "\n");
    }
  }
  return out;
}

}  // namespace oodb::db
