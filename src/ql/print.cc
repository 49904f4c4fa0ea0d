#include "ql/print.h"

#include "base/strings.h"

namespace oodb::ql {
namespace {

// Concepts under ⊓ or inside a restriction filter need parentheses when
// they are themselves composite.
bool NeedsParens(const ConceptNode& n) {
  switch (n.kind) {
    case ConceptKind::kTop:
    case ConceptKind::kPrimitive:
    case ConceptKind::kSingleton:
    case ConceptKind::kAtMostOne:
      return false;
    default:
      return true;
  }
}

std::string Render(const TermFactory& f, ConceptId id, bool parenthesize);

std::string RenderPath(const TermFactory& f, PathId path) {
  if (path == kEmptyPath) return "ε";
  std::string out;
  for (const Restriction& r : f.path(path)) {
    out += StrCat("(", AttrToString(f, r.attr), ": ",
                  Render(f, r.filter, /*parenthesize=*/false), ")");
  }
  return out;
}

std::string Render(const TermFactory& f, ConceptId id, bool parenthesize) {
  const ConceptNode& n = f.node(id);
  std::string out;
  switch (n.kind) {
    case ConceptKind::kTop:
      return "⊤";
    case ConceptKind::kPrimitive:
      return f.symbols().Name(n.sym);
    case ConceptKind::kSingleton:
      return StrCat("{", f.symbols().Name(n.sym), "}");
    case ConceptKind::kAnd:
      // ⊓ is associative and binds tighter than nothing else in this
      // grammar, so children print bare — matching the paper's style
      // "Male ⊓ Patient ⊓ ∃(consults: Female) ≐ ε".
      out = StrCat(Render(f, n.lhs, false), " ⊓ ", Render(f, n.rhs, false));
      break;
    case ConceptKind::kExists:
      out = StrCat("∃", RenderPath(f, n.path));
      break;
    case ConceptKind::kAgree:
      out = StrCat("∃", RenderPath(f, n.path), " ≐ ε");
      break;
    case ConceptKind::kAll:
      out = StrCat("∀", AttrToString(f, n.attr), ".",
                   Render(f, n.lhs, NeedsParens(f.node(n.lhs))));
      break;
    case ConceptKind::kAtMostOne:
      return StrCat("(≤1 ", AttrToString(f, n.attr), ")");
  }
  if (parenthesize) return StrCat("(", out, ")");
  return out;
}

}  // namespace

std::string AttrToString(const TermFactory& f, const Attr& attr) {
  std::string name = f.symbols().Name(attr.prim);
  if (attr.inverted) name += "^-1";
  return name;
}

std::string PathToString(const TermFactory& f, PathId path) {
  return RenderPath(f, path);
}

std::string ConceptToString(const TermFactory& f, ConceptId id) {
  return Render(f, id, /*parenthesize=*/false);
}

}  // namespace oodb::ql
