#include "ql/fol.h"

#include <cassert>
#include <utility>

#include "base/strings.h"

namespace oodb::ql {

namespace {

FormulaPtr MakeNode(Formula f) {
  return std::make_shared<const Formula>(std::move(f));
}

}  // namespace

FormulaPtr MakeTrue() {
  Formula f;
  f.kind = FolKind::kTrue;
  return MakeNode(std::move(f));
}

FormulaPtr MakeUnary(Symbol pred, FolTerm t) {
  Formula f;
  f.kind = FolKind::kAtomUnary;
  f.pred = pred;
  f.t1 = t;
  return MakeNode(std::move(f));
}

FormulaPtr MakeBinary(Symbol pred, FolTerm t1, FolTerm t2) {
  Formula f;
  f.kind = FolKind::kAtomBinary;
  f.pred = pred;
  f.t1 = t1;
  f.t2 = t2;
  return MakeNode(std::move(f));
}

FormulaPtr MakeEq(FolTerm t1, FolTerm t2) {
  Formula f;
  f.kind = FolKind::kEq;
  f.t1 = t1;
  f.t2 = t2;
  return MakeNode(std::move(f));
}

FormulaPtr MakeNot(FormulaPtr inner) {
  Formula f;
  f.kind = FolKind::kNot;
  f.children.push_back(std::move(inner));
  return MakeNode(std::move(f));
}

FormulaPtr MakeAnd(std::vector<FormulaPtr> fs) {
  std::vector<FormulaPtr> flat;
  for (auto& f : fs) {
    if (f->kind == FolKind::kTrue) continue;
    if (f->kind == FolKind::kAnd) {
      flat.insert(flat.end(), f->children.begin(), f->children.end());
    } else {
      flat.push_back(std::move(f));
    }
  }
  if (flat.empty()) return MakeTrue();
  if (flat.size() == 1) return flat[0];
  Formula f;
  f.kind = FolKind::kAnd;
  f.children = std::move(flat);
  return MakeNode(std::move(f));
}

FormulaPtr MakeOr(std::vector<FormulaPtr> fs) {
  std::vector<FormulaPtr> flat;
  for (auto& f : fs) {
    if (f->kind == FolKind::kOr) {
      flat.insert(flat.end(), f->children.begin(), f->children.end());
    } else {
      flat.push_back(std::move(f));
    }
  }
  assert(!flat.empty());
  if (flat.size() == 1) return flat[0];
  Formula f;
  f.kind = FolKind::kOr;
  f.children = std::move(flat);
  return MakeNode(std::move(f));
}

FormulaPtr MakeImplies(FormulaPtr lhs, FormulaPtr rhs) {
  Formula f;
  f.kind = FolKind::kImplies;
  f.children.push_back(std::move(lhs));
  f.children.push_back(std::move(rhs));
  return MakeNode(std::move(f));
}

FormulaPtr MakeExists(Symbol var, FormulaPtr body) {
  Formula f;
  f.kind = FolKind::kExists;
  f.var = var;
  f.children.push_back(std::move(body));
  return MakeNode(std::move(f));
}

FormulaPtr MakeForall(Symbol var, FormulaPtr body) {
  Formula f;
  f.kind = FolKind::kForall;
  f.var = var;
  f.children.push_back(std::move(body));
  return MakeNode(std::move(f));
}

Symbol FolVarGen::Fresh() {
  return symbols_->Intern(StrCat("y", ++counter_));
}

namespace {

// Emits the attribute atom for s R t, orienting inverses onto the
// primitive predicate.
FormulaPtr AttrAtom(const Attr& attr, FolTerm s, FolTerm t) {
  if (attr.inverted) return MakeBinary(attr.prim, t, s);
  return MakeBinary(attr.prim, s, t);
}

}  // namespace

FormulaPtr PathToFol(const TermFactory& f, PathId p, FolTerm s, FolTerm t,
                     FolVarGen& vars) {
  if (p == kEmptyPath) return MakeEq(s, t);
  std::vector<FormulaPtr> conjuncts;
  std::vector<Symbol> intermediates;
  FolTerm cur = s;
  for (PathId rest = p; rest != kEmptyPath; rest = f.tail(rest)) {
    const Restriction& r = f.head(rest);
    FolTerm next = t;
    if (f.tail(rest) != kEmptyPath) {
      Symbol z = vars.Fresh();
      intermediates.push_back(z);
      next = FolTerm::Var(z);
    }
    conjuncts.push_back(AttrAtom(r.attr, cur, next));
    conjuncts.push_back(ConceptToFol(f, r.filter, next, vars));
    cur = next;
  }
  FormulaPtr body = MakeAnd(std::move(conjuncts));
  // Quantify the intermediate objects innermost-first.
  for (size_t i = intermediates.size(); i-- > 0;) {
    body = MakeExists(intermediates[i], std::move(body));
  }
  return body;
}

FormulaPtr ConceptToFol(const TermFactory& f, ConceptId c, FolTerm free_var,
                        FolVarGen& vars) {
  const ConceptNode& n = f.node(c);
  switch (n.kind) {
    case ConceptKind::kTop:
      return MakeTrue();
    case ConceptKind::kPrimitive:
      return MakeUnary(n.sym, free_var);
    case ConceptKind::kSingleton:
      return MakeEq(free_var, FolTerm::Const(n.sym));
    case ConceptKind::kAnd: {
      std::vector<FormulaPtr> parts;
      parts.push_back(ConceptToFol(f, n.lhs, free_var, vars));
      parts.push_back(ConceptToFol(f, n.rhs, free_var, vars));
      return MakeAnd(std::move(parts));
    }
    case ConceptKind::kExists: {
      if (n.path == kEmptyPath) return MakeTrue();  // ∃ε is universal.
      Symbol y = vars.Fresh();
      return MakeExists(y,
                        PathToFol(f, n.path, free_var, FolTerm::Var(y), vars));
    }
    case ConceptKind::kAgree: {
      if (n.path == kEmptyPath) return MakeTrue();  // ∃ε≐ε is universal.
      return PathToFol(f, n.path, free_var, free_var, vars);
    }
    case ConceptKind::kAll: {
      Symbol y = vars.Fresh();
      FolTerm yt = FolTerm::Var(y);
      return MakeForall(
          y, MakeImplies(AttrAtom(n.attr, free_var, yt),
                         ConceptToFol(f, n.lhs, yt, vars)));
    }
    case ConceptKind::kAtMostOne: {
      Symbol y = vars.Fresh();
      Symbol z = vars.Fresh();
      FolTerm yt = FolTerm::Var(y);
      FolTerm zt = FolTerm::Var(z);
      return MakeForall(
          y, MakeForall(z, MakeImplies(MakeAnd({AttrAtom(n.attr, free_var, yt),
                                                AttrAtom(n.attr, free_var,
                                                         zt)}),
                                       MakeEq(yt, zt))));
    }
  }
  assert(false && "unreachable");
  return MakeTrue();
}

FormulaPtr InclusionAxiomToFol(const TermFactory& f, Symbol lhs, ConceptId d,
                               FolVarGen& vars) {
  SymbolTable& symbols = const_cast<TermFactory&>(f).symbols();
  Symbol x = symbols.Intern("x");
  FolTerm xt = FolTerm::Var(x);
  return MakeForall(x,
                    MakeImplies(MakeUnary(lhs, xt),
                                ConceptToFol(f, d, xt, vars)));
}

FormulaPtr TypingAxiomToFol(const TermFactory& f, Symbol attr, Symbol domain,
                            Symbol range, FolVarGen& vars) {
  (void)vars;
  SymbolTable& symbols = const_cast<TermFactory&>(f).symbols();
  Symbol x = symbols.Intern("x");
  Symbol y = symbols.Intern("y");
  FolTerm xt = FolTerm::Var(x);
  FolTerm yt = FolTerm::Var(y);
  return MakeForall(
      x, MakeForall(y, MakeImplies(MakeBinary(attr, xt, yt),
                                   MakeAnd({MakeUnary(domain, xt),
                                            MakeUnary(range, yt)}))));
}

namespace {

std::string TermToString(const SymbolTable& symbols, const FolTerm& t) {
  return symbols.Name(t.name);
}

std::string Render(const SymbolTable& symbols, const FormulaPtr& f,
                   bool parenthesize) {
  std::string out;
  bool atom = false;
  switch (f->kind) {
    case FolKind::kTrue:
      out = "true";
      atom = true;
      break;
    case FolKind::kAtomUnary:
      out = StrCat(symbols.Name(f->pred), "(", TermToString(symbols, f->t1),
                   ")");
      atom = true;
      break;
    case FolKind::kAtomBinary:
      out = StrCat(symbols.Name(f->pred), "(", TermToString(symbols, f->t1),
                   ", ", TermToString(symbols, f->t2), ")");
      atom = true;
      break;
    case FolKind::kEq:
      out = StrCat(TermToString(symbols, f->t1), " ≐ ",
                   TermToString(symbols, f->t2));
      break;
    case FolKind::kNot:
      out = StrCat("¬", Render(symbols, f->children[0], true));
      atom = true;
      break;
    case FolKind::kAnd:
      out = StrJoinMapped(f->children, " ∧ ", [&](const FormulaPtr& c) {
        return Render(symbols, c, c->kind != FolKind::kAnd);
      });
      break;
    case FolKind::kOr:
      out = StrJoinMapped(f->children, " ∨ ", [&](const FormulaPtr& c) {
        return Render(symbols, c, c->kind != FolKind::kOr);
      });
      break;
    case FolKind::kImplies:
      out = StrCat(Render(symbols, f->children[0], true), " → ",
                   Render(symbols, f->children[1], true));
      break;
    case FolKind::kExists:
      out = StrCat("∃", symbols.Name(f->var), ". ",
                   Render(symbols, f->children[0], false));
      break;
    case FolKind::kForall:
      out = StrCat("∀", symbols.Name(f->var), ". ",
                   Render(symbols, f->children[0], false));
      break;
  }
  if (parenthesize && !atom) return StrCat("(", out, ")");
  return out;
}

}  // namespace

std::string FormulaToString(const TermFactory& f, const FormulaPtr& formula) {
  return Render(f.symbols(), formula, /*parenthesize=*/false);
}

}  // namespace oodb::ql
