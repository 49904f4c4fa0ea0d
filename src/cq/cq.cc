#include "cq/cq.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "base/strings.h"

namespace oodb::cq {

namespace {

// Orderable key for a CqTerm.
std::pair<int, uint32_t> TermKey(const CqTerm& t) {
  return {t.kind == CqTerm::Kind::kVar ? 0 : 1, t.name.id()};
}

// Union-find over terms used to eliminate singletons by unification.
// Constants win as representatives; uniting two distinct constants marks
// the query inconsistent.
class TermUnifier {
 public:
  CqTerm Find(const CqTerm& t) {
    auto it = parent_.find(TermKey(t));
    if (it == parent_.end()) return t;
    CqTerm root = Find(it->second);
    parent_[TermKey(t)] = root;
    return root;
  }

  void Unite(const CqTerm& a, const CqTerm& b) {
    CqTerm ra = Find(a);
    CqTerm rb = Find(b);
    if (ra == rb) return;
    bool ca = ra.kind == CqTerm::Kind::kConst;
    bool cb = rb.kind == CqTerm::Kind::kConst;
    if (ca && cb) {
      inconsistent_ = true;  // a ≐ b for distinct constants (UNA).
      return;
    }
    if (ca) {
      parent_[TermKey(rb)] = ra;
    } else {
      parent_[TermKey(ra)] = rb;
    }
  }

  bool inconsistent() const { return inconsistent_; }

 private:
  std::map<std::pair<int, uint32_t>, CqTerm> parent_;
  bool inconsistent_ = false;
};

// The part both translators share: the query as emitted, over terms that
// only the unifier binds, and Finish, which applies the bindings.
struct Draft {
  explicit Draft(SymbolTable* symbols) : symbols(symbols) {}

  SymbolTable* symbols;
  ConjunctiveQuery q;
  TermUnifier uf;

  CqTerm Fresh() { return CqTerm::Var(symbols->Fresh("v")); }

  // Starts the answer tuple with the answer object `this`; returns it.
  CqTerm Root() {
    q.heads = {Fresh()};
    q.head_names = {symbols->Intern("this")};
    return q.heads[0];
  }

  // The atom of one path step from `from` to `to`; an inverted attribute
  // flips it.
  void Step(const ql::Attr& attr, const CqTerm& from, const CqTerm& to) {
    if (attr.inverted) {
      q.binary.push_back(BinaryAtom{attr.prim, to, from});
    } else {
      q.binary.push_back(BinaryAtom{attr.prim, from, to});
    }
  }

  // The query over the representatives of the terms, each distinct atom
  // once.
  ConjunctiveQuery Finish() {
    ConjunctiveQuery out;
    out.inconsistent = uf.inconsistent();
    for (const CqTerm& h : q.heads) out.heads.push_back(uf.Find(h));
    out.head_names = q.head_names;
    std::set<std::pair<uint32_t, std::pair<int, uint32_t>>> seen_unary;
    for (const UnaryAtom& a : q.unary) {
      UnaryAtom r{a.pred, uf.Find(a.arg)};
      if (seen_unary.insert({r.pred.id(), TermKey(r.arg)}).second) {
        out.unary.push_back(r);
      }
    }
    std::set<std::tuple<uint32_t, std::pair<int, uint32_t>,
                        std::pair<int, uint32_t>>>
        seen_binary;
    for (const BinaryAtom& a : q.binary) {
      BinaryAtom r{a.pred, uf.Find(a.lhs), uf.Find(a.rhs)};
      if (seen_binary.insert({r.pred.id(), TermKey(r.lhs), TermKey(r.rhs)})
              .second) {
        out.binary.push_back(r);
      }
    }
    return out;
  }
};

// QL concept → atoms rooted at a term.
class ConceptTranslator {
 public:
  ConceptTranslator(const ql::TermFactory& f, Draft* draft)
      : f_(f), draft_(*draft) {}

  Status Translate(ql::ConceptId c, const CqTerm& at) {
    const ql::ConceptNode& n = f_.node(c);
    switch (n.kind) {
      case ql::ConceptKind::kTop:
        return Status::Ok();
      case ql::ConceptKind::kPrimitive:
        draft_.q.unary.push_back(UnaryAtom{n.sym, at});
        return Status::Ok();
      case ql::ConceptKind::kSingleton:
        draft_.uf.Unite(at, CqTerm::Const(n.sym));
        return Status::Ok();
      case ql::ConceptKind::kAnd:
        OODB_RETURN_IF_ERROR(Translate(n.lhs, at));
        return Translate(n.rhs, at);
      case ql::ConceptKind::kExists:
        return Chain(n.path, at, /*close_at_start=*/false);
      case ql::ConceptKind::kAgree:
        return Chain(n.path, at, /*close_at_start=*/true);
      case ql::ConceptKind::kAll:
      case ql::ConceptKind::kAtMostOne:
        return InvalidArgumentError(
            "SL-only construct has no conjunctive translation");
    }
    return InternalError("unreachable");
  }

 private:
  Status Chain(ql::PathId p, const CqTerm& start, bool close_at_start) {
    CqTerm cur = start;
    for (ql::PathId rest = p; rest != ql::kEmptyPath; rest = f_.tail(rest)) {
      const ql::Restriction& r = f_.head(rest);
      CqTerm next = (close_at_start && f_.tail(rest) == ql::kEmptyPath)
                        ? start
                        : draft_.Fresh();
      draft_.Step(r.attr, cur, next);
      OODB_RETURN_IF_ERROR(Translate(r.filter, next));
      cur = next;
    }
    return Status::Ok();
  }

  const ql::TermFactory& f_;
  Draft& draft_;
};

// Query class → atoms rooted at a term. Labels of the top-level class
// become heads; labels of inlined query classes stay existential.
class ClassTranslator {
 public:
  ClassTranslator(const dl::Model& model, Draft* draft)
      : model_(model), draft_(*draft) {}

  Status Emit(Symbol query_class, const CqTerm& root, bool top_level) {
    const SymbolTable& symbols = *draft_.symbols;
    const dl::ClassDef* def = model_.FindClass(query_class);
    if (def == nullptr) {
      return NotFoundError(
          StrCat("unknown class '", symbols.Name(query_class), "'"));
    }
    if (!def->is_query) {
      draft_.q.unary.push_back(UnaryAtom{query_class, root});
      return Status::Ok();
    }
    if (!def->IsStructural()) {
      return FailedPreconditionError(
          StrCat("query class '", symbols.Name(query_class),
                 "' has a non-structural part or path variables"));
    }
    if (!visiting_.insert(query_class).second) {
      return FailedPreconditionError(StrCat(
          "recursive reference to '", symbols.Name(query_class), "'"));
    }

    for (Symbol super : def->supers) {
      if (super == model_.object_class) continue;
      OODB_RETURN_IF_ERROR(Emit(super, root, /*top_level=*/false));
    }
    // Labels: endpoints of labeled paths; a where-equality unites two.
    std::unordered_map<Symbol, CqTerm> labels;
    for (const dl::ResolvedPath& path : def->derived) {
      OODB_ASSIGN_OR_RETURN(CqTerm end, Chain(path, root));
      if (path.label.valid()) labels.emplace(path.label, end);
    }
    for (const auto& [l, r] : def->where) {
      draft_.uf.Unite(labels.at(l), labels.at(r));
    }
    if (top_level) {
      for (const dl::ResolvedPath& path : def->derived) {
        if (!path.label.valid()) continue;
        draft_.q.heads.push_back(labels.at(path.label));
        draft_.q.head_names.push_back(path.label);
      }
    }
    visiting_.erase(query_class);
    return Status::Ok();
  }

 private:
  // Emits the chain of `path` from `start` and returns its endpoint.
  Result<CqTerm> Chain(const dl::ResolvedPath& path, const CqTerm& start) {
    CqTerm cur = start;
    for (const dl::ResolvedStep& step : path.steps) {
      CqTerm next = draft_.Fresh();
      draft_.Step(step.attr, cur, next);
      switch (step.filter.kind) {
        case dl::ResolvedFilter::Kind::kClass:
          if (step.filter.name != model_.object_class) {
            OODB_RETURN_IF_ERROR(
                Emit(step.filter.name, next, /*top_level=*/false));
          }
          break;
        case dl::ResolvedFilter::Kind::kConstant:
          draft_.uf.Unite(next, CqTerm::Const(step.filter.name));
          break;
        case dl::ResolvedFilter::Kind::kVariable:
          return FailedPreconditionError("path variables are unsupported");
      }
      cur = next;
    }
    return cur;
  }

  const dl::Model& model_;
  Draft& draft_;
  std::unordered_set<Symbol> visiting_;
};

}  // namespace

std::vector<Symbol> ConjunctiveQuery::Variables() const {
  std::vector<Symbol> vars;
  auto add = [&](const CqTerm& t) {
    if (t.kind != CqTerm::Kind::kVar) return;
    if (std::find(vars.begin(), vars.end(), t.name) == vars.end()) {
      vars.push_back(t.name);
    }
  };
  for (const CqTerm& h : heads) add(h);
  for (const UnaryAtom& a : unary) add(a.arg);
  for (const BinaryAtom& a : binary) {
    add(a.lhs);
    add(a.rhs);
  }
  return vars;
}

std::string ConjunctiveQuery::ToString(const SymbolTable& symbols) const {
  auto term = [&](const CqTerm& t) { return symbols.Name(t.name); };
  std::vector<std::string> head_strs;
  for (const CqTerm& h : heads) head_strs.push_back(term(h));
  std::vector<std::string> atoms;
  for (const UnaryAtom& a : unary) {
    atoms.push_back(StrCat(symbols.Name(a.pred), "(", term(a.arg), ")"));
  }
  for (const BinaryAtom& a : binary) {
    atoms.push_back(StrCat(symbols.Name(a.pred), "(", term(a.lhs), ", ",
                           term(a.rhs), ")"));
  }
  return StrCat("q(", StrJoin(head_strs, ", "), ") :- ",
                inconsistent ? "⊥" : StrJoin(atoms, ", "));
}

Result<ConjunctiveQuery> ConceptToCq(const ql::TermFactory& f,
                                     ql::ConceptId c, SymbolTable* symbols) {
  Draft draft(symbols);
  ConceptTranslator translator(f, &draft);
  OODB_RETURN_IF_ERROR(translator.Translate(c, draft.Root()));
  return draft.Finish();
}

Result<ConjunctiveQuery> QueryClassToCq(const dl::Model& model,
                                        Symbol query_class,
                                        SymbolTable* symbols) {
  Draft draft(symbols);
  ClassTranslator translator(model, &draft);
  OODB_RETURN_IF_ERROR(
      translator.Emit(query_class, draft.Root(), /*top_level=*/true));
  return draft.Finish();
}

namespace {

// The canonical ("frozen") database of a query: one element per distinct
// term; constants keep their identity.
struct FrozenDb {
  std::map<std::pair<int, uint32_t>, int> elem_of_term;
  std::unordered_map<uint32_t, int> elem_of_const;
  std::set<std::pair<uint32_t, int>> unary_facts;
  std::set<std::tuple<uint32_t, int, int>> binary_facts;
  int num_elements = 0;

  int Elem(const CqTerm& t) {
    auto [it, inserted] = elem_of_term.emplace(TermKey(t), num_elements);
    if (inserted) {
      ++num_elements;
      if (t.kind == CqTerm::Kind::kConst) {
        elem_of_const[t.name.id()] = it->second;
      }
    }
    return it->second;
  }
};

FrozenDb Freeze(const ConjunctiveQuery& q) {
  FrozenDb db;
  for (const CqTerm& h : q.heads) db.Elem(h);
  for (const UnaryAtom& a : q.unary) {
    db.unary_facts.insert({a.pred.id(), db.Elem(a.arg)});
  }
  for (const BinaryAtom& a : q.binary) {
    db.binary_facts.insert({a.pred.id(), db.Elem(a.lhs), db.Elem(a.rhs)});
  }
  return db;
}

// Backtracking homomorphism search: maps variables of q2 into a frozen
// database, with q2's heads pinned and constants fixed.
class HomSearch {
 public:
  HomSearch(const ConjunctiveQuery& q2, const FrozenDb& db)
      : q2_(q2), db_(db) {}

  // Whether a homomorphism sends q2's head i to the element of the
  // frozen term targets[i], for every i.
  bool Exists(const std::vector<CqTerm>& targets) {
    assignment_.clear();
    for (size_t i = 0; i < q2_.heads.size(); ++i) {
      const CqTerm& h = q2_.heads[i];
      const int pin = db_.elem_of_term.at(TermKey(targets[i]));
      if (h.kind == CqTerm::Kind::kConst) {
        auto it = db_.elem_of_const.find(h.name.id());
        if (it == db_.elem_of_const.end() || it->second != pin) return false;
        continue;
      }
      auto [it, inserted] = assignment_.emplace(h.name.id(), pin);
      if (!inserted && it->second != pin) return false;  // a repeated head
    }
    vars_ = q2_.Variables();
    // Drop the pinned head variables from the search.
    vars_.erase(std::remove_if(vars_.begin(), vars_.end(),
                               [&](Symbol v) {
                                 return assignment_.count(v.id()) > 0;
                               }),
                vars_.end());
    return Try(0);
  }

 private:
  // Resolves a q2 term to an element, or -1 if not yet assigned /
  // unresolvable constant.
  int Resolve(const CqTerm& t, bool& unassigned) const {
    if (t.kind == CqTerm::Kind::kConst) {
      auto it = db_.elem_of_const.find(t.name.id());
      if (it == db_.elem_of_const.end()) return -1;  // no facts about it
      return it->second;
    }
    auto it = assignment_.find(t.name.id());
    if (it == assignment_.end()) {
      unassigned = true;
      return -1;
    }
    return it->second;
  }

  // Checks all atoms whose terms are fully assigned.
  bool Consistent() const {
    for (const UnaryAtom& a : q2_.unary) {
      bool unassigned = false;
      int e = Resolve(a.arg, unassigned);
      if (unassigned) continue;
      if (e < 0 || db_.unary_facts.count({a.pred.id(), e}) == 0) return false;
    }
    for (const BinaryAtom& a : q2_.binary) {
      bool unassigned = false;
      int l = Resolve(a.lhs, unassigned);
      int r = Resolve(a.rhs, unassigned);
      if (unassigned) continue;
      if (l < 0 || r < 0 ||
          db_.binary_facts.count({a.pred.id(), l, r}) == 0) {
        return false;
      }
    }
    return true;
  }

  bool Try(size_t i) {
    if (!Consistent()) return false;
    if (i == vars_.size()) return true;
    for (int e = 0; e < db_.num_elements; ++e) {
      assignment_[vars_[i].id()] = e;
      if (Try(i + 1)) return true;
    }
    assignment_.erase(vars_[i].id());
    return false;
  }

  const ConjunctiveQuery& q2_;
  const FrozenDb& db_;
  std::vector<Symbol> vars_;
  std::unordered_map<uint32_t, int> assignment_;
};

}  // namespace

bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (q1.heads.size() != q2.heads.size()) return false;
  if (q1.inconsistent) return true;   // empty answer set
  if (q2.inconsistent) return false;  // q1 is satisfiable, q2 never answers
  const FrozenDb db = Freeze(q1);
  return HomSearch(q2, db).Exists(q1.heads);
}

bool CqEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqContained(q1, q2) && CqContained(q2, q1);
}

ConjunctiveQuery Minimize(const ConjunctiveQuery& q) {
  if (q.inconsistent) return q;
  ConjunctiveQuery cur = q;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < cur.unary.size(); ++i) {
      ConjunctiveQuery candidate = cur;
      candidate.unary.erase(candidate.unary.begin() + i);
      if (CqContained(candidate, cur)) {  // the reverse always holds
        cur = std::move(candidate);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (size_t i = 0; i < cur.binary.size(); ++i) {
      ConjunctiveQuery candidate = cur;
      candidate.binary.erase(candidate.binary.begin() + i);
      if (CqContained(candidate, cur)) {
        cur = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return cur;
}

std::optional<std::vector<size_t>> ContainedUnderPermutation(
    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  const size_t n = q1.heads.size();
  if (q2.heads.size() != n) return std::nullopt;
  std::vector<size_t> pi(n);
  std::iota(pi.begin(), pi.end(), size_t{0});
  if (q1.inconsistent) return pi;
  if (q2.inconsistent) return std::nullopt;
  const FrozenDb db = Freeze(q1);
  HomSearch search(q2, db);
  std::vector<CqTerm> targets(n);
  do {
    for (size_t i = 0; i < n; ++i) targets[i] = q1.heads[pi[i]];
    if (search.Exists(targets)) return pi;
  } while (n > 1 && std::next_permutation(pi.begin() + 1, pi.end()));
  return std::nullopt;
}

}  // namespace oodb::cq
