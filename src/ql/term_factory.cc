#include "ql/term_factory.h"

#include <cassert>

#include "base/sync.h"

namespace oodb::ql {

TermFactory::TermFactory(SymbolTable* symbols) : symbols_(symbols) {
  assert(symbols != nullptr);
  concepts_.push_back(ConceptNode{});  // id 0: invalid sentinel.
  sizes_.push_back(0);
  is_ql_.push_back(false);
  paths_.push_back(PathNode());  // id 0: the empty path ε.
  path_index_.emplace(std::vector<Restriction>{}, kEmptyPath);
  ConceptNode top;
  top.kind = ConceptKind::kTop;
  top_ = Intern(top);
}

size_t TermFactory::ComputeSizeLocked(const ConceptNode& node) const {
  switch (node.kind) {
    case ConceptKind::kTop:
    case ConceptKind::kPrimitive:
    case ConceptKind::kSingleton:
    case ConceptKind::kAtMostOne:
      return 1;
    case ConceptKind::kAnd:
      // Children are interned before their parents, so their sizes are
      // already stored.
      return sizes_[node.lhs] + sizes_[node.rhs];
    case ConceptKind::kAll:
      return 2;
    case ConceptKind::kExists:
    case ConceptKind::kAgree: {
      size_t size = 1;
      for (const Restriction& r : path(node.path)) {
        size += 1 + sizes_[r.filter];
      }
      return size;
    }
  }
  return 1;
}

bool TermFactory::ComputeIsQlLocked(const ConceptNode& node) const {
  switch (node.kind) {
    case ConceptKind::kAll:
    case ConceptKind::kAtMostOne:
      return false;
    case ConceptKind::kAnd:
      // Children are interned before their parents (see sizes_).
      return is_ql_[node.lhs] && is_ql_[node.rhs];
    case ConceptKind::kExists:
    case ConceptKind::kAgree:
      for (const Restriction& r : path(node.path)) {
        if (!is_ql_[r.filter]) return false;
      }
      return true;
    default:
      return true;
  }
}

ConceptId TermFactory::InternLocked(const ConceptNode& node) {
  auto it = concept_index_.find(node);
  if (it != concept_index_.end()) return it->second;
  ConceptId id = static_cast<ConceptId>(concepts_.size());
  sizes_.push_back(ComputeSizeLocked(node));
  is_ql_.push_back(ComputeIsQlLocked(node));
  concepts_.push_back(node);
  concept_index_.emplace(node, id);
  return id;
}

ConceptId TermFactory::Intern(const ConceptNode& node) {
  base::MutexLock lock(&mu_);
  return InternLocked(node);
}

ConceptId TermFactory::Primitive(Symbol name) {
  assert(name.valid());
  ConceptNode n;
  n.kind = ConceptKind::kPrimitive;
  n.sym = name;
  return Intern(n);
}

ConceptId TermFactory::Primitive(std::string_view name) {
  return Primitive(symbols_->Intern(name));
}

ConceptId TermFactory::Singleton(Symbol constant) {
  assert(constant.valid());
  ConceptNode n;
  n.kind = ConceptKind::kSingleton;
  n.sym = constant;
  return Intern(n);
}

ConceptId TermFactory::Singleton(std::string_view constant) {
  return Singleton(symbols_->Intern(constant));
}

ConceptId TermFactory::And(ConceptId lhs, ConceptId rhs) {
  assert(lhs != kInvalidConcept && rhs != kInvalidConcept);
  if (lhs == top_) return rhs;
  if (rhs == top_) return lhs;
  if (lhs == rhs) return lhs;
  ConceptNode n;
  n.kind = ConceptKind::kAnd;
  n.lhs = lhs;
  n.rhs = rhs;
  return Intern(n);
}

ConceptId TermFactory::AndAll(const std::vector<ConceptId>& conjuncts) {
  if (conjuncts.empty()) return top_;
  ConceptId acc = conjuncts.back();
  for (size_t i = conjuncts.size() - 1; i-- > 0;) {
    acc = And(conjuncts[i], acc);
  }
  return acc;
}

ConceptId TermFactory::Exists(PathId path) {
  const PathNode& p = paths_[path];
  ConceptId id = p.exists.load(std::memory_order_acquire);
  if (id != PathNode::kUnset) return id;
  ConceptNode n;
  n.kind = ConceptKind::kExists;
  n.path = path;
  base::MutexLock lock(&mu_);
  id = InternLocked(n);
  p.exists.store(id, std::memory_order_release);
  return id;
}

ConceptId TermFactory::ExistsAttr(Attr attr) {
  return Exists(Step(attr, top_));
}

ConceptId TermFactory::Agree(PathId path) {
  ConceptNode n;
  n.kind = ConceptKind::kAgree;
  n.path = path;
  return Intern(n);
}

ConceptId TermFactory::AgreePair(PathId p, PathId q) {
  if (q == kEmptyPath) return Agree(p);
  if (p == kEmptyPath) return Agree(q);
  auto [q_inv, entry] = InvertPath(q);
  // Strengthen the last filter of p with q's entry filter, so that the
  // common filler satisfies both paths' final restrictions.
  std::vector<Restriction> pr = path(p);
  pr.back().filter = And(pr.back().filter, entry);
  return Agree(Concat(MakePath(std::move(pr)), q_inv));
}

ConceptId TermFactory::All(Attr attr, ConceptId filler) {
  assert(filler != kInvalidConcept);
  ConceptNode n;
  n.kind = ConceptKind::kAll;
  n.attr = attr;
  n.lhs = filler;
  return Intern(n);
}

ConceptId TermFactory::AtMostOne(Attr attr) {
  ConceptNode n;
  n.kind = ConceptKind::kAtMostOne;
  n.attr = attr;
  return Intern(n);
}

PathId TermFactory::InternPathLocked(std::vector<Restriction> restrictions) {
  auto it = path_index_.find(restrictions);
  if (it != path_index_.end()) return it->second;
  PathId id = static_cast<PathId>(paths_.size());
  paths_.push_back(PathNode(restrictions));
  path_index_.emplace(std::move(restrictions), id);
  return id;
}

PathId TermFactory::MakePath(std::vector<Restriction> restrictions) {
  base::MutexLock lock(&mu_);
  return InternPathLocked(std::move(restrictions));
}

PathId TermFactory::Step(Attr attr, ConceptId filter) {
  return MakePath({Restriction{attr, filter}});
}

PathId TermFactory::Cons(const Restriction& head, PathId tail) {
  std::vector<Restriction> p;
  p.reserve(path(tail).size() + 1);
  p.push_back(head);
  const auto& t = path(tail);
  p.insert(p.end(), t.begin(), t.end());
  return MakePath(std::move(p));
}

PathId TermFactory::Concat(PathId p, PathId q) {
  if (p == kEmptyPath) return q;
  if (q == kEmptyPath) return p;
  std::vector<Restriction> out = path(p);
  const auto& qr = path(q);
  out.insert(out.end(), qr.begin(), qr.end());
  return MakePath(std::move(out));
}

PathId TermFactory::Suffix(PathId p, size_t from) {
  assert(from <= path(p).size());
  if (from == 0) return p;
  if (from == 1) {
    // The calculus peels paths one restriction at a time, so the tail is
    // kept beside the path.
    const PathNode& node = paths_[p];
    PathId tail = node.tail.load(std::memory_order_acquire);
    if (tail != PathNode::kUnset) return tail;
    base::MutexLock lock(&mu_);
    tail = InternPathLocked(
        std::vector<Restriction>(node.steps.begin() + 1, node.steps.end()));
    node.tail.store(tail, std::memory_order_release);
    return tail;
  }
  const auto& pr = path(p);
  return MakePath(std::vector<Restriction>(pr.begin() + from, pr.end()));
}

std::pair<PathId, ConceptId> TermFactory::InvertPath(PathId q) {
  const std::vector<Restriction>& qr = path(q);
  assert(!qr.empty() && "cannot invert the empty path");
  std::vector<Restriction> inv;
  inv.reserve(qr.size());
  for (size_t i = qr.size(); i-- > 0;) {
    // Step i (attribute S_{i+1}) reversed carries the filter of the
    // *previous* node on the original path, D_i, or ⊤ at the start.
    ConceptId filter = (i == 0) ? Top() : qr[i - 1].filter;
    inv.push_back(Restriction{qr[i].attr.Inverse(), filter});
  }
  ConceptId entry = qr.back().filter;
  return {MakePath(std::move(inv)), entry};
}

size_t TermFactory::ConceptSize(ConceptId id) const {
  assert(id != kInvalidConcept && id < concepts_.size());
  return sizes_[id];
}

bool TermFactory::IsQl(ConceptId id) const {
  assert(id < concepts_.size());
  return is_ql_[id];
}

std::vector<ConceptId> TermFactory::Subconcepts(ConceptId id) const {
  std::vector<ConceptId> out;
  std::vector<ConceptId> stack = {id};
  std::unordered_map<ConceptId, bool> seen;
  while (!stack.empty()) {
    ConceptId cur = stack.back();
    stack.pop_back();
    if (seen[cur]) continue;
    seen[cur] = true;
    out.push_back(cur);
    const ConceptNode& n = concepts_[cur];
    switch (n.kind) {
      case ConceptKind::kAnd:
        stack.push_back(n.lhs);
        stack.push_back(n.rhs);
        break;
      case ConceptKind::kAll:
        stack.push_back(n.lhs);
        break;
      case ConceptKind::kExists:
      case ConceptKind::kAgree:
        for (const Restriction& r : path(n.path)) {
          stack.push_back(r.filter);
        }
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace oodb::ql
