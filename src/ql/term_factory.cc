#include "ql/term_factory.h"

#include <atomic>
#include <cassert>

#include "base/sync.h"

namespace oodb::ql {

TermFactory::TermFactory(SymbolTable* symbols) : symbols_(symbols) {
  assert(symbols != nullptr);
  concepts_.push_back(ConceptSlot{});  // id 0: invalid sentinel.
  paths_.push_back(PathNode());        // id 0: the empty path ε.
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
      return concepts_[node.lhs].size + concepts_[node.rhs].size;
    case ConceptKind::kAll:
      return 2;
    case ConceptKind::kExists:
    case ConceptKind::kAgree: {
      size_t size = 1;
      for (const Restriction& r : path(node.path)) {
        size += 1 + concepts_[r.filter].size;
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
      // Children are interned before their parents (see ConceptSize).
      return concepts_[node.lhs].is_ql && concepts_[node.rhs].is_ql;
    case ConceptKind::kExists:
    case ConceptKind::kAgree:
      for (const Restriction& r : path(node.path)) {
        if (!concepts_[r.filter].is_ql) return false;
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
  concepts_.push_back(
      ConceptSlot{node, ComputeIsQlLocked(node), ComputeSizeLocked(node)});
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
  std::atomic_ref<ConceptId> cached(paths_[path].exists);
  ConceptId id = cached.load(std::memory_order_acquire);
  if (id != kInvalidConcept) return id;
  ConceptNode n;
  n.kind = ConceptKind::kExists;
  n.path = path;
  base::MutexLock lock(&mu_);
  id = InternLocked(n);
  cached.store(id, std::memory_order_release);
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
  std::vector<Restriction> pr = Restrictions(p);
  pr.back().filter = And(pr.back().filter, entry);
  return Agree(ConsAll(pr, q_inv));
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

PathId TermFactory::ConsLocked(const Restriction& head, PathId tail) {
  const PathCell cell{head, tail};
  auto [it, inserted] =
      path_index_.try_emplace(cell, static_cast<PathId>(paths_.size()));
  if (inserted) paths_.push_back(PathNode{cell});
  return it->second;
}

PathId TermFactory::ConsAll(const std::vector<Restriction>& prefix,
                            PathId tail) {
  base::MutexLock lock(&mu_);
  for (size_t i = prefix.size(); i-- > 0;) tail = ConsLocked(prefix[i], tail);
  return tail;
}

PathId TermFactory::MakePath(std::vector<Restriction> restrictions) {
  return ConsAll(restrictions, kEmptyPath);
}

PathId TermFactory::Step(Attr attr, ConceptId filter) {
  return Cons(Restriction{attr, filter}, kEmptyPath);
}

PathId TermFactory::Cons(const Restriction& head, PathId tail) {
  base::MutexLock lock(&mu_);
  return ConsLocked(head, tail);
}

PathId TermFactory::Concat(PathId p, PathId q) {
  return ConsAll(Restrictions(p), q);
}

PathId TermFactory::Suffix(PathId p, size_t from) const {
  for (; from > 0; --from) p = tail(p);
  return p;
}

std::pair<PathId, ConceptId> TermFactory::InvertPath(PathId q) {
  assert(q != kEmptyPath && "cannot invert the empty path");
  // Consing q's steps in order reverses them. Each reversed step carries
  // the filter of the node before it on q, or ⊤ at the start; after the
  // last step that is q's final filter, the entry.
  PathId inv = kEmptyPath;
  ConceptId before = top_;
  base::MutexLock lock(&mu_);
  for (const Restriction& r : path(q)) {
    inv = ConsLocked(Restriction{r.attr.Inverse(), before}, inv);
    before = r.filter;
  }
  return {inv, before};
}

std::vector<Restriction> TermFactory::Restrictions(PathId id) const {
  std::vector<Restriction> out;
  for (const Restriction& r : path(id)) out.push_back(r);
  return out;
}

size_t TermFactory::ConceptSize(ConceptId id) const {
  assert(id != kInvalidConcept && id < concepts_.size());
  return concepts_[id].size;
}

bool TermFactory::IsQl(ConceptId id) const {
  assert(id < concepts_.size());
  return concepts_[id].is_ql;
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
    const ConceptNode& n = concepts_[cur].node;
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
