#include "calculus/services.h"

#include <algorithm>

#include "base/strings.h"
#include "ql/print.h"

namespace oodb::calculus {

namespace {

// Flattens an ⊓-tree into its conjunct list.
void Conjuncts(const ql::TermFactory& f, ql::ConceptId c,
               std::vector<ql::ConceptId>* out) {
  const ql::ConceptNode& n = f.node(c);
  if (n.kind == ql::ConceptKind::kAnd) {
    Conjuncts(f, n.lhs, out);
    Conjuncts(f, n.rhs, out);
  } else {
    out->push_back(c);
  }
}

}  // namespace

Result<ql::ConceptId> MinimizeConcept(const SubsumptionChecker& checker,
                                      ql::TermFactory* terms,
                                      ql::ConceptId c) {
  std::vector<ql::ConceptId> conjuncts;
  Conjuncts(*terms, c, &conjuncts);

  // Phase 1: drop conjuncts implied by the rest.
  bool changed = true;
  while (changed && conjuncts.size() > 1) {
    changed = false;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::vector<ql::ConceptId> rest;
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        if (j != i) rest.push_back(conjuncts[j]);
      }
      ql::ConceptId candidate = terms->AndAll(rest);
      OODB_ASSIGN_OR_RETURN(bool implied,
                            checker.Subsumes(candidate, conjuncts[i]));
      if (implied) {
        conjuncts = std::move(rest);
        changed = true;
        break;
      }
    }
  }

  // Phase 2: weaken path filters to ⊤ where the rest of the concept
  // already implies them (the weakened whole must subsume-back).
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const ql::ConceptNode n = terms->node(conjuncts[i]);
    if (n.kind != ql::ConceptKind::kExists &&
        n.kind != ql::ConceptKind::kAgree) {
      continue;
    }
    std::vector<ql::Restriction> steps = terms->path(n.path);
    bool any = false;
    for (size_t k = 0; k < steps.size(); ++k) {
      if (steps[k].filter == terms->Top()) continue;
      std::vector<ql::Restriction> weakened_steps = steps;
      weakened_steps[k].filter = terms->Top();
      ql::PathId weakened_path = terms->MakePath(weakened_steps);
      ql::ConceptId weakened_conjunct =
          n.kind == ql::ConceptKind::kExists ? terms->Exists(weakened_path)
                                             : terms->Agree(weakened_path);
      std::vector<ql::ConceptId> candidate_list = conjuncts;
      candidate_list[i] = weakened_conjunct;
      ql::ConceptId candidate = terms->AndAll(candidate_list);
      // Weakening gives c ⊑ candidate for free; equality needs the
      // converse.
      OODB_ASSIGN_OR_RETURN(bool back, checker.Subsumes(candidate, c));
      if (back) {
        steps = std::move(weakened_steps);
        any = true;
      }
    }
    if (any) {
      ql::PathId path = terms->MakePath(std::move(steps));
      conjuncts[i] = n.kind == ql::ConceptKind::kExists
                         ? terms->Exists(path)
                         : terms->Agree(path);
    }
  }

  ql::ConceptId result = terms->AndAll(conjuncts);
  // Safety net: the result must be Σ-equivalent to the input.
  OODB_ASSIGN_OR_RETURN(bool equivalent, checker.Equivalent(result, c));
  if (!equivalent) return c;
  return result;
}

Result<ql::ConceptId> CommonSubsumer(const SubsumptionChecker& checker,
                                     ql::TermFactory* terms,
                                     const std::vector<ql::ConceptId>& cs) {
  if (cs.empty()) return terms->Top();
  // Candidate conjuncts: every top-level conjunct of every input.
  std::vector<ql::ConceptId> candidates;
  for (ql::ConceptId c : cs) Conjuncts(*terms, c, &candidates);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<ql::ConceptId> kept;
  for (ql::ConceptId candidate : candidates) {
    bool common = true;
    for (ql::ConceptId c : cs) {
      OODB_ASSIGN_OR_RETURN(bool sub, checker.Subsumes(c, candidate));
      if (!sub) {
        common = false;
        break;
      }
    }
    if (common) kept.push_back(candidate);
  }
  return MinimizeConcept(checker, terms, terms->AndAll(kept));
}

Result<std::optional<ql::ConceptId>> ResidualFilter(
    const SubsumptionChecker& checker, ql::TermFactory* terms,
    ql::ConceptId q, ql::ConceptId v) {
  OODB_ASSIGN_OR_RETURN(bool subsumed, checker.Subsumes(q, v));
  if (!subsumed) return std::optional<ql::ConceptId>();

  std::vector<ql::ConceptId> residual;
  Conjuncts(*terms, q, &residual);
  // Greedy deletion: Q ⊑ V and Q ⊑ ⋀R' give Q ⊑ V ⊓ R' for free, so only
  // the converse V ⊓ R' ⊑ Q needs checking.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < residual.size(); ++i) {
      std::vector<ql::ConceptId> rest;
      for (size_t j = 0; j < residual.size(); ++j) {
        if (j != i) rest.push_back(residual[j]);
      }
      ql::ConceptId candidate = terms->And(v, terms->AndAll(rest));
      OODB_ASSIGN_OR_RETURN(bool exact, checker.Subsumes(candidate, q));
      if (exact) {
        residual = std::move(rest);
        changed = true;
        break;
      }
    }
  }
  return std::optional<ql::ConceptId>(terms->AndAll(residual));
}

Status Classifier::Add(Symbol name, ql::ConceptId concept_id) {
  if (nodes_.count(name) > 0) {
    return AlreadyExistsError("concept name already classified");
  }
  nodes_.emplace(name, Node{concept_id, next_order_++, kPending});
  names_.push_back(name);
  return Status::Ok();
}

Status Classifier::Classify() {
  // Pending names join the persistent DAG one by one, in Add() order;
  // names already classified are untouched. Uniqueness of the transitive
  // reduction makes the result independent of how the DAG was grown.
  for (Symbol name : names_) {
    if (nodes_.at(name).klass != kPending) continue;
    OODB_RETURN_IF_ERROR(InsertIntoDag(name));
  }
  RefreshAggregateStats();
  return Status::Ok();
}

Status Classifier::Insert(Symbol name, ql::ConceptId concept_id) {
  OODB_RETURN_IF_ERROR(Add(name, concept_id));
  return Classify();
}

Status Classifier::Remove(Symbol name) {
  auto nit = nodes_.find(name);
  if (nit == nodes_.end()) {
    return NotFoundError("concept name not classified");
  }
  last_op_ = OpStats{};
  last_op_.classes_before = live_classes_;
  names_.erase(std::find(names_.begin(), names_.end(), name));
  const size_t k = nit->second.klass;
  nodes_.erase(nit);
  if (k == kPending) {  // pending Add(), never entered the DAG
    RefreshAggregateStats();
    return Status::Ok();
  }
  Class& klass = classes_[k];
  klass.members.erase(
      std::remove(klass.members.begin(), klass.members.end(), name),
      klass.members.end());

  if (!klass.members.empty()) {
    // The class survives; re-anchor its representative on a remaining
    // Σ-equivalent member.
    klass.rep = nodes_.at(klass.members.front()).concept_id;
    RefreshAggregateStats();
    return Status::Ok();
  }

  // Sole member gone: delete the class and repair the transitive
  // reduction. New reduction edges can only run from a direct child c to
  // a direct parent p of the deleted class, and (c, p) is needed exactly
  // when p is unreachable from c through the remaining edges — witness
  // paths never use other candidate edges, because direct children are
  // mutually incomparable (and so are direct parents).
  const std::vector<size_t> parents = klass.parents;
  const std::vector<size_t> children = klass.children;
  auto erase_value = [](std::vector<size_t>* v, size_t value) {
    v->erase(std::remove(v->begin(), v->end(), value), v->end());
  };
  for (size_t p : parents) erase_value(&classes_[p].children, k);
  for (size_t ch : children) erase_value(&classes_[ch].parents, k);

  std::vector<std::pair<size_t, size_t>> missing;  // (child, parent)
  std::vector<char> reach(classes_.size(), 0);
  std::vector<size_t> stack;
  for (size_t ch : children) {
    std::fill(reach.begin(), reach.end(), 0);
    reach[ch] = 1;
    stack.push_back(ch);
    while (!stack.empty()) {
      size_t y = stack.back();
      stack.pop_back();
      for (size_t p : classes_[y].parents) {
        if (!reach[p]) {
          reach[p] = 1;
          stack.push_back(p);
        }
      }
    }
    for (size_t p : parents) {
      if (!reach[p]) missing.emplace_back(ch, p);
    }
  }
  for (const auto& [ch, p] : missing) {
    classes_[ch].parents.push_back(p);
    classes_[p].children.push_back(ch);
    ++last_op_.edges_added;
  }

  klass = Class{};  // tombstone (alive == false)
  free_classes_.push_back(k);
  --live_classes_;
  RefreshAggregateStats();
  return Status::Ok();
}

std::vector<size_t> Classifier::TopoOrder() const {
  std::vector<size_t> topo;
  topo.reserve(live_classes_);
  std::vector<char> done(classes_.size(), 0);
  std::vector<size_t> stack;
  for (size_t start = 0; start < classes_.size(); ++start) {
    if (done[start] || !classes_[start].alive) continue;
    stack.push_back(start);
    while (!stack.empty()) {
      size_t y = stack.back();
      bool ready = true;
      for (size_t p : classes_[y].parents) {
        if (!done[p]) {
          stack.push_back(p);
          ready = false;
        }
      }
      if (!ready) continue;
      stack.pop_back();
      if (done[y]) continue;
      done[y] = 1;
      topo.push_back(y);
    }
  }
  return topo;
}

Result<std::vector<char>> Classifier::TopSearch(
    ql::ConceptId c, const std::vector<size_t>& topo, size_t* checks) const {
  // Once a class is out, every class below it is out without a check
  // (c ⊑ y and y ⊑ p give c ⊑ p).
  const bool prune = mode_ == Mode::kEnhancedTraversal;
  std::vector<char> up(classes_.size(), 0);
  for (size_t y : topo) {
    if (prune && std::any_of(classes_[y].parents.begin(),
                             classes_[y].parents.end(),
                             [&up](size_t p) { return !up[p]; })) {
      continue;  // up[y] stays "no"
    }
    ++*checks;
    OODB_ASSIGN_OR_RETURN(bool sub, checker_.Subsumes(c, classes_[y].rep));
    up[y] = sub ? 1 : 0;
  }
  return up;
}

Status Classifier::InsertIntoDag(Symbol name) {
  // The DAG edges are always the transitive reduction of the strict
  // subsumption order on the classes present, so reachability answers
  // "is this pair already decided?" for free — the source of the check
  // avoidance in kEnhancedTraversal. kPairwise runs the same searches
  // without pruning (every live class checked in both directions).
  const ql::ConceptId c = nodes_.at(name).concept_id;
  const size_t m = classes_.size();
  const bool prune = mode_ == Mode::kEnhancedTraversal;
  last_op_ = OpStats{};
  last_op_.classes_before = live_classes_;

  // Topological order of the current DAG, parents before children.
  const std::vector<size_t> topo = TopoOrder();

  // Top search: which classes subsume c?
  Result<std::vector<char>> top =
      TopSearch(c, topo, &last_op_.checks_performed);
  stats_.checks_performed += last_op_.checks_performed;
  if (!top.ok()) return top.status();
  const std::vector<char>& up = *top;
  // Direct parents = minimal subsumers = subsumer classes none of whose
  // DAG children also subsume.
  std::vector<size_t> direct_parents;
  for (size_t y : topo) {
    if (!up[y]) continue;
    bool minimal = true;
    for (size_t ch : classes_[y].children) {
      if (up[ch]) {
        minimal = false;
        break;
      }
    }
    if (minimal) direct_parents.push_back(y);
  }

  // Bottom search: which classes does c subsume? Any subsumee sits
  // (weakly) below EVERY direct parent, so only the intersection of
  // their down-sets is live; within it, a class whose child already
  // failed fails too (ch ⊑ y ⊑ c would force ch ⊑ c).
  std::vector<char> candidate(m, 0);
  if (!prune || direct_parents.empty()) {
    for (size_t y : topo) candidate[y] = 1;
  } else {
    std::vector<char> reach(m, 0);
    std::vector<size_t> stack;
    for (size_t p : direct_parents) {
      std::fill(reach.begin(), reach.end(), 0);
      reach[p] = 1;
      stack.push_back(p);
      while (!stack.empty()) {
        size_t y = stack.back();
        stack.pop_back();
        for (size_t ch : classes_[y].children) {
          if (!reach[ch]) {
            reach[ch] = 1;
            stack.push_back(ch);
          }
        }
      }
      for (size_t y = 0; y < m; ++y) {
        if (p == direct_parents.front()) {
          candidate[y] = reach[y];
        } else {
          candidate[y] = candidate[y] && reach[y];
        }
      }
    }
  }
  std::vector<char> down(m, 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    size_t y = *it;
    if (!candidate[y]) continue;  // y ⋢ some parent of c ⟹ y ⋢ c
    if (prune) {
      bool pruned = false;
      for (size_t ch : classes_[y].children) {
        if (!down[ch]) {
          pruned = true;
          break;
        }
      }
      if (pruned) continue;
    }
    ++stats_.checks_performed;
    ++last_op_.checks_performed;
    OODB_ASSIGN_OR_RETURN(bool sub, checker_.Subsumes(classes_[y].rep, c));
    down[y] = sub ? 1 : 0;
  }

  // Equivalence: a class both above and below c absorbs the name (there
  // can be at most one — distinct classes are never mutually subsuming).
  for (size_t y : topo) {
    if (up[y] && down[y]) {
      classes_[y].members.push_back(name);
      nodes_.at(name).klass = y;
      return Status::Ok();
    }
  }

  // New class: link to the direct parents and the maximal subsumees,
  // then drop the parent↔child edges the new class now mediates (keeping
  // the DAG transitively reduced).
  std::vector<size_t> direct_children;
  for (size_t y : topo) {
    if (!down[y]) continue;
    bool maximal = true;
    for (size_t p : classes_[y].parents) {
      if (down[p]) {
        maximal = false;
        break;
      }
    }
    if (maximal) direct_children.push_back(y);
  }
  size_t idx;
  if (!free_classes_.empty()) {
    idx = free_classes_.back();
    free_classes_.pop_back();
  } else {
    classes_.emplace_back();
    idx = classes_.size() - 1;
  }
  Class& fresh = classes_[idx];
  fresh = Class{};
  fresh.alive = true;
  fresh.members.push_back(name);
  fresh.rep = c;
  fresh.parents = direct_parents;
  fresh.children = direct_children;
  ++live_classes_;
  nodes_.at(name).klass = idx;
  last_op_.edges_added = direct_parents.size() + direct_children.size();
  auto erase_value = [](std::vector<size_t>* v, size_t value) {
    v->erase(std::remove(v->begin(), v->end(), value), v->end());
  };
  for (size_t ch : direct_children) {
    for (size_t p : direct_parents) {
      erase_value(&classes_[ch].parents, p);
      erase_value(&classes_[p].children, ch);
    }
    classes_[ch].parents.push_back(idx);
  }
  for (size_t p : direct_parents) classes_[p].children.push_back(idx);
  return Status::Ok();
}

std::vector<Symbol> Classifier::MembersOf(const std::vector<size_t>& ks,
                                          Symbol skip) const {
  // Ordered by Add() sequence: exactly names() order, and what a
  // from-scratch run produces.
  std::vector<Symbol> out;
  for (size_t k : ks) {
    for (Symbol member : classes_[k].members) {
      if (member != skip) out.push_back(member);
    }
  }
  std::sort(out.begin(), out.end(), [this](Symbol a, Symbol b) {
    return nodes_.at(a).order < nodes_.at(b).order;
  });
  return out;
}

void Classifier::RefreshAggregateStats() {
  stats_.concepts = names_.size();
  stats_.pairwise_checks =
      names_.size() < 2 ? 0 : names_.size() * (names_.size() - 1);
  stats_.checks_avoided = stats_.pairwise_checks > stats_.checks_performed
                              ? stats_.pairwise_checks - stats_.checks_performed
                              : 0;
}

ql::ConceptId Classifier::ConceptOf(Symbol name) const {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? ql::kInvalidConcept : it->second.concept_id;
}

std::vector<Symbol> Classifier::Parents(Symbol name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end() || it->second.klass == kPending) return {};
  return MembersOf(classes_[it->second.klass].parents);
}

std::vector<Symbol> Classifier::Children(Symbol name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end() || it->second.klass == kPending) return {};
  return MembersOf(classes_[it->second.klass].children);
}

std::vector<Symbol> Classifier::Equivalents(Symbol name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end() || it->second.klass == kPending) return {};
  return MembersOf({it->second.klass}, name);
}

Result<std::vector<Symbol>> Classifier::SubsumersOf(
    ql::ConceptId concept_id) const {
  const std::vector<size_t> topo = TopoOrder();
  size_t checks = 0;
  OODB_ASSIGN_OR_RETURN(std::vector<char> up,
                        TopSearch(concept_id, topo, &checks));
  // Children before parents: the reverse of the topological order.
  std::vector<Symbol> subsumers;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if (!up[*it]) continue;
    for (Symbol member : classes_[*it].members) subsumers.push_back(member);
  }
  return subsumers;
}

std::string Classifier::ToString(const SymbolTable& symbols) const {
  auto names = [&symbols](const std::vector<Symbol>& list) {
    return StrJoinMapped(list, ", ",
                         [&symbols](Symbol s) { return symbols.Name(s); });
  };
  std::string out;
  for (Symbol name : names_) {
    out += StrCat(symbols.Name(name), "\n");
    const std::vector<Symbol> equivalents = Equivalents(name);
    if (!equivalents.empty()) out += StrCat("  ≡ ", names(equivalents), "\n");
    const std::vector<Symbol> parents = Parents(name);
    out += StrCat("  parents: ", parents.empty() ? "⊤" : names(parents),
                  "\n");
  }
  return out;
}

}  // namespace oodb::calculus
