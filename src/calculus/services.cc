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
    std::vector<ql::Restriction> steps = terms->Restrictions(n.path);
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

namespace {

// A walk's mark for a class that passed its check. Below it, a mark
// counts the near neighbours that are done.
constexpr uint32_t kPassed = ~uint32_t{0};

}  // namespace

void Classifier::Marks::Start(size_t n) {
  if (++pass == 0) {  // wrapped (once in 65535 passes): forget them all
    std::fill(passes.begin(), passes.end(), 0);
    pass = 1;
  }
  if (passes.size() < n) {
    passes.resize(n, 0);
    values.resize(n);
  }
}

Status Classifier::Add(Symbol name, ql::ConceptId concept_id) {
  if (nodes_.count(name) > 0) {
    return AlreadyExistsError("concept name already classified");
  }
  nodes_.emplace(name, Node{concept_id, next_order_++, kPending});
  names_.push_back(name);
  pending_.push_back(name);
  return Status::Ok();
}

Status Classifier::Classify() {
  // Pending names join the persistent DAG one by one, in Add() order;
  // names already classified are untouched. Uniqueness of the transitive
  // reduction makes the result independent of how the DAG was grown.
  while (!pending_.empty()) {
    OODB_RETURN_IF_ERROR(InsertIntoDag(pending_.front()));
    pending_.pop_front();
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
  last_op_.classes_before = num_classes();
  names_.erase(std::find(names_.begin(), names_.end(), name));
  const size_t k = nit->second.klass;
  nodes_.erase(nit);
  if (k == kPending) {  // pending Add(), never entered the DAG
    pending_.erase(std::find(pending_.begin(), pending_.end(), name));
    RefreshAggregateStats();
    return Status::Ok();
  }
  Class& klass = classes_[k];
  std::erase(klass.members, name);

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
  // mutually incomparable (and so are direct parents). An orphan's edge
  // to ⊤ joins no names, so it is not counted.
  const std::vector<size_t> parents = klass.parents;
  const std::vector<size_t> children = klass.children;
  for (size_t p : parents) std::erase(classes_[p].children, k);
  for (size_t ch : children) std::erase(classes_[ch].parents, k);

  // A child's ancestor walk ends once it has met every direct parent
  // (marked in region_); only a child that cannot reach one of them walks
  // all its ancestors.
  region_.Start(classes_.size());
  for (size_t p : parents) region_.Set(p, 1);
  std::vector<std::pair<size_t, size_t>> missing;  // (child, parent)
  std::vector<size_t> ancestors;
  for (size_t ch : children) {
    Reach(ch, &Class::parents, &ancestors, parents.size());
    for (size_t p : parents) {
      if (!seen_.Has(p)) missing.emplace_back(ch, p);
    }
  }
  for (const auto& [ch, p] : missing) {
    classes_[ch].parents.push_back(p);
    classes_[p].children.push_back(ch);
    if (p != kTop) ++last_op_.edges_added;
  }

  klass = Class{};  // tombstone: no members, no edges
  free_classes_.push_back(k);
  RefreshAggregateStats();
  return Status::Ok();
}

template <typename Test>
Result<std::vector<size_t>> Classifier::Walk(std::vector<size_t> ready,
                                             Edges near, Edges far,
                                             const Marks* region, Test test,
                                             Marks* verdicts) const {
  // Kahn's algorithm over the edges, with `ready` as its queue. Pruning
  // is transitivity: past a failed class y nothing can pass (going down,
  // c ⊑ p ⊑ y would force c ⊑ y; going up, ch ⊑ y ⊑ c would force
  // ch ⊑ c).
  const bool prune = mode_ == Mode::kEnhancedTraversal;
  verdicts->Start(classes_.size());
  std::vector<size_t> passed;
  for (size_t i = 0; i < ready.size(); ++i) {
    const size_t y = ready[i];
    bool pass = true;  // ⊤ subsumes every concept
    if (y != kTop) {
      OODB_ASSIGN_OR_RETURN(pass, test(classes_[y].rep));
    }
    if (pass) {
      verdicts->Set(y, kPassed);
      passed.push_back(y);
    } else if (prune) {
      continue;
    }
    for (size_t z : classes_[y].*far) {
      if (z == kTop || (region != nullptr && !region->Has(z))) continue;
      const uint32_t done = verdicts->Get(z) + 1;
      verdicts->Set(z, done);
      if (done == (classes_[z].*near).size()) ready.push_back(z);
    }
  }
  return passed;
}

void Classifier::Reach(size_t from, Edges edges, std::vector<size_t>* reached,
                       size_t targets) {
  seen_.Start(classes_.size());
  seen_.Set(from, 1);
  reached->assign(1, from);
  for (size_t i = 0; i < reached->size(); ++i) {
    for (size_t next : classes_[(*reached)[i]].*edges) {
      if (seen_.Has(next)) continue;
      seen_.Set(next, 1);
      reached->push_back(next);
      if (targets > 0 && region_.Has(next) && --targets == 0) return;
    }
  }
}

std::vector<size_t> Classifier::MarkRegionBelow(
    const std::vector<size_t>& tops) {
  std::vector<size_t> region;
  Reach(tops.front(), &Class::children, &region);
  std::vector<size_t> below;
  for (size_t i = 1; i < tops.size(); ++i) {
    Reach(tops[i], &Class::children, &below);
    std::erase_if(region, [this](size_t y) { return !seen_.Has(y); });
  }
  region_.Start(classes_.size());
  std::vector<size_t> leaves;
  for (size_t y : region) {
    region_.Set(y, 1);
    if (classes_[y].children.empty() && y != kTop) leaves.push_back(y);
  }
  return leaves;
}

Status Classifier::InsertIntoDag(Symbol name) {
  // The DAG edges are always the transitive reduction of the strict
  // subsumption order on the classes present, with ⊤ above them all, so
  // reachability answers "is this pair already decided?" for free — the
  // source of the check avoidance in kEnhancedTraversal. kPairwise runs
  // the same walks without pruning (every class checked both ways).
  const ql::ConceptId c = nodes_.at(name).concept_id;
  const bool prune = mode_ == Mode::kEnhancedTraversal;
  last_op_ = OpStats{};
  last_op_.classes_before = num_classes();
  auto check = [this](ql::ConceptId sub, ql::ConceptId super) {
    ++stats_.checks_performed;
    ++last_op_.checks_performed;
    return checker_.Subsumes(sub, super);
  };
  // The passing classes none of whose `far` neighbours passed too.
  auto frontier = [this](const std::vector<size_t>& passed, Edges far,
                         const Marks& verdicts) {
    std::vector<size_t> out;
    for (size_t y : passed) {
      const std::vector<size_t>& next = classes_[y].*far;
      if (std::none_of(next.begin(), next.end(), [&](size_t z) {
            return verdicts.Get(z) == kPassed;
          })) {
        out.push_back(y);
      }
    }
    return out;
  };

  // Top walk, down from ⊤: which classes subsume c?
  OODB_ASSIGN_OR_RETURN(
      const std::vector<size_t> above,
      Walk({kTop}, &Class::parents, &Class::children, nullptr,
           [&](ql::ConceptId rep) { return check(c, rep); }, &up_));
  // Direct parents = minimal subsumers; ⊤ when no class subsumes c.
  const std::vector<size_t> direct_parents =
      frontier(above, &Class::children, up_);

  // Bottom walk, up from the leaves: which classes does c subsume? Any
  // subsumee sits (weakly) below EVERY direct parent, so only the region
  // below all of them is live.
  OODB_ASSIGN_OR_RETURN(
      const std::vector<size_t> below,
      Walk(MarkRegionBelow(prune ? direct_parents : std::vector<size_t>{kTop}),
           &Class::children, &Class::parents, &region_,
           [&](ql::ConceptId rep) { return check(rep, c); }, &down_));

  // Equivalence: a class both above and below c absorbs the name (there
  // can be at most one — distinct classes are never mutually subsuming).
  for (size_t y : below) {
    if (up_.Get(y) == kPassed) {
      classes_[y].members.push_back(name);
      nodes_.at(name).klass = y;
      return Status::Ok();
    }
  }

  // New class: link to the direct parents and the maximal subsumees,
  // then drop the parent↔child edges the new class now mediates (keeping
  // the DAG transitively reduced).
  const std::vector<size_t> direct_children =
      frontier(below, &Class::parents, down_);
  size_t idx;
  if (!free_classes_.empty()) {
    idx = free_classes_.back();
    free_classes_.pop_back();
  } else {
    classes_.emplace_back();
    idx = classes_.size() - 1;
  }
  classes_[idx] = Class{{name}, c, direct_parents, direct_children};
  nodes_.at(name).klass = idx;
  last_op_.edges_added =
      direct_children.size() +
      (direct_parents.front() == kTop ? 0 : direct_parents.size());
  // The parents of a direct child that subsume c are exactly the direct
  // parents, and the children of a direct parent that c subsumes exactly
  // the direct children: any other would make its edge redundant.
  for (size_t ch : direct_children) {
    std::erase_if(classes_[ch].parents,
                  [this](size_t p) { return up_.Get(p) == kPassed; });
    classes_[ch].parents.push_back(idx);
  }
  for (size_t p : direct_parents) {
    std::erase_if(classes_[p].children,
                  [this](size_t ch) { return down_.Get(ch) == kPassed; });
    classes_[p].children.push_back(idx);
  }
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

Result<std::vector<Symbol>> Classifier::SubsumersOf(ql::ConceptId c) const {
  Marks verdicts;
  OODB_ASSIGN_OR_RETURN(
      const std::vector<size_t> above,
      Walk({kTop}, &Class::parents, &Class::children, nullptr,
           [&](ql::ConceptId rep) { return checker_.Subsumes(c, rep); },
           &verdicts));
  // Children before parents: the reverse of the walk order.
  std::vector<Symbol> subsumers;
  for (auto it = above.rbegin(); it != above.rend(); ++it) {
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
