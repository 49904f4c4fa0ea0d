#include "calculus/prefilter.h"

#include <utility>

#include "base/sync.h"

namespace oodb::calculus {

namespace {
using ql::ConceptId;
using ql::ConceptKind;
using ql::ConceptNode;
using ql::Restriction;
}  // namespace

const ConceptSignature& StructuralPreFilter::QuerySignature(
    ql::ConceptId c) const {
  return Memoize(&query_sigs_, c, /*query_side=*/true);
}

const ConceptSignature& StructuralPreFilter::TargetSignature(
    ql::ConceptId d) const {
  return Memoize(&target_sigs_, d, /*query_side=*/false);
}

const ConceptSignature& StructuralPreFilter::Memoize(
    SignatureMap* map, ql::ConceptId id, bool query_side) const {
  {
    base::MutexLock lock(&mu_);
    auto it = map->find(id);
    if (it != map->end()) return *it->second;
  }
  // Compute outside the lock: signature construction walks the term
  // arena and the schema indexes, both lock-free reads.
  auto sig = std::make_unique<const ConceptSignature>(
      query_side ? ComputeQuerySignature(id) : ComputeTargetSignature(id));
  base::MutexLock lock(&mu_);
  auto [it, inserted] = map->emplace(id, std::move(sig));
  return *it->second;
}

ConceptSignature StructuralPreFilter::ComputeQuerySignature(
    ql::ConceptId c) const {
  const ql::TermFactory& f = sigma_.terms();
  ConceptSignature sig;
  sig.filterable = true;

  // Seed sets: everything syntactically mentioned anywhere in C
  // (memberships and edges can appear at any node of the completion, and
  // merges can move them onto the root, so the closure is global).
  std::vector<Symbol> prim_worklist;
  std::vector<Symbol> attr_worklist;
  auto add_prim = [&](Symbol a) {
    if (!sig.prims.Test(a)) {
      sig.prims.Set(a);
      prim_worklist.push_back(a);
    }
  };
  auto add_attr = [&](Symbol p) {
    if (!sig.attrs.Test(p)) {
      sig.attrs.Set(p);
      attr_worklist.push_back(p);
    }
  };

  for (ConceptId sub : f.Subconcepts(c)) {
    const ConceptNode& n = f.node(sub);
    switch (n.kind) {
      case ConceptKind::kPrimitive:
        add_prim(n.sym);
        break;
      case ConceptKind::kSingleton:
        if (!sig.constants.Test(n.sym)) {
          sig.constants.Set(n.sym);
          ++sig.num_constants;
        }
        break;
      case ConceptKind::kExists:
      case ConceptKind::kAgree:
        // Path filters are separate subconcepts; only the step
        // attributes need collecting here. Orientation is ignored: an
        // edge s P t makes P available from s and P⁻¹ from t, and
        // merges can put the root at either end.
        for (const Restriction& r : f.path(n.path)) {
          add_attr(r.attr.prim);
        }
        break;
      case ConceptKind::kAll:
      case ConceptKind::kAtMostOne:
        sig.filterable = false;  // non-QL: let the engine raise the error
        break;
      default:
        break;
    }
  }
  if (!sig.filterable) return sig;

  // Fixpoint over the schema rules that can mint new memberships or
  // edges: S1 (isA supers), S2 (value-restriction ranges), S3/S6
  // (typing domains and ranges of any live attribute), S5 (necessary
  // attributes of any live class). Each addition is monotone, so the
  // worklists terminate after at most |Σ| symbols.
  while (!prim_worklist.empty() || !attr_worklist.empty()) {
    if (!prim_worklist.empty()) {
      Symbol a = prim_worklist.back();
      prim_worklist.pop_back();
      for (Symbol super : sigma_.SuperPrimitives(a)) add_prim(super);
      for (const auto& [attr, range] : sigma_.ValueRestrictionsOf(a)) {
        (void)attr;
        add_prim(range);
      }
      for (Symbol p : sigma_.NecessaryAttrs(a)) add_attr(p);
      continue;
    }
    Symbol p = attr_worklist.back();
    attr_worklist.pop_back();
    for (const schema::TypingAxiom& typing : sigma_.TypingsOf(p)) {
      add_prim(typing.domain);
      add_prim(typing.range);
    }
  }
  return sig;
}

ConceptSignature StructuralPreFilter::ComputeTargetSignature(
    ql::ConceptId d) const {
  const ql::TermFactory& f = sigma_.terms();
  ConceptSignature sig;
  sig.filterable = true;

  // Top-level conjuncts: x:D requires each one as a fact at the root
  // (D is either decomposed by D1 or composed by C1 — both directions
  // leave every conjunct's membership in F).
  std::vector<ConceptId> conjuncts = {d};
  while (!conjuncts.empty()) {
    ConceptId cur = conjuncts.back();
    conjuncts.pop_back();
    const ConceptNode& n = f.node(cur);
    switch (n.kind) {
      case ConceptKind::kAnd:
        conjuncts.push_back(n.lhs);
        conjuncts.push_back(n.rhs);
        break;
      case ConceptKind::kPrimitive:
        sig.prims.Set(n.sym);
        break;
      case ConceptKind::kExists:
      case ConceptKind::kAgree:
        // x:∃p (or ∃p≐ε) with p ≠ ε needs an edge labeled with p's
        // first attribute at the root, in some orientation.
        if (n.path != ql::kEmptyPath) {
          sig.attrs.Set(f.path(n.path)[0].attr.prim);
        }
        break;
      default:
        break;
    }
  }

  // Constants anywhere in D (top level or path filters): singleton
  // memberships in F only ever originate from C's own singletons, so
  // every constant D asks for must be mentioned in C.
  for (ConceptId sub : f.Subconcepts(d)) {
    const ConceptNode& n = f.node(sub);
    if (n.kind == ConceptKind::kSingleton) {
      sig.constants.Set(n.sym);
    } else if (n.kind == ConceptKind::kAll ||
               n.kind == ConceptKind::kAtMostOne) {
      sig.filterable = false;
    }
  }
  return sig;
}

PreFilterVerdict StructuralPreFilter::Check(ql::ConceptId c,
                                            ql::ConceptId d) const {
  if (c == ql::kInvalidConcept) return PreFilterVerdict::kUnknown;
  return Check(QuerySignature(c), d);
}

PreFilterVerdict StructuralPreFilter::Check(const ConceptSignature& qs,
                                            ql::ConceptId d) const {
  if (d == ql::kInvalidConcept) return PreFilterVerdict::kUnknown;
  const ConceptSignature& ts = TargetSignature(d);
  if (!qs.filterable || !ts.filterable) return PreFilterVerdict::kUnknown;
  // Clash guard: with two or more distinct constants in C the completion
  // could be Σ-unsatisfiable, which subsumes everything — abstain.
  if (qs.num_constants >= 2) return PreFilterVerdict::kUnknown;
  if (!ts.prims.SubsetOf(qs.prims)) return PreFilterVerdict::kReject;
  if (!ts.attrs.SubsetOf(qs.attrs)) return PreFilterVerdict::kReject;
  if (!ts.constants.SubsetOf(qs.constants)) return PreFilterVerdict::kReject;
  return PreFilterVerdict::kUnknown;
}

}  // namespace oodb::calculus
