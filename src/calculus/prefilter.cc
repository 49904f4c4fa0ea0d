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

void SymbolBitset::Set(uint32_t id) {
  const uint32_t word = id >> 6;
  if (words_.empty()) {
    first_word_ = word;
    words_.push_back(0);
  } else if (word < first_word_) {
    words_.insert(words_.begin(), first_word_ - word, 0);
    first_word_ = word;
  } else if (word - first_word_ >= words_.size()) {
    words_.resize(word - first_word_ + 1, 0);
  }
  words_[word - first_word_] |= uint64_t{1} << (id & 63);
}

const ConceptSignature& StructuralPreFilter::QuerySignature(
    ql::ConceptId c) const {
  uint32_t slot = query_index_.Find(c);
  if (slot == ChunkedIdMap::kAbsent) {
    // Compute outside the lock: signature construction walks the term
    // arena and the schema indexes, both lock-free reads.
    ConceptSignature sig = ComputeQuerySignature(c);
    base::MutexLock lock(&publish_mu_);
    slot = query_index_.Find(c);
    if (slot == ChunkedIdMap::kAbsent) {
      slot = static_cast<uint32_t>(query_sigs_.push_back(std::move(sig)));
      query_index_.Set(c, slot);
    }
  }
  return query_sigs_[slot];
}

const TargetRecord& StructuralPreFilter::Target(ql::ConceptId d) const {
  uint32_t slot = target_index_.Find(d);
  if (slot == ChunkedIdMap::kAbsent) {
    std::vector<uint32_t> ids;
    TargetRecord record = ComputeTarget(d, &ids);
    base::MutexLock lock(&publish_mu_);
    slot = target_index_.Find(d);
    if (slot == ChunkedIdMap::kAbsent) {
      record.first = static_cast<uint32_t>(target_ids_.size());
      for (uint32_t id : ids) target_ids_.push_back(id);
      slot = static_cast<uint32_t>(targets_.push_back(record));
      target_index_.Set(d, slot);
    }
  }
  return targets_[slot];
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
      for (const schema::ClassRef& super : sigma_.SuperPrimitives(a)) {
        add_prim(super.name);
      }
      for (const auto& [attr, range] : sigma_.ValueRestrictionsOf(a)) {
        (void)attr;
        add_prim(range.name);
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

TargetRecord StructuralPreFilter::ComputeTarget(
    ql::ConceptId d, std::vector<uint32_t>* ids) const {
  const ql::TermFactory& f = sigma_.terms();
  TargetRecord record;
  record.filterable = true;
  SymbolBitset prims;
  SymbolBitset attrs;
  SymbolBitset constants;
  std::vector<uint32_t> attr_ids;
  std::vector<uint32_t> constant_ids;
  auto add = [](SymbolBitset& seen, std::vector<uint32_t>& out, Symbol s) {
    if (!seen.Test(s)) {
      seen.Set(s);
      out.push_back(s.id());
    }
  };

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
        add(prims, *ids, n.sym);
        break;
      case ConceptKind::kExists:
      case ConceptKind::kAgree:
        // x:∃p (or ∃p≐ε) with p ≠ ε needs an edge labeled with p's
        // first attribute at the root, in some orientation.
        if (n.path != ql::kEmptyPath) {
          add(attrs, attr_ids, f.head(n.path).attr.prim);
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
      add(constants, constant_ids, n.sym);
    } else if (n.kind == ConceptKind::kAll ||
               n.kind == ConceptKind::kAtMostOne) {
      record.filterable = false;
    }
  }
  record.num_prims = static_cast<uint32_t>(ids->size());
  record.num_attrs = static_cast<uint32_t>(attr_ids.size());
  record.num_constants = static_cast<uint32_t>(constant_ids.size());
  ids->insert(ids->end(), attr_ids.begin(), attr_ids.end());
  ids->insert(ids->end(), constant_ids.begin(), constant_ids.end());
  return record;
}

PreFilterVerdict StructuralPreFilter::Check(ql::ConceptId c,
                                            ql::ConceptId d) const {
  if (c == ql::kInvalidConcept) return PreFilterVerdict::kUnknown;
  return Check(QuerySignature(c), d);
}

PreFilterVerdict StructuralPreFilter::Check(const ConceptSignature& qs,
                                            ql::ConceptId d) const {
  if (d == ql::kInvalidConcept) return PreFilterVerdict::kUnknown;
  // Clash guard: with two or more distinct constants in C the completion
  // could be Σ-unsatisfiable, which subsumes everything — abstain.
  if (!qs.filterable || qs.num_constants >= 2) {
    return PreFilterVerdict::kUnknown;
  }
  const TargetRecord& ts = Target(d);
  if (!ts.filterable) return PreFilterVerdict::kUnknown;
  // Every required id must be in the matching query set.
  auto all_in = [this](const SymbolBitset& have, uint32_t first,
                       uint32_t count) {
    for (uint32_t i = first; i < first + count; ++i) {
      if (!have.Test(target_ids_[i])) return false;
    }
    return true;
  };
  uint32_t next = ts.first;
  if (!all_in(qs.prims, next, ts.num_prims)) return PreFilterVerdict::kReject;
  next += ts.num_prims;
  if (!all_in(qs.attrs, next, ts.num_attrs)) return PreFilterVerdict::kReject;
  next += ts.num_attrs;
  if (!all_in(qs.constants, next, ts.num_constants)) {
    return PreFilterVerdict::kReject;
  }
  return PreFilterVerdict::kUnknown;
}

}  // namespace oodb::calculus
