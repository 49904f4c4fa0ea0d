// Constraint systems for the subsumption calculus (paper Sect. 4.1).
//
// Constraints have one of the forms
//   s : C     (membership)        — MembFact
//   s R t     (attribute filler)  — stored canonically over primitive P:
//                                   s P⁻¹ t is stored as t P s, which makes
//                                   rule D2 (inverse closure) implicit
//   s p t     (path connection)   — PathFact
// over individuals s, t that are constants or variables.
#ifndef OODB_CALCULUS_CONSTRAINT_H_
#define OODB_CALCULUS_CONSTRAINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/flat_index.h"
#include "base/symbol.h"
#include "ql/term.h"
#include "ql/term_factory.h"

namespace oodb::calculus {

// An individual: a handle into an IndTable.
struct Ind {
  uint32_t id = 0;
  friend bool operator==(Ind a, Ind b) { return a.id == b.id; }
  friend bool operator!=(Ind a, Ind b) { return a.id != b.id; }
};

// Registry of the individuals of one completion run. Constants are
// interned per symbol; variables are fresh and carry a printable name
// (x, y1, y2, …) for traces.
class IndTable {
 public:
  IndTable();

  // The individual for constant `a` (interned).
  Ind Constant(Symbol a);
  // A fresh variable named `<prefix><n>`.
  Ind FreshVar(const std::string& prefix = "y");
  // A fresh variable with an explicit display name (e.g. the initial "x").
  Ind NamedVar(const std::string& name);

  bool IsConstant(Ind i) const { return infos_[i.id].is_constant; }
  // Valid only for constants.
  Symbol ConstantSymbol(Ind i) const { return infos_[i.id].sym; }
  const std::string& Name(Ind i) const { return infos_[i.id].name; }

  size_t size() const { return infos_.size(); }
  size_t num_variables() const { return num_variables_; }

  // Forgets every individual but keeps allocated storage, so a pooled
  // engine's next run starts without reallocating the registry.
  void Clear();

 private:
  struct Info {
    bool is_constant = false;
    Symbol sym;
    std::string name;
  };
  std::vector<Info> infos_;
  FlatIndex constants_;  // symbol id → individual id
  size_t num_variables_ = 0;
  uint64_t var_counter_ = 0;
};

struct MembFact {
  Ind s;
  ql::ConceptId c = ql::kInvalidConcept;
};

struct AttrFact {  // s P t with P primitive.
  Ind s;
  Symbol p;
  Ind t;
};

struct PathFact {  // s p t with p a non-empty path.
  Ind s;
  ql::PathId p = ql::kEmptyPath;
  Ind t;
};

// One side (facts F or goals G) of a pair F:G. Insertion-ordered vectors
// give the rules stable scans (appended constraints are picked up by the
// same pass). Every presence test and index is keyed by the constraint
// itself, never by a hash of it (see docs/calculus.md, "Data model"):
//   s:C    by PackKey(s, C);
//   (s, P) and (s, p) by PackKey(s, P) / PackKey(s, p), each naming one
//          target list; s P t and s p t then by PackKey(list id, t).
// The tables are flat and keep their capacity across Clear(), so a
// pooled engine's next run reuses them.
class ConstraintSystem {
 public:
  // Each Add* returns true iff the constraint was new.
  bool AddMemb(Ind s, ql::ConceptId c);
  bool AddAttrPrim(Ind s, Symbol p, Ind t);
  // Adds s R t, canonicalizing inverses: s P⁻¹ t becomes t P s.
  bool AddAttr(Ind s, const ql::Attr& r, Ind t);
  bool AddPath(Ind s, ql::PathId p, Ind t);

  bool HasMemb(Ind s, ql::ConceptId c) const;
  bool HasAttrPrim(Ind s, Symbol p, Ind t) const;
  bool HasAttr(Ind s, const ql::Attr& r, Ind t) const;
  bool HasPath(Ind s, ql::PathId p, Ind t) const;
  // Whether some t with s p t exists.
  bool HasPathFrom(Ind s, ql::PathId p) const;

  const std::vector<MembFact>& membs() const { return membs_; }
  const std::vector<AttrFact>& attrs() const { return attrs_; }
  const std::vector<PathFact>& paths() const { return paths_; }

  // Concepts C with s : C (insertion order).
  const std::vector<ql::ConceptId>& ConceptsOf(Ind s) const {
    return concepts_of_[s.id];
  }
  // Indexes into membs() of the memberships s : C, in the same order.
  const std::vector<uint32_t>& MembIdsOf(Ind s) const {
    return memb_ids_of_[s.id];
  }

  // All t with s R t, following inverses through the canonical storage.
  // Every list this class returns stays valid, and is not reallocated,
  // until a constraint is added under its own key.
  const std::vector<Ind>& Fillers(Ind s, const ql::Attr& r) const;
  // All t with s P t (primitive orientation only).
  const std::vector<Ind>& PrimFillers(Ind s, Symbol p) const;
  // Whether s has any P-filler (primitive orientation).
  bool HasAnyPrimFiller(Ind s, Symbol p) const;

  // All t with s p t.
  const std::vector<Ind>& PathTargets(Ind s, ql::PathId p) const;

  // Attribute neighbors of s in either direction (with multiplicity):
  // the individuals whose goal conditions may change when facts about s
  // change. Used by the semi-naive scheduler's recheck triggers.
  const std::vector<Ind>& Neighbors(Ind s) const { return neighbors_[s.id]; }

  size_t size() const {
    return membs_.size() + attrs_.size() + paths_.size();
  }

  // Rewrites every individual through `map` (after a substitution merge),
  // collapsing duplicates. Rebuilds all indexes.
  void Substitute(const std::function<Ind(Ind)>& map);

  // Drops every constraint but keeps the fact vectors' and the tables'
  // capacity (CompletionEngine::Reset scratch reuse).
  void Clear();

 private:
  // The id of the target list of `key` in `index`, created on first use.
  uint32_t TargetListId(FlatIndex& index, uint64_t key);
  const std::vector<Ind>& TargetListOrEmpty(const FlatIndex& index,
                                            uint64_t key) const;

  std::vector<MembFact> membs_;
  std::vector<AttrFact> attrs_;
  std::vector<PathFact> paths_;
  FlatIndex memb_index_;    // (s, C) → index in membs_
  FlatIndex attr_index_;    // (list of (s, P), t) → index in attrs_
  FlatIndex path_index_;    // (list of (s, p), t) → index in paths_
  FlatIndex prim_fillers_;  // (s, P) → list id of t*
  FlatIndex inv_fillers_;   // (t, P) → list id of s*
  FlatIndex path_targets_;  // (s, p) → list id of t*
  ListPool<Ind> target_lists_;
  ListPool<ql::ConceptId> concepts_of_;  // by individual id
  ListPool<uint32_t> memb_ids_of_;       // by individual id
  ListPool<Ind> neighbors_;              // by individual id
};

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_CONSTRAINT_H_
