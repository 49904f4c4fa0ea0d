// Hash-consing arena for SL/QL terms.
#ifndef OODB_QL_TERM_FACTORY_H_
#define OODB_QL_TERM_FACTORY_H_

#include <cassert>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/chunked.h"
#include "base/symbol.h"
#include "base/sync.h"
#include "ql/term.h"

namespace oodb::ql {

// Owns interned concepts and paths. One factory per engine instance; ids
// from different factories must not be mixed.
//
// A non-empty path is one cons cell, its first restriction (R:C) and the
// id of the rest, hash-consed on that pair so that paths share suffixes.
//
// Thread-safe: constructors (everything that may intern) serialize on an
// internal mutex, while the id-dereferencing accessors node() / path() /
// head() / tail() / Suffix() / ConceptSize() / IsQl() — the calculus hot
// path — are lock-free. So is Exists(p) once it has answered for p: each
// path keeps that id in its cell, and only the first call takes the mutex.
// Interned nodes live in chunked storage that never relocates
// (base/chunked.h), so references handed out to one thread stay valid
// while other threads intern. A reader may dereference any id it
// obtained from its own intern calls or from before its thread started;
// both give the happens-before edge the contract requires.
//
// Constructors apply only the semantics-preserving simplifications the
// paper itself uses when rewriting agreements (Sect. 4 example):
// C ⊓ ⊤ = C, ⊤ ⊓ C = C, C ⊓ C = C. No other normalization: the calculus
// is syntax-directed and both facts and goals are built from one factory.
class TermFactory {
 public:
  // `symbols` must outlive the factory.
  explicit TermFactory(SymbolTable* symbols);

  TermFactory(const TermFactory&) = delete;
  TermFactory& operator=(const TermFactory&) = delete;

  SymbolTable& symbols() { return *symbols_; }
  const SymbolTable& symbols() const { return *symbols_; }

  // --- Concept constructors -------------------------------------------

  ConceptId Top() const { return top_; }
  ConceptId Primitive(Symbol name);
  ConceptId Primitive(std::string_view name);
  ConceptId Singleton(Symbol constant);
  ConceptId Singleton(std::string_view constant);
  // Binary intersection with ⊤/idempotence simplification.
  ConceptId And(ConceptId lhs, ConceptId rhs);
  // Right-folded intersection of a list; ⊤ for an empty list.
  ConceptId AndAll(const std::vector<ConceptId>& conjuncts);
  // ∃p. Lock-free after the first call for `path`.
  ConceptId Exists(PathId path);
  // ∃P, i.e. ∃(P:⊤). `attr` may be inverted in QL positions.
  ConceptId ExistsAttr(Attr attr);
  // ∃p ≐ ε.
  ConceptId Agree(PathId path);
  // ∃p ≐ q, normalized to the ∃p' ≐ ε form by inverting q (Sect. 4):
  //   ∃p≐q  =  ∃(p[last filter ⊓ entry(q)] · Invert(q)) ≐ ε
  // Degenerate cases: q = ε gives ∃p≐ε; p = ε gives ∃q≐ε.
  ConceptId AgreePair(PathId p, PathId q);
  // ∀P.A (SL). `filler` is a concept id (validated as primitive by Schema).
  ConceptId All(Attr attr, ConceptId filler);
  // (≤1 P) (SL).
  ConceptId AtMostOne(Attr attr);

  // --- Path constructors ----------------------------------------------

  PathId EmptyPath() const { return kEmptyPath; }
  PathId MakePath(std::vector<Restriction> restrictions);
  // Single-restriction path (R:C).
  PathId Step(Attr attr, ConceptId filter);
  // Prepends one restriction.
  PathId Cons(const Restriction& head, PathId tail);
  // Concatenation p · q.
  PathId Concat(PathId p, PathId q);
  // Drops the first `from` restrictions (from <= length) by walking tails;
  // interns nothing.
  PathId Suffix(PathId p, size_t from) const;

  // Inverts a path for agreement normalization. For
  // q = (S₁:D₁)…(Sₘ:Dₘ), m >= 1, returns
  //   q̃ = (Sₘ⁻¹:Dₘ₋₁)(Sₘ₋₁⁻¹:Dₘ₋₂)…(S₁⁻¹:⊤)
  // and the entry filter Dₘ which must additionally hold at the object
  // where the traversal of q̃ starts. (d,e) ∈ q  iff  e ∈ entry and
  // (e,d) ∈ q̃.
  std::pair<PathId, ConceptId> InvertPath(PathId q);

  // --- Accessors (lock-free) --------------------------------------------

  // Walks a path's restrictions from the first, one cell per step:
  //   for (const Restriction& r : f.path(p)) ...
  struct PathCursor {
    const TermFactory* f;
    PathId at;

    PathCursor begin() const { return *this; }
    PathCursor end() const { return {f, kEmptyPath}; }
    const Restriction& operator*() const { return f->head(at); }
    PathCursor& operator++() {
      at = f->tail(at);
      return *this;
    }
    bool operator==(const PathCursor&) const = default;
  };

  const ConceptNode& node(ConceptId id) const { return concepts_[id].node; }
  PathCursor path(PathId id) const { return {this, id}; }
  // The first restriction of a non-empty path, and the path after it.
  const Restriction& head(PathId p) const {
    assert(p != kEmptyPath);
    return paths_[p].cell.head;
  }
  PathId tail(PathId p) const {
    assert(p != kEmptyPath);
    return paths_[p].cell.tail;
  }
  // A copy of a path's restrictions, for callers that edit them.
  std::vector<Restriction> Restrictions(PathId id) const;

  size_t num_concepts() const { return concepts_.size() - 1; }
  size_t num_paths() const { return paths_.size(); }

  // --- Metrics ----------------------------------------------------------

  // Syntactic size: number of operators, names and restrictions, counted
  // recursively through ⊓ and path filters. ⊤ and ε count 1; {a}, A count
  // 1; C⊓D counts |C|+|D|; ∃p and ∃p≐ε count 1+|p| where each restriction
  // counts 1+|filter|; ∀P.A counts 2; (≤1 P) counts 1.
  // Precomputed at intern time, so this is an O(1) lock-free read.
  size_t ConceptSize(ConceptId id) const;

  // Whether `id` is a pure QL concept: no ∀P.A or (≤1 P) anywhere in it,
  // path filters included (those belong to the schema language only).
  // Computed at intern time, so this is an O(1) lock-free read.
  bool IsQl(ConceptId id) const;

  // Collects every distinct concept id reachable from `id` (through ⊓,
  // path filters, and the ∀ filler), including `id` itself.
  std::vector<ConceptId> Subconcepts(ConceptId id) const;

 private:
  // An interned concept and the metrics computed when it was interned.
  // In this field order the slot takes 40 bytes; the size is 64-bit
  // because it counts the unfolded DAG.
  struct ConceptSlot {
    ConceptNode node;
    bool is_ql = false;
    size_t size = 0;
  };
  struct PathCell {
    Restriction head;
    PathId tail = kEmptyPath;

    bool operator==(const PathCell&) const = default;
  };
  struct PathCellHash {
    size_t operator()(const PathCell& c) const {
      return HashValues(c.head.attr.prim.id(), c.head.attr.inverted,
                        c.head.filter, c.tail);
    }
  };
  // An interned cell and the id of ∃p, set under mu_ by the first
  // Exists(p) and published through std::atomic_ref with a release store,
  // so a later call reads it without a lock or a hash probe.
  struct PathNode {
    PathCell cell;
    mutable ConceptId exists = kInvalidConcept;
  };

  ConceptId Intern(const ConceptNode& node) EXCLUDES(mu_);
  ConceptId InternLocked(const ConceptNode& node) REQUIRES(mu_);
  PathId ConsLocked(const Restriction& head, PathId tail) REQUIRES(mu_);
  // Conses `prefix` onto `tail`, last restriction first.
  PathId ConsAll(const std::vector<Restriction>& prefix, PathId tail)
      EXCLUDES(mu_);
  size_t ComputeSizeLocked(const ConceptNode& node) const REQUIRES(mu_);
  bool ComputeIsQlLocked(const ConceptNode& node) const REQUIRES(mu_);

  SymbolTable* symbols_;
  // Interned terms; [0] of concepts_ is an invalid sentinel, [0] of paths_
  // is ε. Pointer-stable so accessors need no lock (see class comment);
  // deliberately unguarded, appends serialize on mu_.
  ChunkedVector<ConceptSlot> concepts_;
  ChunkedVector<PathNode> paths_;
  mutable base::Mutex mu_;
  // Dedup indexes.
  std::unordered_map<ConceptNode, ConceptId, ConceptNodeHash> concept_index_
      GUARDED_BY(mu_);
  std::unordered_map<PathCell, PathId, PathCellHash> path_index_
      GUARDED_BY(mu_);
  ConceptId top_;
};

}  // namespace oodb::ql

#endif  // OODB_QL_TERM_FACTORY_H_
