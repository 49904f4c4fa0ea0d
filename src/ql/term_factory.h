// Hash-consing arena for SL/QL terms.
#ifndef OODB_QL_TERM_FACTORY_H_
#define OODB_QL_TERM_FACTORY_H_

#include <atomic>
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
// Thread-safe: constructors (everything that may intern) serialize on an
// internal mutex, while the id-dereferencing accessors node() / path() /
// ConceptSize() / IsQl() — the calculus hot path — are lock-free. So are
// Exists(p) and Suffix(p, 1) once they have answered for p: each path
// keeps both ids beside its restrictions, and only the first call for a
// path takes the mutex.
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
  // Drops the first `from` restrictions (from <= length). Lock-free after
  // the first call for `p` when from is 1, the step the calculus peels.
  PathId Suffix(PathId p, size_t from);

  // Inverts a path for agreement normalization. For
  // q = (S₁:D₁)…(Sₘ:Dₘ), m >= 1, returns
  //   q̃ = (Sₘ⁻¹:Dₘ₋₁)(Sₘ₋₁⁻¹:Dₘ₋₂)…(S₁⁻¹:⊤)
  // and the entry filter Dₘ which must additionally hold at the object
  // where the traversal of q̃ starts. (d,e) ∈ q  iff  e ∈ entry and
  // (e,d) ∈ q̃.
  std::pair<PathId, ConceptId> InvertPath(PathId q);

  // --- Accessors (lock-free) --------------------------------------------

  const ConceptNode& node(ConceptId id) const { return concepts_[id]; }
  const std::vector<Restriction>& path(PathId id) const {
    return paths_[id].steps;
  }
  size_t path_length(PathId id) const { return paths_[id].steps.size(); }

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
  // An interned path: its restrictions, and the ids of Suffix(p, 1) and
  // ∃p. Each id is set under mu_ by the first call that asks for it and
  // published with a release store, so a later call reads it without a
  // lock or a hash probe.
  struct PathNode {
    static constexpr uint32_t kUnset = UINT32_MAX;

    PathNode() = default;
    explicit PathNode(std::vector<Restriction> restrictions)
        : steps(std::move(restrictions)) {}
    // ChunkedVector moves a node into its slot before publishing it.
    PathNode(PathNode&& other) noexcept { *this = std::move(other); }
    PathNode& operator=(PathNode&& other) noexcept {
      steps = std::move(other.steps);
      tail.store(other.tail.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      exists.store(other.exists.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      return *this;
    }

    std::vector<Restriction> steps;
    mutable std::atomic<PathId> tail{kUnset};
    mutable std::atomic<ConceptId> exists{kUnset};
  };

  ConceptId Intern(const ConceptNode& node) EXCLUDES(mu_);
  ConceptId InternLocked(const ConceptNode& node) REQUIRES(mu_);
  PathId InternPathLocked(std::vector<Restriction> restrictions)
      REQUIRES(mu_);
  size_t ComputeSizeLocked(const ConceptNode& node) const REQUIRES(mu_);
  bool ComputeIsQlLocked(const ConceptNode& node) const REQUIRES(mu_);

  SymbolTable* symbols_;
  // Interned nodes; [0] is an invalid sentinel ([0] of paths_ is ε).
  // Pointer-stable so accessors need no lock (see class comment);
  // deliberately unguarded, appends serialize on mu_.
  ChunkedVector<ConceptNode> concepts_;
  ChunkedVector<PathNode> paths_;
  ChunkedVector<size_t> sizes_;  // ConceptSize, computed at intern time
  ChunkedVector<bool> is_ql_;    // IsQl, computed at intern time
  mutable base::Mutex mu_;
  // Dedup indexes.
  std::unordered_map<ConceptNode, ConceptId, ConceptNodeHash> concept_index_
      GUARDED_BY(mu_);
  std::unordered_map<std::vector<Restriction>, PathId, PathVecHash>
      path_index_ GUARDED_BY(mu_);
  ConceptId top_;
};

}  // namespace oodb::ql

#endif  // OODB_QL_TERM_FACTORY_H_
