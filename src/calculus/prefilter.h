// Structural pre-filter for subsumption checks: a cheap NECESSARY
// condition for C ⊑_Σ D, tested before any completion engine is built.
//
// The idea follows the told-information pruning of classic DL
// classifiers (CLASSIC's structural normalization, Gottlob et al.'s
// syntactic covers for candidate rewritings): almost every pair in a
// catalog scan is a non-subsumption that can be refuted from signatures
// alone. Per concept we compute, memoized in a side table:
//
//   * query signature of C — an OVER-approximation of everything a
//     completion of {x:C} can ever derive: the Σ-upward closure of the
//     primitive names mentioned anywhere in C (closed under S1 isA
//     edges, S2 value-restriction ranges, S3/S6 typing domains/ranges
//     and S5 necessary attributes), the set of attribute names that can
//     ever label an edge, and the constants mentioned;
//   * target signature of D — an UNDER-approximation of what x:D needs:
//     the primitive top-level conjuncts, the first-step attributes of
//     its top-level ∃p / ∃p≐ε conjuncts, and every constant mentioned.
//
// If any required set is not contained in the corresponding derivable
// set, C ⊑_Σ D cannot hold via the goal branch of Theorem 4.7 — and the
// clash branch is excluded by construction: a clash needs two distinct
// constants in the completion of C (rules D3/S4 are the only clash
// sites, both need two constant individuals, and constants only enter F
// through C's own singletons), so the filter abstains whenever C
// mentions more than one constant. It also abstains on non-QL input so
// the engine's validation errors are preserved. Soundness (no false
// rejection) is pinned by tests/prefilter_soundness_test.cc.
#ifndef OODB_CALCULUS_PREFILTER_H_
#define OODB_CALCULUS_PREFILTER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/symbol.h"
#include "base/sync.h"
#include "ql/term.h"
#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::calculus {

// Dense bitset over symbol ids. Symbols are small (interned densely per
// SymbolTable), so a word vector beats hash sets for the subset tests
// the filter runs on every pair.
class SymbolBitset {
 public:
  void Set(uint32_t id) {
    size_t word = id >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= uint64_t{1} << (id & 63);
  }
  void Set(Symbol s) { Set(s.id()); }

  bool Test(uint32_t id) const {
    size_t word = id >> 6;
    return word < words_.size() &&
           (words_[word] >> (id & 63)) & uint64_t{1};
  }
  bool Test(Symbol s) const { return Test(s.id()); }

  // Whether every bit of *this is also set in `other`.
  bool SubsetOf(const SymbolBitset& other) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      if (w == 0) continue;
      if (i >= other.words_.size() || (w & ~other.words_[i]) != 0) {
        return false;
      }
    }
    return true;
  }

  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

 private:
  std::vector<uint64_t> words_;
};

// One memoized per-concept signature (see file comment for the two
// readings). Immutable after construction; shared across threads.
struct ConceptSignature {
  // False when the concept contains SL-only constructs (∀P.A, (≤1 P)):
  // the filter makes no claim and the engine reports the proper error.
  bool filterable = false;
  SymbolBitset prims;      // query: derivable closure / target: required
  SymbolBitset attrs;      // query: available edges / target: first steps
  SymbolBitset constants;  // mentioned constants (both readings)
  // Query side only: distinct constants mentioned (clash guard).
  uint32_t num_constants = 0;
};

enum class PreFilterVerdict : uint8_t {
  kReject,   // C ⊑_Σ D is impossible; no engine run needed
  kUnknown,  // the filter cannot decide; run the completion
};

// Thread-safe signature index + pair test. One instance per checker;
// signatures are computed lazily and cached forever (concept ids are
// stable for the lifetime of the term factory).
class StructuralPreFilter {
 public:
  explicit StructuralPreFilter(const schema::Schema& sigma)
      : sigma_(sigma) {}

  StructuralPreFilter(const StructuralPreFilter&) = delete;
  StructuralPreFilter& operator=(const StructuralPreFilter&) = delete;

  // Necessary-condition test for C ⊑_Σ D (never rejects a true
  // subsumption; see the class comment for the argument).
  PreFilterVerdict Check(ql::ConceptId c, ql::ConceptId d) const;
  // The same test against C's signature, looked up once by the caller
  // (a batch checks one C against many D).
  PreFilterVerdict Check(const ConceptSignature& query,
                         ql::ConceptId d) const;

  // The memoized signatures (exposed for tests and diagnostics).
  const ConceptSignature& QuerySignature(ql::ConceptId c) const;
  const ConceptSignature& TargetSignature(ql::ConceptId d) const;

 private:
  using SignatureMap =
      std::unordered_map<ql::ConceptId,
                         std::unique_ptr<const ConceptSignature>>;

  const ConceptSignature& Memoize(SignatureMap* map, ql::ConceptId id,
                                  bool query_side) const;
  ConceptSignature ComputeQuerySignature(ql::ConceptId c) const;
  ConceptSignature ComputeTargetSignature(ql::ConceptId d) const;

  const schema::Schema& sigma_;
  // Signatures are immutable once inserted and stored behind stable
  // pointers, so the lock is held only for map lookup/insert — never
  // across a computation. A racing duplicate compute inserts an equal
  // value and one copy is dropped.
  mutable base::Mutex mu_;
  mutable SignatureMap query_sigs_ GUARDED_BY(mu_);
  mutable SignatureMap target_sigs_ GUARDED_BY(mu_);
};

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_PREFILTER_H_
