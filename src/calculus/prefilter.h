// Structural pre-filter for subsumption checks: a cheap NECESSARY
// condition for C ⊑_Σ D, tested before any completion engine is built.
//
// The idea follows the told-information pruning of classic DL
// classifiers (CLASSIC's structural normalization, Gottlob et al.'s
// syntactic covers for candidate rewritings): almost every pair in a
// catalog scan is a non-subsumption that can be refuted from signatures
// alone. Per concept we compute, once, in lock-free side tables:
//
//   * query signature of C — an OVER-approximation of everything a
//     completion of {x:C} can ever derive: the Σ-upward closure of the
//     primitive names mentioned anywhere in C (closed under S1 isA
//     edges, S2 value-restriction ranges, S3/S6 typing domains/ranges
//     and S5 necessary attributes), the set of attribute names that can
//     ever label an edge, and the constants mentioned;
//   * target record of D — an UNDER-approximation of what x:D needs:
//     the primitive top-level conjuncts, the first-step attributes of
//     its top-level ∃p / ∃p≐ε conjuncts, and every constant mentioned,
//     kept as a compact run of ids rather than as bitsets.
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
#include <vector>

#include "base/chunked.h"
#include "base/symbol.h"
#include "base/sync.h"
#include "ql/term.h"
#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::calculus {

// A set of symbol ids kept as bitset words from the word of its lowest id
// to the word of its highest. Its size follows the span of the ids it
// holds, not the session's symbol count: a query's Σ-closure names a few
// schema classes and attributes, and a session that has interned 16 000
// query-class names before its attributes still stores their set in a
// word or two. A membership probe is one subtraction, one compare and
// one bit test.
class SymbolBitset {
 public:
  void Set(uint32_t id);
  void Set(Symbol s) { Set(s.id()); }

  bool Test(uint32_t id) const {
    // Ids below the first word wrap around to a large offset.
    const uint32_t offset = (id >> 6) - first_word_;
    return offset < words_.size() &&
           (words_[offset] >> (id & 63)) & uint64_t{1};
  }
  bool Test(Symbol s) const { return Test(s.id()); }

  // Words stored: (highest id >> 6) - (lowest id >> 6) + 1, or 0 if empty.
  size_t num_words() const { return words_.size(); }

 private:
  uint32_t first_word_ = 0;  // id >> 6 of the ids in words_[0]
  std::vector<uint64_t> words_;
};

// The query reading of a concept (see the file comment). Immutable after
// construction; shared across threads.
struct ConceptSignature {
  // False when the concept contains SL-only constructs (∀P.A, (≤1 P)):
  // the filter makes no claim and the engine reports the proper error.
  bool filterable = false;
  SymbolBitset prims;      // derivable closure
  SymbolBitset attrs;      // available edge labels
  SymbolBitset constants;  // mentioned constants
  // Distinct constants mentioned (clash guard).
  uint32_t num_constants = 0;

  // Bitset words held by the three sets.
  size_t num_words() const {
    return prims.num_words() + attrs.num_words() + constants.num_words();
  }
};

// The target reading of a concept: the distinct primitive, attribute and
// constant ids that x:D requires, stored as one run in the filter's id
// arena (primitives first, then attributes, then constants). A batch
// tests it against one query signature with a handful of bit probes.
struct TargetRecord {
  uint32_t first = 0;  // arena index of the first id
  uint32_t num_prims = 0;
  uint32_t num_attrs = 0;
  uint32_t num_constants = 0;
  // False when D contains SL-only constructs (as for the query reading).
  bool filterable = false;
};

enum class PreFilterVerdict : uint8_t {
  kReject,   // C ⊑_Σ D is impossible; no engine run needed
  kUnknown,  // the filter cannot decide; run the completion
};

// Thread-safe signature index + pair test. One instance per checker;
// signatures are computed lazily and kept forever (concept ids are
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

  // C's query signature, computed on first use (exposed for batches,
  // tests and diagnostics).
  const ConceptSignature& QuerySignature(ql::ConceptId c) const;

 private:
  const TargetRecord& Target(ql::ConceptId d) const;
  ConceptSignature ComputeQuerySignature(ql::ConceptId c) const;
  // D's requirements: the record's counts and filterable flag, and its
  // ids in arena order.
  TargetRecord ComputeTarget(ql::ConceptId d,
                             std::vector<uint32_t>* ids) const;

  const schema::Schema& sigma_;
  // Both readings are computed outside any lock and published under
  // publish_mu_ (ChunkedVector and ChunkedIdMap serialize their writers
  // that way); every read is lock-free, so a batch tests its targets
  // without a lock, a hash probe or a heap bitset per target. A racing
  // duplicate compute finds the published copy and drops its own.
  mutable base::Mutex publish_mu_;
  mutable ChunkedIdMap query_index_;  // concept id → query_sigs_ index
  mutable ChunkedVector<ConceptSignature> query_sigs_;
  mutable ChunkedIdMap target_index_;  // concept id → targets_ index
  mutable ChunkedVector<TargetRecord> targets_;
  // The records' id runs, in 16 KiB chunks (room for 16M ids).
  mutable ChunkedVector<uint32_t, 12> target_ids_;
};

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_PREFILTER_H_
