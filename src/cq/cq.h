// Conjunctive queries over unary and binary predicates — the fragment QL
// concepts translate into (paper Sect. 2.2 and the related-work
// comparison with [CM93]) — with an answer *tuple*. A QL concept's query
// has one head, its answer object. A query class's query exports `this`
// and then every label, which is the paper's first Sect. 6 open problem
// (complex answers): "answers are just sets of object identifiers without
// any derived answer attributes. These attributes are needed by
// application programs, and by permutation of parameters they entail
// additional subsumptions between queries."
//
// Both translators bind terms only through one unifier under the unique
// name assumption: a singleton, a constant filter or a `where` equality
// unites two terms, and uniting two distinct constants makes the query
// inconsistent. One homomorphism search decides containment for any head
// count. Containment of general conjunctive queries is NP-complete; the
// search is the classical Chandra–Merlin procedure and serves as the
// schema-less baseline for experiment E13. Containment here is with
// respect to the empty schema; the schema-aware case is the calculus's
// job.
#ifndef OODB_CQ_CQ_H_
#define OODB_CQ_CQ_H_

#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/symbol.h"
#include "dl/model.h"
#include "ql/term.h"
#include "ql/term_factory.h"

namespace oodb::cq {

// A term: variable or constant. Variables and constants are in separate
// name spaces.
struct CqTerm {
  enum class Kind : uint8_t { kVar, kConst };
  Kind kind = Kind::kVar;
  Symbol name;

  static CqTerm Var(Symbol s) { return {Kind::kVar, s}; }
  static CqTerm Const(Symbol s) { return {Kind::kConst, s}; }

  friend bool operator==(const CqTerm& a, const CqTerm& b) {
    return a.kind == b.kind && a.name == b.name;
  }
};

struct UnaryAtom {
  Symbol pred;
  CqTerm arg;
};

struct BinaryAtom {
  Symbol pred;
  CqTerm lhs;
  CqTerm rhs;
};

// q(heads…) :- atoms…, with existentially quantified non-head variables.
struct ConjunctiveQuery {
  // The answer tuple. heads[0] is the answer object; a head is a
  // variable, or a constant after unification.
  std::vector<CqTerm> heads;
  // The heads' names, in the same order: "this", then the labels.
  std::vector<Symbol> head_names;
  std::vector<UnaryAtom> unary;
  std::vector<BinaryAtom> binary;
  // True if translation derived a = b for distinct constants: the query
  // is unsatisfiable and its answer is empty in every database.
  bool inconsistent = false;

  // All distinct variables, those of the heads first.
  std::vector<Symbol> Variables() const;
  size_t size() const { return unary.size() + binary.size(); }
  std::string ToString(const SymbolTable& symbols) const;
};

// Translates a QL concept into an equivalent one-head conjunctive query
// (Table 1, column 2, with singletons eliminated by unification). Fails
// on SL-only constructs (∀P.A, ≤1 P), which are not conjunctive.
Result<ConjunctiveQuery> ConceptToCq(const ql::TermFactory& f,
                                     ql::ConceptId c, SymbolTable* symbols);

// Translates a query class into a conjunctive query whose heads are
// `this` and the endpoint of every labeled derived path, in declaration
// order. Query-class superclasses and path filters are inlined (their
// labels are not exported). Fails on non-structural queries, path
// variables and recursive references.
Result<ConjunctiveQuery> QueryClassToCq(const dl::Model& model,
                                        Symbol query_class,
                                        SymbolTable* symbols);

// Whether q1 ⊆ q2 holds in every database (no schema): the answer tuples
// of q1 are answer tuples of q2, heads aligned by position. Freezes q1
// into its canonical database and searches for a homomorphism from q2
// that sends q2's heads to q1's, in order (Chandra–Merlin; exponential
// worst case). False when the head counts differ.
bool CqContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

// Equivalence under containment both ways.
bool CqEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

// Removes redundant atoms while preserving equivalence (core computation
// by greedy deletion).
ConjunctiveQuery Minimize(const ConjunctiveQuery& q);

// Searches for a permutation π of q2's head positions that keeps
// position 0, the answer object, fixed, such that q1 is contained in q2
// with q2's head i sent to q1's head π[i]. Returns the first such π in
// lexicographic order, or nullopt.
std::optional<std::vector<size_t>> ContainedUnderPermutation(
    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

}  // namespace oodb::cq

#endif  // OODB_CQ_CQ_H_
