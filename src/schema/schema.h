// SL schemas (paper Sect. 3.1): finite sets of axioms
//   A ⊑ D     with D ::= A' | ∀P.A' | ∃P | (≤1 P)
//   P ⊑ A₁×A₂ (attribute typing: domain × range)
// indexed for the schema rules S1–S5 of the calculus.
#ifndef OODB_SCHEMA_SCHEMA_H_
#define OODB_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "base/symbol.h"
#include "ql/term.h"
#include "ql/term_factory.h"

namespace oodb::schema {

// A ⊑ D with D an SL concept from the shared term factory.
struct InclusionAxiom {
  Symbol lhs;
  ql::ConceptId rhs;
};

// P ⊑ A₁ × A₂. The concepts are A₁ and A₂ as primitive concepts of Σ's
// factory, interned by AddTyping.
struct TypingAxiom {
  Symbol attr;
  Symbol domain;
  Symbol range;
  ql::ConceptId domain_concept = ql::kInvalidConcept;
  ql::ConceptId range_concept = ql::kInvalidConcept;
};

// A class named on the right of an axiom: its symbol, and the primitive
// concept of that name in Σ's factory. The concept is interned when the
// axiom is added, so the schema rules read it and never intern the name.
struct ClassRef {
  Symbol name;
  ql::ConceptId primitive = ql::kInvalidConcept;
};

// An SL schema Σ. Axioms are validated on insertion: the right-hand side
// of an inclusion must be a legal SL concept (conjunctions are split into
// separate axioms as a convenience; they are equivalent).
class Schema {
 public:
  // `terms` must outlive the schema.
  explicit Schema(ql::TermFactory* terms);

  ql::TermFactory& terms() const { return *terms_; }

  // --- Construction -----------------------------------------------------

  // Adds A ⊑ D. D may be a conjunction of SL forms; it is split.
  // Fails with kInvalidArgument if D contains a non-SL construct
  // (singletons, inverses, agreements, paths of length > 1, qualified
  // existentials): exactly the extensions Sect. 4.4 proves intractable.
  Status AddInclusion(Symbol a, ql::ConceptId d);

  // Adds P ⊑ A₁×A₂.
  Status AddTyping(Symbol attr, Symbol domain, Symbol range);

  // Convenience builders for the four SL axiom shapes.
  Status AddIsA(Symbol a, Symbol super);                        // A ⊑ A'
  Status AddValueRestriction(Symbol a, Symbol attr, Symbol range_class);
                                                                // A ⊑ ∀P.A'
  Status AddNecessary(Symbol a, Symbol attr);                   // A ⊑ ∃P
  Status AddFunctional(Symbol a, Symbol attr);                  // A ⊑ (≤1 P)

  // --- Indexed access (used by calculus rules) ---------------------------

  // S1: all A₂ with A₁ ⊑ A₂ ∈ Σ (direct, not transitive).
  const std::vector<ClassRef>& SuperPrimitives(Symbol a) const;

  // S2: all A₂ with A₁ ⊑ ∀P.A₂ ∈ Σ.
  const std::vector<ClassRef>& ValueRestrictions(Symbol a, Symbol attr) const;

  // S2 (semi-naive trigger from the membership side): all (P, A₂) with
  // A₁ ⊑ ∀P.A₂ ∈ Σ.
  const std::vector<std::pair<Symbol, ClassRef>>& ValueRestrictionsOf(
      Symbol a) const;

  // S3: all typing axioms for attribute P.
  const std::vector<TypingAxiom>& TypingsOf(Symbol attr) const;

  // S4: whether A ⊑ (≤1 P) ∈ Σ.
  bool IsFunctionalFor(Symbol a, Symbol attr) const;

  // S5 / canonical interpretation: whether A ⊑ ∃P ∈ Σ.
  bool IsNecessaryFor(Symbol a, Symbol attr) const;

  // All P with A ⊑ ∃P ∈ Σ (canonical interpretation construction).
  const std::vector<Symbol>& NecessaryAttrs(Symbol a) const;

  // All P with A ⊑ (≤1 P) ∈ Σ (rule S4).
  const std::vector<Symbol>& FunctionalAttrs(Symbol a) const;

  // --- Whole-schema access ------------------------------------------------

  const std::vector<InclusionAxiom>& inclusions() const { return inclusions_; }
  const std::vector<TypingAxiom>& typings() const { return typings_; }

  // Every primitive concept mentioned on either side of any axiom.
  std::vector<Symbol> MentionedConcepts() const;
  // Every primitive attribute mentioned in any axiom.
  std::vector<Symbol> MentionedAttrs() const;

  // Reflexive-transitive closure of the A ⊑ A' relation from `a`.
  std::vector<Symbol> SuperClassesTransitive(Symbol a) const;

  // Syntactic size of Σ (for complexity accounting).
  size_t Size() const;

 private:
  Status AddSimpleInclusion(Symbol a, ql::ConceptId d);

  ql::TermFactory* terms_;
  std::vector<InclusionAxiom> inclusions_;
  std::vector<TypingAxiom> typings_;

  std::unordered_map<Symbol, std::vector<ClassRef>> supers_;
  // Pair-keyed indexes use the exact key PackKey(lhs, rhs).
  std::unordered_map<uint64_t, std::vector<ClassRef>> value_restrictions_;
  std::unordered_map<Symbol, std::vector<std::pair<Symbol, ClassRef>>>
      value_restrictions_by_class_;
  std::unordered_map<Symbol, std::vector<TypingAxiom>> typings_by_attr_;
  std::unordered_set<uint64_t> functional_;
  std::unordered_set<uint64_t> necessary_;
  std::unordered_map<Symbol, std::vector<Symbol>> necessary_attrs_;
  std::unordered_map<Symbol, std::vector<Symbol>> functional_attrs_;
  std::unordered_set<uint64_t> seen_axioms_;  // dedup of (lhs, rhs) pairs
};

}  // namespace oodb::schema

#endif  // OODB_SCHEMA_SCHEMA_H_
