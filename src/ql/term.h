// Term representation for the abstract languages SL and QL (paper Sect. 3.1).
//
// QL concepts:  C ::= A | ⊤ | {a} | C ⊓ D | ∃p | ∃p ≐ ε
// SL concepts:  D ::= A | ∀P.A | ∃P | (≤1 P)        (right sides of axioms)
// Attributes:   R ::= P | P⁻¹
// Paths:        p ::= (R₁:C₁)…(Rₙ:Cₙ)   (possibly empty, written ε)
//
// Both languages share one node type; schema validation restricts which
// kinds may appear in SL positions. ∃P is represented as ∃(P:⊤), which has
// identical semantics (Table 1). General agreements ∃p ≐ q are normalized
// at construction into the ∃p' ≐ ε form the calculus assumes (Sect. 4).
//
// All terms are hash-consed in a TermFactory: structurally equal terms get
// equal ids, so equality is O(1) and ids are hash-map keys.
#ifndef OODB_QL_TERM_H_
#define OODB_QL_TERM_H_

#include <cstdint>

#include "base/hash.h"
#include "base/symbol.h"

namespace oodb::ql {

// Index of an interned concept in its TermFactory. 0 is invalid.
using ConceptId = uint32_t;
// Index of an interned path in its TermFactory. 0 is always the empty path.
using PathId = uint32_t;

inline constexpr ConceptId kInvalidConcept = 0;
inline constexpr PathId kEmptyPath = 0;

// An attribute: a primitive attribute P or its inverse P⁻¹.
struct Attr {
  Symbol prim;
  bool inverted = false;

  Attr Inverse() const { return Attr{prim, !inverted}; }

  friend bool operator==(const Attr& a, const Attr& b) {
    return a.prim == b.prim && a.inverted == b.inverted;
  }
  friend bool operator<(const Attr& a, const Attr& b) {
    if (a.prim != b.prim) return a.prim < b.prim;
    return a.inverted < b.inverted;
  }
};

// An attribute restriction (R:C): relates x to y iff x R y and y ∈ C.
struct Restriction {
  Attr attr;
  ConceptId filter = kInvalidConcept;

  friend bool operator==(const Restriction& a, const Restriction& b) {
    return a.attr == b.attr && a.filter == b.filter;
  }
};

enum class ConceptKind : uint8_t {
  kTop,        // ⊤
  kPrimitive,  // A
  kSingleton,  // {a}
  kAnd,        // C ⊓ D
  kExists,     // ∃p   (p may be ε; ∃ε is the universal concept)
  kAgree,      // ∃p ≐ ε
  kAll,        // ∀P.A        (SL only)
  kAtMostOne,  // (≤1 P)      (SL only)
};

// Payload of an interned concept. Field use depends on `kind`:
//   kPrimitive/kSingleton: sym
//   kAnd:                  lhs, rhs
//   kExists/kAgree:        path
//   kAll:                  attr, lhs (filler)
//   kAtMostOne:            attr
struct ConceptNode {
  ConceptKind kind = ConceptKind::kTop;
  Symbol sym;
  Attr attr;
  ConceptId lhs = kInvalidConcept;
  ConceptId rhs = kInvalidConcept;
  PathId path = kEmptyPath;

  friend bool operator==(const ConceptNode& a, const ConceptNode& b) {
    return a.kind == b.kind && a.sym == b.sym && a.attr == b.attr &&
           a.lhs == b.lhs && a.rhs == b.rhs && a.path == b.path;
  }
};

struct ConceptNodeHash {
  size_t operator()(const ConceptNode& n) const {
    return HashValues(static_cast<size_t>(n.kind), n.sym.id(),
                      n.attr.prim.id(), n.attr.inverted, n.lhs, n.rhs, n.path);
  }
};

}  // namespace oodb::ql

template <>
struct std::hash<oodb::ql::Attr> {
  size_t operator()(const oodb::ql::Attr& a) const noexcept {
    return oodb::HashValues(a.prim.id(), a.inverted);
  }
};

#endif  // OODB_QL_TERM_H_
