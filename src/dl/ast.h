// Raw (unresolved) syntax tree for the concrete database language DL
// (paper Sect. 2): Class / QueryClass / Attribute declarations with
// isA lists, attribute sections, derived labeled paths, where clauses and
// first-order constraint clauses. Every name is a view into the parsed
// source, which must outlive the tree (ParseAndAnalyze holds it for the
// tree's whole life).
#ifndef OODB_DL_AST_H_
#define OODB_DL_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace oodb::dl::ast {

// --- Constraint formulas ---------------------------------------------------

struct Term {
  enum class Kind { kThis, kIdent };
  Kind kind = Kind::kIdent;
  std::string_view name;  // empty for `this`
  int line = 0;
};

struct Formula;
using FormulaPtr = std::unique_ptr<Formula>;

struct Formula {
  enum class Kind {
    kForall,  // forall var/Class body
    kExists,  // exists var/Class body
    kNot,
    kAnd,
    kOr,
    kIn,    // (t in Class)
    kAttr,  // (t1 attr t2)
    kEq,    // (t1 = t2)
  };
  Kind kind;
  std::string_view var;   // quantifiers
  std::string_view cls;   // quantifiers, kIn
  std::string_view attr;  // kAttr
  Term t1, t2;
  std::vector<FormulaPtr> children;
  int line = 0;
};

// --- Declarations ------------------------------------------------------------

// One `a: C` entry of an attribute section, with the section's flags.
struct AttrEntry {
  std::string_view attr;
  std::string_view range;
  bool necessary = false;
  bool single = false;
  int line = 0;
};

// A step of a labeled path: `a` (bare), `(a: C)`, `(a: {c})`, `(a: ?x)`.
// (Members are ordered so that the struct has no padding but its tail:
// a large catalog holds tens of thousands of steps.)
struct PathStep {
  enum class Filter : uint8_t { kNone, kClass, kConstant, kVariable };
  std::string_view attr;
  std::string_view filter;  // class / constant / variable name
  int line = 0;
  Filter filter_kind = Filter::kNone;
};

// The run [begin, end) of one of File's pools.
struct Run {
  uint32_t begin = 0;
  uint32_t end = 0;

  bool empty() const { return begin == end; }
  size_t size() const { return end - begin; }
};

struct DerivedPath {
  std::string_view label;  // empty when unlabeled
  Run steps;               // of File::steps
  int line = 0;
};

struct WhereEq {
  std::string_view lhs;
  std::string_view rhs;
  int line = 0;
};

struct ClassDecl {
  std::string_view name;
  Run supers;                // of File::supers
  Run attrs;                 // of File::attrs; schema classes
  Run derived;               // of File::derived; query classes
  Run where;                 // of File::where
  FormulaPtr constraint;     // may be null
  int line = 0;
  bool is_query = false;
};

struct AttributeDecl {
  std::string_view name;
  std::string_view domain;   // empty = Object
  std::string_view range;    // empty = Object
  std::string_view inverse;  // optional synonym name
  int line = 0;
};

// The declarations in source order. Their lists live in one pool per
// element type, filled in source order, so that a tree costs a handful of
// allocations however many declarations it holds.
struct File {
  std::vector<ClassDecl> classes;
  std::vector<AttributeDecl> attributes;

  std::vector<std::string_view> supers;
  std::vector<AttrEntry> attrs;
  std::vector<DerivedPath> derived;
  std::vector<PathStep> steps;
  std::vector<WhereEq> where;
};

// The elements of `run` in `pool`.
template <typename T>
std::span<const T> Slice(const std::vector<T>& pool, Run run) {
  return std::span<const T>(pool).subspan(run.begin, run.size());
}

}  // namespace oodb::dl::ast

#endif  // OODB_DL_AST_H_
