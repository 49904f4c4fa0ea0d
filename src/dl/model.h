// Resolved semantic model of a DL schema: classes, query classes and
// attributes after name resolution. Consumed by the translator (→ SL/QL),
// the object store and the query evaluator.
#ifndef OODB_DL_MODEL_H_
#define OODB_DL_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/symbol.h"
#include "ql/term.h"

namespace oodb::dl {

// A path-step filter: a class, an object constant {c}, or a coreference
// variable ?x (the "variables on paths" extension of Sect. 4.4).
struct ResolvedFilter {
  enum class Kind : uint8_t { kClass, kConstant, kVariable };
  Kind kind = Kind::kClass;
  Symbol name;
};

struct ResolvedStep {
  ql::Attr attr;
  ResolvedFilter filter;
};

struct ResolvedPath {
  Symbol label;  // invalid symbol when unlabeled
  std::vector<ResolvedStep> steps;
};

// --- Non-structural constraint formulas -------------------------------------

struct CTerm {
  enum class Kind : uint8_t { kThis, kVariable, kLabel, kConstant };
  Kind kind = Kind::kConstant;
  Symbol name;
};

struct CFormula;
using CFormulaPtr = std::shared_ptr<const CFormula>;

struct CFormula {
  enum class Kind : uint8_t {
    kForall, kExists, kNot, kAnd, kOr, kIn, kAttr, kEq,
  };
  Kind kind = Kind::kIn;
  Symbol var;       // quantifiers
  Symbol cls;       // quantifiers and kIn
  ql::Attr attr;    // kAttr
  CTerm t1, t2;
  std::vector<CFormulaPtr> children;
};

// --- Declarations ------------------------------------------------------------

struct ClassDef {
  Symbol name;
  bool is_query = false;
  bool implicit = false;  // referenced but never declared (lenient mode)
  std::vector<Symbol> supers;

  struct AttrSpec {
    Symbol attr;
    Symbol range;
    bool necessary = false;
    bool single = false;
  };
  std::vector<AttrSpec> attrs;  // schema classes only

  // Query classes only:
  std::vector<ResolvedPath> derived;
  std::vector<std::pair<Symbol, Symbol>> where;  // label equalities
  CFormulaPtr constraint;  // non-structural part; may be null
  bool has_path_variables = false;

  // Structural queries (no constraint, no path variables) can serve as
  // view definitions (paper Sect. 2.2).
  bool IsStructural() const {
    return constraint == nullptr && !has_path_variables;
  }
};

struct AttributeDef {
  Symbol name;
  Symbol domain;   // the Object class by default
  Symbol range;
  Symbol inverse;  // synonym name; invalid symbol if none
  bool implicit = false;
};

// The resolved model. Owns nothing of the symbol table.
class Model {
 public:
  Symbol object_class;  // the builtin most-general class

  const ClassDef* FindClass(Symbol name) const;
  const AttributeDef* FindAttribute(Symbol name) const;

  // Resolves an attribute name or an inverse synonym to a ql::Attr
  // (synonyms resolve to the inverted base attribute, paper Sect. 2.1).
  std::optional<ql::Attr> ResolveAttrName(Symbol name) const;

  // Reflexive-transitive superclasses of `cls` (including query supers).
  std::vector<Symbol> SuperClosure(Symbol cls) const;

  const std::vector<ClassDef>& classes() const { return classes_; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  friend class Analyzer;
  std::vector<ClassDef> classes_;
  std::vector<AttributeDef> attributes_;
  std::unordered_map<Symbol, size_t> class_index_;
  std::unordered_map<Symbol, size_t> attr_index_;
  std::unordered_map<Symbol, Symbol> synonym_to_attr_;
  std::vector<std::string> warnings_;
};

}  // namespace oodb::dl

#endif  // OODB_DL_MODEL_H_
