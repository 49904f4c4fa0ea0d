// Translation from the concrete language DL into the abstract languages
// (paper Sect. 3.2): the structural part of class declarations becomes an
// SL schema, query classes become QL concepts. Also produces the FOL
// renderings of Figures 2 and 4.
#ifndef OODB_DL_TRANSLATE_H_
#define OODB_DL_TRANSLATE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "dl/model.h"
#include "ql/fol.h"
#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::dl {

// Translates a Model's structural schema information and query classes.
// Non-structural parts (constraint clauses) are deliberately dropped here
// — they stay behind in the Model for the database evaluator; this is the
// paper's soundness-preserving abstraction.
//
// Thread-safe: QueryConcept/ClassConcept serialize on an internal mutex
// (they memoize translations in unsynchronized maps), so concurrent
// CHECK/CLASSIFY/OPTIMIZE requests may share one translator. The FOL
// renderings below are stateless apart from TermFactory interning (itself
// thread-safe) and need no lock.
class Translator {
 public:
  // `model` and `terms` must outlive the translator.
  Translator(const Model& model, ql::TermFactory* terms)
      : model_(model), terms_(terms) {}

  ql::TermFactory& terms() const { return *terms_; }

  // Emits all schema axioms (Figure 6 style) into `sigma`:
  //   C isA S            →  C ⊑ S
  //   attribute a: D     →  C ⊑ ∀a.D
  //   necessary          →  C ⊑ ∃a
  //   single             →  C ⊑ (≤1 a)
  //   Attribute a domain A range B  →  a ⊑ A×B
  // References to the builtin Object class are dropped where vacuous.
  Status BuildSchema(schema::Schema* sigma);

  // The QL concept of a query class: conjunction of superclass concepts,
  // ∃path for every derived path, and ∃p ≐ q for every where equality.
  // Path variables are skolemized to fresh constants (Sect. 4.4,
  // "Variables on Paths" — sound because views are variable-free).
  // Results are cached per query class.
  Result<ql::ConceptId> QueryConcept(Symbol query_class) EXCLUDES(mu_);

  // The concept of any class name: ⊤ for Object, the primitive concept
  // for schema classes, QueryConcept for query classes; kNotFound for a
  // name that is no class. Only query classes take the lock.
  Result<ql::ConceptId> ClassConcept(Symbol cls) EXCLUDES(mu_);

  // Figure 2: the FOL formulas of one schema class / attribute declaration
  // (including the non-structural constraint, with `this` as the free
  // variable x).
  Result<std::vector<ql::FormulaPtr>> SchemaClassToFol(Symbol cls);
  Result<std::vector<ql::FormulaPtr>> AttributeToFol(Symbol attr);

  // Figure 4: the definitional FOL formula of a query class — structural
  // conjuncts with labels as existential variables, plus the translated
  // constraint clause.
  Result<ql::FormulaPtr> QueryClassToFol(Symbol query_class);

 private:
  // The unlocked implementations; callers hold mu_. The public entry
  // points wrap them because translation recurses (query supers and path
  // filters may name other query classes).
  Result<ql::ConceptId> QueryConceptLocked(Symbol query_class)
      REQUIRES(mu_);
  ql::ConceptId FilterConcept(const ResolvedFilter& filter,
                              std::unordered_map<Symbol, Symbol>* skolems)
      REQUIRES(mu_);
  ql::PathId PathOf(const ResolvedPath& path,
                    std::unordered_map<Symbol, Symbol>* skolems)
      REQUIRES(mu_);

  const Model& model_;
  ql::TermFactory* terms_;
  // Guards query_cache_ and in_progress_ (see class comment).
  mutable base::Mutex mu_;
  std::unordered_map<Symbol, ql::ConceptId> query_cache_ GUARDED_BY(mu_);
  // Guards against recursive query references through path filters.
  std::unordered_map<Symbol, bool> in_progress_ GUARDED_BY(mu_);
};

// Whether `query_class` is structural *transitively*: neither it nor any
// query class reachable through its supers or path filters has a
// constraint clause or path variables. Views must satisfy this (the
// paper's "views are captured completely by a concept"); mere queries
// need not — their non-structural references are soundly weakened to the
// referenced query's structural part.
bool IsDeeplyStructural(const Model& model, Symbol query_class);

}  // namespace oodb::dl

#endif  // OODB_DL_TRANSLATE_H_
