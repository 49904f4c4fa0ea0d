// Translation from the concrete language DL into the abstract languages
// (paper Sect. 3.2): the structural part of class declarations becomes an
// SL schema, query classes become QL concepts. Also produces the FOL
// renderings of Figures 2 and 4.
#ifndef OODB_DL_TRANSLATE_H_
#define OODB_DL_TRANSLATE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/chunked.h"
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
// Thread-safe, and lock-free once a class is resolved: the class-name
// table is immutable after construction, and ClassConcept publishes each
// class's concept into a map that readers probe without a lock; only
// the first resolution of a class takes the internal mutex (translation
// recurses through query supers and path filters, whose bookkeeping it
// guards). So concurrent CHECK/CLASSIFY/OPTIMIZE requests may share one
// translator. The FOL renderings below are stateless apart from
// TermFactory interning (itself thread-safe) and need no lock.
class Translator {
 public:
  // `model` and `terms` must outlive the translator. Builds the table of
  // class names; translates nothing.
  Translator(const Model& model, ql::TermFactory* terms);

  ql::TermFactory& terms() const { return *terms_; }

  // Emits all schema axioms (Figure 6 style) into `sigma`:
  //   C isA S            →  C ⊑ S
  //   attribute a: D     →  C ⊑ ∀a.D
  //   necessary          →  C ⊑ ∃a
  //   single             →  C ⊑ (≤1 a)
  //   Attribute a domain A range B  →  a ⊑ A×B
  // References to the builtin Object class are dropped where vacuous.
  Status BuildSchema(schema::Schema* sigma);

  // The concept of any class: ⊤ for Object, the primitive concept for
  // schema classes, and for a query class the conjunction of its
  // superclass concepts, ∃path for every derived path and ∃p ≐ q for
  // every where equality. Path variables are skolemized to fresh
  // constants (Sect. 4.4, "Variables on Paths" — sound because views are
  // variable-free). kNotFound for a symbol that names no class. The
  // first call for a class resolves it under the mutex and publishes the
  // result; every later call reads it without a lock.
  Result<ql::ConceptId> ClassConcept(Symbol cls) EXCLUDES(mu_);
  // ClassConcept of the class `name` denotes (FindClass); kNotFound
  // "no class named '<name>'" when it denotes none.
  Result<ql::ConceptId> ClassConcept(std::string_view name) EXCLUDES(mu_);
  // ClassConcept for callers that name a query class (the view catalog,
  // the optimizer).
  Result<ql::ConceptId> QueryConcept(Symbol query_class) EXCLUDES(mu_) {
    return ClassConcept(query_class);
  }

  // The class `name` denotes — any class of the model, Object included —
  // or the invalid symbol. Lock-free.
  Symbol FindClass(std::string_view name) const;
  // The concept ClassConcept published for the class `name` denotes, or
  // kInvalidConcept when the name denotes no class or its class has not
  // been resolved yet. Never locks and never translates.
  ql::ConceptId ResolvedConcept(std::string_view name) const;

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
  // ClassConcept's resolution; callers hold mu_. Translation recurses
  // here through query supers and path filters.
  Result<ql::ConceptId> ClassConceptLocked(Symbol cls) REQUIRES(mu_);
  Result<ql::ConceptId> TranslateQuery(const ClassDef& def) REQUIRES(mu_);
  ql::ConceptId FilterConcept(const ResolvedFilter& filter,
                              std::unordered_map<Symbol, Symbol>* skolems)
      REQUIRES(mu_);
  ql::PathId PathOf(const ResolvedPath& path,
                    std::unordered_map<Symbol, Symbol>* skolems)
      REQUIRES(mu_);

  const Model& model_;
  ql::TermFactory* terms_;
  // Name → class symbol for every class of the model. Written by the
  // constructor only; the keys view the symbol table's stable strings.
  std::unordered_map<std::string_view, Symbol> class_names_;
  // Class symbol id → its concept: the translation cache. Set under mu_,
  // read without it (base/chunked.h gives the ordering).
  ChunkedIdMap concepts_;
  // Serializes resolution (concepts_ writers) and in_progress_.
  mutable base::Mutex mu_;
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
