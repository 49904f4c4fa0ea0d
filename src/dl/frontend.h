// The DL front end (paper Sect. 3.2) in one place: DL text is parsed,
// analyzed into a Model and translated into an SL schema Σ, with a
// Translator left over for the QL concepts of its classes. Everything
// that decides subsumption over a DL source — the daemon's sessions, the
// CLI, the benches, the tests and the examples — starts from one.
#ifndef OODB_DL_FRONTEND_H_
#define OODB_DL_FRONTEND_H_

#include <memory>
#include <string_view>

#include "base/status.h"
#include "base/symbol.h"
#include "dl/model.h"
#include "dl/translate.h"
#include "obs/trace.h"
#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::dl {

// Owns the front end's pieces in their borrow order: the translator
// borrows the model and the factory, Σ borrows the factory, and all of
// them borrow the symbol table, so the members are declared (and
// destroyed in reverse) in that order. Pinned in memory for the same
// reason; hold one by unique_ptr to move it.
struct Frontend {
  // An empty symbol table, factory and Σ. A caller that interns before
  // parsing (a padded id space, say) does so between this and Load.
  Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Parses and analyzes `source` (span `parse`), then builds the
  // translator and fills Σ (span `translate`). Call once. The analyzer's
  // warnings stay in model->warnings().
  Status Load(std::string_view source, obs::TraceContext* trace = nullptr);

  SymbolTable symbols;
  std::unique_ptr<ql::TermFactory> terms;
  std::unique_ptr<schema::Schema> sigma;
  // Set by Load.
  std::unique_ptr<Model> model;
  std::unique_ptr<Translator> translator;
};

}  // namespace oodb::dl

#endif  // OODB_DL_FRONTEND_H_
