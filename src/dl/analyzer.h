// Name resolution and semantic checks: raw AST → Model.
#ifndef OODB_DL_ANALYZER_H_
#define OODB_DL_ANALYZER_H_

#include <string_view>

#include "base/status.h"
#include "base/symbol.h"
#include "dl/ast.h"
#include "dl/model.h"

namespace oodb::dl {

// Resolves `file` against `symbols`. Checks performed:
//  * duplicate class/attribute/synonym declarations
//  * unknown references: declared implicitly, with a warning in
//    Model::warnings() (footnote 2: a complete schema declares them)
//  * schema classes must not have derived/where sections
//  * attribute synonyms must not occur in schema declarations
//  * labels are unique per query and appear at most once in `where`
//    (footnote 5) and must be declared in `derived`
//  * the isA graph is acyclic
//  * constraint formulas only reference visible variables/labels/classes
Result<Model> Analyze(const ast::File& file, SymbolTable* symbols);

// Parses `source` and analyzes the tree, which borrows its names from
// `source` for the length of this call; the Model keeps none of them.
Result<Model> ParseAndAnalyze(std::string_view source, SymbolTable* symbols);

}  // namespace oodb::dl

#endif  // OODB_DL_ANALYZER_H_
