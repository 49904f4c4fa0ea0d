// Recursive-descent parser for DL source (grammar of paper Sect. 2,
// Figures 1, 3, 5). Produces the raw AST; name resolution happens in the
// analyzer.
#ifndef OODB_DL_PARSER_H_
#define OODB_DL_PARSER_H_

#include <string_view>

#include "base/status.h"
#include "dl/ast.h"

namespace oodb::dl {

// Parses a whole DL source file. The tree's names are views into
// `source`, which must outlive it.
Result<ast::File> ParseFile(std::string_view source);

// Parses a single constraint formula (for tests and interactive use), with
// names borrowed from `source` as ParseFile's.
Result<ast::FormulaPtr> ParseFormula(std::string_view source);

}  // namespace oodb::dl

#endif  // OODB_DL_PARSER_H_
