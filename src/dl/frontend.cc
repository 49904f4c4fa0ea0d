#include "dl/frontend.h"

#include <utility>

#include "dl/analyzer.h"

namespace oodb::dl {

Frontend::Frontend()
    : terms(std::make_unique<ql::TermFactory>(&symbols)),
      sigma(std::make_unique<schema::Schema>(terms.get())) {}

Status Frontend::Load(std::string_view source, obs::TraceContext* trace) {
  {
    obs::ScopedSpan span(trace, obs::Phase::kParse);
    OODB_ASSIGN_OR_RETURN(Model parsed, ParseAndAnalyze(source, &symbols));
    model = std::make_unique<Model>(std::move(parsed));
  }
  obs::ScopedSpan span(trace, obs::Phase::kTranslate);
  translator = std::make_unique<Translator>(*model, terms.get());
  return translator->BuildSchema(sigma.get());
}

}  // namespace oodb::dl
