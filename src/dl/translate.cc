#include "dl/translate.h"

#include <functional>
#include <optional>
#include <unordered_set>

#include "base/strings.h"
#include "base/sync.h"

namespace oodb::dl {

namespace {

using ql::FolTerm;
using ql::FormulaPtr;

// Environment for constraint-formula translation: how to render `this`,
// labels and quantified variables.
struct CFolEnv {
  FolTerm this_term;
  std::unordered_map<Symbol, FolTerm> bindings;  // labels + quantified vars
};

FolTerm CTermToFol(const CTerm& t, const CFolEnv& env) {
  switch (t.kind) {
    case CTerm::Kind::kThis:
      return env.this_term;
    case CTerm::Kind::kVariable:
    case CTerm::Kind::kLabel: {
      auto it = env.bindings.find(t.name);
      if (it != env.bindings.end()) return it->second;
      return FolTerm::Var(t.name);
    }
    case CTerm::Kind::kConstant:
      return FolTerm::Const(t.name);
  }
  return FolTerm::Const(t.name);
}

FormulaPtr AttrAtomFol(const ql::Attr& attr, FolTerm s, FolTerm t) {
  if (attr.inverted) return ql::MakeBinary(attr.prim, t, s);
  return ql::MakeBinary(attr.prim, s, t);
}

FormulaPtr CFormToFol(const CFormula& f, CFolEnv& env, Symbol object_class) {
  switch (f.kind) {
    case CFormula::Kind::kForall:
    case CFormula::Kind::kExists: {
      FolTerm var = FolTerm::Var(f.var);
      auto saved = env.bindings.find(f.var) != env.bindings.end()
                       ? std::optional<FolTerm>(env.bindings.at(f.var))
                       : std::nullopt;
      env.bindings[f.var] = var;
      FormulaPtr body = CFormToFol(*f.children[0], env, object_class);
      if (saved.has_value()) {
        env.bindings[f.var] = *saved;
      } else {
        env.bindings.erase(f.var);
      }
      // Quantifiers range over classes (paper Sect. 2.1); Object needs no
      // guard.
      FormulaPtr guard = f.cls == object_class
                             ? ql::MakeTrue()
                             : ql::MakeUnary(f.cls, var);
      if (f.kind == CFormula::Kind::kForall) {
        return ql::MakeForall(f.var, ql::MakeImplies(guard, body));
      }
      return ql::MakeExists(f.var, ql::MakeAnd({guard, body}));
    }
    case CFormula::Kind::kNot:
      return ql::MakeNot(CFormToFol(*f.children[0], env, object_class));
    case CFormula::Kind::kAnd:
    case CFormula::Kind::kOr: {
      std::vector<FormulaPtr> parts;
      for (const CFormulaPtr& c : f.children) {
        parts.push_back(CFormToFol(*c, env, object_class));
      }
      return f.kind == CFormula::Kind::kAnd ? ql::MakeAnd(std::move(parts))
                                            : ql::MakeOr(std::move(parts));
    }
    case CFormula::Kind::kIn:
      if (f.cls == object_class) return ql::MakeTrue();
      return ql::MakeUnary(f.cls, CTermToFol(f.t1, env));
    case CFormula::Kind::kAttr:
      return AttrAtomFol(f.attr, CTermToFol(f.t1, env),
                         CTermToFol(f.t2, env));
    case CFormula::Kind::kEq:
      return ql::MakeEq(CTermToFol(f.t1, env), CTermToFol(f.t2, env));
  }
  return ql::MakeTrue();
}

}  // namespace

Status Translator::BuildSchema(schema::Schema* sigma) {
  Symbol object = model_.object_class;
  for (const ClassDef& def : model_.classes()) {
    if (def.is_query || def.name == object) continue;
    for (Symbol super : def.supers) {
      if (super == object) continue;
      OODB_RETURN_IF_ERROR(sigma->AddIsA(def.name, super));
    }
    for (const ClassDef::AttrSpec& spec : def.attrs) {
      if (spec.range != object) {
        OODB_RETURN_IF_ERROR(
            sigma->AddValueRestriction(def.name, spec.attr, spec.range));
      }
      if (spec.necessary) {
        OODB_RETURN_IF_ERROR(sigma->AddNecessary(def.name, spec.attr));
      }
      if (spec.single) {
        OODB_RETURN_IF_ERROR(sigma->AddFunctional(def.name, spec.attr));
      }
    }
  }
  for (const AttributeDef& def : model_.attributes()) {
    if (def.domain == object && def.range == object) continue;
    OODB_RETURN_IF_ERROR(sigma->AddTyping(def.name, def.domain, def.range));
  }
  return Status::Ok();
}

ql::ConceptId Translator::FilterConcept(
    const ResolvedFilter& filter,
    std::unordered_map<Symbol, Symbol>* skolems) {
  switch (filter.kind) {
    case ResolvedFilter::Kind::kClass: {
      if (filter.name == model_.object_class) return terms_->Top();
      // A filter may name a query class: inline its (structural) concept.
      // Recursive references degrade to the primitive name, which is
      // sound (the membership condition is merely weakened).
      const ClassDef* def = model_.FindClass(filter.name);
      if (def != nullptr && def->is_query && !in_progress_[filter.name]) {
        auto inlined = ClassConceptLocked(filter.name);
        if (inlined.ok()) return *inlined;
      }
      return terms_->Primitive(filter.name);
    }
    case ResolvedFilter::Kind::kConstant:
      return terms_->Singleton(filter.name);
    case ResolvedFilter::Kind::kVariable: {
      auto [it, inserted] = skolems->emplace(filter.name, Symbol());
      if (inserted) {
        it->second = terms_->symbols().Fresh(
            StrCat("sk_", terms_->symbols().Name(filter.name)));
      }
      return terms_->Singleton(it->second);
    }
  }
  return terms_->Top();
}

ql::PathId Translator::PathOf(const ResolvedPath& path,
                              std::unordered_map<Symbol, Symbol>* skolems) {
  std::vector<ql::Restriction> restrictions;
  restrictions.reserve(path.steps.size());
  for (const ResolvedStep& step : path.steps) {
    restrictions.push_back(
        ql::Restriction{step.attr, FilterConcept(step.filter, skolems)});
  }
  return terms_->MakePath(std::move(restrictions));
}

Translator::Translator(const Model& model, ql::TermFactory* terms)
    : model_(model), terms_(terms) {
  class_names_.reserve(model_.classes().size());
  for (const ClassDef& def : model_.classes()) {
    class_names_.emplace(terms_->symbols().Name(def.name), def.name);
  }
}

Symbol Translator::FindClass(std::string_view name) const {
  const auto it = class_names_.find(name);
  return it == class_names_.end() ? Symbol() : it->second;
}

ql::ConceptId Translator::ResolvedConcept(std::string_view name) const {
  const Symbol cls = FindClass(name);
  if (!cls.valid()) return ql::kInvalidConcept;
  const uint32_t published = concepts_.Find(cls.id());
  return published == ChunkedIdMap::kAbsent ? ql::kInvalidConcept
                                            : published;
}

Result<ql::ConceptId> Translator::ClassConcept(Symbol cls) {
  const uint32_t published = concepts_.Find(cls.id());
  if (published != ChunkedIdMap::kAbsent) return published;
  base::MutexLock lock(&mu_);
  return ClassConceptLocked(cls);
}

Result<ql::ConceptId> Translator::ClassConcept(std::string_view name) {
  const Symbol cls = FindClass(name);
  if (!cls.valid()) {
    return NotFoundError(StrCat("no class named '", name, "'"));
  }
  return ClassConcept(cls);
}

Result<ql::ConceptId> Translator::ClassConceptLocked(Symbol cls) {
  const uint32_t published = concepts_.Find(cls.id());
  if (published != ChunkedIdMap::kAbsent) return published;
  const ClassDef* def = model_.FindClass(cls);
  if (def == nullptr) {
    return NotFoundError(
        StrCat("no class named '", terms_->symbols().Name(cls), "'"));
  }
  ql::ConceptId concept_id = ql::kInvalidConcept;
  if (cls == model_.object_class) {
    concept_id = terms_->Top();
  } else if (!def->is_query) {
    concept_id = terms_->Primitive(cls);
  } else {
    OODB_ASSIGN_OR_RETURN(concept_id, TranslateQuery(*def));
  }
  concepts_.Set(cls.id(), concept_id);
  return concept_id;
}

Result<ql::ConceptId> Translator::TranslateQuery(const ClassDef& def) {
  in_progress_[def.name] = true;
  std::unordered_map<Symbol, Symbol> skolems;
  std::vector<ql::ConceptId> conjuncts;
  for (Symbol super : def.supers) {
    OODB_ASSIGN_OR_RETURN(ql::ConceptId c, ClassConceptLocked(super));
    conjuncts.push_back(c);
  }

  // Labels equated in the where clause contribute a path agreement; all
  // other derived paths contribute plain existentials.
  std::unordered_map<Symbol, const ResolvedPath*> by_label;
  for (const ResolvedPath& path : def.derived) {
    if (path.label.valid()) by_label.emplace(path.label, &path);
  }
  std::unordered_set<Symbol> in_where;
  for (const auto& [l, r] : def.where) {
    in_where.insert(l);
    in_where.insert(r);
  }
  for (const ResolvedPath& path : def.derived) {
    if (path.label.valid() && in_where.count(path.label) > 0) continue;
    conjuncts.push_back(terms_->Exists(PathOf(path, &skolems)));
  }
  for (const auto& [l, r] : def.where) {
    conjuncts.push_back(terms_->AgreePair(PathOf(*by_label.at(l), &skolems),
                                          PathOf(*by_label.at(r), &skolems)));
  }

  ql::ConceptId concept_id = terms_->AndAll(conjuncts);
  in_progress_[def.name] = false;
  return concept_id;
}

bool IsDeeplyStructural(const Model& model, Symbol query_class) {
  std::unordered_set<Symbol> visited;
  std::function<bool(Symbol)> visit = [&](Symbol cls) {
    const ClassDef* def = model.FindClass(cls);
    if (def == nullptr || !def->is_query) return true;  // schema class
    if (!visited.insert(cls).second) return true;       // cycle: checked
    if (!def->IsStructural()) return false;
    for (Symbol super : def->supers) {
      if (!visit(super)) return false;
    }
    for (const ResolvedPath& path : def->derived) {
      for (const ResolvedStep& step : path.steps) {
        if (step.filter.kind == ResolvedFilter::Kind::kClass &&
            !visit(step.filter.name)) {
          return false;
        }
      }
    }
    return true;
  };
  return visit(query_class);
}

// --------------------------------------------------------------------------
// FOL renderings (Figures 2 and 4)
// --------------------------------------------------------------------------

Result<std::vector<FormulaPtr>> Translator::SchemaClassToFol(Symbol cls) {
  const ClassDef* def = model_.FindClass(cls);
  if (def == nullptr || def->is_query) {
    return InvalidArgumentError("SchemaClassToFol expects a schema class");
  }
  SymbolTable& symbols = terms_->symbols();
  Symbol x = symbols.Intern("x");
  Symbol y = symbols.Intern("y");
  Symbol z = symbols.Intern("z");
  FolTerm xt = FolTerm::Var(x);
  FolTerm yt = FolTerm::Var(y);
  FolTerm zt = FolTerm::Var(z);
  std::vector<FormulaPtr> out;

  for (Symbol super : def->supers) {
    if (super == model_.object_class) continue;
    out.push_back(ql::MakeForall(
        x, ql::MakeImplies(ql::MakeUnary(cls, xt), ql::MakeUnary(super, xt))));
  }
  for (const ClassDef::AttrSpec& spec : def->attrs) {
    if (spec.range != model_.object_class) {
      out.push_back(ql::MakeForall(
          x, ql::MakeForall(
                 y, ql::MakeImplies(
                        ql::MakeAnd({ql::MakeUnary(cls, xt),
                                     ql::MakeBinary(spec.attr, xt, yt)}),
                        ql::MakeUnary(spec.range, yt)))));
    }
    if (spec.necessary) {
      out.push_back(ql::MakeForall(
          x, ql::MakeImplies(
                 ql::MakeUnary(cls, xt),
                 ql::MakeExists(y, ql::MakeBinary(spec.attr, xt, yt)))));
    }
    if (spec.single) {
      out.push_back(ql::MakeForall(
          x,
          ql::MakeForall(
              y, ql::MakeForall(
                     z, ql::MakeImplies(
                            ql::MakeAnd({ql::MakeUnary(cls, xt),
                                         ql::MakeBinary(spec.attr, xt, yt),
                                         ql::MakeBinary(spec.attr, xt, zt)}),
                            ql::MakeEq(yt, zt))))));
    }
  }
  if (def->constraint != nullptr) {
    CFolEnv env{xt, {}};
    out.push_back(ql::MakeForall(
        x, ql::MakeImplies(
               ql::MakeUnary(cls, xt),
               CFormToFol(*def->constraint, env, model_.object_class))));
  }
  return out;
}

Result<std::vector<FormulaPtr>> Translator::AttributeToFol(Symbol attr) {
  const AttributeDef* def = model_.FindAttribute(attr);
  if (def == nullptr) {
    return NotFoundError(StrCat("unknown attribute '",
                                terms_->symbols().Name(attr), "'"));
  }
  SymbolTable& symbols = terms_->symbols();
  Symbol x = symbols.Intern("x");
  Symbol y = symbols.Intern("y");
  FolTerm xt = FolTerm::Var(x);
  FolTerm yt = FolTerm::Var(y);
  std::vector<FormulaPtr> out;
  std::vector<FormulaPtr> typing;
  if (def->domain != model_.object_class) {
    typing.push_back(ql::MakeUnary(def->domain, xt));
  }
  if (def->range != model_.object_class) {
    typing.push_back(ql::MakeUnary(def->range, yt));
  }
  if (!typing.empty()) {
    out.push_back(ql::MakeForall(
        x, ql::MakeForall(y, ql::MakeImplies(ql::MakeBinary(attr, xt, yt),
                                             ql::MakeAnd(std::move(typing))))));
  }
  if (def->inverse.valid()) {
    // a(x,y) ⇔ syn(y,x), rendered as two implications.
    out.push_back(ql::MakeForall(
        x, ql::MakeForall(
               y, ql::MakeAnd(
                      {ql::MakeImplies(ql::MakeBinary(attr, xt, yt),
                                       ql::MakeBinary(def->inverse, yt, xt)),
                       ql::MakeImplies(ql::MakeBinary(def->inverse, yt, xt),
                                       ql::MakeBinary(attr, xt, yt))}))));
  }
  return out;
}

Result<FormulaPtr> Translator::QueryClassToFol(Symbol query_class) {
  const ClassDef* def = model_.FindClass(query_class);
  if (def == nullptr || !def->is_query) {
    return InvalidArgumentError("QueryClassToFol expects a query class");
  }
  SymbolTable& symbols = terms_->symbols();
  Symbol t = symbols.Intern("t");
  FolTerm tt = FolTerm::Var(t);
  ql::FolVarGen vars(&symbols);

  std::vector<FormulaPtr> conjuncts;
  for (Symbol super : def->supers) {
    if (super == model_.object_class) continue;
    const ClassDef* super_def = model_.FindClass(super);
    if (super_def != nullptr && super_def->is_query) {
      OODB_ASSIGN_OR_RETURN(FormulaPtr sub, QueryClassToFol(super));
      conjuncts.push_back(std::move(sub));
    } else {
      conjuncts.push_back(ql::MakeUnary(super, tt));
    }
  }

  // Path variables and labels become existential variables of the formula.
  CFolEnv env{tt, {}};
  std::vector<Symbol> existentials;
  auto bind = [&](Symbol name) {
    if (env.bindings.count(name) > 0) return;
    env.bindings.emplace(name, FolTerm::Var(name));
    existentials.push_back(name);
  };
  for (const ResolvedPath& path : def->derived) {
    if (path.label.valid()) bind(path.label);
    for (const ResolvedStep& step : path.steps) {
      if (step.filter.kind == ResolvedFilter::Kind::kVariable) {
        bind(step.filter.name);
      }
    }
  }

  // Path chains: labels name the endpoint of their path.
  for (const ResolvedPath& path : def->derived) {
    FolTerm cur = tt;
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const ResolvedStep& step = path.steps[i];
      FolTerm next;
      if (i + 1 == path.steps.size() && path.label.valid()) {
        next = env.bindings.at(path.label);
      } else {
        Symbol fresh = vars.Fresh();
        existentials.push_back(fresh);  // quantified with the labels
        next = FolTerm::Var(fresh);
      }
      conjuncts.push_back(AttrAtomFol(step.attr, cur, next));
      switch (step.filter.kind) {
        case ResolvedFilter::Kind::kClass:
          if (step.filter.name != model_.object_class) {
            conjuncts.push_back(ql::MakeUnary(step.filter.name, next));
          }
          break;
        case ResolvedFilter::Kind::kConstant:
          conjuncts.push_back(
              ql::MakeEq(next, FolTerm::Const(step.filter.name)));
          break;
        case ResolvedFilter::Kind::kVariable:
          conjuncts.push_back(ql::MakeEq(next, env.bindings.at(
                                                   step.filter.name)));
          break;
      }
      cur = next;
    }
  }

  for (const auto& [l, r] : def->where) {
    conjuncts.push_back(ql::MakeEq(env.bindings.at(l), env.bindings.at(r)));
  }
  if (def->constraint != nullptr) {
    conjuncts.push_back(CFormToFol(*def->constraint, env,
                                   model_.object_class));
  }

  FormulaPtr body = ql::MakeAnd(std::move(conjuncts));
  for (size_t i = existentials.size(); i-- > 0;) {
    body = ql::MakeExists(existentials[i], std::move(body));
  }
  return body;
}

}  // namespace oodb::dl
