#include "db/evaluator.h"

#include <algorithm>
#include <functional>

#include "base/strings.h"

namespace oodb::db {

namespace {

// Orders equalities after all labels are bound; trivial helper.
bool WhereSatisfied(const dl::ClassDef& def,
                    const std::unordered_map<Symbol, ObjectId>& binding) {
  for (const auto& [l, r] : def.where) {
    auto li = binding.find(l);
    auto ri = binding.find(r);
    if (li == binding.end() || ri == binding.end()) return false;
    if (li->second != ri->second) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<ObjectId>> QueryEvaluator::Evaluate(
    Symbol query_class, EvalStats* stats) const {
  // The candidate pool is the smallest extent among transitive schema
  // superclasses (all objects if there is none); only that one extent is
  // built.
  Symbol smallest;
  for (Symbol super : db_.model().SuperClosure(query_class)) {
    const dl::ClassDef* def = db_.model().FindClass(super);
    if (def == nullptr || def->is_query || super == db_.model().object_class) {
      continue;
    }
    if (!smallest.valid() || db_.ClassSize(super) < db_.ClassSize(smallest)) {
      smallest = super;
    }
  }
  return EvaluateOver(query_class,
                      smallest.valid() ? db_.ClassExtent(smallest)
                                       : db_.AllObjects(),
                      stats);
}

Result<std::vector<ObjectId>> QueryEvaluator::EvaluateOver(
    Symbol query_class, const std::vector<ObjectId>& candidates,
    EvalStats* stats) const {
  std::vector<ObjectId> answers;
  for (ObjectId o : candidates) {
    OODB_ASSIGN_OR_RETURN(bool in, IsAnswer(query_class, o));
    if (in) answers.push_back(o);
  }
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  if (stats != nullptr) {
    stats->candidates_examined += candidates.size();
    stats->answers = answers.size();
  }
  return answers;
}

Result<bool> QueryEvaluator::IsAnswer(Symbol query_class, ObjectId o) const {
  Context ctx;
  return IsAnswerImpl(query_class, o, ctx);
}

Result<bool> QueryEvaluator::IsAnswerImpl(Symbol query_class, ObjectId o,
                                          Context& ctx) const {
  const dl::ClassDef* def = db_.model().FindClass(query_class);
  if (def == nullptr) {
    return NotFoundError(StrCat("unknown class '",
                                db_.symbols().Name(query_class), "'"));
  }
  if (!def->is_query) return db_.InClass(o, query_class);
  if (!ctx.in_progress.insert(query_class).second) {
    return FailedPreconditionError(
        StrCat("recursive reference to query class '",
               db_.symbols().Name(query_class), "'"));
  }
  struct Cleanup {
    Context& ctx;
    Symbol cls;
    ~Cleanup() { ctx.in_progress.erase(cls); }
  } cleanup{ctx, query_class};

  for (Symbol super : def->supers) {
    if (super == db_.model().object_class) continue;
    const dl::ClassDef* super_def = db_.model().FindClass(super);
    if (super_def != nullptr && super_def->is_query) {
      OODB_ASSIGN_OR_RETURN(bool in, IsAnswerImpl(super, o, ctx));
      if (!in) return false;
    } else if (!db_.InClass(o, super)) {
      return false;
    }
  }

  Binding binding;
  return SolvePaths(*def, o, 0, binding, ctx);
}

Result<bool> QueryEvaluator::CheckFilter(const dl::ResolvedFilter& filter,
                                         ObjectId v, Binding& binding,
                                         bool* bound_here,
                                         Context& ctx) const {
  *bound_here = false;
  switch (filter.kind) {
    case dl::ResolvedFilter::Kind::kClass: {
      if (filter.name == db_.model().object_class) return true;
      const dl::ClassDef* def = db_.model().FindClass(filter.name);
      if (def != nullptr && def->is_query) {
        return IsAnswerImpl(filter.name, v, ctx);
      }
      return db_.InClass(v, filter.name);
    }
    case dl::ResolvedFilter::Kind::kConstant: {
      auto obj = db_.FindObject(filter.name);
      return obj.has_value() && *obj == v;
    }
    case dl::ResolvedFilter::Kind::kVariable: {
      auto it = binding.find(filter.name);
      if (it != binding.end()) return it->second == v;
      binding.emplace(filter.name, v);
      *bound_here = true;
      return true;
    }
  }
  return false;
}

Result<bool> QueryEvaluator::TraverseSteps(
    const std::vector<dl::ResolvedStep>& steps, size_t index, ObjectId cur,
    Binding& binding, Context& ctx,
    const std::function<Result<bool>(ObjectId)>& on_endpoint) const {
  if (index == steps.size()) return on_endpoint(cur);
  const dl::ResolvedStep& step = steps[index];
  for (ObjectId v : db_.AttrValues(cur, step.attr)) {
    bool bound_here = false;
    OODB_ASSIGN_OR_RETURN(bool pass,
                          CheckFilter(step.filter, v, binding, &bound_here,
                                      ctx));
    if (pass) {
      OODB_ASSIGN_OR_RETURN(
          bool done, TraverseSteps(steps, index + 1, v, binding, ctx,
                                   on_endpoint));
      if (done) return true;
    }
    if (bound_here) binding.erase(step.filter.name);
  }
  return false;
}

Result<bool> QueryEvaluator::SolvePaths(const dl::ClassDef& def, ObjectId o,
                                        size_t index, Binding& binding,
                                        Context& ctx) const {
  if (index == def.derived.size()) {
    if (!WhereSatisfied(def, binding)) return false;
    if (def.constraint == nullptr) return true;
    Binding quantified;
    return EvalConstraint(*def.constraint, o, binding, quantified, ctx);
  }
  const dl::ResolvedPath& path = def.derived[index];
  return TraverseSteps(
      path.steps, 0, o, binding, ctx,
      [&](ObjectId endpoint) -> Result<bool> {
        bool bound_label = false;
        if (path.label.valid()) {
          auto it = binding.find(path.label);
          if (it != binding.end()) {
            if (it->second != endpoint) return false;
          } else {
            binding.emplace(path.label, endpoint);
            bound_label = true;
          }
        }
        OODB_ASSIGN_OR_RETURN(bool done,
                              SolvePaths(def, o, index + 1, binding, ctx));
        if (!done && bound_label) binding.erase(path.label);
        return done;
      });
}

Result<std::optional<ObjectId>> QueryEvaluator::ResolveTerm(
    const dl::CTerm& term, ObjectId self, const Binding& binding,
    const Binding& quantified) const {
  switch (term.kind) {
    case dl::CTerm::Kind::kThis:
      return std::optional<ObjectId>(self);
    case dl::CTerm::Kind::kLabel: {
      auto it = binding.find(term.name);
      if (it == binding.end()) return std::optional<ObjectId>();
      return std::optional<ObjectId>(it->second);
    }
    case dl::CTerm::Kind::kVariable: {
      auto it = quantified.find(term.name);
      if (it == quantified.end()) return std::optional<ObjectId>();
      return std::optional<ObjectId>(it->second);
    }
    case dl::CTerm::Kind::kConstant: {
      auto obj = db_.FindObject(term.name);
      if (!obj.has_value()) return std::optional<ObjectId>();
      return std::optional<ObjectId>(*obj);
    }
  }
  return std::optional<ObjectId>();
}

Result<bool> QueryEvaluator::EvalConstraint(const dl::CFormula& f,
                                            ObjectId self, Binding& binding,
                                            Binding& quantified,
                                            Context& ctx) const {
  switch (f.kind) {
    case dl::CFormula::Kind::kForall:
    case dl::CFormula::Kind::kExists: {
      const bool is_forall = f.kind == dl::CFormula::Kind::kForall;
      std::vector<ObjectId> domain = f.cls == db_.model().object_class
                                         ? db_.AllObjects()
                                         : db_.ClassExtent(f.cls);
      // Quantifier domains may also be query classes.
      const dl::ClassDef* cls_def = db_.model().FindClass(f.cls);
      if (cls_def != nullptr && cls_def->is_query) {
        std::vector<ObjectId> filtered;
        for (ObjectId o : db_.AllObjects()) {
          OODB_ASSIGN_OR_RETURN(bool in, IsAnswerImpl(f.cls, o, ctx));
          if (in) filtered.push_back(o);
        }
        domain = std::move(filtered);
      }
      auto saved = quantified.find(f.var) != quantified.end()
                       ? std::optional<ObjectId>(quantified.at(f.var))
                       : std::nullopt;
      bool result = is_forall;
      for (ObjectId o : domain) {
        quantified[f.var] = o;
        OODB_ASSIGN_OR_RETURN(
            bool inner,
            EvalConstraint(*f.children[0], self, binding, quantified, ctx));
        if (inner != is_forall) {
          result = !is_forall;
          break;
        }
      }
      if (saved.has_value()) {
        quantified[f.var] = *saved;
      } else {
        quantified.erase(f.var);
      }
      return result;
    }
    case dl::CFormula::Kind::kNot: {
      OODB_ASSIGN_OR_RETURN(
          bool inner,
          EvalConstraint(*f.children[0], self, binding, quantified, ctx));
      return !inner;
    }
    case dl::CFormula::Kind::kAnd:
    case dl::CFormula::Kind::kOr: {
      const bool is_and = f.kind == dl::CFormula::Kind::kAnd;
      for (const dl::CFormulaPtr& child : f.children) {
        OODB_ASSIGN_OR_RETURN(
            bool inner,
            EvalConstraint(*child, self, binding, quantified, ctx));
        if (inner != is_and) return !is_and;
      }
      return is_and;
    }
    case dl::CFormula::Kind::kIn: {
      OODB_ASSIGN_OR_RETURN(std::optional<ObjectId> t,
                            ResolveTerm(f.t1, self, binding, quantified));
      if (!t.has_value()) return false;
      if (f.cls == db_.model().object_class) return true;
      const dl::ClassDef* cls_def = db_.model().FindClass(f.cls);
      if (cls_def != nullptr && cls_def->is_query) {
        return IsAnswerImpl(f.cls, *t, ctx);
      }
      return db_.InClass(*t, f.cls);
    }
    case dl::CFormula::Kind::kAttr: {
      OODB_ASSIGN_OR_RETURN(std::optional<ObjectId> s,
                            ResolveTerm(f.t1, self, binding, quantified));
      OODB_ASSIGN_OR_RETURN(std::optional<ObjectId> t,
                            ResolveTerm(f.t2, self, binding, quantified));
      if (!s.has_value() || !t.has_value()) return false;
      std::vector<ObjectId> values = db_.AttrValues(*s, f.attr);
      return std::find(values.begin(), values.end(), *t) != values.end();
    }
    case dl::CFormula::Kind::kEq: {
      OODB_ASSIGN_OR_RETURN(std::optional<ObjectId> s,
                            ResolveTerm(f.t1, self, binding, quantified));
      OODB_ASSIGN_OR_RETURN(std::optional<ObjectId> t,
                            ResolveTerm(f.t2, self, binding, quantified));
      return s.has_value() && t.has_value() && *s == *t;
    }
  }
  return InternalError("unreachable constraint kind");
}

}  // namespace oodb::db
