#include "dl/analyzer.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "dl/parser.h"

namespace oodb::dl {

const ClassDef* Model::FindClass(Symbol name) const {
  auto it = class_index_.find(name);
  return it == class_index_.end() ? nullptr : &classes_[it->second];
}

const AttributeDef* Model::FindAttribute(Symbol name) const {
  auto it = attr_index_.find(name);
  return it == attr_index_.end() ? nullptr : &attributes_[it->second];
}

std::optional<ql::Attr> Model::ResolveAttrName(Symbol name) const {
  if (attr_index_.count(name) > 0) return ql::Attr{name, false};
  auto it = synonym_to_attr_.find(name);
  if (it != synonym_to_attr_.end()) return ql::Attr{it->second, true};
  return std::nullopt;
}

std::vector<Symbol> Model::SuperClosure(Symbol cls) const {
  std::vector<Symbol> out;
  std::vector<Symbol> stack = {cls};
  std::unordered_set<Symbol> seen;
  while (!stack.empty()) {
    Symbol cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    out.push_back(cur);
    if (const ClassDef* def = FindClass(cur)) {
      for (Symbol super : def->supers) stack.push_back(super);
    }
  }
  return out;
}

// The names the declare pass interned (Object and the declared classes,
// attributes and inverse synonyms), found again without the symbol
// table's lock: an open-addressing table of symbol ids, probed by a hash
// of the name and compared through the table's lock-free Name().
class DeclaredNames {
 public:
  DeclaredNames(const SymbolTable& symbols, size_t max_names)
      : symbols_(symbols) {
    size_t capacity = 16;
    while (capacity < 2 * max_names) capacity *= 2;
    slots_.assign(capacity, 0);
  }

  void Add(Symbol s) {
    size_t slot = SlotOf(symbols_.Name(s));
    while (slots_[slot] != 0 && slots_[slot] != s.id()) slot = Next(slot);
    slots_[slot] = s.id();
  }

  // The declared symbol named `name`, or the invalid symbol.
  Symbol Find(std::string_view name) const {
    for (size_t slot = SlotOf(name); slots_[slot] != 0; slot = Next(slot)) {
      if (symbols_.Name(Symbol(slots_[slot])) == name) {
        return Symbol(slots_[slot]);
      }
    }
    return Symbol();
  }

 private:
  size_t SlotOf(std::string_view name) const {
    return std::hash<std::string_view>()(name) & (slots_.size() - 1);
  }
  size_t Next(size_t slot) const { return (slot + 1) & (slots_.size() - 1); }

  const SymbolTable& symbols_;
  std::vector<uint32_t> slots_;  // symbol ids; 0 marks an empty slot
};

class Analyzer {
 public:
  Analyzer(const ast::File& file, SymbolTable* symbols)
      : file_(file),
        symbols_(symbols),
        // Object, then each class, attribute and inverse synonym.
        declared_(*symbols, 1 + file.classes.size() +
                                2 * file.attributes.size()) {}

  Result<Model> Run() {
    // Sized for the declared names; implicit declarations may add more.
    model_.classes_.reserve(1 + file_.classes.size());
    model_.class_index_.reserve(1 + file_.classes.size());
    model_.attributes_.reserve(file_.attributes.size());
    model_.attr_index_.reserve(file_.attributes.size());
    model_.object_class = symbols_->Intern("Object");
    declared_.Add(model_.object_class);
    // The builtin most-general class.
    AddClass(model_.object_class, /*is_query=*/false, /*implicit=*/false);

    OODB_RETURN_IF_ERROR(DeclarePass());
    OODB_RETURN_IF_ERROR(ResolvePass());
    OODB_RETURN_IF_ERROR(CheckAcyclicSupers());
    return std::move(model_);
  }

 private:
  // --- declaration pass ----------------------------------------------------

  size_t AddClass(Symbol name, bool is_query, bool implicit) {
    ClassDef def;
    def.name = name;
    def.is_query = is_query;
    def.implicit = implicit;
    model_.classes_.push_back(std::move(def));
    size_t index = model_.classes_.size() - 1;
    model_.class_index_.emplace(name, index);
    return index;
  }

  size_t AddAttribute(Symbol name, bool implicit) {
    AttributeDef def;
    def.name = name;
    def.domain = model_.object_class;
    def.range = model_.object_class;
    def.implicit = implicit;
    model_.attributes_.push_back(std::move(def));
    size_t index = model_.attributes_.size() - 1;
    model_.attr_index_.emplace(name, index);
    return index;
  }

  // Interns every declared name once, in source order (classes, then
  // attributes, then synonyms), and declares it. The declared class i sits
  // at classes_[1 + i], after Object, and the declared attribute i at
  // attributes_[i], whose name and inverse the resolve pass reads back.
  Status DeclarePass() {
    for (const ast::ClassDecl& decl : file_.classes) {
      Symbol name = symbols_->Intern(decl.name);
      if (model_.class_index_.count(name) > 0) {
        return AlreadyExistsError(StrCat("line ", decl.line,
                                         ": duplicate class '", decl.name,
                                         "'"));
      }
      AddClass(name, decl.is_query, /*implicit=*/false);
      declared_.Add(name);
    }
    for (const ast::AttributeDecl& decl : file_.attributes) {
      Symbol name = symbols_->Intern(decl.name);
      if (model_.attr_index_.count(name) > 0) {
        return AlreadyExistsError(StrCat("line ", decl.line,
                                         ": duplicate attribute '", decl.name,
                                         "'"));
      }
      if (model_.class_index_.count(name) > 0) {
        return AlreadyExistsError(StrCat("line ", decl.line, ": '", decl.name,
                                         "' is already a class name"));
      }
      AddAttribute(name, /*implicit=*/false);
      declared_.Add(name);
    }
    // Synonyms after all attributes are known.
    for (size_t i = 0; i < file_.attributes.size(); ++i) {
      const ast::AttributeDecl& decl = file_.attributes[i];
      if (decl.inverse.empty()) continue;
      Symbol syn = symbols_->Intern(decl.inverse);
      if (model_.attr_index_.count(syn) > 0 ||
          model_.synonym_to_attr_.count(syn) > 0) {
        return AlreadyExistsError(
            StrCat("line ", decl.line, ": inverse synonym '", decl.inverse,
                   "' collides with an existing attribute or synonym"));
      }
      model_.attributes_[i].inverse = syn;
      model_.synonym_to_attr_.emplace(syn, model_.attributes_[i].name);
      declared_.Add(syn);
    }
    return Status::Ok();
  }

  // --- resolution helpers ---------------------------------------------------

  // A declared name without the table's lock; any other name (an implicit
  // declaration, a label, a constant or a variable) is interned.
  Symbol Resolve(std::string_view name) {
    Symbol s = declared_.Find(name);
    return s.valid() ? s : symbols_->Intern(name);
  }

  Result<Symbol> ResolveClass(std::string_view name, int line) {
    Symbol s = Resolve(name);
    if (model_.class_index_.count(s) > 0) return s;
    AddClass(s, /*is_query=*/false, /*implicit=*/true);
    model_.warnings_.push_back(
        StrCat("line ", line, ": class '", name, "' implicitly declared"));
    return s;
  }

  Result<Symbol> ResolvePrimitiveAttr(std::string_view name, int line) {
    Symbol s = Resolve(name);
    if (model_.attr_index_.count(s) > 0) return s;
    if (model_.synonym_to_attr_.count(s) > 0) {
      // Paper Sect. 2.1: synonyms may not occur in schema declarations.
      return InvalidArgumentError(
          StrCat("line ", line, ": inverse synonym '", name,
                 "' may not occur in a schema declaration"));
    }
    AddAttribute(s, /*implicit=*/true);
    model_.warnings_.push_back(
        StrCat("line ", line, ": attribute '", name, "' implicitly declared"));
    return s;
  }

  Result<ql::Attr> ResolvePathAttr(std::string_view name, int line) {
    Symbol s = Resolve(name);
    if (auto attr = model_.ResolveAttrName(s)) return *attr;
    AddAttribute(s, /*implicit=*/true);
    model_.warnings_.push_back(
        StrCat("line ", line, ": attribute '", name, "' implicitly declared"));
    return ql::Attr{s, false};
  }

  // --- resolve pass ----------------------------------------------------------

  Status ResolvePass() {
    for (size_t i = 0; i < file_.attributes.size(); ++i) {
      const ast::AttributeDecl& decl = file_.attributes[i];
      AttributeDef& def = model_.attributes_[i];
      if (!decl.domain.empty()) {
        OODB_ASSIGN_OR_RETURN(def.domain, ResolveClass(decl.domain, decl.line));
      }
      if (!decl.range.empty()) {
        OODB_ASSIGN_OR_RETURN(def.range, ResolveClass(decl.range, decl.line));
      }
    }
    for (size_t i = 0; i < file_.classes.size(); ++i) {
      OODB_RETURN_IF_ERROR(ResolveClassDecl(file_.classes[i], 1 + i));
    }
    return Status::Ok();
  }

  Status ResolveClassDecl(const ast::ClassDecl& decl, size_t index) {
    // Resolution may add implicit classes (invalidating references), so
    // work on the definition moved out and move it back at the end; only
    // its is_query flag is read in between (a class may be its own super).
    ClassDef def = std::move(model_.classes_[index]);

    for (std::string_view super : ast::Slice(file_.supers, decl.supers)) {
      OODB_ASSIGN_OR_RETURN(Symbol s, ResolveClass(super, decl.line));
      if (!def.is_query) {
        const ClassDef* super_def = model_.FindClass(s);
        if (super_def != nullptr && super_def->is_query) {
          return InvalidArgumentError(
              StrCat("line ", decl.line, ": schema class '", decl.name,
                     "' cannot specialize query class '", super, "'"));
        }
      }
      def.supers.push_back(s);
    }

    if (!decl.derived.empty() && !def.is_query) {
      return InvalidArgumentError(
          StrCat("line ", decl.line, ": schema class '", decl.name,
                 "' cannot have a derived section"));
    }
    if (!decl.where.empty() && !def.is_query) {
      return InvalidArgumentError(
          StrCat("line ", decl.line, ": schema class '", decl.name,
                 "' cannot have a where section"));
    }
    if (def.is_query && !decl.attrs.empty()) {
      model_.warnings_.push_back(
          StrCat("line ", decl.line, ": output attributes of query class '",
                 decl.name, "' are ignored (paper footnote 3)"));
    }

    if (!def.is_query) {
      for (const ast::AttrEntry& entry : ast::Slice(file_.attrs, decl.attrs)) {
        ClassDef::AttrSpec spec;
        OODB_ASSIGN_OR_RETURN(spec.attr,
                              ResolvePrimitiveAttr(entry.attr, entry.line));
        OODB_ASSIGN_OR_RETURN(spec.range,
                              ResolveClass(entry.range, entry.line));
        spec.necessary = entry.necessary;
        spec.single = entry.single;
        def.attrs.push_back(spec);
      }
    }

    // Derived labeled paths.
    def.derived.reserve(decl.derived.size());
    std::unordered_set<Symbol> labels;
    for (const ast::DerivedPath& path :
         ast::Slice(file_.derived, decl.derived)) {
      ResolvedPath resolved;
      if (!path.label.empty()) {
        resolved.label = symbols_->Intern(path.label);
        if (!labels.insert(resolved.label).second) {
          return AlreadyExistsError(StrCat("line ", path.line,
                                           ": duplicate label '", path.label,
                                           "'"));
        }
      }
      if (path.steps.empty()) {
        return InvalidArgumentError(
            StrCat("line ", path.line, ": empty path"));
      }
      resolved.steps.reserve(path.steps.size());
      for (const ast::PathStep& step : ast::Slice(file_.steps, path.steps)) {
        ResolvedStep rs;
        OODB_ASSIGN_OR_RETURN(rs.attr, ResolvePathAttr(step.attr, step.line));
        switch (step.filter_kind) {
          case ast::PathStep::Filter::kNone:
            rs.filter = {ResolvedFilter::Kind::kClass, model_.object_class};
            break;
          case ast::PathStep::Filter::kClass: {
            OODB_ASSIGN_OR_RETURN(Symbol cls,
                                  ResolveClass(step.filter, step.line));
            rs.filter = {ResolvedFilter::Kind::kClass, cls};
            break;
          }
          case ast::PathStep::Filter::kConstant:
            rs.filter = {ResolvedFilter::Kind::kConstant,
                         symbols_->Intern(step.filter)};
            break;
          case ast::PathStep::Filter::kVariable:
            rs.filter = {ResolvedFilter::Kind::kVariable,
                         symbols_->Intern(step.filter)};
            def.has_path_variables = true;
            break;
        }
        resolved.steps.push_back(rs);
      }
      def.derived.push_back(std::move(resolved));
    }

    // Where clause: labels must exist; each label at most once overall
    // (paper footnote 5).
    std::unordered_set<Symbol> where_used;
    for (const ast::WhereEq& eq : ast::Slice(file_.where, decl.where)) {
      Symbol l = symbols_->Intern(eq.lhs);
      Symbol r = symbols_->Intern(eq.rhs);
      for (Symbol s : {l, r}) {
        if (labels.count(s) == 0) {
          return NotFoundError(StrCat("line ", eq.line, ": label '",
                                      symbols_->Name(s),
                                      "' is not declared in derived"));
        }
        if (!where_used.insert(s).second) {
          return InvalidArgumentError(
              StrCat("line ", eq.line, ": label '", symbols_->Name(s),
                     "' occurs more than once in where (footnote 5)"));
        }
      }
      def.where.emplace_back(l, r);
    }

    if (decl.constraint != nullptr) {
      std::vector<Symbol> quantified;
      OODB_ASSIGN_OR_RETURN(
          def.constraint,
          ResolveFormula(*decl.constraint, labels, quantified));
    }

    model_.classes_[index] = std::move(def);
    return Status::Ok();
  }

  Result<CTerm> ResolveTerm(const ast::Term& term,
                            const std::unordered_set<Symbol>& labels,
                            const std::vector<Symbol>& quantified) {
    if (term.kind == ast::Term::Kind::kThis) {
      return CTerm{CTerm::Kind::kThis, Symbol()};
    }
    Symbol s = symbols_->Intern(term.name);
    if (std::find(quantified.begin(), quantified.end(), s) !=
        quantified.end()) {
      return CTerm{CTerm::Kind::kVariable, s};
    }
    if (labels.count(s) > 0) return CTerm{CTerm::Kind::kLabel, s};
    return CTerm{CTerm::Kind::kConstant, s};
  }

  Result<CFormulaPtr> ResolveFormula(const ast::Formula& f,
                                     const std::unordered_set<Symbol>& labels,
                                     std::vector<Symbol>& quantified) {
    auto out = std::make_shared<CFormula>();
    switch (f.kind) {
      case ast::Formula::Kind::kForall:
      case ast::Formula::Kind::kExists: {
        out->kind = f.kind == ast::Formula::Kind::kForall
                        ? CFormula::Kind::kForall
                        : CFormula::Kind::kExists;
        out->var = symbols_->Intern(f.var);
        OODB_ASSIGN_OR_RETURN(out->cls, ResolveClass(f.cls, f.line));
        quantified.push_back(out->var);
        OODB_ASSIGN_OR_RETURN(CFormulaPtr body,
                              ResolveFormula(*f.children[0], labels,
                                             quantified));
        quantified.pop_back();
        out->children.push_back(std::move(body));
        break;
      }
      case ast::Formula::Kind::kNot:
      case ast::Formula::Kind::kAnd:
      case ast::Formula::Kind::kOr: {
        out->kind = f.kind == ast::Formula::Kind::kNot ? CFormula::Kind::kNot
                    : f.kind == ast::Formula::Kind::kAnd
                        ? CFormula::Kind::kAnd
                        : CFormula::Kind::kOr;
        for (const ast::FormulaPtr& child : f.children) {
          OODB_ASSIGN_OR_RETURN(CFormulaPtr c,
                                ResolveFormula(*child, labels, quantified));
          out->children.push_back(std::move(c));
        }
        break;
      }
      case ast::Formula::Kind::kIn: {
        out->kind = CFormula::Kind::kIn;
        OODB_ASSIGN_OR_RETURN(out->t1, ResolveTerm(f.t1, labels, quantified));
        OODB_ASSIGN_OR_RETURN(out->cls, ResolveClass(f.cls, f.line));
        break;
      }
      case ast::Formula::Kind::kAttr: {
        out->kind = CFormula::Kind::kAttr;
        OODB_ASSIGN_OR_RETURN(out->t1, ResolveTerm(f.t1, labels, quantified));
        OODB_ASSIGN_OR_RETURN(out->t2, ResolveTerm(f.t2, labels, quantified));
        OODB_ASSIGN_OR_RETURN(out->attr, ResolvePathAttr(f.attr, f.line));
        break;
      }
      case ast::Formula::Kind::kEq: {
        out->kind = CFormula::Kind::kEq;
        OODB_ASSIGN_OR_RETURN(out->t1, ResolveTerm(f.t1, labels, quantified));
        OODB_ASSIGN_OR_RETURN(out->t2, ResolveTerm(f.t2, labels, quantified));
        break;
      }
    }
    return CFormulaPtr(std::move(out));
  }

  // Depth first up the supers of each class in turn, as a recursion over
  // classes() and each supers list in order would go: the first class met
  // again on the current path is the one the error names.
  Status CheckAcyclicSupers() {
    enum class Mark : uint8_t { kWhite, kGray, kBlack };
    const std::vector<ClassDef>& classes = model_.classes_;
    std::vector<Mark> marks(classes.size(), Mark::kWhite);
    // The current path: (class index, next position in its supers).
    std::vector<std::pair<size_t, size_t>> path;
    for (size_t root = 0; root < classes.size(); ++root) {
      if (marks[root] != Mark::kWhite) continue;
      marks[root] = Mark::kGray;
      path.emplace_back(root, 0);
      while (!path.empty()) {
        const size_t cls = path.back().first;
        const std::vector<Symbol>& supers = classes[cls].supers;
        if (path.back().second == supers.size()) {
          marks[cls] = Mark::kBlack;
          path.pop_back();
          continue;
        }
        const Symbol super = supers[path.back().second++];
        const size_t next = model_.class_index_.find(super)->second;
        if (marks[next] == Mark::kGray) {
          return InvalidArgumentError(StrCat("isA cycle through class '",
                                             symbols_->Name(super), "'"));
        }
        if (marks[next] == Mark::kWhite) {
          marks[next] = Mark::kGray;
          path.emplace_back(next, 0);
        }
      }
    }
    return Status::Ok();
  }

  const ast::File& file_;
  SymbolTable* symbols_;
  DeclaredNames declared_;
  Model model_;
};

Result<Model> Analyze(const ast::File& file, SymbolTable* symbols) {
  Analyzer analyzer(file, symbols);
  return analyzer.Run();
}

Result<Model> ParseAndAnalyze(std::string_view source, SymbolTable* symbols) {
  OODB_ASSIGN_OR_RETURN(ast::File file, ParseFile(source));
  return Analyze(file, symbols);
}

}  // namespace oodb::dl
