#include "schema/schema.h"

#include <cassert>
#include <deque>

#include "base/flat_index.h"
#include "base/strings.h"
#include "ql/print.h"

namespace oodb::schema {

namespace {

uint64_t PairKey(Symbol a, Symbol b) { return PackKey(a.id(), b.id()); }

const std::vector<Symbol> kNoSymbols;
const std::vector<ClassRef> kNoClasses;
const std::vector<TypingAxiom> kNoTypings;

}  // namespace

Schema::Schema(ql::TermFactory* terms) : terms_(terms) {
  assert(terms != nullptr);
}

Status Schema::AddInclusion(Symbol a, ql::ConceptId d) {
  const ql::ConceptNode& n = terms_->node(d);
  if (n.kind == ql::ConceptKind::kAnd) {
    OODB_RETURN_IF_ERROR(AddInclusion(a, n.lhs));
    return AddInclusion(a, n.rhs);
  }
  return AddSimpleInclusion(a, d);
}

Status Schema::AddSimpleInclusion(Symbol a, ql::ConceptId d) {
  if (!a.valid()) return InvalidArgumentError("invalid axiom left-hand side");
  const ql::ConceptNode& n = terms_->node(d);
  switch (n.kind) {
    case ql::ConceptKind::kPrimitive:
      break;
    case ql::ConceptKind::kAll:
      if (n.attr.inverted) {
        return InvalidArgumentError(StrCat(
            "inverse attribute in schema axiom (NP-hard extension, "
            "Prop. 4.10(2)): ∀",
            ql::AttrToString(*terms_, n.attr), ".…"));
      }
      if (terms_->node(n.lhs).kind != ql::ConceptKind::kPrimitive) {
        return InvalidArgumentError(
            "∀P.C with non-primitive filler is not an SL concept");
      }
      break;
    case ql::ConceptKind::kExists: {
      if (n.path == ql::kEmptyPath || terms_->tail(n.path) != ql::kEmptyPath ||
          terms_->head(n.path).filter != terms_->Top()) {
        return InvalidArgumentError(
            "qualified or chained existential in schema axiom (NP-hard "
            "extension, Prop. 4.10(1))");
      }
      if (terms_->head(n.path).attr.inverted) {
        return InvalidArgumentError(
            "inverse attribute in schema axiom (NP-hard extension, "
            "Prop. 4.10(2))");
      }
      break;
    }
    case ql::ConceptKind::kAtMostOne:
      if (n.attr.inverted) {
        return InvalidArgumentError(
            "inverse attribute in schema axiom (NP-hard extension, "
            "Prop. 4.10(2))");
      }
      break;
    case ql::ConceptKind::kSingleton:
      return InvalidArgumentError(
          "singleton in schema axiom (NP-hard extension, Prop. 4.10(3))");
    case ql::ConceptKind::kTop:
      return Status::Ok();  // A ⊑ ⊤ is vacuous.
    case ql::ConceptKind::kAgree:
      return InvalidArgumentError("agreement is not an SL concept");
    case ql::ConceptKind::kAnd:
      assert(false && "handled by AddInclusion");
      break;
  }

  if (!seen_axioms_.insert(PackKey(a.id(), d)).second) {
    return Status::Ok();  // Duplicate axiom; Σ is a set.
  }
  inclusions_.push_back(InclusionAxiom{a, d});

  switch (n.kind) {
    case ql::ConceptKind::kPrimitive:
      supers_[a].push_back(ClassRef{n.sym, d});
      break;
    case ql::ConceptKind::kAll: {
      const ClassRef range{terms_->node(n.lhs).sym, n.lhs};
      value_restrictions_[PairKey(a, n.attr.prim)].push_back(range);
      value_restrictions_by_class_[a].emplace_back(n.attr.prim, range);
      break;
    }
    case ql::ConceptKind::kExists: {
      Symbol p = terms_->head(n.path).attr.prim;
      if (necessary_.insert(PairKey(a, p)).second) {
        necessary_attrs_[a].push_back(p);
      }
      break;
    }
    case ql::ConceptKind::kAtMostOne:
      if (functional_.insert(PairKey(a, n.attr.prim)).second) {
        functional_attrs_[a].push_back(n.attr.prim);
      }
      break;
    default:
      break;
  }
  return Status::Ok();
}

Status Schema::AddTyping(Symbol attr, Symbol domain, Symbol range) {
  if (!attr.valid() || !domain.valid() || !range.valid()) {
    return InvalidArgumentError("invalid typing axiom");
  }
  typings_.push_back(TypingAxiom{attr, domain, range,
                                 terms_->Primitive(domain),
                                 terms_->Primitive(range)});
  typings_by_attr_[attr].push_back(typings_.back());
  return Status::Ok();
}

Status Schema::AddIsA(Symbol a, Symbol super) {
  return AddInclusion(a, terms_->Primitive(super));
}

Status Schema::AddValueRestriction(Symbol a, Symbol attr, Symbol range_class) {
  return AddInclusion(
      a, terms_->All(ql::Attr{attr, false}, terms_->Primitive(range_class)));
}

Status Schema::AddNecessary(Symbol a, Symbol attr) {
  return AddInclusion(a, terms_->ExistsAttr(ql::Attr{attr, false}));
}

Status Schema::AddFunctional(Symbol a, Symbol attr) {
  return AddInclusion(a, terms_->AtMostOne(ql::Attr{attr, false}));
}

const std::vector<ClassRef>& Schema::SuperPrimitives(Symbol a) const {
  auto it = supers_.find(a);
  return it == supers_.end() ? kNoClasses : it->second;
}

const std::vector<ClassRef>& Schema::ValueRestrictions(Symbol a,
                                                       Symbol attr) const {
  auto it = value_restrictions_.find(PairKey(a, attr));
  return it == value_restrictions_.end() ? kNoClasses : it->second;
}

const std::vector<std::pair<Symbol, ClassRef>>& Schema::ValueRestrictionsOf(
    Symbol a) const {
  static const std::vector<std::pair<Symbol, ClassRef>> kNone;
  auto it = value_restrictions_by_class_.find(a);
  return it == value_restrictions_by_class_.end() ? kNone : it->second;
}

const std::vector<TypingAxiom>& Schema::TypingsOf(Symbol attr) const {
  auto it = typings_by_attr_.find(attr);
  return it == typings_by_attr_.end() ? kNoTypings : it->second;
}

bool Schema::IsFunctionalFor(Symbol a, Symbol attr) const {
  return functional_.count(PairKey(a, attr)) > 0;
}

bool Schema::IsNecessaryFor(Symbol a, Symbol attr) const {
  return necessary_.count(PairKey(a, attr)) > 0;
}

const std::vector<Symbol>& Schema::NecessaryAttrs(Symbol a) const {
  auto it = necessary_attrs_.find(a);
  return it == necessary_attrs_.end() ? kNoSymbols : it->second;
}

const std::vector<Symbol>& Schema::FunctionalAttrs(Symbol a) const {
  auto it = functional_attrs_.find(a);
  return it == functional_attrs_.end() ? kNoSymbols : it->second;
}

std::vector<Symbol> Schema::MentionedConcepts() const {
  std::unordered_set<Symbol> seen;
  std::vector<Symbol> out;
  auto add = [&](Symbol s) {
    if (seen.insert(s).second) out.push_back(s);
  };
  for (const InclusionAxiom& ax : inclusions_) {
    add(ax.lhs);
    const ql::ConceptNode& n = terms_->node(ax.rhs);
    if (n.kind == ql::ConceptKind::kPrimitive) add(n.sym);
    if (n.kind == ql::ConceptKind::kAll) add(terms_->node(n.lhs).sym);
  }
  for (const TypingAxiom& ax : typings_) {
    add(ax.domain);
    add(ax.range);
  }
  return out;
}

std::vector<Symbol> Schema::MentionedAttrs() const {
  std::unordered_set<Symbol> seen;
  std::vector<Symbol> out;
  auto add = [&](Symbol s) {
    if (seen.insert(s).second) out.push_back(s);
  };
  for (const InclusionAxiom& ax : inclusions_) {
    const ql::ConceptNode& n = terms_->node(ax.rhs);
    switch (n.kind) {
      case ql::ConceptKind::kAll:
      case ql::ConceptKind::kAtMostOne:
        add(n.attr.prim);
        break;
      case ql::ConceptKind::kExists:
        add(terms_->head(n.path).attr.prim);
        break;
      default:
        break;
    }
  }
  for (const TypingAxiom& ax : typings_) add(ax.attr);
  return out;
}

std::vector<Symbol> Schema::SuperClassesTransitive(Symbol a) const {
  std::vector<Symbol> out;
  std::unordered_set<Symbol> seen;
  std::deque<Symbol> queue = {a};
  seen.insert(a);
  while (!queue.empty()) {
    Symbol cur = queue.front();
    queue.pop_front();
    out.push_back(cur);
    for (const ClassRef& super : SuperPrimitives(cur)) {
      if (seen.insert(super.name).second) queue.push_back(super.name);
    }
  }
  return out;
}

size_t Schema::Size() const {
  size_t size = 0;
  for (const InclusionAxiom& ax : inclusions_) {
    size += 1 + terms_->ConceptSize(ax.rhs);
  }
  size += 3 * typings_.size();
  return size;
}

}  // namespace oodb::schema
