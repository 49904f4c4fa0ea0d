#include "db/database.h"

#include <algorithm>

#include "base/strings.h"

namespace oodb::db {

Database::Database(const dl::Model& model, SymbolTable* symbols)
    : model_(model), symbols_(symbols) {}

Result<ObjectId> Database::CreateObject(std::string_view name) {
  Symbol s = symbols_->Intern(name);
  if (by_name_.count(s) > 0) {
    return AlreadyExistsError(StrCat("object '", name, "' already exists"));
  }
  ObjectId o = static_cast<ObjectId>(object_names_.size());
  object_names_.push_back(s);
  by_name_.emplace(s, o);
  Touch();
  return o;
}

std::optional<ObjectId> Database::FindObject(Symbol name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

Symbol Database::ObjectName(ObjectId o) const { return object_names_[o]; }

Status Database::AddToClass(ObjectId o, Symbol cls) {
  if (o >= object_names_.size()) return NotFoundError("no such object");
  const dl::ClassDef* def = model_.FindClass(cls);
  if (def == nullptr) {
    return NotFoundError(StrCat("unknown class '", symbols_->Name(cls), "'"));
  }
  if (def->is_query) {
    return FailedPreconditionError(
        StrCat("query class '", symbols_->Name(cls),
               "' membership is derived, not asserted"));
  }
  // Close under the isA hierarchy; count each member once.
  for (Symbol super : model_.SuperClosure(cls)) {
    Extent& ext = extents_[super];
    if (ext.members.size() <= o) ext.members.resize(object_names_.size(), 0);
    if (ext.members[o] == 0) {
      ext.members[o] = 1;
      ++ext.size;
    }
  }
  Touch();
  return Status::Ok();
}

bool Database::InClass(ObjectId o, Symbol cls) const {
  if (cls == model_.object_class) return o < object_names_.size();
  auto it = extents_.find(cls);
  return it != extents_.end() && it->second.members.size() > o &&
         it->second.members[o] != 0;
}

std::vector<ObjectId> Database::ClassExtent(Symbol cls) const {
  std::vector<ObjectId> out;
  if (cls == model_.object_class) return AllObjects();
  auto it = extents_.find(cls);
  if (it == extents_.end()) return out;
  const std::vector<char>& members = it->second.members;
  out.reserve(it->second.size);
  for (size_t o = 0; o < members.size(); ++o) {
    if (members[o]) out.push_back(static_cast<ObjectId>(o));
  }
  return out;
}

size_t Database::ClassSize(Symbol cls) const {
  if (cls == model_.object_class) return object_names_.size();
  auto it = extents_.find(cls);
  return it == extents_.end() ? 0 : it->second.size;
}

Status Database::AddAttr(ObjectId s, Symbol attr, ObjectId t) {
  if (s >= object_names_.size() || t >= object_names_.size()) {
    return NotFoundError("no such object");
  }
  const dl::AttributeDef* def = model_.FindAttribute(attr);
  if (def == nullptr) {
    auto resolved = model_.ResolveAttrName(attr);
    if (resolved.has_value() && resolved->inverted) {
      return InvalidArgumentError(
          StrCat("'", symbols_->Name(attr),
                 "' is an inverse synonym; store the base attribute"));
    }
    return NotFoundError(
        StrCat("unknown attribute '", symbols_->Name(attr), "'"));
  }
  auto& adj = attrs_[attr];
  if (adj.fwd.size() < object_names_.size()) {
    adj.fwd.resize(object_names_.size());
    adj.bwd.resize(object_names_.size());
  }
  auto& succ = adj.fwd[s];
  if (std::find(succ.begin(), succ.end(), t) != succ.end()) {
    return Status::Ok();  // set-valued: duplicate insertion is a no-op
  }
  succ.push_back(t);
  adj.bwd[t].push_back(s);
  Touch();
  return Status::Ok();
}

Status Database::RemoveAttr(ObjectId s, Symbol attr, ObjectId t) {
  auto it = attrs_.find(attr);
  if (it == attrs_.end() || it->second.fwd.size() <= s) {
    return NotFoundError("attribute triple not present");
  }
  auto& succ = it->second.fwd[s];
  auto pos = std::find(succ.begin(), succ.end(), t);
  if (pos == succ.end()) return NotFoundError("attribute triple not present");
  succ.erase(pos);
  auto& pred = it->second.bwd[t];
  pred.erase(std::remove(pred.begin(), pred.end(), s), pred.end());
  Touch();
  return Status::Ok();
}

std::vector<ObjectId> Database::AttrValues(ObjectId o,
                                           const ql::Attr& attr) const {
  auto it = attrs_.find(attr.prim);
  if (it == attrs_.end()) return {};
  const Adjacency& adj = it->second;
  if (attr.inverted) {
    if (adj.bwd.size() <= o) return {};
    return adj.bwd[o];
  }
  if (adj.fwd.size() <= o) return {};
  return adj.fwd[o];
}

bool Database::HasAttr(ObjectId s, Symbol attr, ObjectId t) const {
  auto values = AttrValues(s, ql::Attr{attr, false});
  return std::find(values.begin(), values.end(), t) != values.end();
}

std::vector<ObjectId> Database::AllObjects() const {
  std::vector<ObjectId> out(object_names_.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<ObjectId>(i);
  return out;
}

std::vector<std::string> Database::CheckLegalState() const {
  std::vector<std::string> violations;
  auto obj = [&](ObjectId o) { return symbols_->Name(object_names_[o]); };

  for (const dl::ClassDef& def : model_.classes()) {
    if (def.is_query) continue;
    for (const dl::ClassDef::AttrSpec& spec : def.attrs) {
      for (ObjectId o : ClassExtent(def.name)) {
        std::vector<ObjectId> values =
            AttrValues(o, ql::Attr{spec.attr, false});
        for (ObjectId v : values) {
          if (!InClass(v, spec.range)) {
            violations.push_back(StrCat(
                obj(o), ".", symbols_->Name(spec.attr), " = ", obj(v),
                " is not in range class ", symbols_->Name(spec.range)));
          }
        }
        if (spec.necessary && values.empty()) {
          violations.push_back(StrCat(obj(o), " lacks the necessary ",
                                      symbols_->Name(spec.attr),
                                      " attribute of class ",
                                      symbols_->Name(def.name)));
        }
        if (spec.single && values.size() > 1) {
          violations.push_back(StrCat(obj(o), " has ", values.size(), " ",
                                      symbols_->Name(spec.attr),
                                      " values but the attribute is single"));
        }
      }
    }
  }
  for (const dl::AttributeDef& def : model_.attributes()) {
    auto it = attrs_.find(def.name);
    if (it == attrs_.end()) continue;
    for (size_t s = 0; s < it->second.fwd.size(); ++s) {
      for (ObjectId t : it->second.fwd[s]) {
        if (!InClass(static_cast<ObjectId>(s), def.domain)) {
          violations.push_back(
              StrCat(obj(static_cast<ObjectId>(s)), " is not in the domain ",
                     symbols_->Name(def.domain), " of attribute ",
                     symbols_->Name(def.name)));
        }
        if (!InClass(t, def.range)) {
          violations.push_back(StrCat(obj(t), " is not in the range ",
                                      symbols_->Name(def.range),
                                      " of attribute ",
                                      symbols_->Name(def.name)));
        }
      }
    }
  }
  return violations;
}

}  // namespace oodb::db
