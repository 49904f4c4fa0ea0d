#include "calculus/constraint.h"

#include <cassert>

#include "base/strings.h"

namespace oodb::calculus {

namespace {
const std::vector<Ind> kNoInds;
}  // namespace

IndTable::IndTable() = default;

Ind IndTable::Constant(Symbol a) {
  auto [id, inserted] =
      constants_.Insert(a.id(), static_cast<uint32_t>(infos_.size()));
  if (!inserted) return Ind{id};
  Info info;
  info.is_constant = true;
  info.sym = a;
  infos_.push_back(std::move(info));
  return Ind{id};
}

Ind IndTable::FreshVar(const std::string& prefix) {
  return NamedVar(StrCat(prefix, ++var_counter_));
}

Ind IndTable::NamedVar(const std::string& name) {
  Ind i{static_cast<uint32_t>(infos_.size())};
  Info info;
  info.name = name;
  infos_.push_back(std::move(info));
  ++num_variables_;
  return i;
}

void IndTable::Clear() {
  infos_.clear();
  constants_.Clear();
  num_variables_ = 0;
  var_counter_ = 0;
}

uint32_t ConstraintSystem::TargetListId(FlatIndex& index, uint64_t key) {
  auto [id, inserted] =
      index.Insert(key, static_cast<uint32_t>(target_lists_.size()));
  if (inserted) target_lists_.New();
  return id;
}

const std::vector<Ind>& ConstraintSystem::TargetListOrEmpty(
    const FlatIndex& index, uint64_t key) const {
  const uint32_t id = index.Find(key);
  return id == FlatIndex::kAbsent ? kNoInds : target_lists_[id];
}

bool ConstraintSystem::AddMemb(Ind s, ql::ConceptId c) {
  assert(c != ql::kInvalidConcept);
  const auto id = static_cast<uint32_t>(membs_.size());
  if (!memb_index_.Insert(PackKey(s.id, c), id).second) return false;
  membs_.push_back(MembFact{s, c});
  concepts_of_.At(s.id).push_back(c);
  memb_ids_of_.At(s.id).push_back(id);
  return true;
}

bool ConstraintSystem::AddAttrPrim(Ind s, Symbol p, Ind t) {
  const uint32_t list = TargetListId(prim_fillers_, PackKey(s.id, p.id()));
  const auto id = static_cast<uint32_t>(attrs_.size());
  if (!attr_index_.Insert(PackKey(list, t.id), id).second) return false;
  attrs_.push_back(AttrFact{s, p, t});
  target_lists_.At(list).push_back(t);
  target_lists_.At(TargetListId(inv_fillers_, PackKey(t.id, p.id())))
      .push_back(s);
  neighbors_.At(s.id).push_back(t);
  if (t != s) neighbors_.At(t.id).push_back(s);
  return true;
}

bool ConstraintSystem::AddAttr(Ind s, const ql::Attr& r, Ind t) {
  if (r.inverted) return AddAttrPrim(t, r.prim, s);
  return AddAttrPrim(s, r.prim, t);
}

bool ConstraintSystem::AddPath(Ind s, ql::PathId p, Ind t) {
  assert(p != ql::kEmptyPath);
  const uint32_t list = TargetListId(path_targets_, PackKey(s.id, p));
  const auto id = static_cast<uint32_t>(paths_.size());
  if (!path_index_.Insert(PackKey(list, t.id), id).second) return false;
  paths_.push_back(PathFact{s, p, t});
  target_lists_.At(list).push_back(t);
  return true;
}

bool ConstraintSystem::HasMemb(Ind s, ql::ConceptId c) const {
  return memb_index_.Find(PackKey(s.id, c)) != FlatIndex::kAbsent;
}

bool ConstraintSystem::HasAttrPrim(Ind s, Symbol p, Ind t) const {
  const uint32_t list = prim_fillers_.Find(PackKey(s.id, p.id()));
  return list != FlatIndex::kAbsent &&
         attr_index_.Find(PackKey(list, t.id)) != FlatIndex::kAbsent;
}

bool ConstraintSystem::HasAttr(Ind s, const ql::Attr& r, Ind t) const {
  if (r.inverted) return HasAttrPrim(t, r.prim, s);
  return HasAttrPrim(s, r.prim, t);
}

bool ConstraintSystem::HasPath(Ind s, ql::PathId p, Ind t) const {
  const uint32_t list = path_targets_.Find(PackKey(s.id, p));
  return list != FlatIndex::kAbsent &&
         path_index_.Find(PackKey(list, t.id)) != FlatIndex::kAbsent;
}

bool ConstraintSystem::HasPathFrom(Ind s, ql::PathId p) const {
  return !PathTargets(s, p).empty();
}

const std::vector<Ind>& ConstraintSystem::Fillers(Ind s,
                                                  const ql::Attr& r) const {
  return TargetListOrEmpty(r.inverted ? inv_fillers_ : prim_fillers_,
                           PackKey(s.id, r.prim.id()));
}

const std::vector<Ind>& ConstraintSystem::PrimFillers(Ind s, Symbol p) const {
  return TargetListOrEmpty(prim_fillers_, PackKey(s.id, p.id()));
}

bool ConstraintSystem::HasAnyPrimFiller(Ind s, Symbol p) const {
  return !PrimFillers(s, p).empty();
}

const std::vector<Ind>& ConstraintSystem::PathTargets(Ind s,
                                                      ql::PathId p) const {
  return TargetListOrEmpty(path_targets_, PackKey(s.id, p));
}

void ConstraintSystem::Substitute(const std::function<Ind(Ind)>& map) {
  std::vector<MembFact> membs = std::move(membs_);
  std::vector<AttrFact> attrs = std::move(attrs_);
  std::vector<PathFact> paths = std::move(paths_);
  Clear();
  for (const MembFact& m : membs) AddMemb(map(m.s), m.c);
  for (const AttrFact& a : attrs) AddAttrPrim(map(a.s), a.p, map(a.t));
  for (const PathFact& p : paths) AddPath(map(p.s), p.p, map(p.t));
}

void ConstraintSystem::Clear() {
  membs_.clear();
  attrs_.clear();
  paths_.clear();
  memb_index_.Clear();
  attr_index_.Clear();
  path_index_.Clear();
  prim_fillers_.Clear();
  inv_fillers_.Clear();
  path_targets_.Clear();
  target_lists_.Clear();
  concepts_of_.Clear();
  memb_ids_of_.Clear();
  neighbors_.Clear();
}

}  // namespace oodb::calculus
