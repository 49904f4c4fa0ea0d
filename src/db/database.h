// An in-memory OODB instance (a "state of the database", paper Sect. 2.1):
// objects classified into classes and related by set-valued attributes.
//
// The store keeps explicit class memberships closed under the schema's isA
// hierarchy (any instance of a class is an instance of its superclasses)
// and can check the remaining legality conditions (attribute typing,
// necessary, single, domain/range) of the DL schema.
#ifndef OODB_DB_DATABASE_H_
#define OODB_DB_DATABASE_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/symbol.h"
#include "dl/model.h"
#include "ql/term.h"

namespace oodb::db {

using ObjectId = uint32_t;

class Database {
 public:
  // `model` and `symbols` must outlive the database.
  Database(const dl::Model& model, SymbolTable* symbols);

  const dl::Model& model() const { return model_; }
  SymbolTable& symbols() const { return *symbols_; }

  // --- Objects ------------------------------------------------------------

  // Creates a named object (its name doubles as the DL constant).
  Result<ObjectId> CreateObject(std::string_view name);
  std::optional<ObjectId> FindObject(Symbol name) const;
  Symbol ObjectName(ObjectId o) const;
  size_t num_objects() const { return object_names_.size(); }

  // --- Classification -------------------------------------------------------

  // Adds `o` to `cls` and, transitively, to its schema superclasses.
  // Query classes cannot be populated explicitly (their membership is
  // derived; paper Sect. 2.2).
  // Memberships only grow, so the store keeps each class's size exact.
  Status AddToClass(ObjectId o, Symbol cls);
  // Membership; every object is in the Object class.
  bool InClass(ObjectId o, Symbol cls) const;
  std::vector<ObjectId> ClassExtent(Symbol cls) const;
  // ClassExtent(cls).size(), in O(1).
  size_t ClassSize(Symbol cls) const;

  // --- Attributes -----------------------------------------------------------

  // Adds the attribute triple (s, attr, t). `attr` must be a declared
  // primitive attribute (synonyms are query-side only).
  Status AddAttr(ObjectId s, Symbol attr, ObjectId t);
  Status RemoveAttr(ObjectId s, Symbol attr, ObjectId t);
  // Values of an attribute or synonym-direction (inverted) attribute.
  std::vector<ObjectId> AttrValues(ObjectId o, const ql::Attr& attr) const;
  bool HasAttr(ObjectId s, Symbol attr, ObjectId t) const;

  // All objects as 0..n-1.
  std::vector<ObjectId> AllObjects() const;

  // Monotonically increasing mutation counter (view maintenance).
  uint64_t version() const { return version_; }

  // --- Legality -------------------------------------------------------------

  // Returns human-readable violations of the structural schema conditions:
  // attribute typing (value restrictions), necessary, single, and
  // attribute domain/range declarations. Empty = legal state.
  std::vector<std::string> CheckLegalState() const;

 private:
  struct Adjacency {
    std::vector<std::vector<ObjectId>> fwd;
    std::vector<std::vector<ObjectId>> bwd;
  };
  struct Extent {
    std::vector<char> members;  // members[o] != 0 iff o is in the class
    size_t size = 0;            // number of members
  };

  void Touch() { ++version_; }

  const dl::Model& model_;
  SymbolTable* symbols_;
  std::vector<Symbol> object_names_;
  std::unordered_map<Symbol, ObjectId> by_name_;
  std::unordered_map<Symbol, Extent> extents_;
  std::unordered_map<Symbol, Adjacency> attrs_;
  uint64_t version_ = 0;
};

}  // namespace oodb::db

#endif  // OODB_DB_DATABASE_H_
