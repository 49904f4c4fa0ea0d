// Workload generators of the benchmark: DL schemas with query classes, a
// hierarchy-rich query-class catalog, and database states. Every
// generator is a pure function of its arguments and draws from its own
// SplitMix64 stream, so inputs do not change when the library's random
// helpers do.
//
// Query classes never join paths with `where`: with joins, the
// completion engine's verdict can depend on the order in which concepts
// were interned, so a long-lived daemon and a fresh process may disagree
// on a pair (see perfbench/README.md). The benchmark must not fail on
// its own inputs.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  size_t Index(size_t n) { return static_cast<size_t>(Next() % n); }
  // True with probability p.
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }
  template <typename T>
  const T& Pick(const std::vector<T>& v) { return v[Index(v.size())]; }

 private:
  uint64_t state_;
};

struct GeneratedDl {
  std::string source;
  std::vector<std::string> classes;     // schema classes C0…
  std::vector<std::string> attrs;       // base attributes a0…
  std::vector<std::string> queries;     // query classes, in source order
  // Catalog only: index into `queries` of each query's parent query
  // class, or -1 for a root (whose superclass is a schema class).
  std::vector<int> parent;
};

// `classes` schema classes with an acyclic isA hierarchy, `attrs`
// attributes (some with inverse synonyms), and `queries` structural query
// classes Q0…, each isA a schema class with one to three derived paths of
// one or two steps. Every query class may be materialized as a view.
//
// In every generated DL the schema is the same for every seed: with a
// dozen classes, one random draw of it would set how much subsumption
// all queries over it have, and with it the cost of every operation; the
// seed draws the query classes.
GeneratedDl GenerateFlatDl(uint64_t seed, size_t classes, size_t attrs,
                           size_t queries);

// A schema as above (12 classes, 6 attributes) plus a forest of `queries`
// query classes K0…: roots isA a schema class, then children grown level
// by level (fan-out 4, depth at most 6), each isA its parent query class
// plus one derived path, so child ⊑_Σ parent holds by construction. Once
// a forest of 8 roots is grown out, the next 8 roots are started.
GeneratedDl GenerateCatalogDl(uint64_t seed, size_t queries);

// A database state (`.odb` text) over the schema classes and base
// attributes of `dl`: objects o0… with random memberships, and twice as
// many random attribute edges as objects.
std::string GenerateState(uint64_t seed, const GeneratedDl& dl,
                          size_t objects);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
