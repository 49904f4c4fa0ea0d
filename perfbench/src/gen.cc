#include "gen.h"

#include <string>

namespace perfbench {
namespace {

// Share of path steps that carry a class filter `(a: C)`.
constexpr double kFilterProb = 0.6;

// Every generated schema is drawn from this seed, whatever the run's
// seed (see gen.h).
constexpr uint64_t kSchemaSeed = 1;

// `prefix` followed by `i` ("C3"). Appending instead of `prefix +
// std::to_string(i)` avoids a false -Wrestrict from GCC 12 at -O3.
std::string Name(const char* prefix, size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

// Schema classes, attributes and their synonyms. Returns the names usable
// as path steps (attributes and inverse synonyms).
std::vector<std::string> EmitSchema(SplitMix64& rng, size_t num_classes,
                                    size_t num_attrs, GeneratedDl* out) {
  for (size_t i = 0; i < num_classes; ++i) {
    out->classes.push_back(Name("C", i));
  }
  for (size_t i = 0; i < num_attrs; ++i) {
    out->attrs.push_back(Name("a", i));
  }
  std::string& src = out->source;
  for (size_t i = 0; i < num_classes; ++i) {
    src += "Class " + out->classes[i];
    if (i > 0 && rng.Chance(0.5)) src += " isA " + out->classes[rng.Index(i)];
    src += " with\n";
    if (rng.Chance(0.4)) {
      src += "  attribute\n    " + rng.Pick(out->attrs) + ": " +
             rng.Pick(out->classes) + "\n";
    }
    src += "end " + out->classes[i] + "\n\n";
  }
  std::vector<std::string> steps;
  for (const std::string& name : out->attrs) {
    steps.push_back(name);
    src += "Attribute " + name + " with\n";
    src += "  domain: " + rng.Pick(out->classes) + "\n";
    src += "  range: " + rng.Pick(out->classes) + "\n";
    if (rng.Chance(0.4)) {
      src += "  inverse: inv_" + name + "\n";
      steps.push_back("inv_" + name);
    }
    src += "end " + name + "\n\n";
  }
  return steps;
}

// A derived path of one or two steps.
std::string Path(SplitMix64& rng, const std::vector<std::string>& steps,
                 const std::vector<std::string>& classes) {
  std::vector<std::string> parts;
  const size_t length = 1 + rng.Index(2);
  for (size_t k = 0; k < length; ++k) {
    const std::string& attr = rng.Pick(steps);
    parts.push_back(rng.Chance(kFilterProb)
                        ? "(" + attr + ": " + rng.Pick(classes) + ")"
                        : attr);
  }
  return Join(parts, ".");
}

}  // namespace

GeneratedDl GenerateFlatDl(uint64_t seed, size_t classes, size_t attrs,
                           size_t queries) {
  GeneratedDl out;
  SplitMix64 schema_rng(kSchemaSeed);
  std::vector<std::string> steps = EmitSchema(schema_rng, classes, attrs, &out);
  SplitMix64 rng(seed);
  std::string& src = out.source;
  for (size_t q = 0; q < queries; ++q) {
    std::string name = Name("Q", q);
    src += "QueryClass " + name + " isA " + rng.Pick(out.classes) +
           " with\n  derived\n";
    const size_t paths = 1 + rng.Index(3);
    for (size_t i = 0; i < paths; ++i) {
      src += "    " + Path(rng, steps, out.classes) + "\n";
    }
    src += "end " + name + "\n\n";
    out.queries.push_back(std::move(name));
    out.parent.push_back(-1);
  }
  return out;
}

GeneratedDl GenerateCatalogDl(uint64_t seed, size_t queries) {
  constexpr size_t kRoots = 8;
  constexpr size_t kFanOut = 4;
  constexpr size_t kDepth = 6;
  GeneratedDl out;
  SplitMix64 schema_rng(kSchemaSeed);
  std::vector<std::string> steps = EmitSchema(schema_rng, 12, 6, &out);
  SplitMix64 rng(seed);
  std::string& src = out.source;
  std::vector<size_t> level;
  auto emit = [&](int parent) {
    std::string name = Name("K", out.queries.size());
    std::string super = parent < 0 ? rng.Pick(out.classes)
                                   : out.queries[static_cast<size_t>(parent)];
    src += "QueryClass " + name + " isA " + super + " with\n  derived\n    " +
           Path(rng, steps, out.classes) + "\nend " + name + "\n\n";
    out.queries.push_back(std::move(name));
    out.parent.push_back(parent);
    level.push_back(parent < 0 ? 0 : level[static_cast<size_t>(parent)] + 1);
  };
  // Breadth-first growth: `frontier` holds the nodes still to expand;
  // a new batch of roots starts whenever it runs dry.
  std::vector<size_t> frontier;
  size_t next = 0;
  while (out.queries.size() < queries) {
    if (next == frontier.size()) {
      frontier.clear();
      next = 0;
      for (size_t r = 0; r < kRoots && out.queries.size() < queries; ++r) {
        frontier.push_back(out.queries.size());
        emit(-1);
      }
      continue;
    }
    const size_t node = frontier[next++];
    if (level[node] >= kDepth) continue;
    for (size_t c = 0; c < kFanOut && out.queries.size() < queries; ++c) {
      frontier.push_back(out.queries.size());
      emit(static_cast<int>(node));
    }
  }
  return out;
}

std::string GenerateState(uint64_t seed, const GeneratedDl& dl,
                          size_t objects) {
  SplitMix64 rng(seed);
  std::vector<std::string> bodies(objects);
  for (size_t e = 0; e < 2 * objects; ++e) {
    const size_t s = rng.Index(objects);
    bodies[s] += "  " + rng.Pick(dl.attrs) + ": o" +
                 std::to_string(rng.Index(objects)) + "\n";
  }
  // About one membership per object, spread over the schema classes.
  const double per_class = 1.0 / static_cast<double>(dl.classes.size());
  std::string src;
  for (size_t i = 0; i < objects; ++i) {
    std::string name = Name("o", i);
    std::vector<std::string> member_of;
    for (const std::string& cls : dl.classes) {
      if (rng.Chance(per_class)) member_of.push_back(cls);
    }
    if (member_of.empty() && rng.Chance(0.5)) {
      member_of.push_back(rng.Pick(dl.classes));
    }
    src += "Object " + name;
    if (!member_of.empty()) src += " in " + Join(member_of, ", ");
    src += " with\n" + bodies[i] + "end " + name + "\n";
  }
  return src;
}

}  // namespace perfbench
