#include "gen/generators.h"

#include <algorithm>
#include <deque>

#include "base/strings.h"

namespace oodb::gen {

GeneratedSchema GenerateSchema(schema::Schema* sigma, Rng& rng,
                               const SchemaGenOptions& options) {
  SymbolTable& symbols = sigma->terms().symbols();
  GeneratedSchema sig;
  for (size_t i = 0; i < options.num_classes; ++i) {
    sig.classes.push_back(symbols.Intern(StrCat("C", i)));
  }
  for (size_t i = 0; i < options.num_attrs; ++i) {
    sig.attrs.push_back(symbols.Intern(StrCat("p", i)));
  }
  for (size_t i = 0; i < options.num_constants; ++i) {
    sig.constants.push_back(symbols.Intern(StrCat("k", i)));
  }

  // Acyclic isA hierarchy: a class may specialize an earlier class.
  for (size_t i = 1; i < sig.classes.size(); ++i) {
    if (rng.Bernoulli(options.isa_prob)) {
      (void)sigma->AddIsA(sig.classes[i], sig.classes[rng.Index(i)]);
    }
  }
  for (size_t i = 0; i < options.value_restrictions && !sig.attrs.empty();
       ++i) {
    Symbol cls = rng.Pick(sig.classes);
    Symbol attr = rng.Pick(sig.attrs);
    Symbol range = rng.Pick(sig.classes);
    (void)sigma->AddValueRestriction(cls, attr, range);
    if (rng.Bernoulli(options.necessary_prob)) {
      (void)sigma->AddNecessary(cls, attr);
    }
    if (rng.Bernoulli(options.functional_prob)) {
      (void)sigma->AddFunctional(cls, attr);
    }
  }
  for (Symbol attr : sig.attrs) {
    if (rng.Bernoulli(options.typing_prob)) {
      (void)sigma->AddTyping(attr, rng.Pick(sig.classes),
                             rng.Pick(sig.classes));
    }
  }
  return sig;
}

namespace {

ql::ConceptId GenerateFilter(const GeneratedSchema& sig,
                             ql::TermFactory* terms, Rng& rng,
                             const ConceptGenOptions& options, size_t depth);

ql::PathId GeneratePath(const GeneratedSchema& sig, ql::TermFactory* terms,
                        Rng& rng, const ConceptGenOptions& options,
                        size_t depth) {
  size_t length = 1 + rng.Index(options.max_path_length);
  std::vector<ql::Restriction> steps;
  for (size_t i = 0; i < length; ++i) {
    ql::Attr attr{rng.Pick(sig.attrs),
                  rng.Bernoulli(options.inverse_prob)};
    steps.push_back(ql::Restriction{
        attr, GenerateFilter(sig, terms, rng, options, depth)});
  }
  return terms->MakePath(std::move(steps));
}

ql::ConceptId GenerateFilter(const GeneratedSchema& sig,
                             ql::TermFactory* terms, Rng& rng,
                             const ConceptGenOptions& options, size_t depth) {
  if (rng.Bernoulli(options.top_filter_prob)) return terms->Top();
  if (!sig.constants.empty() && rng.Bernoulli(options.singleton_prob)) {
    return terms->Singleton(rng.Pick(sig.constants));
  }
  if (depth < options.max_filter_depth && rng.Bernoulli(0.3)) {
    // A nested existential filter.
    return terms->Exists(GeneratePath(sig, terms, rng, options, depth + 1));
  }
  return terms->Primitive(rng.Pick(sig.classes));
}

}  // namespace

ql::ConceptId GenerateConcept(const GeneratedSchema& sig,
                              ql::TermFactory* terms, Rng& rng,
                              const ConceptGenOptions& options) {
  size_t conjuncts = 1 + rng.Index(options.max_conjuncts);
  std::vector<ql::ConceptId> parts;
  for (size_t i = 0; i < conjuncts; ++i) {
    switch (rng.Index(3)) {
      case 0:
        parts.push_back(terms->Primitive(rng.Pick(sig.classes)));
        break;
      case 1: {
        ql::PathId p = GeneratePath(sig, terms, rng, options, 0);
        parts.push_back(rng.Bernoulli(options.agree_prob) ? terms->Agree(p)
                                                          : terms->Exists(p));
        break;
      }
      default: {
        ql::PathId p = GeneratePath(sig, terms, rng, options, 0);
        parts.push_back(terms->Exists(p));
        break;
      }
    }
  }
  return terms->AndAll(parts);
}

namespace {

// One random weakening step. Always returns a concept with C ⊑_Σ result.
ql::ConceptId WeakenOnce(const schema::Schema& sigma, ql::TermFactory* terms,
                         ql::ConceptId c, Rng& rng) {
  const ql::ConceptNode n = terms->node(c);
  switch (n.kind) {
    case ql::ConceptKind::kTop:
      return c;
    case ql::ConceptKind::kPrimitive: {
      const auto& supers = sigma.SuperPrimitives(n.sym);
      if (!supers.empty() && rng.Bernoulli(0.8)) {
        return terms->Primitive(rng.Pick(supers).name);
      }
      return rng.Bernoulli(0.3) ? terms->Top() : c;
    }
    case ql::ConceptKind::kSingleton:
      return rng.Bernoulli(0.5) ? terms->Top() : c;
    case ql::ConceptKind::kAnd: {
      switch (rng.Index(3)) {
        case 0:
          return rng.Bernoulli(0.5) ? n.lhs : n.rhs;  // drop a conjunct
        case 1:
          return terms->And(WeakenOnce(sigma, terms, n.lhs, rng), n.rhs);
        default:
          return terms->And(n.lhs, WeakenOnce(sigma, terms, n.rhs, rng));
      }
    }
    case ql::ConceptKind::kExists:
    case ql::ConceptKind::kAgree: {
      const bool is_agree = n.kind == ql::ConceptKind::kAgree;
      std::vector<ql::Restriction> steps = terms->Restrictions(n.path);
      if (steps.empty()) return c;
      if (is_agree && rng.Bernoulli(0.4)) {
        return terms->Exists(n.path);  // ∃p ≐ ε ⊑ ∃p
      }
      // Truncating an agreement's path is NOT sound (the loop is lost),
      // so truncation applies to plain existentials only.
      if (!is_agree && steps.size() > 1 && rng.Bernoulli(0.4)) {
        steps.resize(1 + rng.Index(steps.size() - 1));
        return terms->Exists(terms->MakePath(std::move(steps)));
      }
      // Weaken one filter.
      size_t i = rng.Index(steps.size());
      steps[i].filter = rng.Bernoulli(0.5)
                            ? terms->Top()
                            : WeakenOnce(sigma, terms, steps[i].filter, rng);
      ql::PathId p = terms->MakePath(std::move(steps));
      return is_agree ? terms->Agree(p) : terms->Exists(p);
    }
    case ql::ConceptKind::kAll:
    case ql::ConceptKind::kAtMostOne:
      return c;  // SL-only kinds are never generated here
  }
  return c;
}

}  // namespace

ql::ConceptId WeakenConcept(const schema::Schema& sigma,
                            ql::TermFactory* terms, ql::ConceptId c,
                            Rng& rng, int steps) {
  ql::ConceptId cur = c;
  for (int i = 0; i < steps; ++i) {
    cur = WeakenOnce(sigma, terms, cur, rng);
  }
  return cur;
}

GeneratedCatalog GenerateCatalog(const GeneratedSchema& sig,
                                 ql::TermFactory* terms, Rng& rng,
                                 const CatalogGenOptions& options) {
  GeneratedCatalog out;
  const size_t total = options.num_concepts;
  out.num_noise = std::min(
      total, static_cast<size_t>(total * options.noise_fraction));
  const size_t tree_target = total - out.num_noise;

  // Each level refines by a SINGLE fresh conjunct: child = parent ⊓ r,
  // so child ⊑_Σ parent by construction and concept size stays linear in
  // depth.
  ConceptGenOptions refine = options.conjunct;
  refine.max_conjuncts = 1;

  auto emit = [&](ql::ConceptId c, size_t parent, size_t level) {
    size_t idx = out.names.size();
    out.names.push_back(terms->symbols().Intern(StrCat("K", idx)));
    out.concepts.push_back(c);
    out.parent.push_back(parent);
    out.level.push_back(level);
    return idx;
  };

  // Breadth-first growth: shallow levels fill before deep ones, giving
  // the classic taxonomy shape (few general ancestors, many leaves).
  std::deque<size_t> frontier;
  const size_t seed_roots = std::min(std::max<size_t>(options.num_roots, 1),
                                     tree_target);
  while (out.names.size() < tree_target) {
    if (frontier.empty() || out.names.size() < seed_roots) {
      // Seed roots up front; also restart with a fresh root whenever the
      // whole forest is saturated at `depth`.
      size_t idx = emit(GenerateConcept(sig, terms, rng, refine),
                        kCatalogNoParent, 0);
      if (options.depth > 0) frontier.push_back(idx);
      continue;
    }
    size_t parent = frontier.front();
    frontier.pop_front();
    const size_t fan = std::max<size_t>(options.fan_out, 1);
    for (size_t i = 0; i < fan && out.names.size() < tree_target; ++i) {
      ql::ConceptId child = terms->And(
          out.concepts[parent], GenerateConcept(sig, terms, rng, refine));
      size_t idx = emit(child, parent, out.level[parent] + 1);
      if (out.level[idx] < options.depth) frontier.push_back(idx);
    }
  }
  for (size_t i = 0; i < out.num_noise; ++i) {
    emit(GenerateConcept(sig, terms, rng, options.conjunct),
         kCatalogNoParent, 0);
  }
  return out;
}

}  // namespace oodb::gen
