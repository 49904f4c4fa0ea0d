#include "interp/model_gen.h"

#include "base/strings.h"

namespace oodb::interp {

namespace {

// Closes concept memberships under the monotone schema consequences.
// Returns whether anything changed.
bool CloseMemberships(const schema::Schema& sigma, Interpretation& interp) {
  bool changed = false;
  bool round_changed = true;
  while (round_changed) {
    round_changed = false;
    for (const auto& ax : sigma.inclusions()) {
      const ql::ConceptNode& n = sigma.terms().node(ax.rhs);
      for (int d : interp.ConceptExtension(ax.lhs)) {
        switch (n.kind) {
          case ql::ConceptKind::kPrimitive:
            if (!interp.InConcept(n.sym, d)) {
              interp.AddToConcept(n.sym, d);
              round_changed = true;
            }
            break;
          case ql::ConceptKind::kAll: {
            Symbol range = sigma.terms().node(n.lhs).sym;
            for (int t : interp.Successors(n.attr.prim, d)) {
              if (!interp.InConcept(range, t)) {
                interp.AddToConcept(range, t);
                round_changed = true;
              }
            }
            break;
          }
          default:
            break;  // ∃P and ≤1P are handled by the edge-repair steps.
        }
      }
    }
    for (const auto& ax : sigma.typings()) {
      for (size_t d = 0; d < interp.domain_size(); ++d) {
        int s = static_cast<int>(d);
        for (int t : interp.Successors(ax.attr, s)) {
          if (!interp.InConcept(ax.domain, s)) {
            interp.AddToConcept(ax.domain, s);
            round_changed = true;
          }
          if (!interp.InConcept(ax.range, t)) {
            interp.AddToConcept(ax.range, t);
            round_changed = true;
          }
        }
      }
    }
    changed |= round_changed;
  }
  return changed;
}

// Enforces every A ⊑ (≤1 P): drops all but the first P-edge of affected
// elements. Returns whether anything changed.
bool EnforceFunctional(const schema::Schema& sigma, Interpretation& interp) {
  bool changed = false;
  for (const auto& ax : sigma.inclusions()) {
    const ql::ConceptNode& n = sigma.terms().node(ax.rhs);
    if (n.kind != ql::ConceptKind::kAtMostOne) continue;
    for (int d : interp.ConceptExtension(ax.lhs)) {
      std::vector<int> succ = interp.Successors(n.attr.prim, d);
      for (size_t i = 1; i < succ.size(); ++i) {
        interp.RemoveEdge(n.attr.prim, d, succ[i]);
        changed = true;
      }
    }
  }
  return changed;
}

// Enforces every A ⊑ ∃P by adding a random edge where none exists.
// Returns whether anything changed.
bool EnforceNecessary(const schema::Schema& sigma, Interpretation& interp,
                      Rng& rng) {
  bool changed = false;
  for (const auto& ax : sigma.inclusions()) {
    const ql::ConceptNode& n = sigma.terms().node(ax.rhs);
    if (n.kind != ql::ConceptKind::kExists) continue;
    Symbol attr = sigma.terms().head(n.path).attr.prim;
    for (int d : interp.ConceptExtension(ax.lhs)) {
      if (interp.Successors(attr, d).empty()) {
        int t = static_cast<int>(rng.Index(interp.domain_size()));
        interp.AddEdge(attr, d, t);
        changed = true;
      }
    }
  }
  return changed;
}

}  // namespace

Result<Interpretation> GenerateModel(const schema::Schema& sigma,
                                     const Signature& sig,
                                     const ModelGenOptions& options,
                                     Rng& rng) {
  size_t domain = std::max(options.domain_size, sig.constants.size());
  if (domain == 0) domain = 1;
  Interpretation interp(domain);

  // UNA: distinct constants go to distinct elements.
  for (size_t i = 0; i < sig.constants.size(); ++i) {
    Status s = interp.AssignConstant(sig.constants[i], static_cast<int>(i));
    if (!s.ok()) return s;
  }

  for (Symbol concept_name : sig.concepts) {
    for (size_t d = 0; d < domain; ++d) {
      if (rng.Bernoulli(options.concept_density)) {
        interp.AddToConcept(concept_name, static_cast<int>(d));
      }
    }
  }
  for (Symbol attr : sig.attrs) {
    for (size_t s = 0; s < domain; ++s) {
      for (size_t t = 0; t < domain; ++t) {
        if (rng.Bernoulli(options.edge_density)) {
          interp.AddEdge(attr, static_cast<int>(s), static_cast<int>(t));
        }
      }
    }
  }

  // Repair to a Σ-model.
  for (int round = 0; round < options.max_repair_rounds; ++round) {
    bool changed = CloseMemberships(sigma, interp);
    changed |= EnforceFunctional(sigma, interp);
    changed |= EnforceNecessary(sigma, interp, rng);
    if (!changed) return interp;
  }
  return InternalError(
      StrCat("model repair did not converge within ",
             options.max_repair_rounds, " rounds"));
}

}  // namespace oodb::interp
