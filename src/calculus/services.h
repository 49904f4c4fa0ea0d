// Higher-level reasoning services built on the subsumption checker:
// concept minimization (the semantic-optimization use of containment the
// related work pursues: remove redundant conjuncts) and classification of
// named concepts into a subsumption DAG (the classic DL reasoner service;
// a daemon session keeps one as the taxonomy behind CLASSIFY). The view
// catalog does not classify: `views::Optimizer::ChoosePlan` decides a
// query against every view with one `SubsumesBatch`.
#ifndef OODB_CALCULUS_SERVICES_H_
#define OODB_CALCULUS_SERVICES_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "calculus/subsumption.h"
#include "ql/term.h"

namespace oodb::calculus {

// Removes parts of `c` that are redundant under Σ while preserving
// Σ-equivalence:
//   * conjuncts implied by the remaining conjuncts
//   * path filters implied by the rest of the concept (weakened to ⊤)
// Runs polynomially many subsumption checks. The result is Σ-equivalent
// to the input (verified internally; on any anomaly the input is
// returned unchanged).
Result<ql::ConceptId> MinimizeConcept(const SubsumptionChecker& checker,
                                      ql::TermFactory* terms,
                                      ql::ConceptId c);

// The paper's first open problem (Sect. 6): "We are interested in a
// minimal filter query which intersected with the view results exactly in
// the subsumed query."
//
// Given Q ⊑_Σ V, returns a minimal-by-greedy-deletion subset R of Q's
// conjuncts with V ⊓ R ≡_Σ Q (always exists: R = Q works). An optimizer
// can then test view candidates against R alone instead of all of Q.
// Returns nullopt if Q ⋢_Σ V.
Result<std::optional<ql::ConceptId>> ResidualFilter(
    const SubsumptionChecker& checker, ql::TermFactory* terms,
    ql::ConceptId q, ql::ConceptId v);

// A common subsumer of a query workload: S with Cᵢ ⊑_Σ S for every input
// (not necessarily the least one). Built from the conjuncts of the inputs
// that subsume every input, then Σ-minimized. The paper's cooperative
// scenario (Sect. 6: users sharing object sets) materializes such an S as
// one view serving the whole workload; if nothing is shared the result
// degrades to ⊤ (not worth materializing — callers should check).
Result<ql::ConceptId> CommonSubsumer(const SubsumptionChecker& checker,
                                     ql::TermFactory* terms,
                                     const std::vector<ql::ConceptId>& cs);

// Classifies named concepts into a subsumption hierarchy.
//
// The hierarchy is maintained INCREMENTALLY: internally the classifier
// keeps a DAG of Σ-equivalence classes whose edges are the transitive
// reduction of the strict subsumption order on the classes present, and
// every mutation (Insert, Remove, or flushing pending Add()s via
// Classify()) repairs that DAG locally instead of reclassifying. Because
// the transitive reduction of a finite partial order is unique, the
// resulting per-name Parents/Children/Equivalents lists are identical to
// what a from-scratch classification of the surviving names (in names()
// order) would produce — tests/incremental_classify_test.cc pins this
// against a fresh oracle across randomized Insert/Remove interleavings.
class Classifier {
 public:
  // Search strategy used when a concept is inserted into the DAG. Both
  // modes produce the identical DAG (pinned by
  // tests/classify_traversal_test.cc); they differ only in how many
  // subsumption checks they issue.
  enum class Mode {
    // Top search (most-general subsumers first) and bottom search
    // (most-specific subsumees, restricted to the down-set of the found
    // parents), pruning by transitivity in both directions. On
    // hierarchy-rich catalogs this skips the bulk of the n·(n-1) pairs.
    kEnhancedTraversal,
    // Exhaustive insertion: checks every existing class in both
    // directions, no pruning. The reference strategy; also the right
    // choice for flat catalogs, where traversal cannot prune.
    kPairwise,
  };

  // Cumulative check-accounting over the classifier's lifetime.
  // `concepts` is the number of names currently classified;
  // `pairwise_checks` is what a from-scratch full matrix over the current
  // names would issue (n·(n-1)); `checks_performed` counts the Subsumes()
  // calls actually made by every mutation so far (the checker's own
  // memo/pre-filter savings are a separate layer, see
  // SubsumptionChecker::perf_stats). `checks_avoided` is the clamped
  // difference — after many removals the cumulative count can exceed the
  // matrix bound, in which case it reports 0.
  struct ClassifyStats {
    size_t concepts = 0;
    size_t pairwise_checks = 0;
    size_t checks_performed = 0;
    size_t checks_avoided = 0;
  };

  // Accounting of the single most recent DAG mutation (one insertion or
  // one removal). `classes_before` is the number of equivalence classes
  // the operation searched; `checks_performed` the subsumption checks it
  // issued (always 0 for Remove — removal repairs by reachability alone);
  // `edges_added` the transitive-reduction edges spliced in.
  struct OpStats {
    size_t classes_before = 0;
    size_t checks_performed = 0;
    size_t edges_added = 0;
  };

  explicit Classifier(const SubsumptionChecker& checker,
                      Mode mode = Mode::kEnhancedTraversal)
      : checker_(checker), mode_(mode) {}

  // Adds a named concept without classifying it yet (names must be
  // unique). Pending names join the DAG on the next Classify() or
  // Insert(); until then their Parents/Children/Equivalents are empty.
  Status Add(Symbol name, ql::ConceptId concept_id);

  // Classifies every pending Add() into the DAG, in insertion order.
  // Idempotent when nothing is pending. Re-running after further Add()s
  // extends the existing DAG incrementally; the result is identical to a
  // fresh classification of all names (uniqueness of the transitive
  // reduction), which tests/incremental_classify_test.cc verifies.
  Status Classify();

  // Add() + Classify() in one step: classifies `concept_id` (and any
  // other pending names) into the DAG immediately.
  Status Insert(Symbol name, ql::ConceptId concept_id);

  // Removes a name and repairs the DAG locally: if its equivalence class
  // has other members the class survives; otherwise the class is deleted
  // and each of its direct children is reconnected to exactly those
  // direct parents it cannot already reach, keeping the edge set the
  // transitive reduction of the remaining order. No subsumption checks
  // are issued. Errors with kNotFound for unknown names.
  Status Remove(Symbol name);

  // Direct (transitively reduced) super-concepts of `name`.
  std::vector<Symbol> Parents(Symbol name) const;
  // Direct sub-concepts.
  std::vector<Symbol> Children(Symbol name) const;
  // Names whose concepts are Σ-equivalent to `name` (excluding itself).
  std::vector<Symbol> Equivalents(Symbol name) const;
  // Every classified name whose concept subsumes `concept_id`, each
  // before its DAG ancestors (most specific first), found by the top
  // search Insert runs. Pending Add()s are not searched: call Classify()
  // first. Adds nothing to the check counters.
  Result<std::vector<Symbol>> SubsumersOf(ql::ConceptId concept_id) const;

  bool Contains(Symbol name) const { return nodes_.count(name) > 0; }
  // The concept registered for `name`, or ql::kInvalidConcept.
  ql::ConceptId ConceptOf(Symbol name) const;

  const std::vector<Symbol>& names() const { return names_; }
  Mode mode() const { return mode_; }
  const ClassifyStats& classify_stats() const { return stats_; }
  const OpStats& last_op_stats() const { return last_op_; }
  // Number of Σ-equivalence classes currently in the DAG.
  size_t num_classes() const {
    return classes_.size() - 1 - free_classes_.size();  // not ⊤, no tombstone
  }

  // Multi-line rendering of the hierarchy.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  static constexpr size_t kPending = ~size_t{0};
  // classes_[kTop] is ⊤, the parent of every root. It has no members, so
  // it is never checked and never listed.
  static constexpr size_t kTop = 0;
  struct Node {
    ql::ConceptId concept_id = ql::kInvalidConcept;
    uint64_t order = 0;       // monotone Add() sequence number
    size_t klass = kPending;  // index into classes_ once classified
  };
  // A Σ-equivalence class in the persistent DAG. Slots of removed
  // classes stay in `classes_` as edge-less tombstones and are recycled
  // through `free_classes_`, so indices held in edge lists remain stable.
  struct Class {
    std::vector<Symbol> members;  // in Add() order
    ql::ConceptId rep = ql::kInvalidConcept;
    std::vector<size_t> parents;   // direct super-classes
    std::vector<size_t> children;  // direct sub-classes
  };
  using Edges = std::vector<size_t> Class::*;
  // One value per class slot for one pass over the DAG, 0 until the pass
  // sets it: a slot counts only while it carries the pass's number, so
  // starting a pass clears nothing.
  struct Marks {
    std::vector<uint16_t> passes;  // dense: Has() is the hot test
    std::vector<uint32_t> values;
    uint16_t pass = 0;
    void Start(size_t n);
    bool Has(size_t k) const { return passes[k] == pass; }
    uint32_t Get(size_t k) const { return Has(k) ? values[k] : 0; }
    void Set(size_t k, uint32_t value) {
      passes[k] = pass;
      values[k] = value;
    }
  };

  // Classifies one name into the DAG (top/bottom walk + splice).
  Status InsertIntoDag(Symbol name);
  // Kahn walk from `ready` along `far` edges: a class is checked with
  // `test` once every `near` neighbour has passed (kPairwise: has been
  // checked). ⊤ passes unchecked and is never entered, nor is a class
  // outside a given `region`. Returns the passing classes in walk order.
  template <typename Test>
  Result<std::vector<size_t>> Walk(std::vector<size_t> ready, Edges near,
                                   Edges far, const Marks* region,
                                   Test test, Marks* verdicts) const;
  // Marks in `region_` the classes below every class in `tops`; returns
  // the region's leaves.
  std::vector<size_t> MarkRegionBelow(const std::vector<size_t>& tops);
  // Sets `*reached` to `from` and every class it reaches along `edges`,
  // and marks them in `seen_`. Given `targets` > 0, it stops as soon as
  // it has reached that many classes marked in `region_`.
  void Reach(size_t from, Edges edges, std::vector<size_t>* reached,
             size_t targets = 0);
  // The members of `ks`, except `skip`, in Add() order.
  std::vector<Symbol> MembersOf(const std::vector<size_t>& ks,
                                Symbol skip = Symbol()) const;
  void RefreshAggregateStats();

  const SubsumptionChecker& checker_;
  Mode mode_;
  ClassifyStats stats_;
  OpStats last_op_;
  std::vector<Symbol> names_;
  std::deque<Symbol> pending_;  // Add()ed, not yet classified, in order
  std::unordered_map<Symbol, Node> nodes_;
  std::vector<Class> classes_ = std::vector<Class>(1);  // [kTop] is ⊤
  std::vector<size_t> free_classes_;
  uint64_t next_order_ = 0;
  Marks up_, down_, region_, seen_;  // the walks' and Reach's scratch
};

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_SERVICES_H_
