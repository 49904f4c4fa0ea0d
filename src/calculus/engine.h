// The completion engine for the subsumption calculus (paper Sect. 4).
//
// Given a schema Σ and QL concepts C, D, the engine starts from the pair
//   F = {x:C}   :   G = {x:D}
// and applies the decomposition (D1–D7), schema (S1–S5), goal (G1–G3) and
// composition (C1–C6) rules until no rule is applicable, honoring the
// paper's priority: a schema rule fires only when no decomposition rule is
// applicable. (Our scheduler is stricter — schema rules run only when the
// other three families are quiescent — which is one of the fair strategies
// the paper allows; the completion is unique up to variable renaming.)
//
// Afterwards (Theorem 4.7):
//   C ⊑_Σ D  ⇔  o:D ∈ F  or  F contains a clash,
// where o is the descendant of x under the substitutions of rules D3/S4.
#ifndef OODB_CALCULUS_ENGINE_H_
#define OODB_CALCULUS_ENGINE_H_

#include <string>
#include <vector>

#include "base/flat_index.h"
#include "base/status.h"
#include "calculus/constraint.h"
#include "calculus/trace.h"
#include "ql/term_factory.h"
#include "schema/schema.h"

namespace oodb::calculus {

struct EngineOptions {
  bool record_trace = false;
  // Safety caps; legal SL/QL inputs stay far below them (Prop. 4.8).
  size_t max_individuals = 1u << 20;
  size_t max_constraints = 1u << 24;
  // ABLATION ONLY: drop the goal-guidance of rule S5 and materialize a
  // witness for EVERY necessary attribute of every individual. This is
  // the naive policy the paper warns about (Sect. 4, before 4.1): on
  // cyclic schemas like {A ⊑ ∃P, A ⊑ ∀P.A} it generates individuals
  // without bound (the run then fails at the resource cap). Verdicts, when
  // the run completes, are unchanged.
  bool eager_witnesses = false;
  // Semi-naive scheduling (default): each pass only examines constraints
  // appended since it last ran, with join rules triggered from both
  // premise sides through the constraint-store indexes, and a
  // composition goal is evaluated again only after a fact arrives that
  // can enable it. Reaches the same pass fixpoints as the naive
  // full-rescan mode (all rule conditions are monotonely disabled, never
  // re-enabled), which remains available as the ablation/reference
  // scheduler and evaluates every goal on every visit. The paper leaves
  // "an optimal implementation technique" open — this is ours.
  bool semi_naive = true;
};

class CompletionEngine {
 public:
  using Options = EngineOptions;

  // `sigma` and its term factory must outlive the engine.
  explicit CompletionEngine(const schema::Schema& sigma,
                            Options options = Options());

  // Completes {x:C} : {x:D}. Pass d = kInvalidConcept to complete with an
  // empty goal set (Σ-satisfiability check of C). Fails only on resource
  // caps or non-QL input concepts.
  Status Run(ql::ConceptId c, ql::ConceptId d);

  // Batch mode: completes {x:C} : {x:D₁, …, x:Dₙ} in ONE run and answers
  // every question C ⊑_Σ Dᵢ afterwards via GoalFactHoldsFor(dᵢ).
  //
  // Sound and complete for each Dᵢ: every rule only ever adds Σ-entailed
  // facts (Prop. 4.2 invariance), so goals of one view can only help —
  // never corrupt — the composition of another. This is what a view
  // catalog wants: one decomposition of the query, n view checks.
  Status RunBatch(ql::ConceptId c, const std::vector<ql::ConceptId>& ds);

  // Returns the engine to its pre-Run state while KEEPING allocated
  // storage (constraint vectors, index buckets, scratch buffers), so a
  // pooled engine's next run skips the allocation/teardown cost. Run and
  // RunBatch call this themselves — a reused engine needs no manual
  // Reset between runs.
  void Reset();

  // --- Results (valid after a successful Run) ---------------------------

  bool clash() const { return clash_; }
  const std::string& clash_reason() const { return clash_reason_; }
  // Representative of the initial individual x.
  Ind GoalInd() const { return Find(x0_); }
  // Whether o:D ∈ F.
  bool GoalFactHolds() const;
  // Batch mode: whether o:Dᵢ ∈ F for the given batch concept.
  bool GoalFactHoldsFor(ql::ConceptId d) const;

  const ConstraintSystem& facts() const { return facts_; }
  const ConstraintSystem& goals() const { return goals_; }
  const IndTable& inds() const { return inds_; }
  Ind Find(Ind i) const;

  const RunStats& stats() const { return stats_; }
  const std::vector<TraceEvent>& trace() const { return trace_; }

  // Renders an individual ("x", "y3", or a constant name) for traces.
  std::string IndName(Ind i) const;

 private:
  enum class PassResult { kNoChange, kChanged, kRestart };

  // Per-pass low-water marks: under semi-naive scheduling a pass resumes
  // where it left off; the naive mode resets them at pass entry.
  // Substitutions rebuild the stores and reset every mark.
  struct PassMarks {
    size_t memb = 0;
    size_t attr = 0;
    size_t path = 0;
    size_t goal = 0;
  };

  // Rule passes. Each scans constraints from its marks onward (picking up
  // its own additions, since scans are index-based over growing vectors).
  PassResult DecompositionPass();
  PassResult SchemaPass();
  bool GoalPass();
  bool CompositionPass();

  // Pass helpers.
  bool ApplyGoalStepRules(Ind s, ql::ConceptId goal_concept);  // G2/G3
  bool ComposeForGoal(Ind s, ql::ConceptId goal_concept);      // C1–C6
  bool RecheckGoalsAt(Ind u);

  // Composition triggers of the semi-naive scheduler (see engine.cc).
  // `goal` is an index into goals_.membs().
  void Watch(FlatIndex& index, uint64_t key, uint32_t goal);
  void WatchGoal(uint32_t goal);
  void WatchFiller(uint32_t goal, Ind t);  // t: a filler of the goal's step
  void Arm(uint32_t goal);
  void Disarm(uint32_t goal);
  void ArmWatchers(const FlatIndex& index, uint64_t key);
  void ArmFromNewFacts();
  bool EvaluateGoal(uint32_t goal);
  bool ApplyS5For(Ind s, ql::ConceptId goal_concept);
  // S4 for one (s, P); kRestart on merge/clash, kNoChange otherwise.
  PassResult CheckFunctional(Ind s, Symbol p, Symbol concept_name);
  void ResetAllMarks();

  // Individual management.
  void SyncParents();
  Ind FreshVar();
  void Union(Ind from, Ind to);  // from := to, then rebuild both systems.
  void SetClash(std::string reason);

  void Record(Rule rule, std::string text);
  void Count(Rule rule);

  Status CheckLimits() const;

  const schema::Schema& sigma_;
  ql::TermFactory* terms_;
  Options options_;

  IndTable inds_;
  std::vector<uint32_t> parents_;  // union-find over individual ids
  ConstraintSystem facts_;
  ConstraintSystem goals_;
  Ind x0_{};
  ql::ConceptId d_ = ql::kInvalidConcept;

  bool clash_ = false;
  std::string clash_reason_;
  RunStats stats_;
  std::vector<TraceEvent> trace_;

  PassMarks decomp_marks_;
  PassMarks goal_marks_;
  PassMarks comp_marks_;
  PassMarks schema_marks_;

  // Composition triggers. Each watch table maps a fact key to the list
  // of goals the fact can enable:
  //   memb_watch_      (s, C): C1 goals at s with conjunct C, and C5/C6
  //                    goals at predecessors of s with head filter C;
  //   path_watch_      (s, p): C3/C4 goals at s with path p, and C5 goals
  //                    at predecessors of s whose path goes on with p;
  //   step_watch_,     (s, P): C5/C6 goals at s whose path starts with P,
  //   inv_step_watch_          or with P⁻¹.
  PassMarks arm_marks_;  // facts already turned into arms
  FlatIndex memb_watch_;
  FlatIndex path_watch_;
  FlatIndex step_watch_;
  FlatIndex inv_step_watch_;
  ListPool<uint32_t> watch_lists_;
  std::vector<uint8_t> armed_;      // by goal
  std::vector<uint32_t> armed_at_;  // by individual: its armed goals

  // Reusable scratch for the few scan loops whose source list can grow
  // (same-key append) while being iterated: copying into these reuses
  // their capacity instead of allocating a fresh vector per trigger.
  // Never borrowed across a nested rule call that could also use them.
  std::vector<ql::ConceptId> scratch_concepts_;
  std::vector<ql::ConceptId> scratch_goals_;
};

// Returns an error unless `c` is a pure QL concept (no ∀P.A / (≤1 P)
// nodes, which belong to the schema language only).
Status ValidateQlConcept(const ql::TermFactory& f, ql::ConceptId c);

}  // namespace oodb::calculus

#endif  // OODB_CALCULUS_ENGINE_H_
