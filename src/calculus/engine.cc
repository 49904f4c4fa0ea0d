#include "calculus/engine.h"

#include <cassert>
#include <chrono>
#include <utility>

#include "base/strings.h"
#include "ql/print.h"

namespace oodb::calculus {

namespace {
using ql::ConceptId;
using ql::ConceptKind;
using ql::ConceptNode;
using ql::PathId;
using ql::Restriction;
}  // namespace

Status ValidateQlConcept(const ql::TermFactory& f, ql::ConceptId c) {
  if (f.IsQl(c)) return Status::Ok();
  // Not QL: find the offending subconcept for the message.
  for (ConceptId sub : f.Subconcepts(c)) {
    ConceptKind kind = f.node(sub).kind;
    if (kind == ConceptKind::kAll || kind == ConceptKind::kAtMostOne) {
      return InvalidArgumentError(
          StrCat("not a QL concept (contains the SL-only construct '",
                 ql::ConceptToString(f, sub),
                 "'; universal quantification in queries is NP-hard, "
                 "Prop. 4.11)"));
    }
  }
  return Status::Ok();
}

CompletionEngine::CompletionEngine(const schema::Schema& sigma,
                                   Options options)
    : sigma_(sigma), terms_(&sigma.terms()), options_(options) {}

Ind CompletionEngine::Find(Ind i) const {
  uint32_t id = i.id;
  while (parents_[id] != id) id = parents_[id];
  return Ind{id};
}

void CompletionEngine::SyncParents() {
  size_t old = parents_.size();
  parents_.resize(inds_.size());
  for (size_t i = old; i < parents_.size(); ++i) {
    parents_[i] = static_cast<uint32_t>(i);
  }
}

Ind CompletionEngine::FreshVar() {
  Ind y = inds_.FreshVar();
  SyncParents();
  return y;
}

void CompletionEngine::ResetAllMarks() {
  decomp_marks_ = PassMarks{};
  goal_marks_ = PassMarks{};
  comp_marks_ = PassMarks{};
  schema_marks_ = PassMarks{};
  // Goal ids name positions in the goal store, so the composition
  // triggers start over with it.
  arm_marks_ = PassMarks{};
  memb_watch_.Clear();
  path_watch_.Clear();
  step_watch_.Clear();
  inv_step_watch_.Clear();
  watch_lists_.Clear();
  armed_.clear();
  armed_at_.clear();
}

void CompletionEngine::Union(Ind from, Ind to) {
  Ind rf = Find(from);
  Ind rt = Find(to);
  if (rf == rt) return;
  parents_[rf.id] = rt.id;
  auto find_fn = [this](Ind i) { return Find(i); };
  facts_.Substitute(find_fn);
  goals_.Substitute(find_fn);
  // The stores were rebuilt: every pass must rescan from scratch.
  ResetAllMarks();
}

void CompletionEngine::SetClash(std::string reason) {
  clash_ = true;
  clash_reason_ = std::move(reason);
}

void CompletionEngine::Record(Rule rule, std::string text) {
  Count(rule);
  if (options_.record_trace) {
    trace_.push_back(TraceEvent{rule, std::move(text)});
  }
}

// Lazy tracing: the (expensive) text expression is evaluated only when
// trace recording is enabled.
#define OODB_TRACE(rule, ...)                          \
  do {                                                 \
    Count(rule);                                       \
    if (options_.record_trace) {                       \
      trace_.push_back(TraceEvent{rule, __VA_ARGS__}); \
    }                                                  \
  } while (false)

void CompletionEngine::Count(Rule rule) {
  ++stats_.rule_applications[static_cast<size_t>(rule)];
}

std::string CompletionEngine::IndName(Ind i) const {
  Ind r = Find(i);
  if (inds_.IsConstant(r)) {
    return terms_->symbols().Name(inds_.ConstantSymbol(r));
  }
  return inds_.Name(r);
}

Status CompletionEngine::CheckLimits() const {
  if (inds_.size() > options_.max_individuals) {
    return ResourceExhaustedError(
        StrCat("individual cap exceeded: ", inds_.size()));
  }
  if (facts_.size() + goals_.size() > options_.max_constraints) {
    return ResourceExhaustedError(
        StrCat("constraint cap exceeded: ", facts_.size() + goals_.size()));
  }
  return Status::Ok();
}

Status CompletionEngine::Run(ql::ConceptId c, ql::ConceptId d) {
  std::vector<ql::ConceptId> ds;
  if (d != ql::kInvalidConcept) ds.push_back(d);
  return RunBatch(c, ds);
}

void CompletionEngine::Reset() {
  inds_.Clear();
  parents_.clear();
  facts_.Clear();
  goals_.Clear();
  x0_ = Ind{};
  d_ = ql::kInvalidConcept;
  clash_ = false;
  clash_reason_.clear();
  stats_ = RunStats{};
  trace_.clear();
  ResetAllMarks();
}

Status CompletionEngine::RunBatch(ql::ConceptId c,
                                  const std::vector<ql::ConceptId>& ds) {
  Reset();
  auto start = std::chrono::steady_clock::now();
  OODB_RETURN_IF_ERROR(ValidateQlConcept(*terms_, c));
  for (ql::ConceptId d : ds) {
    OODB_RETURN_IF_ERROR(ValidateQlConcept(*terms_, d));
  }

  x0_ = inds_.NamedVar("x");
  SyncParents();
  d_ = ds.empty() ? ql::kInvalidConcept : ds[0];
  facts_.AddMemb(x0_, c);
  for (ql::ConceptId d : ds) goals_.AddMemb(x0_, d);

  for (;;) {
    ++stats_.rounds;
    OODB_RETURN_IF_ERROR(CheckLimits());

    // Decomposition rules have absolute priority; run them to fixpoint.
    bool changed = false;
    for (;;) {
      PassResult r = DecompositionPass();
      if (clash_) break;
      if (r == PassResult::kNoChange) break;
      changed = true;
    }
    if (clash_) break;

    changed |= GoalPass();
    changed |= CompositionPass();
    // Only when facts and goals are otherwise quiescent may schema rules
    // fire (this subsumes the paper's decomposition-before-schema
    // priority).
    if (changed) continue;

    PassResult r = SchemaPass();
    if (clash_) break;
    if (r == PassResult::kNoChange) break;
  }

  stats_.individuals = inds_.size();
  stats_.variables = inds_.num_variables();
  stats_.facts = facts_.size();
  stats_.goals = goals_.size();
  stats_.clash = clash_;
  stats_.duration = std::chrono::steady_clock::now() - start;
  return Status::Ok();
}

bool CompletionEngine::GoalFactHolds() const {
  if (d_ == ql::kInvalidConcept) return false;
  return GoalFactHoldsFor(d_);
}

bool CompletionEngine::GoalFactHoldsFor(ql::ConceptId d) const {
  return facts_.HasMemb(Find(x0_), d);
}

// --------------------------------------------------------------------------
// Decomposition rules (Figure 7)
// --------------------------------------------------------------------------

CompletionEngine::PassResult CompletionEngine::DecompositionPass() {
  if (!options_.semi_naive) decomp_marks_ = PassMarks{};
  bool changed = false;

  // D1: s:C⊓D ∈ F  ⇒  F += {s:C, s:D}.
  // D3: y:{a} ∈ F  ⇒  substitute y := a (clash if y is another constant).
  // D4: s:∃p ∈ F (p≠ε), no t with spt ∈ F  ⇒  F += {s p y}, y fresh.
  // D5: s:∃p≐ε ∈ F (p≠ε)  ⇒  F += {s p s}.
  while (decomp_marks_.memb < facts_.membs().size()) {
    const MembFact m = facts_.membs()[decomp_marks_.memb++];
    const ConceptNode& n = terms_->node(m.c);
    switch (n.kind) {
      case ConceptKind::kAnd: {
        bool added = facts_.AddMemb(m.s, n.lhs);
        added |= facts_.AddMemb(m.s, n.rhs);
        if (added) {
          changed = true;
          OODB_TRACE(Rule::kD1,
                 StrCat("F += ", IndName(m.s), ":",
                        ql::ConceptToString(*terms_, n.lhs), ", ",
                        IndName(m.s), ":",
                        ql::ConceptToString(*terms_, n.rhs)));
        }
        break;
      }
      case ConceptKind::kSingleton: {
        if (inds_.IsConstant(m.s)) {
          if (inds_.ConstantSymbol(m.s) != n.sym) {
            SetClash(StrCat("clash: ", IndName(m.s), ":{",
                            terms_->symbols().Name(n.sym), "}"));
            return PassResult::kRestart;
          }
          break;
        }
        Ind a = inds_.Constant(n.sym);
        SyncParents();
        OODB_TRACE(Rule::kD3, StrCat("[", inds_.Name(m.s), " := ",
                                 terms_->symbols().Name(n.sym), "]"));
        Union(m.s, a);
        return PassResult::kRestart;
      }
      case ConceptKind::kExists: {
        if (n.path == ql::kEmptyPath) break;  // ∃ε is trivially true.
        if (facts_.HasPathFrom(m.s, n.path)) break;
        Ind y = FreshVar();
        facts_.AddPath(m.s, n.path, y);
        changed = true;
        OODB_TRACE(Rule::kD4, StrCat("F += ", IndName(m.s), " ",
                                 ql::PathToString(*terms_, n.path), " ",
                                 IndName(y)));
        break;
      }
      case ConceptKind::kAgree: {
        if (n.path == ql::kEmptyPath) break;  // ∃ε≐ε is trivially true.
        if (facts_.AddPath(m.s, n.path, m.s)) {
          changed = true;
          OODB_TRACE(Rule::kD5, StrCat("F += ", IndName(m.s), " ",
                                   ql::PathToString(*terms_, n.path), " ",
                                   IndName(m.s)));
        }
        break;
      }
      default:
        break;
    }
  }

  // D6: s(R:C)pt ∈ F (p≠ε), no witness t' with {sRt', t':C, t'pt} ⊆ F
  //     ⇒ F += {sRy, y:C, ypt}, y fresh.
  // D7: s(R:C)t ∈ F  ⇒  F += {sRt, t:C}.
  while (decomp_marks_.path < facts_.paths().size()) {
    const PathFact pf = facts_.paths()[decomp_marks_.path++];
    const Restriction& head = terms_->head(pf.p);
    const PathId tail = terms_->tail(pf.p);
    if (tail == ql::kEmptyPath) {
      bool added = facts_.AddAttr(pf.s, head.attr, pf.t);
      added |= facts_.AddMemb(pf.t, head.filter);
      if (added) {
        changed = true;
        OODB_TRACE(Rule::kD7,
               StrCat("F += ", IndName(pf.s), " ",
                      ql::AttrToString(*terms_, head.attr), " ",
                      IndName(pf.t), ", ", IndName(pf.t), ":",
                      ql::ConceptToString(*terms_, head.filter)));
      }
      continue;
    }
    bool witness = false;
    for (Ind t2 : facts_.Fillers(pf.s, head.attr)) {
      if (facts_.HasMemb(t2, head.filter) &&
          facts_.HasPath(t2, tail, pf.t)) {
        witness = true;
        break;
      }
    }
    if (witness) continue;
    Ind y = FreshVar();
    facts_.AddAttr(pf.s, head.attr, y);
    facts_.AddMemb(y, head.filter);
    facts_.AddPath(y, tail, pf.t);
    changed = true;
    OODB_TRACE(Rule::kD6,
           StrCat("F += ", IndName(pf.s), " ",
                  ql::AttrToString(*terms_, head.attr), " ", IndName(y),
                  ", ", IndName(y), ":",
                  ql::ConceptToString(*terms_, head.filter), ", ",
                  IndName(y), " ", ql::PathToString(*terms_, tail), " ",
                  IndName(pf.t)));
  }

  return changed ? PassResult::kChanged : PassResult::kNoChange;
}

// --------------------------------------------------------------------------
// Schema rules (Figure 8 + the derived rule S6; see trace.h)
// --------------------------------------------------------------------------

CompletionEngine::PassResult CompletionEngine::CheckFunctional(
    Ind s, Symbol p, Symbol concept_name) {
  const auto& fillers = facts_.PrimFillers(s, p);
  if (fillers.size() < 2) return PassResult::kNoChange;
  Ind u = fillers[0];
  Ind v = fillers[1];
  if (inds_.IsConstant(u) && inds_.IsConstant(v)) {
    SetClash(StrCat("clash: ", IndName(s), " has two distinct ",
                    terms_->symbols().Name(p), "-values ", IndName(u), ", ",
                    IndName(v), " but ",
                    terms_->symbols().Name(concept_name), " ⊑ (≤1 ",
                    terms_->symbols().Name(p), ")"));
    return PassResult::kRestart;
  }
  Ind from = inds_.IsConstant(u) ? v : u;
  Ind to = inds_.IsConstant(u) ? u : v;
  OODB_TRACE(Rule::kS4, StrCat("[", IndName(from), " := ", IndName(to), "]"));
  Union(from, to);
  return PassResult::kRestart;
}

bool CompletionEngine::ApplyS5For(Ind s, ql::ConceptId goal_concept) {
  const ConceptNode& n = terms_->node(goal_concept);
  if (n.kind != ConceptKind::kExists && n.kind != ConceptKind::kAgree) {
    return false;
  }
  if (n.path == ql::kEmptyPath) return false;
  const Restriction& head = terms_->head(n.path);
  if (head.attr.inverted) return false;  // S5 needs a primitive first step.
  Symbol p = head.attr.prim;
  if (facts_.HasAnyPrimFiller(s, p)) return false;
  bool required = false;
  for (ConceptId c : facts_.ConceptsOf(s)) {
    const ConceptNode& cn = terms_->node(c);
    if (cn.kind == ConceptKind::kPrimitive &&
        sigma_.IsNecessaryFor(cn.sym, p)) {
      required = true;
      break;
    }
  }
  if (!required) return false;
  Ind y = FreshVar();
  facts_.AddAttrPrim(s, p, y);
  OODB_TRACE(Rule::kS5, StrCat("F += ", IndName(s), " ",
                           terms_->symbols().Name(p), " ", IndName(y)));
  return true;
}

CompletionEngine::PassResult CompletionEngine::SchemaPass() {
  if (!options_.semi_naive) schema_marks_ = PassMarks{};
  bool changed = false;

  // Ablation mode: unguarded witness generation for every necessary
  // attribute (see EngineOptions::eager_witnesses). Kept as a full scan:
  // it exists to demonstrate divergence, not to be fast.
  if (options_.eager_witnesses) {
    for (size_t i = 0; i < facts_.membs().size(); ++i) {
      const MembFact m = facts_.membs()[i];
      const ConceptNode n = terms_->node(m.c);
      if (n.kind != ConceptKind::kPrimitive) continue;
      for (Symbol p : sigma_.NecessaryAttrs(n.sym)) {
        if (facts_.HasAnyPrimFiller(m.s, p)) continue;
        Ind y = FreshVar();
        facts_.AddAttrPrim(m.s, p, y);
        changed = true;
        Count(Rule::kS5);
        if (inds_.size() > options_.max_individuals) {
          return changed ? PassResult::kChanged : PassResult::kNoChange;
        }
      }
    }
  }

  // Trigger: new primitive memberships.
  //   S1: A₁ ⊑ A₂          ⇒ s:A₂
  //   S6: A ⊑ ∃P, P ⊑ A₁×A₂ ⇒ s:A₁
  //   S2 (memb side): A₁ ⊑ ∀P.A₂, existing sPt ⇒ t:A₂
  //   S4: A ⊑ (≤1 P) with two fillers ⇒ merge/clash
  //   S5: existing goals at s may now be entitled to a witness
  while (schema_marks_.memb < facts_.membs().size()) {
    const MembFact m = facts_.membs()[schema_marks_.memb++];
    const ConceptNode n = terms_->node(m.c);
    if (n.kind != ConceptKind::kPrimitive) continue;
    for (const schema::ClassRef& super : sigma_.SuperPrimitives(n.sym)) {
      if (facts_.AddMemb(m.s, super.primitive)) {
        changed = true;
        OODB_TRACE(Rule::kS1, StrCat("F += ", IndName(m.s), ":",
                                 terms_->symbols().Name(super.name)));
      }
    }
    for (Symbol p : sigma_.NecessaryAttrs(n.sym)) {
      for (const schema::TypingAxiom& typing : sigma_.TypingsOf(p)) {
        if (facts_.AddMemb(m.s, typing.domain_concept)) {
          changed = true;
          OODB_TRACE(Rule::kS6, StrCat("F += ", IndName(m.s), ":",
                                   terms_->symbols().Name(typing.domain)));
        }
      }
    }
    for (const auto& [p, range] : sigma_.ValueRestrictionsOf(n.sym)) {
      // Reference stays valid: AddMemb never touches the filler index.
      const std::vector<Ind>& fillers = facts_.PrimFillers(m.s, p);
      for (Ind t : fillers) {
        if (facts_.AddMemb(t, range.primitive)) {
          changed = true;
          OODB_TRACE(Rule::kS2, StrCat("F += ", IndName(t), ":",
                                   terms_->symbols().Name(range.name)));
        }
      }
    }
    for (Symbol p : sigma_.FunctionalAttrs(n.sym)) {
      PassResult r = CheckFunctional(m.s, p, n.sym);
      if (r == PassResult::kRestart) return r;
    }
    // S5 re-check for goals already sitting at s. Reference stays valid:
    // ApplyS5For only adds attribute FACTS, never goal memberships.
    const std::vector<ConceptId>& goal_concepts = goals_.ConceptsOf(m.s);
    for (ConceptId g : goal_concepts) changed |= ApplyS5For(m.s, g);
  }

  // Trigger: new attribute facts.
  //   S2 (attr side), S3 (typing), S4 (functional membs of s).
  while (schema_marks_.attr < facts_.attrs().size()) {
    const AttrFact a = facts_.attrs()[schema_marks_.attr++];
    // Scratch copy: AddMemb below grows this exact list when a.s == a.t
    // (self-loop), so iterate a snapshot with reused capacity.
    scratch_concepts_.assign(facts_.ConceptsOf(a.s).begin(),
                             facts_.ConceptsOf(a.s).end());
    for (ConceptId c : scratch_concepts_) {
      const ConceptNode n = terms_->node(c);
      if (n.kind != ConceptKind::kPrimitive) continue;
      for (const schema::ClassRef& range :
           sigma_.ValueRestrictions(n.sym, a.p)) {
        if (facts_.AddMemb(a.t, range.primitive)) {
          changed = true;
          OODB_TRACE(Rule::kS2, StrCat("F += ", IndName(a.t), ":",
                                   terms_->symbols().Name(range.name)));
        }
      }
      if (sigma_.IsFunctionalFor(n.sym, a.p)) {
        PassResult r = CheckFunctional(a.s, a.p, n.sym);
        if (r == PassResult::kRestart) return r;
      }
    }
    for (const schema::TypingAxiom& typing : sigma_.TypingsOf(a.p)) {
      bool added = facts_.AddMemb(a.s, typing.domain_concept);
      added |= facts_.AddMemb(a.t, typing.range_concept);
      if (added) {
        changed = true;
        OODB_TRACE(Rule::kS3,
               StrCat("F += ", IndName(a.s), ":",
                      terms_->symbols().Name(typing.domain), ", ",
                      IndName(a.t), ":",
                      terms_->symbols().Name(typing.range)));
      }
    }
  }

  // Trigger: new goals — S5.
  while (schema_marks_.goal < goals_.membs().size()) {
    const MembFact g = goals_.membs()[schema_marks_.goal++];
    changed |= ApplyS5For(g.s, g.c);
  }

  return changed ? PassResult::kChanged : PassResult::kNoChange;
}

// --------------------------------------------------------------------------
// Goal rules (Figure 9)
// --------------------------------------------------------------------------

bool CompletionEngine::ApplyGoalStepRules(Ind s, ql::ConceptId goal_concept) {
  const ConceptNode& n = terms_->node(goal_concept);
  switch (n.kind) {
    // G1: s:C⊓D ∈ G  ⇒  G += {s:C, s:D}.
    case ConceptKind::kAnd: {
      bool added = goals_.AddMemb(s, n.lhs);
      added |= goals_.AddMemb(s, n.rhs);
      if (added) {
        OODB_TRACE(Rule::kG1,
               StrCat("G += ", IndName(s), ":",
                      ql::ConceptToString(*terms_, n.lhs), ", ", IndName(s),
                      ":", ql::ConceptToString(*terms_, n.rhs)));
      }
      return added;
    }
    // G2: s:∃(R:C) ∈ G (or ≐ε) and sRt ∈ F   ⇒  G += t:C.
    // G3: s:∃(R:C)p ∈ G (or ≐ε), p≠ε, sRt ∈ F ⇒  G += {t:C, t:∃p}.
    case ConceptKind::kExists:
    case ConceptKind::kAgree: {
      if (n.path == ql::kEmptyPath) return false;
      const Restriction& head = terms_->head(n.path);
      const PathId tail = terms_->tail(n.path);
      const bool is_last = tail == ql::kEmptyPath;
      const ConceptId tail_goal =
          is_last ? ql::kInvalidConcept : terms_->Exists(tail);
      bool changed = false;
      for (Ind t : facts_.Fillers(s, head.attr)) {
        bool added = goals_.AddMemb(t, head.filter);
        if (!is_last) added |= goals_.AddMemb(t, tail_goal);
        if (added) {
          changed = true;
          OODB_TRACE(is_last ? Rule::kG2 : Rule::kG3,
                 StrCat("G += ", IndName(t), ":",
                        ql::ConceptToString(*terms_, head.filter),
                        is_last ? ""
                                : StrCat(", ", IndName(t), ":",
                                         ql::ConceptToString(*terms_,
                                                             tail_goal))));
        }
      }
      return changed;
    }
    default:
      return false;
  }
}

bool CompletionEngine::GoalPass() {
  if (!options_.semi_naive) goal_marks_ = PassMarks{};
  bool changed = false;
  // Trigger: new goals (against all current fillers).
  while (goal_marks_.goal < goals_.membs().size()) {
    const MembFact g = goals_.membs()[goal_marks_.goal++];
    changed |= ApplyGoalStepRules(g.s, g.c);
  }
  // Trigger: new attribute facts (against existing goals at both ends).
  while (goal_marks_.attr < facts_.attrs().size()) {
    const AttrFact a = facts_.attrs()[goal_marks_.attr++];
    for (Ind u : {a.s, a.t}) {
      // Scratch copy: G2/G3 add goal memberships, which grow this exact
      // list when a filler of u is u itself (self-loop).
      scratch_goals_.assign(goals_.ConceptsOf(u).begin(),
                            goals_.ConceptsOf(u).end());
      for (ConceptId g : scratch_goals_) {
        changed |= ApplyGoalStepRules(u, g);
      }
    }
  }
  return changed;
}

// --------------------------------------------------------------------------
// Composition rules (Figure 10)
// --------------------------------------------------------------------------

bool CompletionEngine::ComposeForGoal(Ind s, ql::ConceptId goal_concept) {
  const ConceptNode& n = terms_->node(goal_concept);
  bool changed = false;
  switch (n.kind) {
    // C1: {s:C, s:D} ⊆ F and s:C⊓D ∈ G  ⇒  F += s:C⊓D.
    case ConceptKind::kAnd: {
      if (facts_.HasMemb(s, n.lhs) && facts_.HasMemb(s, n.rhs) &&
          facts_.AddMemb(s, goal_concept)) {
        changed = true;
        OODB_TRACE(Rule::kC1, StrCat("F += ", IndName(s), ":",
                                 ql::ConceptToString(*terms_,
                                                     goal_concept)));
      }
      break;
    }
    // C2: s:⊤ ∈ G  ⇒  F += s:⊤.
    case ConceptKind::kTop: {
      if (facts_.AddMemb(s, goal_concept)) {
        changed = true;
        OODB_TRACE(Rule::kC2, StrCat("F += ", IndName(s), ":⊤"));
      }
      break;
    }
    case ConceptKind::kExists:
    case ConceptKind::kAgree: {
      const bool is_agree = n.kind == ConceptKind::kAgree;
      // C5/C6: compose path facts requested by the goal.
      if (n.path != ql::kEmptyPath) {
        const Restriction& head = terms_->head(n.path);
        const PathId tail = terms_->tail(n.path);
        if (tail == ql::kEmptyPath) {
          // C6: sRt ∈ F, t:C ∈ F  ⇒  F += s(R:C)t.
          for (Ind t : facts_.Fillers(s, head.attr)) {
            if (facts_.HasMemb(t, head.filter) &&
                facts_.AddPath(s, n.path, t)) {
              changed = true;
              OODB_TRACE(Rule::kC6,
                     StrCat("F += ", IndName(s), " ",
                            ql::PathToString(*terms_, n.path), " ",
                            IndName(t)));
            }
          }
        } else {
          // C5: sRt' ∈ F, t':C ∈ F, t'pt ∈ F  ⇒  F += s(R:C)pt.
          for (Ind t2 : facts_.Fillers(s, head.attr)) {
            if (!facts_.HasMemb(t2, head.filter)) continue;
            // No copy needed: AddPath appends only to the targets of
            // (s, n.path), never to those of (t2, tail), a shorter path.
            for (Ind t : facts_.PathTargets(t2, tail)) {
              if (facts_.AddPath(s, n.path, t)) {
                changed = true;
                OODB_TRACE(Rule::kC5,
                       StrCat("F += ", IndName(s), " ",
                              ql::PathToString(*terms_, n.path), " ",
                              IndName(t)));
              }
            }
          }
        }
      }
      // C3: s:∃p ∈ G and (p = ε or spt ∈ F)  ⇒  F += s:∃p.
      // C4: s:∃p≐ε ∈ G and (p = ε or sps ∈ F)  ⇒  F += s:∃p≐ε.
      bool satisfied;
      if (n.path == ql::kEmptyPath) {
        satisfied = true;
      } else if (is_agree) {
        satisfied = facts_.HasPath(s, n.path, s);
      } else {
        satisfied = facts_.HasPathFrom(s, n.path);
      }
      if (satisfied && facts_.AddMemb(s, goal_concept)) {
        changed = true;
        OODB_TRACE(is_agree ? Rule::kC4 : Rule::kC3,
               StrCat("F += ", IndName(s), ":",
                      ql::ConceptToString(*terms_, goal_concept)));
      }
      break;
    }
    default:
      break;
  }
  return changed;
}

// --------------------------------------------------------------------------
// Composition triggers (semi-naive scheduling only)
// --------------------------------------------------------------------------
//
// A goal is evaluated again only once a fact has arrived that can enable
// one of its rules: for s:C⊓D a conjunct s:C or s:D (C1); for s:∃p or
// s:∃p≐ε a path fact s p t (C3/C4); for a goal whose path starts with
// (R:C) and goes on with q, a new filler s R t', or t':C or t' q t at a
// filler t' (C5/C6). Such a fact "arms" the goal through the watch
// tables; the visits of CompositionPass then evaluate only armed goals,
// in the order the naive scheduler evaluates all of them. A goal that
// is not armed would derive nothing new, so the productive evaluations,
// and with them the facts and the trace, are the naive scheduler's.

void CompletionEngine::Watch(FlatIndex& index, uint64_t key, uint32_t goal) {
  auto [list, inserted] =
      index.Insert(key, static_cast<uint32_t>(watch_lists_.size()));
  if (inserted) watch_lists_.New();
  watch_lists_.At(list).push_back(goal);
}

void CompletionEngine::WatchGoal(uint32_t goal) {
  const MembFact g = goals_.membs()[goal];
  const ConceptNode& n = terms_->node(g.c);
  switch (n.kind) {
    case ConceptKind::kAnd:
      Watch(memb_watch_, PackKey(g.s.id, n.lhs), goal);
      Watch(memb_watch_, PackKey(g.s.id, n.rhs), goal);
      break;
    case ConceptKind::kExists:
    case ConceptKind::kAgree: {
      if (n.path == ql::kEmptyPath) break;
      Watch(path_watch_, PackKey(g.s.id, n.path), goal);
      const ql::Attr attr = terms_->head(n.path).attr;
      Watch(attr.inverted ? inv_step_watch_ : step_watch_,
            PackKey(g.s.id, attr.prim.id()), goal);
      for (Ind t : facts_.Fillers(g.s, attr)) WatchFiller(goal, t);
      break;
    }
    default:
      break;
  }
}

void CompletionEngine::WatchFiller(uint32_t goal, Ind t) {
  const PathId p = terms_->node(goals_.membs()[goal].c).path;
  Watch(memb_watch_, PackKey(t.id, terms_->head(p).filter), goal);
  const PathId tail = terms_->tail(p);
  if (tail != ql::kEmptyPath) Watch(path_watch_, PackKey(t.id, tail), goal);
}

void CompletionEngine::Arm(uint32_t goal) {
  if (armed_[goal]) return;
  armed_[goal] = 1;
  ++armed_at_[goals_.membs()[goal].s.id];
}

void CompletionEngine::Disarm(uint32_t goal) {
  if (!armed_[goal]) return;
  armed_[goal] = 0;
  --armed_at_[goals_.membs()[goal].s.id];
}

void CompletionEngine::ArmWatchers(const FlatIndex& index, uint64_t key) {
  const uint32_t list = index.Find(key);
  if (list == FlatIndex::kAbsent) return;
  for (uint32_t goal : watch_lists_[list]) Arm(goal);
}

void CompletionEngine::ArmFromNewFacts() {
  while (arm_marks_.memb < facts_.membs().size()) {
    const MembFact m = facts_.membs()[arm_marks_.memb++];
    ArmWatchers(memb_watch_, PackKey(m.s.id, m.c));
  }
  while (arm_marks_.attr < facts_.attrs().size()) {
    const AttrFact a = facts_.attrs()[arm_marks_.attr++];
    // s P t is a new filler for the goals at s stepping P and for those
    // at t stepping P⁻¹. Reference stays valid: WatchFiller appends to
    // the membership and path watch lists only.
    auto arm_for_filler = [&](const FlatIndex& index, Ind at, Ind filler) {
      const uint32_t list = index.Find(PackKey(at.id, a.p.id()));
      if (list == FlatIndex::kAbsent) return;
      for (uint32_t goal : watch_lists_[list]) {
        Arm(goal);
        WatchFiller(goal, filler);
      }
    };
    arm_for_filler(step_watch_, a.s, a.t);
    arm_for_filler(inv_step_watch_, a.t, a.s);
  }
  while (arm_marks_.path < facts_.paths().size()) {
    const PathFact p = facts_.paths()[arm_marks_.path++];
    ArmWatchers(path_watch_, PackKey(p.s.id, p.p));
  }
}

bool CompletionEngine::EvaluateGoal(uint32_t goal) {
  Disarm(goal);
  const MembFact g = goals_.membs()[goal];
  if (!ComposeForGoal(g.s, g.c)) return false;
  ArmFromNewFacts();
  // What the goal just added cannot enable it again: its C5/C6 paths
  // were read by its own C3/C4 test, and nothing else it adds is a fact
  // it watches.
  Disarm(goal);
  return true;
}

bool CompletionEngine::RecheckGoalsAt(Ind u) {
  bool changed = false;
  if (!options_.semi_naive) {
    // Reference stays valid: compositions only ever add FACTS (C1–C6),
    // never goal memberships, so the goal-concept list cannot grow here.
    for (ConceptId g : goals_.ConceptsOf(u)) changed |= ComposeForGoal(u, g);
    return changed;
  }
  for (uint32_t goal : goals_.MembIdsOf(u)) {
    if (armed_at_[u.id] == 0) break;
    if (armed_[goal]) changed |= EvaluateGoal(goal);
  }
  return changed;
}

bool CompletionEngine::CompositionPass() {
  const bool semi_naive = options_.semi_naive;
  if (!semi_naive) comp_marks_ = PassMarks{};
  bool changed = false;
  if (semi_naive) {
    // Only the goal and decomposition passes create goals and
    // individuals, so the trigger state can be sized once per pass.
    armed_.resize(goals_.membs().size());
    armed_at_.resize(inds_.size());
    ArmFromNewFacts();
  }

  // Trigger: new goals — evaluate their conditions directly.
  while (comp_marks_.goal < goals_.membs().size()) {
    const auto goal = static_cast<uint32_t>(comp_marks_.goal++);
    if (semi_naive) {
      WatchGoal(goal);
      changed |= EvaluateGoal(goal);
    } else {
      const MembFact g = goals_.membs()[goal];
      changed |= ComposeForGoal(g.s, g.c);
    }
  }
  // Trigger: new facts. A new membership or path fact at t' can enable
  // C1/C3/C4 at t' itself and C5/C6 at attribute-predecessors of t'; a
  // new attribute fact can enable compositions at both of its endpoints.
  // Semi-naively a visit evaluates only the goals a fact has armed.
  while (comp_marks_.memb < facts_.membs().size()) {
    const MembFact m = facts_.membs()[comp_marks_.memb++];
    changed |= RecheckGoalsAt(m.s);
    // Reference stays valid: compositions never add attribute facts, so
    // the neighbor lists cannot grow during the recheck.
    const std::vector<Ind>& neighbors = facts_.Neighbors(m.s);
    for (Ind u : neighbors) changed |= RecheckGoalsAt(u);
  }
  while (comp_marks_.attr < facts_.attrs().size()) {
    const AttrFact a = facts_.attrs()[comp_marks_.attr++];
    changed |= RecheckGoalsAt(a.s);
    changed |= RecheckGoalsAt(a.t);
  }
  while (comp_marks_.path < facts_.paths().size()) {
    const PathFact p = facts_.paths()[comp_marks_.path++];
    changed |= RecheckGoalsAt(p.s);
    const std::vector<Ind>& neighbors = facts_.Neighbors(p.s);
    for (Ind u : neighbors) changed |= RecheckGoalsAt(u);
  }
  return changed;
}

}  // namespace oodb::calculus
