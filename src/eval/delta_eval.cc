#include "eval/delta_eval.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace cqa {
namespace {

AnswerSet EvaluateSub(const ConjunctiveQuery& q, EngineKind kind,
                      const Database& db, const IndexedDatabase* idb,
                      EvalStats* stats, const EvalContext* ctx) {
  const std::unique_ptr<Engine> engine = MakeEngine(kind);
  return idb != nullptr ? engine->Evaluate(q, *idb, stats, ctx)
                        : engine->Evaluate(q, db, stats, ctx);
}

}  // namespace

DeltaEvaluator::DeltaEvaluator(const ConjunctiveQuery& q, const Database& db,
                               const IndexedDatabase* idb, EvalStats* stats,
                               const EvalContext* ctx)
    : query_(&q), ctx_(ctx), assignment_(q.num_variables(), -1) {
  const std::vector<Atom>& atoms = q.atoms();
  atom_rels_.reserve(atoms.size());
  seeds_.reserve(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    atom_rels_.push_back(atoms[i].rel);
    std::vector<bool> bound(q.num_variables(), false);
    for (const int v : atoms[i].vars) bound[v] = true;
    std::vector<ProbeAtom> rest;
    rest.reserve(atoms.size() - 1);
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j == i) continue;
      rest.push_back(ProbeAtom{atoms[j].rel, atoms[j].vars});
    }
    SeededSearch seed;
    seed.seed_vars = atoms[i].vars;
    seed.search = std::make_unique<ProbeBacktracker>(
        GreedyProbeOrder(std::move(rest), bound), q.num_variables(), bound, db,
        idb, stats, ctx);
    seeds_.push_back(std::move(seed));
  }
}

bool DeltaEvaluator::ApplyFact(const DeltaFact& fact,
                               const AnswerSet& existing, AnswerSet* out) {
  const std::vector<int>& free_vars = query_->free_variables();
  // A Boolean query that is already true stays true: nothing to derive.
  if (free_vars.empty() && (existing.AsBoolean() || out->AsBoolean())) {
    return true;
  }
  for (size_t i = 0; i < seeds_.size(); ++i) {
    if (atom_rels_[i] != fact.rel) continue;
    if (ctx_ != nullptr && ctx_->Interrupted()) return false;
    SeededSearch& seed = seeds_[i];
    CQA_CHECK(seed.seed_vars.size() == fact.tuple.size());
    std::fill(assignment_.begin(), assignment_.end(), -1);
    bool consistent = true;  // repeated variables must see one value
    for (size_t p = 0; p < seed.seed_vars.size(); ++p) {
      const int v = seed.seed_vars[p];
      const Element val = fact.tuple[p];
      if (assignment_[v] >= 0 && assignment_[v] != val) {
        consistent = false;
        break;
      }
      assignment_[v] = val;
    }
    if (!consistent) continue;
    seed.search->Search(&assignment_, [&](std::span<const Element> a) {
      Tuple answer(free_vars.size());
      for (size_t k = 0; k < free_vars.size(); ++k) {
        answer[k] = a[free_vars[k]];
        CQA_CHECK(answer[k] >= 0);
      }
      if (existing.Contains(answer)) return false;
      if (!out->Insert(std::move(answer))) return false;
      return ctx_ != nullptr && ctx_->RecordAnswer();
    });
    if (ctx_ != nullptr && !ctx_->ok()) return false;
  }
  return true;
}

AnswerSet DeltaEvaluateQuery(const ConjunctiveQuery& q, const Database& db,
                             const IndexedDatabase* idb,
                             std::span<const DeltaFact> delta,
                             const AnswerSet& existing, EvalStats* stats,
                             const EvalContext* ctx) {
  AnswerSet out(static_cast<int>(q.free_variables().size()));
  DeltaEvaluator evaluator(q, db, idb, stats, ctx);
  long long applied = 0;
  for (const DeltaFact& fact : delta) {
    if (!evaluator.ApplyFact(fact, existing, &out)) break;
    ++applied;
  }
  if (stats != nullptr) {
    ++stats->delta_ticks;
    stats->delta_facts += applied;
  }
  return out;
}

StandingQueryState::StandingQueryState(ConjunctiveQuery query, AnswerMode mode,
                                       PlanDecision plan)
    : query_(std::move(query)),
      mode_(mode),
      plan_(std::move(plan)),
      arity_(static_cast<int>(query_.free_variables().size())),
      certain_(arity_),
      possible_(arity_) {
  over_parts_.reserve(plan_.over.size());
  for (size_t j = 0; j < plan_.over.size(); ++j) {
    over_parts_.emplace_back(arity_);
  }
}

bool StandingQueryState::Initialize(const Database& db,
                                    const IndexedDatabase* idb,
                                    EvalStats* stats, const EvalContext* ctx) {
  initialized_ = false;
  over_valid_ = false;
  if (!plan_.approximate) {
    const AnswerSet result =
        EvaluateSub(query_, plan_.kind, db, idb, stats, ctx);
    // Keep partial results of an interrupted run: they are proven answers
    // and insertions never remove one (monotonicity), so merging in is
    // sound — the re-run on the next tick completes the set.
    for (const Tuple& t : result.tuples()) certain_.Insert(t);
    if (ctx != nullptr && !ctx->ok()) return false;
    initialized_ = true;
    over_valid_ = true;  // the sandwich collapses: possible() == certain()
    return true;
  }
  for (const ApproxSubPlan& sub : plan_.under) {
    const AnswerSet result =
        EvaluateSub(sub.query, sub.kind, db, idb, stats, ctx);
    for (const Tuple& t : result.tuples()) certain_.Insert(t);
    if (ctx != nullptr && !ctx->ok()) return false;
  }
  // The over side is all-or-nothing: a partially evaluated over rewrite is
  // an under-approximation of it, and intersecting with one would drop
  // possible answers. Rebuild every part completely or leave over_valid_
  // false for this tick.
  std::vector<AnswerSet> parts;
  parts.reserve(plan_.over.size());
  for (const ApproxSubPlan& sub : plan_.over) {
    parts.push_back(EvaluateSub(sub.query, sub.kind, db, idb, stats, ctx));
    if (ctx != nullptr && !ctx->ok()) return false;
  }
  over_parts_ = std::move(parts);
  if (!over_parts_.empty()) {
    // possible_ grows monotonically: each part grew with the database, so
    // the fresh intersection contains every previously reported possible
    // answer — merging keeps reported answers stable.
    for (const Tuple& t : over_parts_[0].tuples()) {
      bool in_all = true;
      for (size_t j = 1; j < over_parts_.size(); ++j) {
        if (!over_parts_[j].Contains(t)) {
          in_all = false;
          break;
        }
      }
      if (in_all) possible_.Insert(t);
    }
    over_valid_ = true;
  }
  initialized_ = true;
  return true;
}

StandingQueryState::TickResult StandingQueryState::MakeTick() const {
  return TickResult(arity_);
}

bool StandingQueryState::ApplyExact(const Database& db,
                                    const IndexedDatabase* idb,
                                    std::span<const DeltaFact> delta,
                                    EvalStats* stats, const EvalContext* ctx,
                                    TickResult* tick) {
  DeltaEvaluator evaluator(query_, db, idb, stats, ctx);
  for (const DeltaFact& fact : delta) {
    AnswerSet fresh(arity_);
    if (!evaluator.ApplyFact(fact, certain_, &fresh)) return false;
    for (const Tuple& t : fresh.tuples()) {
      certain_.Insert(t);
      tick->new_answers.Insert(t);
    }
    ++tick->facts_applied;
  }
  return true;
}

bool StandingQueryState::ApplyApproximate(const Database& db,
                                          const IndexedDatabase* idb,
                                          std::span<const DeltaFact> delta,
                                          EvalStats* stats,
                                          const EvalContext* ctx,
                                          TickResult* tick) {
  std::vector<DeltaEvaluator> unders;
  unders.reserve(plan_.under.size());
  for (const ApproxSubPlan& sub : plan_.under) {
    unders.emplace_back(sub.query, db, idb, stats, ctx);
  }
  std::vector<DeltaEvaluator> overs;
  overs.reserve(plan_.over.size());
  for (const ApproxSubPlan& sub : plan_.over) {
    overs.emplace_back(sub.query, db, idb, stats, ctx);
  }
  for (const DeltaFact& fact : delta) {
    // Per-fact temporaries: nothing is committed unless the fact processes
    // completely, so an interruption can never leave the under union or any
    // over part half-updated.
    AnswerSet under_fresh(arity_);
    bool complete = true;
    for (DeltaEvaluator& evaluator : unders) {
      if (!evaluator.ApplyFact(fact, certain_, &under_fresh)) {
        complete = false;
        break;
      }
    }
    std::vector<AnswerSet> over_fresh;
    over_fresh.reserve(overs.size());
    for (size_t j = 0; complete && j < overs.size(); ++j) {
      over_fresh.emplace_back(arity_);
      if (!overs[j].ApplyFact(fact, over_parts_[j], &over_fresh[j])) {
        complete = false;
      }
    }
    if (!complete) return false;
    for (const Tuple& t : under_fresh.tuples()) {
      certain_.Insert(t);
      tick->new_answers.Insert(t);
    }
    for (size_t j = 0; j < over_fresh.size(); ++j) {
      for (const Tuple& t : over_fresh[j].tuples()) over_parts_[j].Insert(t);
    }
    // A tuple newly enters the intersection only if some part just gained
    // it, so the fresh sets are a complete candidate list.
    for (size_t j = 0; j < over_fresh.size(); ++j) {
      for (const Tuple& t : over_fresh[j].tuples()) {
        if (possible_.Contains(t)) continue;
        bool in_all = true;
        for (const AnswerSet& part : over_parts_) {
          if (!part.Contains(t)) {
            in_all = false;
            break;
          }
        }
        if (in_all) {
          possible_.Insert(t);
          tick->new_possible.Insert(t);
        }
      }
    }
    ++tick->facts_applied;
  }
  return true;
}

StandingQueryState::TickResult StandingQueryState::Apply(
    const Database& db, const IndexedDatabase* idb,
    std::span<const DeltaFact> delta, EvalStats* stats,
    const EvalContext* ctx) {
  TickResult tick = MakeTick();
  if (stats != nullptr) ++stats->delta_ticks;
  if (!initialized_) {
    // First tick, or a previous tick was interrupted mid-initialization:
    // run the full evaluation and report the diff against what was already
    // reported (certain_/possible_ only ever grow, so the diff is sound).
    const AnswerSet certain_before = certain_;
    const AnswerSet possible_before = possible();
    tick.reinitialized = true;
    const bool ok = Initialize(db, idb, stats, ctx);
    for (const Tuple& t : certain_.tuples()) {
      if (!certain_before.Contains(t)) tick.new_answers.Insert(t);
    }
    for (const Tuple& t : possible().tuples()) {
      if (!possible_before.Contains(t)) tick.new_possible.Insert(t);
    }
    tick.facts_applied = ok ? delta.size() : 0;
  } else if (plan_.approximate) {
    ApplyApproximate(db, idb, delta, stats, ctx, &tick);
  } else {
    ApplyExact(db, idb, delta, stats, ctx, &tick);
    for (const Tuple& t : tick.new_answers.tuples()) {
      tick.new_possible.Insert(t);  // exact plans: the sandwich collapses
    }
  }
  if (stats != nullptr) {
    stats->delta_facts += static_cast<long long>(tick.facts_applied);
  }
  tick.status = ctx != nullptr ? ctx->status() : ResponseStatus::kOk;
  return tick;
}

}  // namespace cqa
