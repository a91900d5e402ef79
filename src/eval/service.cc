#include "eval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "cq/properties.h"
#include "data/index.h"
#include "data/shard.h"
#include "eval/cache.h"
#include "eval/delta_eval.h"
#include "eval/probe_core.h"
#include "eval/shard_eval.h"

namespace cqa {

// One stateless instance of every engine, shared by all of a service's jobs.
struct EngineSet {
  EngineSet()
      : engines{MakeEngine(EngineKind::kNaive),
                MakeEngine(EngineKind::kYannakakis),
                MakeEngine(EngineKind::kTreewidth)} {}
  const Engine& For(EngineKind kind) const {
    return *engines[static_cast<int>(kind)];
  }
  std::unique_ptr<Engine> engines[3];
};

namespace {

double MsSince(const std::chrono::steady_clock::time_point& start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// 0 (or negative) means "use the hardware", with a floor of one thread.
int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

// Everything one request needs to evaluate shard-by-shard: the partition
// (shared ownership keeps it alive for the whole job), the per-shard index
// views (empty = scan), and the fan-out width ShardedEvaluate may use. Null
// context = sharding off.
struct ShardContext {
  std::shared_ptr<const ShardedDatabase> shards;
  ShardViews views;
  int parallelism = 1;
};

// `shard_ctx` non-null routes the sub-evaluation through the per-shard
// union; the caller only passes it for shard-sound plans.
AnswerSet EvaluateSubPlan(const ApproxSubPlan& sub, const EngineSet& engines,
                          const ShardContext* shard_ctx,
                          const IndexedDatabase* idb, const Database& db,
                          EvalStats* stats, const EvalContext* ctx) {
  const Engine& engine = engines.For(sub.kind);
  AnswerSet out =
      shard_ctx != nullptr
          ? ShardedEvaluate(sub.query, engine, *shard_ctx->shards,
                            shard_ctx->views, shard_ctx->parallelism, stats,
                            ctx)
      : idb != nullptr ? engine.Evaluate(sub.query, *idb, stats, ctx)
                       : engine.Evaluate(sub.query, db, stats, ctx);
  stats->answer_rows += static_cast<long long>(out.size());
  return out;
}

// Certain answers: the union of the maximally contained rewrites. Each
// rewrite Q' satisfies Q' ⊆ Q, so every tuple is a genuine answer — and an
// interrupted partial union (fewer rewrites, each a partial subset) still
// is: the under side stays sound under every interruption.
AnswerSet UnionOfSubPlans(const std::vector<ApproxSubPlan>& subs,
                          const EngineSet& engines,
                          const ShardContext* shard_ctx,
                          const IndexedDatabase* idb, const Database& db,
                          int arity, EvalStats* stats,
                          const EvalContext* ctx) {
  AnswerSet result(arity);
  for (const ApproxSubPlan& sub : subs) {
    if (ctx != nullptr && !ctx->ok()) break;
    const AnswerSet part =
        EvaluateSubPlan(sub, engines, shard_ctx, idb, db, stats, ctx);
    for (const Tuple& t : part.tuples()) result.Insert(t);
  }
  return result;
}

// The candidate checks of IntersectionOfSubPlans: every non-driver rewrite
// split into free-connected components (FreeConnectedComponents), each an
// existence probe with its free variables bound from the candidate.
class OverFilters {
 public:
  OverFilters(const std::vector<ApproxSubPlan>& subs,
              const IndexedDatabase& idb, EvalStats* stats,
              const EvalContext* ctx) {
    std::vector<std::vector<int>> enforced;
    for (size_t r = 0; r < subs.size(); ++r) {
      AddRewrite(subs[r].query, /*driver=*/r == 0, idb, stats, ctx,
                 &enforced);
    }
    // Memoized components first: after warm-up they cost a lookup.
    std::stable_partition(components_.begin(), components_.end(),
                          [](const Component& c) { return c.memoized; });
  }

  // True iff `t` satisfies every non-driver rewrite. A probe stopped by
  // `ctx` reads as a failure; the caller stops at the trip anyway.
  bool Pass(const Tuple& t) {
    for (const auto& [p, q] : equal_positions_) {
      if (t[p] != t[q]) return false;
    }
    for (Component& c : components_) {
      bool* memo = nullptr;
      if (c.memoized) {
        const auto [it, fresh] =
            c.memo.try_emplace(c.memo_pos < 0 ? 0 : t[c.memo_pos], false);
        if (!fresh) {
          if (!it->second) return false;
          continue;
        }
        memo = &it->second;
      }
      for (const auto& [slot, pos] : c.bind) c.assignment[slot] = t[pos];
      bool found = false;
      c.search->Search(&c.assignment, [&](std::span<const Element>) {
        found = true;
        return true;  // one witness suffices
      });
      if (memo != nullptr) *memo = found;
      if (!found) return false;
    }
    return true;
  }

 private:
  struct Component {
    std::unique_ptr<ProbeBacktracker> search;
    std::vector<Element> assignment;        // one slot per variable
    std::vector<std::pair<int, int>> bind;  // (slot, candidate position)
    // A component touching at most one distinct free variable is decided
    // by that variable's value alone: memo maps the value (at candidate
    // position memo_pos; 0 when it touches none) to "has a witness".
    bool memoized = false;
    int memo_pos = -1;
    std::unordered_map<Element, bool> memo;
  };

  // Splits `q` into components. Free variables are labelled by their first
  // free-tuple position, because the synthesized rewrites are relabelled
  // and minimized: only positions line up with the candidate. A component
  // whose canonical key is already in `enforced` (the driver's own, or an
  // earlier filter's) is skipped.
  void AddRewrite(const ConjunctiveQuery& q, bool driver,
                  const IndexedDatabase& idb, EvalStats* stats,
                  const EvalContext* ctx,
                  std::vector<std::vector<int>>* enforced) {
    const std::vector<int>& free_tuple = q.free_variables();
    const int arity = static_cast<int>(free_tuple.size());
    std::vector<int> first_pos(q.num_variables(), -1);
    for (int p = 0; p < arity; ++p) {
      int& first = first_pos[free_tuple[p]];
      if (first < 0) {
        first = p;
      } else if (!driver) {
        equal_positions_.emplace_back(first, p);
      }
    }
    for (const FreeComponent& fc : FreeConnectedComponents(q)) {
      std::vector<int> key;
      std::vector<int> slot_of(q.num_variables(), -1);
      Component comp;
      std::vector<ProbeAtom> atoms;
      std::vector<bool> bound;
      for (const int i : fc.atoms) {
        const Atom& atom = q.atoms()[i];
        key.push_back(atom.rel);
        ProbeAtom probe{atom.rel, {}};
        for (const int v : atom.vars) {
          if (slot_of[v] < 0) {
            slot_of[v] = static_cast<int>(bound.size());
            bound.push_back(first_pos[v] >= 0);
            if (first_pos[v] >= 0) {
              comp.bind.emplace_back(slot_of[v], first_pos[v]);
            }
          }
          // Existential labels start past every free-tuple position.
          key.push_back(first_pos[v] >= 0 ? first_pos[v]
                                          : arity + slot_of[v]);
          probe.slots.push_back(slot_of[v]);
        }
        key.push_back(-1);  // atom separator
        atoms.push_back(std::move(probe));
      }
      if (std::find(enforced->begin(), enforced->end(), key) !=
          enforced->end()) {
        continue;
      }
      enforced->push_back(std::move(key));
      if (driver) continue;  // the driver's answers satisfy it already
      const int num_slots = static_cast<int>(bound.size());
      comp.assignment.assign(num_slots, -1);
      comp.search = std::make_unique<ProbeBacktracker>(
          GreedyProbeOrder(std::move(atoms), bound), num_slots, bound,
          idb.db(), &idb, stats, ctx);
      if (fc.free_vars.size() <= 1) {
        comp.memoized = true;
        comp.memo_pos =
            fc.free_vars.empty() ? -1 : first_pos[fc.free_vars[0]];
      }
      components_.push_back(std::move(comp));
    }
  }

  std::vector<Component> components_;
  std::vector<std::pair<int, int>> equal_positions_;
};

// Possible answers: the intersection of the containing rewrites. Each
// rewrite Q'' satisfies Q ⊆ Q'', so no genuine answer is ever dropped —
// but ONLY when every rewrite ran to completion, which the caller checks:
// it marks the over side invalid whenever ctx tripped.
//
// Indexed mode evaluates only the driver subs[0] (the planner ranks the
// most selective rewrite first; sharded when the plan is shard-sound) and
// keeps each of its answers that passes OverFilters, probing the plain
// view, in driver order. Scan mode (`idb` null) evaluates the rest too and
// keeps the driver answers every one of them contains: there, each probe
// depth of a filter scans its whole relation per candidate, which made
// the filters 21-51x slower than intersecting on a 500-node out-degree-5
// digraph (bench_cross_batch's approx series times scan mode).
AnswerSet IntersectionOfSubPlans(const std::vector<ApproxSubPlan>& subs,
                                 const EngineSet& engines,
                                 const ShardContext* shard_ctx,
                                 const IndexedDatabase* idb, const Database& db,
                                 int arity, EvalStats* stats,
                                 const EvalContext* ctx) {
  AnswerSet result(arity);
  if (subs.empty()) return result;
  AnswerSet candidates =
      EvaluateSubPlan(subs[0], engines, shard_ctx, idb, db, stats, ctx);
  if (candidates.empty() || subs.size() == 1) return candidates;
  if (idb != nullptr) {
    OverFilters filters(subs, *idb, stats, ctx);
    for (const Tuple& t : candidates.tuples()) {
      if (ctx != nullptr && !ctx->ok()) break;
      if (filters.Pass(t)) result.Insert(t);
    }
    return result;
  }
  std::vector<AnswerSet> rest;
  for (size_t i = 1; i < subs.size(); ++i) {
    if (ctx != nullptr && !ctx->ok()) return result;
    rest.push_back(
        EvaluateSubPlan(subs[i], engines, shard_ctx, idb, db, stats, ctx));
  }
  for (const Tuple& t : candidates.tuples()) {
    if (std::all_of(rest.begin(), rest.end(),
                    [&](const AnswerSet& part) { return part.Contains(t); })) {
      result.Insert(t);
    }
  }
  return result;
}

// The response of a request that arrives already stopped (expired deadline
// — possibly spent queueing — a raised cancel flag, or a zero budget):
// empty answers are the canonical sound under-approximation, and planning
// is skipped too.
void StoppedBeforePlanning(const EvalRequest& request, const EvalContext& ctx,
                           EvalResponse* out) {
  const int arity = static_cast<int>(request.query.free_variables().size());
  out->status = ctx.status();
  out->exact = false;
  out->answers = AnswerSet(arity);
  if (request.mode == AnswerMode::kBounds) {
    AnswerBounds bounds;
    bounds.under = AnswerSet(arity);
    bounds.over = AnswerSet(arity);
    bounds.over_valid = false;
    out->bounds = std::move(bounds);
  }
  out->plan.reason = std::string("not planned: request already stopped (") +
                     ResponseStatusName(out->status) + ")";
}

// Evaluates a planned request into `out`. `idb` null means the scan path;
// `shard` non-null takes the sharded path (the caller passes it only for
// shard-sound plans). Approximate plans are answered by their rewrites
// (union for the under side, intersection for the over side), each rewrite
// itself sharded when the gate passed (the planner only marks an
// approximate plan shard-sound when every rewrite is).
void EvaluatePlanned(const EvalRequest& request, const EngineSet& engines,
                     const ShardContext* shard, const IndexedDatabase* idb,
                     const EvalContext* ctx, EvalResponse* out) {
  const auto eval_start = std::chrono::steady_clock::now();
  const Database& db = *request.db;
  out->sharded = shard != nullptr;
  if (!out->plan.approximate) {
    // Exact evaluation serves every mode; in kBounds the sandwich collapses.
    const Engine& engine = engines.For(out->engine);
    if (shard != nullptr) {
      out->answers = ShardedEvaluate(request.query, engine, *shard->shards,
                                     shard->views, shard->parallelism,
                                     &out->eval, ctx);
    } else {
      out->answers =
          idb != nullptr
              ? engine.Evaluate(request.query, *idb, &out->eval, ctx)
              : engine.Evaluate(request.query, db, &out->eval, ctx);
    }
    out->eval.answer_rows += static_cast<long long>(out->answers.size());
    out->exact = true;
    if (request.mode == AnswerMode::kBounds) {
      AnswerBounds bounds;
      bounds.under = out->answers;
      bounds.over = out->answers;
      out->bounds = std::move(bounds);
    }
  } else {
    const int arity = static_cast<int>(request.query.free_variables().size());
    out->exact = false;
    switch (request.mode) {
      case AnswerMode::kUnderApproximate:
        out->answers = UnionOfSubPlans(out->plan.under, engines, shard, idb,
                                       db, arity, &out->eval, ctx);
        break;
      case AnswerMode::kOverApproximate:
        out->answers = IntersectionOfSubPlans(out->plan.over, engines, shard,
                                              idb, db, arity, &out->eval, ctx);
        break;
      case AnswerMode::kBounds: {
        AnswerBounds bounds;
        bounds.under = UnionOfSubPlans(out->plan.under, engines, shard, idb,
                                       db, arity, &out->eval, ctx);
        // The over side is only worth computing while the request is still
        // live: an interrupted over side is invalid anyway (see below).
        bounds.over =
            ctx == nullptr || ctx->ok()
                ? IntersectionOfSubPlans(out->plan.over, engines, shard, idb,
                                         db, arity, &out->eval, ctx)
                : AnswerSet(arity);
        out->answers = bounds.under;  // the sound (certain) reading
        out->bounds = std::move(bounds);
        break;
      }
      case AnswerMode::kExact:
        CQA_CHECK(false);  // the planner never marks exact plans approximate
        break;
    }
  }
  out->eval_ms = MsSince(eval_start);
  // Interruption verdict: sticky on the context, stamped on the response.
  // Partial answers are a sound under-approximation, never exact; any over
  // side computed under interruption may be missing genuine answers.
  if (ctx != nullptr && !ctx->ok()) {
    out->status = ctx->status();
    out->exact = false;
    if (out->bounds.has_value()) out->bounds->over_valid = false;
  }
}

// The request's interruption token: service-wide defaults overridden field
// by field by the request's own limits, deadline armed now. No limits, no
// token, no overhead.
std::shared_ptr<const EvalContext> ArmContext(const EvalLimits& defaults,
                                              const EvalRequest& request) {
  const EvalLimits limits = EvalLimits::Merge(defaults, request.limits);
  if (!limits.any() && request.cancel == nullptr) return nullptr;
  return std::make_shared<const EvalContext>(limits, request.cancel);
}

}  // namespace

// The requests of one batch plus one lazy slot per distinct database. A
// slot's plain view is acquired by the first job over that database, and its
// shard context by the first job whose plan passes the shard gate, so a
// batch of only shard-unsound plans never partitions anything. All keys are
// inserted up front: jobs only ever find their slot, never rehash the map.
struct QueryService::Batch {
  struct DbSlot {
    std::mutex mu;
    std::shared_ptr<const IndexedDatabase> view;  ///< null until acquired
    ShardContext shard;                           ///< shards null until built
  };

  // Borrows the caller's requests: EvaluateBatch waits for every job.
  Batch(const std::vector<EvalRequest>& batch_requests, int parallelism)
      : requests(&batch_requests), shard_parallelism(parallelism) {
    AddSlots();
  }
  // Owns its one request: a Submit caller does not wait for the job.
  explicit Batch(EvalRequest request)
      : requests(&owned), shard_parallelism(1) {
    owned.push_back(std::move(request));
    AddSlots();
  }

  void AddSlots() {
    for (const EvalRequest& request : *requests) {
      CQA_CHECK(request.db != nullptr);
      slots.try_emplace(request.db);
    }
  }

  std::vector<EvalRequest> owned;
  const std::vector<EvalRequest>* requests;
  /// ShardedEvaluate's fan-out width: the thread budget the batch itself
  /// leaves unused, so a one-request batch shards across every core while a
  /// saturated batch keeps its parallelism across requests. Streamed
  /// requests already run concurrently with each other: 1.
  int shard_parallelism;
  std::unordered_map<const Database*, DbSlot> slots;
  /// Views acquired for this batch from the serving cache (one plain view
  /// per distinct database, plus the per-shard views of sharded slots).
  std::atomic<long long> view_hits{0}, view_misses{0};
};

QueryService::QueryService(EvalOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      engines_(std::make_unique<const EngineSet>()) {
  if (cache_ == nullptr) {
    EvalCacheOptions cache_options;
    cache_options.index = options_.engine.ToIndexOptions();
    cache_ = std::make_shared<EvalCache>(cache_options);
  }
}

QueryService::~QueryService() { Shutdown(); }

std::shared_ptr<const ShardedDatabase> QueryService::AcquireShards(
    const Database& db) const {
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    const auto it = shard_partitions_.find(db.uid());
    if (it != shard_partitions_.end()) {
      ShardPartition& partition = it->second;
      if (partition.version != db.version()) {
        // The database grew since: route just the new facts into their
        // shards, O(delta) instead of the O(db) repartition. Safe because
        // no job over `db` is in flight once it mutated (the header's
        // contract). Cached per-shard views stay registered: CatchUp bumps
        // each shard's own version(), so the EvalCache catches each view
        // up on its next acquisition.
        partition.shards->CatchUp(db);
        partition.version = db.version();
      }
      return partition.shards;
    }
  }
  // Miss: the O(facts) partition build runs outside the lock, so concurrent
  // batches on other databases never stall behind it. A racing thread may
  // have registered `db` while we built; its partition wins (no view was
  // built from ours, so dropping ours is safe).
  auto built =
      std::make_shared<ShardedDatabase>(db, std::max(options_.num_shards, 1));
  std::lock_guard<std::mutex> lock(shard_mu_);
  return shard_partitions_
      .try_emplace(db.uid(), ShardPartition{db.version(), std::move(built)})
      .first->second.shards;
}

std::shared_ptr<const IndexedDatabase> QueryService::AcquireView(
    Batch& batch, const Database& db) const {
  bool hit = false;
  std::shared_ptr<const IndexedDatabase> view =
      cache_->AcquireIndexed(db, &hit);
  ++(hit ? batch.view_hits : batch.view_misses);
  return view;
}

std::shared_ptr<const PlanDecision> QueryService::Plan(
    const ConjunctiveQuery& query, AnswerMode mode, bool* hit) const {
  return cache_->AcquirePlan(
      PlanCacheKey(query, options_.planner, mode),
      [&] { return PlanQuery(query, options_.planner, mode); }, hit);
}

EvalResponse QueryService::RunJob(Batch& batch, size_t index,
                                  std::shared_ptr<const EvalContext> ctx) const {
  const EvalRequest& request = (*batch.requests)[index];
  Batch::DbSlot& slot = batch.slots.at(request.db);
  // Batch jobs arm their deadline here, when they start; a Submit armed it
  // at submit time, so queue wait counts.
  if (ctx == nullptr) ctx = ArmContext(options_.limits, request);

  // The plain view is acquired even when sharding is on: shard-unsound
  // plans fall back to it. The slot's shared_ptr keeps it alive for the
  // whole batch even if the cache evicts it meanwhile.
  const IndexedDatabase* idb = nullptr;
  if (options_.engine.use_index) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.view == nullptr) slot.view = AcquireView(batch, *request.db);
    idb = slot.view.get();
  }

  EvalResponse out;
  out.mode = request.mode;
  if (ctx != nullptr && ctx->Interrupted()) {
    StoppedBeforePlanning(request, *ctx, &out);
    return out;
  }

  const auto plan_start = std::chrono::steady_clock::now();
  // Forcing an engine is an exact-mode affair: it bypasses the planner and
  // with it the approximation rule, so approximate-mode requests always go
  // through planning. The shard gate still applies (it is a property of the
  // query shape, not of the engine choice).
  if (request.mode == AnswerMode::kExact &&
      options_.forced_engine.has_value() &&
      engines_->For(*options_.forced_engine).Supports(request.query)) {
    out.plan.kind = *options_.forced_engine;
    out.plan.reason = "forced by EvalOptions";
    out.plan.shard_sound = IsShardSound(request.query, &out.plan.shard_reason);
  } else {
    bool hit = false;
    out.plan = *Plan(request.query, request.mode, &hit);  // deep copy, unlocked
    out.plan_source = hit ? PlanSource::kSharedCache : PlanSource::kPlanned;
  }
  out.engine = out.plan.kind;
  out.plan_ms = MsSince(plan_start);

  // The shard gate: sharding was requested AND the plan passed the
  // union-soundness algebra — only then is the partition (lazily) acquired.
  // Unsound plans run the unsharded path unchanged (the fallback the
  // planner's shard_reason explains).
  const ShardContext* shard = nullptr;
  if (options_.num_shards >= 1 && out.plan.shard_sound) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.shard.shards == nullptr) {
      slot.shard.shards = AcquireShards(*request.db);
      slot.shard.parallelism = batch.shard_parallelism;
      if (options_.engine.use_index) {
        for (int k = 0; k < slot.shard.shards->num_shards(); ++k) {
          slot.shard.views.push_back(
              AcquireView(batch, slot.shard.shards->shard(k)));
        }
      }
    }
    shard = &slot.shard;
  }
  EvaluatePlanned(request, *engines_, shard, idb, ctx.get(), &out);
  return out;
}

EvalResponse QueryService::Evaluate(const EvalRequest& request) const {
  std::vector<EvalRequest> one;
  one.push_back(request);
  std::vector<EvalResponse> responses = EvaluateBatch(one);
  return std::move(responses.front());
}

void QueryService::StartPoolLocked() const {
  if (!workers_.empty()) return;
  const int threads = ResolveThreadCount(options_.num_threads);
  workers_.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back(&QueryService::WorkerLoop, this);
  }
}

std::vector<EvalResponse> QueryService::EvaluateBatch(
    const std::vector<EvalRequest>& requests, BatchStats* stats) const {
  const auto run_start = std::chrono::steady_clock::now();
  const int pool_threads = ResolveThreadCount(options_.num_threads);
  const int threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(pool_threads), requests.size()));
  auto batch = std::make_shared<Batch>(
      requests, std::max(1, pool_threads / std::max(threads, 1)));

  // Submit-all onto the shared pool, unless the batch is a single request,
  // the pool a single thread, or the service shut down: those run inline on
  // the caller. Batch jobs skip admission control.
  std::vector<std::future<EvalResponse>> futures;
  if (threads > 1) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      StartPoolLocked();
      futures.reserve(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        Job job;
        job.batch = batch;
        job.index = i;
        futures.push_back(job.promise.get_future());
        queue_.push_back(std::move(job));
      }
      in_flight_ += static_cast<long long>(requests.size());
      work_cv_.notify_all();
    }
  }

  // In-order gather. Every job finishes before any result is read (the
  // jobs borrow `requests`); then the lowest-index failure, if any, is
  // rethrown, so the error a caller sees does not depend on scheduling.
  std::vector<EvalResponse> responses(requests.size());
  if (futures.empty()) {
    for (size_t i = 0; i < requests.size(); ++i) {
      responses[i] = RunJob(*batch, i, nullptr);
    }
  } else {
    for (const std::future<EvalResponse>& f : futures) f.wait();
    for (size_t i = 0; i < futures.size(); ++i) responses[i] = futures[i].get();
  }

  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->wall_ms = MsSince(run_start);
    stats->jobs = static_cast<int>(requests.size());
    stats->threads_used = futures.empty() ? std::min(threads, 1) : threads;
    stats->index_cache_hits = batch->view_hits.load();
    stats->index_cache_misses = batch->view_misses.load();
    for (const EvalResponse& r : responses) {
      stats->total_eval_ms += r.eval_ms;
      stats->max_job_ms = std::max(stats->max_job_ms, r.plan_ms + r.eval_ms);
      stats->eval.Add(r.eval);
      if (r.plan_cached()) ++stats->plan_cache_hits;
      if (r.plan.approximate) ++stats->approx_jobs;
      if (r.status != ResponseStatus::kOk) ++stats->stopped_jobs;
      if (r.sharded) {
        ++stats->sharded_jobs;
      } else if (options_.num_shards >= 1) {
        ++stats->shard_fallbacks;
      }
    }
    for (const auto& [db, slot] : batch->slots) {
      if (slot.view != nullptr) stats->index_bytes += slot.view->stats().bytes;
      for (const auto& view : slot.shard.views) {
        stats->index_bytes += view->stats().bytes;
      }
    }
  }
  return responses;
}

namespace {

// A future that is already failed with the given rejection reason — the
// documented Submit outcome for shutdown races and full queues.
std::future<EvalResponse> RejectedFuture(SubmitRejectedError::Reason reason) {
  std::promise<EvalResponse> promise;
  promise.set_exception(
      std::make_exception_ptr(SubmitRejectedError(reason)));
  return promise.get_future();
}

}  // namespace

std::future<EvalResponse> QueryService::Submit(EvalRequest request) {
  CQA_CHECK(request.db != nullptr);
  // A batch of one whose gather is the future. The interruption token is
  // created NOW, so a deadline covers queue wait: a request that expires
  // while queued returns an immediate (empty, sound) kDeadlineExceeded
  // response instead of occupying a worker.
  Job job;
  job.ctx = ArmContext(options_.limits, request);
  job.batch = std::make_shared<Batch>(std::move(request));
  job.streamed = true;
  std::lock_guard<std::mutex> lock(mu_);
  // Submit after (or racing) Shutdown: a failed future, never a crash or a
  // silent drop — the submitter learns the fate of every request.
  if (stopping_) {
    return RejectedFuture(SubmitRejectedError::Reason::kShutdown);
  }
  // Admission control (EvalOptions::max_queue / degrade_queue): reject on a
  // full queue; above the degrade threshold serve kExact as kBounds — the
  // approximation sandwich as load management (a sound under/over pair now
  // instead of an exact answer later).
  if (options_.max_queue > 0 &&
      static_cast<int>(queue_.size()) >= options_.max_queue) {
    ++shed_rejected_;
    return RejectedFuture(SubmitRejectedError::Reason::kQueueFull);
  }
  const int degrade_at =
      options_.degrade_queue > 0
          ? options_.degrade_queue
          : (options_.max_queue > 0 ? std::max(1, options_.max_queue / 2) : 0);
  EvalRequest& queued = job.batch->owned.front();
  if (degrade_at > 0 && static_cast<int>(queue_.size()) >= degrade_at &&
      queued.mode == AnswerMode::kExact) {
    queued.mode = AnswerMode::kBounds;
    job.degraded = true;
    ++shed_degraded_;
  }
  StartPoolLocked();
  std::future<EvalResponse> future = job.promise.get_future();
  queue_.push_back(std::move(job));
  ++in_flight_;
  work_cv_.notify_one();
  return future;
}

BatchStats QueryService::StreamingStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BatchStats stats;
  stats.jobs = static_cast<int>(streamed_jobs_);
  stats.shed_degraded = shed_degraded_;
  stats.shed_rejected = shed_rejected_;
  stats.stopped_jobs = stopped_jobs_;
  return stats;
}

CursorResponse QueryService::MakeCursors(EvalResponse response,
                                         const Database& db) {
  CursorResponse out;
  const uint64_t version = db.version();
  out.answers = std::make_shared<const AnswerCursor>(
      std::move(response.answers), version);
  response.answers = AnswerSet(out.answers->arity());
  if (response.bounds.has_value()) {
    // The under side duplicates `answers`; both sets are consumed so the
    // response carries no materialized copy of a large result.
    out.over = std::make_shared<const AnswerCursor>(
        std::move(response.bounds->over), version);
    response.bounds->under = AnswerSet(out.answers->arity());
    response.bounds->over = AnswerSet(out.over->arity());
  }
  out.meta = std::move(response);
  return out;
}

void QueryService::WorkerLoop() const {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and all queued jobs done
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // A throw must not escape the worker thread (std::terminate): it
    // travels through the job's future.
    bool stopped = false;
    try {
      EvalResponse response = RunJob(*job.batch, job.index, job.ctx);
      response.degraded = job.degraded;
      stopped = response.status != ResponseStatus::kOk;
      job.promise.set_value(std::move(response));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (job.streamed) {
      ++streamed_jobs_;
      if (stopped) ++stopped_jobs_;
    }
    if (--in_flight_ == 0) idle_cv_.notify_all();
  }
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void QueryService::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers) t.join();
}

EvalCache* QueryService::serving_cache() const { return cache_.get(); }

std::shared_ptr<std::mutex> QueryService::WriteMutexFor(const Database* db) {
  std::lock_guard<std::mutex> lock(pub_mu_);
  std::shared_ptr<std::mutex>& slot = write_mu_by_db_[db->uid()];
  if (slot == nullptr) slot = std::make_shared<std::mutex>();
  return slot;
}

bool QueryService::Publish(Database* db, RelationId rel, Tuple fact) {
  CQA_CHECK(db != nullptr);
  const std::shared_ptr<std::mutex> write_mu = WriteMutexFor(db);
  std::lock_guard<std::mutex> lock(*write_mu);
  return db->AddFact(rel, std::move(fact));
}

std::unique_ptr<Subscription> QueryService::Subscribe(EvalRequest request) {
  CQA_CHECK(request.db != nullptr);
  // Plan like any other request, through the serving cache's plan tier. The
  // plan is fixed for the subscription's lifetime — the decision depends on
  // the query shape and mode only, never on the data.
  PlanDecision plan = *Plan(request.query, request.mode, nullptr);
  const EvalLimits limits = EvalLimits::Merge(options_.limits, request.limits);
  auto state = std::make_unique<StandingQueryState>(
      std::move(request.query), request.mode, std::move(plan));
  // The serving cache is also the subscription's view source: its identity
  // catch-up path (eval/cache.h) keeps per-tick index maintenance O(delta)
  // instead of a per-tick rebuild.
  return std::unique_ptr<Subscription>(new Subscription(
      std::move(state), request.db, limits, request.cancel, cache_,
      options_.engine.use_index, WriteMutexFor(request.db)));
}

Subscription::Subscription(std::unique_ptr<StandingQueryState> state,
                           const Database* db, EvalLimits limits,
                           CancelFlag cancel, std::shared_ptr<EvalCache> cache,
                           bool use_index, std::shared_ptr<std::mutex> write_mu)
    : db_(db),
      limits_(limits),
      cancel_(std::move(cancel)),
      cache_(std::move(cache)),
      use_index_(use_index),
      write_mu_(std::move(write_mu)),
      state_(std::move(state)),
      consumed_(db->vocab()->num_relations(), 0) {}

Subscription::~Subscription() = default;

SubscriptionDelta Subscription::Poll() {
  // The write lock first — Publish calls on this database block for the
  // whole tick, so the fact vectors are stable while the tick reads them —
  // then the subscription's own state lock. Same order in caught_up();
  // the cache and view locks nest strictly inside: no cycles.
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  std::lock_guard<std::mutex> state_lock(mu_);
  SubscriptionDelta out;

  // The view rides the cache's catch-up path: same database object, newer
  // version — appended in place, never rebuilt (EvalCacheStats::
  // index_delta_appends counts it).
  std::shared_ptr<const IndexedDatabase> view;
  if (use_index_) view = cache_->AcquireIndexed(*db_);

  const int num_relations = db_->vocab()->num_relations();
  std::vector<DeltaFact> delta;
  for (RelationId r = 0; r < num_relations; ++r) {
    const std::vector<Tuple>& facts = db_->facts(r);
    for (size_t id = consumed_[r]; id < facts.size(); ++id) {
      delta.push_back(DeltaFact{r, facts[id]});
    }
  }

  // Per-tick interruption token (deadline armed now, covering this tick
  // only); an interrupted tick commits a prefix and the rest stays pending.
  std::optional<EvalContext> ectx;
  if (limits_.any() || cancel_ != nullptr) ectx.emplace(limits_, cancel_);
  StandingQueryState::TickResult tick = state_->Apply(
      *db_, view.get(), delta, &out.eval, ectx.has_value() ? &*ectx : nullptr);

  // Advance the per-relation cursors over the committed prefix, in the same
  // relation-major order the delta was collected.
  size_t applied = tick.facts_applied;
  for (RelationId r = 0; r < num_relations && applied > 0; ++r) {
    const size_t pending = db_->facts(r).size() - consumed_[r];
    const size_t take = std::min(applied, pending);
    consumed_[r] += take;
    applied -= take;
  }

  out.status = tick.status;
  out.facts_applied = tick.facts_applied;
  out.reinitialized = tick.reinitialized;
  out.new_answers = std::move(tick.new_answers);
  out.new_possible = std::move(tick.new_possible);
  bool all_consumed = state_->initialized();
  for (RelationId r = 0; r < num_relations && all_consumed; ++r) {
    all_consumed = consumed_[r] == db_->facts(r).size();
  }
  out.caught_up = all_consumed;
  return out;
}

AnswerSet Subscription::answers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->certain();
}

AnswerSet Subscription::possible() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->possible();
}

bool Subscription::over_valid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->over_valid();
}

bool Subscription::caught_up() const {
  // Write lock too: the fact-vector sizes are read here, and a concurrent
  // Publish writes them.
  std::lock_guard<std::mutex> write_lock(*write_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  bool all_consumed = state_->initialized();
  const int num_relations = db_->vocab()->num_relations();
  for (RelationId r = 0; r < num_relations && all_consumed; ++r) {
    all_consumed = consumed_[r] == db_->facts(r).size();
  }
  return all_consumed;
}

const ConjunctiveQuery& Subscription::query() const { return state_->query(); }
AnswerMode Subscription::mode() const { return state_->mode(); }
const PlanDecision& Subscription::plan() const { return state_->plan(); }

}  // namespace cqa
