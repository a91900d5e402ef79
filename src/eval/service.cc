#include "eval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "base/hash.h"
#include "data/index.h"
#include "data/shard.h"
#include "eval/cache.h"
#include "eval/delta_eval.h"
#include "eval/shard_eval.h"

namespace cqa {
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

// One stateless instance of every engine; safe to share across threads.
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

// The per-batch plan cache (intra-batch tier). Decisions are stored by
// shared pointer: approximate decisions carry whole synthesized rewrites,
// so the lock only ever guards pointer copies — the deep copy into a
// response happens outside it. Planning is coalesced per key: the first
// worker to miss claims the key (in_flight) and the others wait on cv
// instead of duplicating the work — approximate-mode planning runs the
// Bell-number rewrite synthesis, exactly the cost a cold batch of
// same-shape requests would otherwise multiply by the thread count.
// (Streaming submissions have no batch tier; after the first completion
// the shared EvalCache covers them.)
struct BatchPlanCache {
  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::vector<int>, std::shared_ptr<const PlanDecision>,
                     VectorHash>
      map;
  std::unordered_set<std::vector<int>, VectorHash> in_flight;
};

// Releases a claimed in-flight key — publishing the decision when planning
// succeeded, but also on an exception (e.g. bad_alloc inside rewrite
// synthesis), so same-shape waiters wake and retry instead of blocking on
// the cv forever.
class PlanClaimGuard {
 public:
  PlanClaimGuard(BatchPlanCache* cache, const std::vector<int>& key)
      : cache_(cache), key_(key) {}
  PlanClaimGuard(const PlanClaimGuard&) = delete;
  PlanClaimGuard& operator=(const PlanClaimGuard&) = delete;

  void set_decision(std::shared_ptr<const PlanDecision> decision) {
    decision_ = std::move(decision);
  }

  ~PlanClaimGuard() {
    if (cache_ == nullptr) return;
    std::lock_guard<std::mutex> lock(cache_->mu);
    if (decision_ != nullptr) cache_->map.emplace(key_, std::move(decision_));
    cache_->in_flight.erase(key_);
    cache_->cv.notify_all();
  }

 private:
  BatchPlanCache* cache_;
  const std::vector<int>& key_;
  std::shared_ptr<const PlanDecision> decision_;
};

// Everything one request needs to evaluate shard-by-shard: the partition
// (shared ownership keeps it alive for the whole job), the per-shard index
// views (empty = scan), and the fan-out width ShardedEvaluate may use. Null
// context = sharding off.
struct ShardContext {
  std::shared_ptr<const ShardedDatabase> shards;
  ShardViews views;
  int parallelism = 1;
};

// How ExecuteRequest reaches the sharded path: a lazy provider, invoked
// only once a plan actually passed the shard gate, so databases that only
// ever see shard-unsound plans are never partitioned and never grow
// per-shard views. Null = sharding off.
using ShardContextProvider = std::function<const ShardContext*()>;

// `shard_ctx` non-null routes the sub-evaluation through the per-shard
// union; the caller only passes it for shard-sound plans.
AnswerSet EvaluateSubPlan(const ApproxSubPlan& sub, const EngineSet& engines,
                          const ShardContext* shard_ctx,
                          const IndexedDatabase* idb, const Database& db,
                          EvalStats* stats, const EvalContext* ctx) {
  const Engine& engine = engines.For(sub.kind);
  if (shard_ctx != nullptr) {
    return ShardedEvaluate(sub.query, engine, *shard_ctx->shards,
                           shard_ctx->views, shard_ctx->parallelism, stats,
                           ctx);
  }
  return idb != nullptr ? engine.Evaluate(sub.query, *idb, stats, ctx)
                        : engine.Evaluate(sub.query, db, stats, ctx);
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

// Possible answers: the intersection of the containing rewrites. Each
// rewrite Q'' satisfies Q ⊆ Q'', so no genuine answer is ever dropped —
// but ONLY when every rewrite ran to completion: an interrupted part is a
// subset of its rewrite, so the intersection may drop genuine answers. The
// caller marks the over side invalid whenever ctx tripped.
AnswerSet IntersectionOfSubPlans(const std::vector<ApproxSubPlan>& subs,
                                 const EngineSet& engines,
                                 const ShardContext* shard_ctx,
                                 const IndexedDatabase* idb, const Database& db,
                                 int arity, EvalStats* stats,
                                 const EvalContext* ctx) {
  std::vector<AnswerSet> parts;
  parts.reserve(subs.size());
  for (const ApproxSubPlan& sub : subs) {
    if (ctx != nullptr && !ctx->ok()) break;
    parts.push_back(
        EvaluateSubPlan(sub, engines, shard_ctx, idb, db, stats, ctx));
  }
  AnswerSet result(arity);
  if (parts.empty() || parts.size() != subs.size()) return result;
  for (const Tuple& t : parts[0].tuples()) {
    bool in_all = true;
    for (size_t i = 1; i < parts.size() && in_all; ++i) {
      in_all = parts[i].Contains(t);
    }
    if (in_all) result.Insert(t);
  }
  return result;
}

// Plans and evaluates one request into `out`. Plan lookups go per-batch
// cache first (intra-batch reuse), then the shared EvalCache (cross-batch
// hit), then the planner; either cache pointer may be null. `idb` null
// means the scan path; `shard_ctx` non-null offers the sharded path, taken
// exactly when the plan is shard-sound. Approximate plans are answered by
// their rewrites (union for the under side, intersection for the over
// side), each rewrite itself sharded when the gate passed (the planner only
// marks an approximate plan shard-sound when every rewrite is).
void ExecuteRequest(const EvalRequest& request, const EvalOptions& options,
                    const EngineSet& engines, const IndexedDatabase* idb,
                    BatchPlanCache* batch_cache, EvalCache* shared_cache,
                    const ShardContextProvider* acquire_shards,
                    const EvalContext* ctx, EvalResponse* out) {
  out->mode = request.mode;
  const int out_arity = static_cast<int>(request.query.free_variables().size());
  // A request that arrives already stopped (expired deadline — possibly
  // spent queueing — a raised cancel flag, or a zero budget) returns
  // immediately: empty answers are the canonical sound under-approximation,
  // and planning is skipped too.
  if (ctx != nullptr && ctx->Interrupted()) {
    out->status = ctx->status();
    out->exact = false;
    out->answers = AnswerSet(out_arity);
    if (request.mode == AnswerMode::kBounds) {
      AnswerBounds bounds;
      bounds.under = AnswerSet(out_arity);
      bounds.over = AnswerSet(out_arity);
      bounds.over_valid = false;
      out->bounds = std::move(bounds);
    }
    out->plan.reason = std::string("not planned: request already stopped (") +
                       ResponseStatusName(out->status) + ")";
    return;
  }
  const auto plan_start = std::chrono::steady_clock::now();
  // Forcing an engine is an exact-mode affair: it bypasses the planner and
  // with it the approximation rule, so approximate-mode requests always go
  // through planning. The shard gate still applies (it is a property of the
  // query shape, not of the engine choice).
  if (request.mode == AnswerMode::kExact && options.forced_engine.has_value() &&
      engines.For(*options.forced_engine).Supports(request.query)) {
    out->plan.kind = *options.forced_engine;
    out->plan.reason = "forced by EvalOptions";
    out->plan.shard_sound =
        IsShardSound(request.query, &out->plan.shard_reason);
  } else {
    const std::vector<int> key =
        PlanCacheKey(request.query, options.planner, request.mode);
    std::shared_ptr<const PlanDecision> cached;
    if (batch_cache != nullptr) {
      std::unique_lock<std::mutex> lock(batch_cache->mu);
      for (;;) {
        const auto it = batch_cache->map.find(key);
        if (it != batch_cache->map.end()) {
          cached = it->second;
          break;
        }
        // First worker to miss claims the key and plans; later workers of
        // the same shape wait for its decision instead of repeating the
        // (possibly synthesis-heavy) planning.
        if (batch_cache->in_flight.insert(key).second) break;
        batch_cache->cv.wait(lock);
      }
    }
    if (cached != nullptr) {
      out->plan_source = PlanSource::kBatchCache;
      out->plan = *cached;  // deep copy outside every lock
    } else {
      PlanClaimGuard claim(batch_cache, key);
      if (shared_cache != nullptr &&
          (cached = shared_cache->LookupPlan(key)) != nullptr) {
        out->plan_source = PlanSource::kSharedCache;
        out->plan = *cached;
      } else {
        out->plan = PlanQuery(request.query, options.planner, request.mode);
        out->plan_source = PlanSource::kPlanned;
        cached = std::make_shared<const PlanDecision>(out->plan);
        if (shared_cache != nullptr) shared_cache->StorePlan(key, cached);
      }
      claim.set_decision(cached);
    }
  }
  out->engine = out->plan.kind;
  out->plan_ms = MsSince(plan_start);

  const auto eval_start = std::chrono::steady_clock::now();
  const Database& db = *request.db;
  // The shard gate: sharding was requested AND the plan passed the
  // union-soundness algebra — only then is the partition (lazily) acquired.
  // Unsound plans run the unsharded path below unchanged (the fallback the
  // planner's shard_reason explains).
  const ShardContext* shard =
      acquire_shards != nullptr && out->plan.shard_sound ? (*acquire_shards)()
                                                         : nullptr;
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

}  // namespace

QueryService::QueryService(EvalOptions options) : options_(std::move(options)) {}

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

EvalResponse QueryService::Evaluate(const EvalRequest& request) const {
  std::vector<EvalRequest> one;
  one.push_back(request);
  std::vector<EvalResponse> responses = EvaluateBatch(one);
  return std::move(responses.front());
}

std::vector<EvalResponse> QueryService::EvaluateBatch(
    const std::vector<EvalRequest>& requests, BatchStats* stats) const {
  const auto run_start = std::chrono::steady_clock::now();

  std::vector<EvalResponse> responses(requests.size());
  const EngineSet engines;
  EvalCache* const shared_cache = options_.cache.get();

  const int hw_threads = ResolveThreadCount(options_.num_threads);
  int threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(hw_threads), requests.size()));

  // One immutable index view per distinct database, shared by all worker
  // threads: structures are built once (under the view's lock) and probed
  // concurrently afterwards. With a shared EvalCache the views come from —
  // and outlive the batch in — the cache; the shared_ptr keeps a view
  // usable even if the cache evicts it mid-batch. The plain (unsharded)
  // view is acquired even when sharding is on: shard-unsound plans fall
  // back to it.
  std::unordered_map<const Database*, std::shared_ptr<const IndexedDatabase>>
      views;
  // Atomics: the plain views are acquired sequentially below, but per-shard
  // views are acquired lazily from inside worker threads.
  std::atomic<long long> view_hits{0}, view_misses{0};
  const auto acquire_view = [&](const Database& db) {
    if (shared_cache != nullptr) {
      bool hit = false;
      auto view = shared_cache->AcquireIndexed(db, &hit);
      ++(hit ? view_hits : view_misses);
      return view;
    }
    return std::make_shared<const IndexedDatabase>(
        db, options_.engine.ToIndexOptions());
  };
  if (options_.engine.use_index) {
    for (const EvalRequest& request : requests) {
      CQA_CHECK(request.db != nullptr);
      auto& slot = views[request.db];
      if (slot == nullptr) slot = acquire_view(*request.db);
    }
  }

  // Sharded path setup: one *lazy* slot per distinct database. The
  // partition and its per-shard views are built on the first request whose
  // plan passes the shard gate — a batch of only shard-unsound plans never
  // partitions anything. Per-shard views are ordinary cache views (each
  // shard has its own uid) and count into the same hit/miss stats.
  // Fan-out width per request is the thread budget the batch itself leaves
  // unused, so a one-request batch shards across every core while a
  // saturated batch keeps its parallelism across requests. Keys are all
  // inserted up front: worker threads only ever find their node, never
  // rehash the map.
  struct LazyShardSlot {
    std::mutex mu;
    bool built = false;
    ShardContext ctx;
  };
  std::unordered_map<const Database*, LazyShardSlot> shard_slots;
  const bool sharding = options_.num_shards >= 1;
  const int shard_parallelism = std::max(1, hw_threads / std::max(threads, 1));
  if (sharding) {
    for (const EvalRequest& request : requests) {
      CQA_CHECK(request.db != nullptr);
      shard_slots.try_emplace(request.db);
    }
  }
  const auto build_shard_ctx = [&](const Database& db, ShardContext* ctx) {
    ctx->shards = AcquireShards(db);
    ctx->parallelism = shard_parallelism;
    if (options_.engine.use_index) {
      ctx->views.reserve(ctx->shards->num_shards());
      for (int k = 0; k < ctx->shards->num_shards(); ++k) {
        ctx->views.push_back(acquire_view(ctx->shards->shard(k)));
      }
    }
  };

  // Intra-batch plan tier; shapes already decided by the shared cache are
  // copied in on first touch so later requests count as intra-batch reuses.
  BatchPlanCache batch_plans;

  const auto run_request = [&](size_t i) {
    const EvalRequest& request = requests[i];
    CQA_CHECK(request.db != nullptr);
    const IndexedDatabase* idb =
        options_.engine.use_index ? views.at(request.db).get() : nullptr;
    const ShardContextProvider acquire = [&, db = request.db]() {
      LazyShardSlot& slot = shard_slots.at(db);
      std::lock_guard<std::mutex> lock(slot.mu);
      if (!slot.built) {
        build_shard_ctx(*db, &slot.ctx);
        slot.built = true;
      }
      return static_cast<const ShardContext*>(&slot.ctx);
    };
    // One interruption token per request (deadline armed here, when the
    // request actually starts): service-wide defaults overridden field by
    // field by the request's own limits. No limits, no token, no overhead.
    const EvalLimits limits =
        EvalLimits::Merge(options_.limits, request.limits);
    std::optional<EvalContext> ectx;
    if (limits.any() || request.cancel != nullptr) {
      ectx.emplace(limits, request.cancel);
    }
    ExecuteRequest(request, options_, engines, idb, &batch_plans, shared_cache,
                   sharding ? &acquire : nullptr,
                   ectx.has_value() ? &*ectx : nullptr, &responses[i]);
  };

  if (threads <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) run_request(i);
  } else {
    // Work-stealing by atomic index: deterministic output because every
    // request writes only responses[i] and evaluation itself is
    // deterministic. A throw (e.g. bad_alloc inside rewrite synthesis)
    // must not escape a std::thread — the first one is captured, the pool
    // winds down, and it is rethrown to the caller after the join.
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < requests.size();
             i = next.fetch_add(1)) {
          if (failed.load(std::memory_order_relaxed)) return;
          try {
            run_request(i);
          } catch (...) {
            {
              std::lock_guard<std::mutex> lock(error_mu);
              if (first_error == nullptr) {
                first_error = std::current_exception();
              }
            }
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->wall_ms = MsSince(run_start);
    stats->jobs = static_cast<int>(requests.size());
    stats->threads_used = requests.empty() ? 0 : std::max(threads, 1);
    stats->index_cache_hits = view_hits.load();
    stats->index_cache_misses = view_misses.load();
    for (const EvalResponse& r : responses) {
      stats->total_eval_ms += r.eval_ms;
      stats->max_job_ms = std::max(stats->max_job_ms, r.plan_ms + r.eval_ms);
      stats->eval.Add(r.eval);
      if (r.plan_source == PlanSource::kBatchCache) ++stats->plan_cache_hits;
      if (r.plan_source == PlanSource::kSharedCache) ++stats->cross_plan_hits;
      if (r.plan.approximate) ++stats->approx_jobs;
      if (r.status != ResponseStatus::kOk) ++stats->stopped_jobs;
      if (r.sharded) {
        ++stats->sharded_jobs;
      } else if (options_.num_shards >= 1) {
        ++stats->shard_fallbacks;
      }
    }
    for (const auto& [db, view] : views) {
      stats->index_bytes += view->stats().bytes;
    }
    for (const auto& [db, slot] : shard_slots) {
      if (!slot.built) continue;  // reads are safe: workers joined above
      for (const auto& view : slot.ctx.views) {
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
  bool degraded = false;
  if (options_.max_queue > 0) {
    if (static_cast<int>(queue_.size()) >= options_.max_queue) {
      ++shed_rejected_;
      return RejectedFuture(SubmitRejectedError::Reason::kQueueFull);
    }
  }
  const int degrade_at =
      options_.degrade_queue > 0
          ? options_.degrade_queue
          : (options_.max_queue > 0 ? std::max(1, options_.max_queue / 2) : 0);
  if (degrade_at > 0 && static_cast<int>(queue_.size()) >= degrade_at &&
      request.mode == AnswerMode::kExact) {
    request.mode = AnswerMode::kBounds;
    degraded = true;
    ++shed_degraded_;
  }
  if (options_.cache == nullptr && own_cache_ == nullptr) {
    EvalCacheOptions cache_options;
    cache_options.index = options_.engine.ToIndexOptions();
    own_cache_ = std::make_shared<EvalCache>(cache_options);
  }
  if (workers_.empty()) {
    const int threads = ResolveThreadCount(options_.num_threads);
    workers_.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers_.emplace_back(&QueryService::WorkerLoop, this);
    }
  }
  Pending pending{std::move(request)};
  pending.degraded = degraded;
  // The interruption token is created NOW, so a deadline covers queue wait:
  // a request that expires while queued returns an immediate (empty, sound)
  // kDeadlineExceeded response instead of occupying a worker.
  const EvalLimits limits =
      EvalLimits::Merge(options_.limits, pending.request.limits);
  if (limits.any() || pending.request.cancel != nullptr) {
    pending.ctx =
        std::make_shared<const EvalContext>(limits, pending.request.cancel);
  }
  queue_.push_back(std::move(pending));
  std::future<EvalResponse> future = queue_.back().promise.get_future();
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

void QueryService::WorkerLoop() {
  const EngineSet engines;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and all pending requests done
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    EvalCache* const cache =
        options_.cache != nullptr ? options_.cache.get() : own_cache_.get();
    lock.unlock();

    EvalResponse response;
    bool stopped = false;
    // The shared_ptrs keep the views (and the shard partition) alive for
    // the whole request even if a cache evicts or the registry supersedes
    // them meanwhile. A throw must not escape the worker thread
    // (std::terminate): it travels through the future.
    try {
      std::shared_ptr<const IndexedDatabase> view;
      if (options_.engine.use_index) {
        view = cache->AcquireIndexed(*pending.request.db);
      }
      // Lazy, like the batch path: the partition is only acquired when the
      // plan passes the shard gate. Streamed requests run concurrently with
      // each other already, so the per-request shard fan-out stays
      // sequential to avoid oversubscribing the persistent pool.
      ShardContext shard_ctx;
      bool shard_ctx_built = false;
      const ShardContextProvider acquire = [&]() {
        if (!shard_ctx_built) {
          shard_ctx.shards = AcquireShards(*pending.request.db);
          shard_ctx.parallelism = 1;
          if (options_.engine.use_index) {
            shard_ctx.views.reserve(shard_ctx.shards->num_shards());
            for (int k = 0; k < shard_ctx.shards->num_shards(); ++k) {
              shard_ctx.views.push_back(
                  cache->AcquireIndexed(shard_ctx.shards->shard(k)));
            }
          }
          shard_ctx_built = true;
        }
        return static_cast<const ShardContext*>(&shard_ctx);
      };
      ExecuteRequest(pending.request, options_, engines, view.get(),
                     /*batch_cache=*/nullptr, cache,
                     options_.num_shards >= 1 ? &acquire : nullptr,
                     pending.ctx.get(), &response);
      response.degraded = pending.degraded;
      stopped = response.status != ResponseStatus::kOk;
      pending.promise.set_value(std::move(response));
    } catch (...) {
      pending.promise.set_exception(std::current_exception());
    }

    lock.lock();
    ++streamed_jobs_;
    if (stopped) ++stopped_jobs_;
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

EvalCache* QueryService::serving_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.cache != nullptr ? options_.cache.get() : own_cache_.get();
}

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
  // The subscription's view source: the shared cache when configured, else
  // the private streaming cache (created here if Submit has not yet). Its
  // identity catch-up path (eval/cache.h) is what keeps per-tick index
  // maintenance O(delta) instead of a per-tick rebuild.
  std::shared_ptr<EvalCache> cache;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.cache != nullptr) {
      cache = options_.cache;
    } else {
      if (own_cache_ == nullptr) {
        EvalCacheOptions cache_options;
        cache_options.index = options_.engine.ToIndexOptions();
        own_cache_ = std::make_shared<EvalCache>(cache_options);
      }
      cache = own_cache_;
    }
  }
  // Plan like any other request, through the shared plan tier. The plan is
  // fixed for the subscription's lifetime — the decision depends on the
  // query shape and mode only, never on the data.
  const std::vector<int> key =
      PlanCacheKey(request.query, options_.planner, request.mode);
  std::shared_ptr<const PlanDecision> cached = cache->LookupPlan(key);
  PlanDecision plan;
  if (cached != nullptr) {
    plan = *cached;
  } else {
    plan = PlanQuery(request.query, options_.planner, request.mode);
    cache->StorePlan(key, std::make_shared<const PlanDecision>(plan));
  }
  const EvalLimits limits = EvalLimits::Merge(options_.limits, request.limits);
  auto state = std::make_unique<StandingQueryState>(
      std::move(request.query), request.mode, std::move(plan));
  return std::unique_ptr<Subscription>(new Subscription(
      std::move(state), request.db, limits, request.cancel, std::move(cache),
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
