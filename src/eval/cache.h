// EvalCache: the process-lifetime caching subsystem that amortizes index and
// planning work across batches.
//
// What is cached, and under which key
// -----------------------------------
//  - IndexedDatabase views, keyed by the source's identity
//    (Database::uid(), data/database.h) and validated by its version(). A
//    serving loop that evaluates batch after batch against the same
//    database builds each RelationIndex / projection / column table once
//    for the cache's lifetime instead of once per
//    QueryService::EvaluateBatch. Content never enters the key: two
//    Database objects holding equal facts get two views.
//  - PlanDecisions, keyed by the planner-options-and-mode-qualified
//    canonical query shape (PlanCacheKey): queries that differ only in
//    variable numbering share one planning verdict forever, not just within
//    one batch. This tier is also where approximation synthesis amortizes:
//    an approximate-mode plan for a width-over-budget query carries the
//    synthesized TW(width_budget) rewrites (PlanDecision::under/over), so
//    the Bell-number candidate enumeration behind them runs once per query
//    shape x mode for the cache's lifetime — every later batch evaluates
//    the cached rewrites directly. AcquirePlan coalesces concurrent misses
//    on one key: the first caller plans, the others wait for its decision,
//    so a cold burst of one shape runs synthesis once, not once per thread.
//
// Eviction and catch-up
// ---------------------
// Both caches are LRU. The index cache is byte-budgeted
// (EvalCacheOptions::max_index_bytes): after every acquisition the summed
// approximate footprint of the cached views is re-polled (views grow lazily
// as evaluators request new structures) and least-recently-used entries are
// dropped until the budget holds again; the most recently acquired view is
// never evicted, so a single oversized database still gets one cached view
// (bounded by its own IndexOptions::max_bytes). The plan cache is
// entry-count-bounded (max_plan_entries) — exact decisions are a few dozen
// bytes, approximate ones add a handful of small rewritten queries.
//
// Every cached view records the version() it is current at. Acquiring a
// database at that version is a hit. Acquiring it at a higher version (it
// gained facts or elements since) calls IndexedDatabase::CatchUp() on the
// cached view — appending the new facts into every cached structure,
// ~O(delta) — and serves it as a hit (counted in index_delta_appends).
// There is no rebuild path: a uid names one object for its whole life, and
// its version never decreases.
//
// Ownership and thread-safety contracts
// -------------------------------------
//  - EvalCache is fully thread-safe: any number of worker threads may call
//    any method concurrently; all state is guarded by one internal mutex,
//    and the returned IndexedDatabase views are themselves thread-safe.
//  - AcquireIndexed returns shared ownership. Evicting or invalidating an
//    entry never tears a view out from under an in-flight job: the job's
//    shared_ptr keeps the view alive until it finishes.
//  - The cache does NOT own source databases. A source must outlive the
//    jobs evaluating over its views (the EvalRequest borrow contract), but
//    may be destroyed at any time after that without telling the cache:
//    its uid is never reused, so its entries can never be acquired again,
//    and they age out of the LRU. A view's stats() and destructor never
//    touch the source, so budget polling and eviction stay safe.
//    Invalidate(db) merely frees those entries sooner.
//  - Databases must not be mutated while an evaluation over one of their
//    views is in flight (the same contract data/index.h states); mutating
//    *between* batches is fine and is exactly what catch-up handles.

#ifndef CQA_EVAL_CACHE_H_
#define CQA_EVAL_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/hash.h"
#include "data/database.h"
#include "data/index.h"
#include "eval/engine.h"

namespace cqa {

/// Knobs for the shared cross-batch cache.
struct EvalCacheOptions {
  /// Byte budget across all cached IndexedDatabase views (approximate,
  /// re-polled after every acquisition because views grow lazily). The most
  /// recently used view survives even when it alone exceeds the budget.
  size_t max_index_bytes = size_t{256} << 20;
  /// Entry bound on the plan LRU (plans are tiny; count, not bytes).
  size_t max_plan_entries = 4096;
  /// Build policy for cached views (per-view budget, master switch). This —
  /// not the per-batch EngineOptions — governs views served by this cache.
  IndexOptions index;
};

/// Cumulative counters (snapshot via EvalCache::stats).
struct EvalCacheStats {
  long long index_hits = 0;           ///< AcquireIndexed served from cache
  long long index_misses = 0;         ///< AcquireIndexed built a fresh view
  long long index_evictions = 0;      ///< views dropped by the byte budget
  long long index_invalidations = 0;  ///< views dropped by Invalidate
  long long index_delta_appends = 0;  ///< views caught up in place (O(delta))
  /// Full rebuilds of a stale view. Identity keying leaves no path that
  /// rebuilds, so this stays 0; the benches' zero-rebuild gates read it.
  long long index_rebuilds = 0;
  long long index_entries = 0;        ///< current number of cached views
  long long index_bytes = 0;          ///< current approximate footprint
  long long plan_hits = 0;            ///< plan lookups served from the cache
  long long plan_misses = 0;          ///< plan lookups that found no entry
  long long plan_evictions = 0;       ///< plans dropped by max_plan_entries
  long long plan_entries = 0;         ///< current number of cached plans
};

/// The shared cross-batch cache. See the file comment for the contracts.
class EvalCache {
 public:
  explicit EvalCache(EvalCacheOptions options = {});

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// The cached view of `db`, building (and caching) one on miss and
  /// catching it up in place when `db` grew since. `hit` (optional out)
  /// reports whether the view came from the cache.
  std::shared_ptr<const IndexedDatabase> AcquireIndexed(const Database& db,
                                                        bool* hit = nullptr);

  /// The cached decision for `key` (shared and immutable — approximate
  /// decisions carry whole synthesized rewrites, so a hit hands out a
  /// pointer under the lock, never a deep copy), refreshing its LRU
  /// position; nullptr on miss. Keys come from PlanCacheKey (engine.h).
  std::shared_ptr<const PlanDecision> LookupPlan(const std::vector<int>& key);

  /// The decision for `key`, running `plan` and storing its result on a
  /// miss. Concurrent misses on one key are coalesced: the first caller
  /// claims the key and plans, later callers wait for its decision and
  /// count as hits. If `plan` throws, the claim is released and the
  /// exception propagates; waiters wake and one of them claims the key
  /// anew. `hit` (optional out) reports whether the decision was served
  /// from the cache rather than planned by this call.
  std::shared_ptr<const PlanDecision> AcquirePlan(
      const std::vector<int>& key, const std::function<PlanDecision()>& plan,
      bool* hit = nullptr);

  /// Inserts (or refreshes) `key -> plan`, evicting LRU entries beyond
  /// max_plan_entries. The cache shares ownership; the decision must not
  /// be mutated afterwards.
  void StorePlan(const std::vector<int>& key,
                 std::shared_ptr<const PlanDecision> plan);

  /// Drops the cached view of `db`, freeing its memory before the LRU
  /// would. Never required for correctness (see the file comment). Plans
  /// are query-only and are not affected.
  void Invalidate(const Database& db);

  /// Drops all cached views and plans; cumulative counters survive.
  void Clear();

  /// Snapshot of the counters (index_bytes is re-polled).
  EvalCacheStats stats() const;

  const EvalCacheOptions& options() const { return options_; }

 private:
  struct IndexEntry {
    uint64_t uid = 0;      ///< the source's Database::uid()
    uint64_t version = 0;  ///< the source version the view is current at
    // Non-const so the catch-up path can CatchUp() in place; handed out as
    // shared_ptr<const IndexedDatabase>.
    std::shared_ptr<IndexedDatabase> view;
  };
  using IndexList = std::list<IndexEntry>;  // front = most recently used
  struct PlanEntry {
    std::vector<int> key;
    std::shared_ptr<const PlanDecision> plan;
  };
  using PlanList = std::list<PlanEntry>;  // front = most recently used

  // The cached decision for `key`, counted as a hit and moved to the LRU
  // front; nullptr (not counted) on miss. Caller holds mu_.
  std::shared_ptr<const PlanDecision> FindPlanLocked(
      const std::vector<int>& key);
  // StorePlan's body; caller holds mu_.
  void StorePlanLocked(const std::vector<int>& key,
                       std::shared_ptr<const PlanDecision> plan);
  // Ends an AcquirePlan claim on `key`, storing `decision` unless planning
  // failed (null), and wakes the callers waiting on it.
  void ReleasePlanClaim(const std::vector<int>& key,
                        std::shared_ptr<const PlanDecision> decision);

  // Re-polls view footprints and evicts LRU views until the byte budget
  // holds (keeping at least the MRU entry). Caller holds mu_.
  void EnforceIndexBudgetLocked();

  EvalCacheOptions options_;

  mutable std::mutex mu_;
  IndexList index_lru_;
  std::unordered_map<uint64_t, IndexList::iterator> index_map_;  // by uid
  PlanList plan_lru_;
  std::unordered_map<std::vector<int>, PlanList::iterator, VectorHash>
      plan_map_;
  /// Keys some AcquirePlan caller is planning right now; plan_cv_ wakes
  /// the callers waiting on one of them.
  std::unordered_set<std::vector<int>, VectorHash> plans_in_flight_;
  std::condition_variable plan_cv_;
  mutable EvalCacheStats stats_;
};

}  // namespace cqa

#endif  // CQA_EVAL_CACHE_H_
