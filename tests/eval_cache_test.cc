// EvalCache and streaming-serving tests: database version/uid semantics,
// views keyed by identity (content-equal and content-hash-colliding
// databases never share one, through every calling convention), cross-batch
// index/plan reuse with the stat tiers separated, LRU eviction under byte
// pressure (without breaking in-flight views), catch-up when a database
// gains facts, stale views of destroyed databases aging out, and
// Submit/Drain/Shutdown returning exactly the answers a blocking
// EvaluateBatch produces.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "data/database.h"
#include "data/generators.h"
#include "data/index.h"
#include "eval/cache.h"
#include "eval/engine.h"
#include "eval/service.h"
#include "eval/naive.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

// E-edges only; the insertion order of `edges` is preserved.
Database GraphDb(int n, const std::vector<std::pair<int, int>>& edges) {
  Database db(Vocabulary::Graph(), n);
  for (const auto& [u, v] : edges) db.AddFact(0, {u, v});
  return db;
}

TEST(DatabaseVersionTest, BumpsOnMutationsOnly) {
  Database db(Vocabulary::Graph());
  const uint64_t v0 = db.version();
  db.AddElements(3);
  EXPECT_GT(db.version(), v0);
  const uint64_t v1 = db.version();
  EXPECT_TRUE(db.AddFact(0, {0, 1}));
  EXPECT_GT(db.version(), v1);
  const uint64_t v2 = db.version();
  EXPECT_FALSE(db.AddFact(0, {0, 1}));  // duplicate: no-op
  EXPECT_EQ(db.version(), v2);
  db.AddElements(0);  // no-op
  EXPECT_EQ(db.version(), v2);
}

// Every way of replacing a database's contents mints a fresh uid — on both
// sides of a move — and a uid is never handed out twice.
TEST(DatabaseUidTest, EveryCopyMoveAndAssignmentMintsAFreshUid) {
  Database source = GraphDb(4, {{0, 1}, {1, 2}});
  std::set<uint64_t> seen = {source.uid()};
  const auto fresh = [&seen](uint64_t uid) {
    return seen.insert(uid).second;
  };

  const Database copy = source;  // copy construction
  EXPECT_TRUE(fresh(copy.uid()));
  EXPECT_TRUE(copy.SameFactsAs(source));

  const uint64_t before_move = source.uid();
  Database moved = std::move(source);  // move construction
  EXPECT_TRUE(fresh(moved.uid()));
  EXPECT_NE(source.uid(), before_move);  // the moved-from side too
  EXPECT_TRUE(fresh(source.uid()));

  Database assigned(Vocabulary::Graph());
  EXPECT_TRUE(fresh(assigned.uid()));
  assigned = copy;  // copy assignment
  EXPECT_TRUE(fresh(assigned.uid()));

  Database target(Vocabulary::Graph());
  EXPECT_TRUE(fresh(target.uid()));
  const uint64_t before_assign = moved.uid();
  target = std::move(moved);  // move assignment
  EXPECT_TRUE(fresh(target.uid()));
  EXPECT_NE(moved.uid(), before_assign);
  EXPECT_TRUE(fresh(moved.uid()));

  // Mutation bumps the version, never the uid.
  const uint64_t uid = target.uid();
  target.AddFact(0, {2, 3});
  EXPECT_EQ(target.uid(), uid);
}

TEST(EvalCacheTest, ContentEqualDatabasesGetDistinctViews) {
  EvalCache cache;
  const Database db1 = GraphDb(4, {{0, 1}, {1, 2}});
  const Database db2 = GraphDb(4, {{1, 2}, {0, 1}});  // same content

  bool hit = true;
  const auto view1 = cache.AcquireIndexed(db1, &hit);
  EXPECT_FALSE(hit);
  const auto again = cache.AcquireIndexed(db1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(view1.get(), again.get());
  const auto twin = cache.AcquireIndexed(db2, &hit);
  EXPECT_FALSE(hit);  // equal content is not identity
  EXPECT_NE(view1.get(), twin.get());
  EXPECT_EQ(&twin->db(), &db2);

  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.index_hits, 1);
  EXPECT_EQ(stats.index_misses, 2);
  EXPECT_EQ(stats.index_entries, 2);
}

// Two single-edge databases over 64 elements whose old content hashes
// collided (HashVector({3, 63}) == HashVector({4, 0}), equal counts). Through
// one shared cache, each must answer Q(x, y) :- E(x, y) with its own edge
// only, through every calling convention, whichever was cached first.
TEST(EvalCacheTest, CollidingDatabasesKeepTheirAnswers) {
  const Database a = GraphDb(64, {{3, 63}});
  const Database b = GraphDb(64, {{4, 0}});
  const ConjunctiveQuery q = EdgeEnumerationCQ();
  EvalOptions opts;
  opts.num_threads = 1;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);
  const auto expect_own_edge = [](const AnswerSet& answers,
                                  const Tuple& edge) {
    EXPECT_EQ(answers.size(), 1u);
    EXPECT_TRUE(answers.Contains(edge));
  };

  expect_own_edge(service.Evaluate({q, &a}).answers, {3, 63});
  expect_own_edge(service.Evaluate({q, &b}).answers, {4, 0});

  const auto both = service.EvaluateBatch({{q, &a}, {q, &b}});
  expect_own_edge(both[0].answers, {3, 63});
  expect_own_edge(both[1].answers, {4, 0});
  // A batch over b alone finds a's view cached and must not take it.
  expect_own_edge(service.EvaluateBatch({{q, &b}})[0].answers, {4, 0});

  expect_own_edge(service.Submit({q, &b}).get().answers, {4, 0});
  expect_own_edge(service.Submit({q, &a}).get().answers, {3, 63});
  service.Shutdown();
}

TEST(EvalCacheTest, CrossBatchStatsDistinguishTiersFromIntraBatchReuse) {
  Rng rng(5150);
  const Database db = RandomDigraphDatabase(9, 0.3, &rng);
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 9; ++i) {
    jobs.push_back({i % 2 == 0 ? IntroQ2() : IntroQ1(), &db});
  }

  EvalOptions opts;
  opts.num_threads = 1;  // deterministic hit counts
  opts.cache = std::make_shared<EvalCache>();
  const QueryService evaluator(opts);

  // Cold batch: nothing is in the shared cache yet — 2 plans are computed,
  // the other 7 jobs are served from the plan tier, the one view is built
  // fresh.
  BatchStats cold;
  const auto first = evaluator.EvaluateBatch(jobs, &cold);
  EXPECT_EQ(cold.plan_cache_hits, 7);
  EXPECT_EQ(cold.index_cache_hits, 0);
  EXPECT_EQ(cold.index_cache_misses, 1);
  EXPECT_EQ(first[0].plan_source, PlanSource::kPlanned);
  EXPECT_EQ(first[2].plan_source, PlanSource::kSharedCache);

  // Warm batch: every plan and the view come from the shared cache.
  BatchStats warm;
  const auto second = evaluator.EvaluateBatch(jobs, &warm);
  EXPECT_EQ(warm.plan_cache_hits, 9);
  EXPECT_EQ(warm.index_cache_hits, 1);
  EXPECT_EQ(warm.index_cache_misses, 0);
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].plan_source, PlanSource::kSharedCache) << "job " << i;
  }
  EXPECT_TRUE(second[0].plan_cached());

  // Warm answers are identical to cold ones and to ground truth.
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].answers == second[i].answers) << "job " << i;
    EXPECT_TRUE(second[i].answers == EvaluateNaive(jobs[i].query, db))
        << "job " << i;
  }

  const EvalCacheStats stats = opts.cache->stats();
  EXPECT_EQ(stats.plan_hits, 16);  // 7 cold + 9 warm
  EXPECT_EQ(stats.plan_misses, 2);
  EXPECT_EQ(stats.index_hits, 1);
  EXPECT_EQ(stats.index_entries, 1);
}

TEST(EvalCacheTest, EvictsUnderBytePressureWithoutBreakingInFlightViews) {
  EvalCacheOptions options;
  options.max_index_bytes = 1;  // any built structure overflows the budget
  EvalCache cache(options);

  const Database db1 = GraphDb(4, {{0, 1}, {1, 2}, {2, 3}});
  const Database db2 = GraphDb(4, {{3, 2}, {2, 1}});
  const ConjunctiveQuery q = EdgeEnumerationCQ();

  // Build a structure in db1's view so it has a nonzero footprint (the
  // trivial query alone may not need any index).
  const auto view1 = cache.AcquireIndexed(db1);
  ASSERT_NE(view1->Index(0, MaskOfPositions({0})), nullptr);
  const AnswerSet before = EvaluateNaive(q, *view1);
  EXPECT_EQ(before.size(), 3u);

  // Acquiring db2 makes db1's view the LRU victim.
  const auto view2 = cache.AcquireIndexed(db2);
  EXPECT_NE(view1.get(), view2.get());
  EvalCacheStats stats = cache.stats();
  EXPECT_GE(stats.index_evictions, 1);
  EXPECT_EQ(stats.index_entries, 1);  // only the MRU view survives

  // The evicted view is alive as long as we hold it, and still correct.
  const AnswerSet after = EvaluateNaive(q, *view1);
  EXPECT_TRUE(before == after);

  // Re-acquiring db1 is a miss now (the entry was evicted).
  bool hit = true;
  const auto rebuilt = cache.AcquireIndexed(db1, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(rebuilt.get(), view1.get());
  EXPECT_TRUE(EvaluateNaive(q, *rebuilt) == before);
}

TEST(EvalCacheTest, FactInsertionCatchesUpTheCachedViewInPlace) {
  auto cache = std::make_shared<EvalCache>();
  Database db = GraphDb(4, {{0, 1}, {1, 2}});
  const ConjunctiveQuery q = EdgeEnumerationCQ();

  EvalOptions opts;
  opts.num_threads = 1;
  opts.cache = cache;
  const QueryService evaluator(opts);

  const auto cold = evaluator.EvaluateBatch({{q, &db}});
  EXPECT_EQ(cold[0].answers.size(), 2u);
  const auto view_before = cache->AcquireIndexed(db);

  // The database gains a fact: its version bumps, but the entry is keyed
  // by its uid, so the cache appends the delta to the existing view
  // instead of rebuilding — a single AddFact must cause zero index
  // rebuilds (regression pin).
  const uint64_t version_before = db.version();
  db.AddFact(0, {2, 3});
  EXPECT_GT(db.version(), version_before);

  BatchStats stats;
  const auto warm = evaluator.EvaluateBatch({{q, &db}}, &stats);
  EXPECT_EQ(stats.index_cache_hits, 1);  // the caught-up view is a hit
  EXPECT_EQ(warm[0].answers.size(), 3u);
  EXPECT_TRUE(warm[0].answers.Contains({2, 3}));
  EXPECT_TRUE(warm[0].answers == EvaluateNaive(q, db));

  const auto view_after = cache->AcquireIndexed(db);
  EXPECT_EQ(view_after.get(), view_before.get());  // same view, appended
  EXPECT_GE(cache->stats().index_delta_appends, 1);
  EXPECT_EQ(cache->stats().index_rebuilds, 0);
}

// A copy mutated in lockstep with its source (same fact count and version
// at every step, different content) never shares its view.
TEST(EvalCacheTest, CopyGrownInLockstepNeverSharesAView) {
  auto cache = std::make_shared<EvalCache>();
  EvalOptions opts;
  opts.num_threads = 1;
  opts.cache = cache;
  const QueryService service(opts);
  const ConjunctiveQuery q = EdgeEnumerationCQ();

  Database live = GraphDb(6, {{0, 1}, {1, 2}});
  Database twin = live;
  for (int step = 0; step < 3; ++step) {
    live.AddFact(0, {step + 2, step + 3});
    twin.AddFact(0, {step + 3, step + 2});
    ASSERT_EQ(live.version(), twin.version());
    ASSERT_EQ(live.NumFacts(), twin.NumFacts());
    const auto answers = service.EvaluateBatch({{q, &live}, {q, &twin}});
    EXPECT_TRUE(answers[0].answers == EvaluateNaive(q, live)) << step;
    EXPECT_TRUE(answers[1].answers == EvaluateNaive(q, twin)) << step;
    EXPECT_NE(cache->AcquireIndexed(live).get(),
              cache->AcquireIndexed(twin).get());
  }
  EXPECT_EQ(cache->stats().index_entries, 2);
  EXPECT_EQ(cache->stats().index_rebuilds, 0);
}

// Destroying a database without Invalidate leaves its view in the cache.
// The entry can never be acquired again (uids are not reused) and must age
// out safely: budget polling (stats) and eviction (the view's destructor)
// never touch the freed source. Run under ASan in CI.
TEST(EvalCacheTest, DestroyedDatabaseWithoutInvalidateAgesOut) {
  EvalCacheOptions options;
  options.max_index_bytes = 4096;
  EvalCache cache(options);
  const ConjunctiveQuery q = EdgeEnumerationCQ();

  std::shared_ptr<const IndexedDatabase> survivor;
  {
    const Database doomed = GraphDb(8, {{0, 1}, {1, 2}, {2, 3}});
    survivor = cache.AcquireIndexed(doomed);
    ASSERT_NE(survivor->Index(0, MaskOfPositions({0})), nullptr);
    EXPECT_EQ(EvaluateNaive(q, *survivor).size(), 3u);
  }
  survivor.reset();  // the cache now holds the only reference
  EXPECT_EQ(cache.stats().index_entries, 1);

  // Churn: fresh databases (likely at the dead one's address) are misses
  // with their own answers; growing views force byte-budget evictions.
  Rng rng(404);
  for (int round = 0; round < 40; ++round) {
    const Database db = RandomDigraphDatabase(8, 0.3, &rng);
    bool hit = true;
    const auto view = cache.AcquireIndexed(db, &hit);
    EXPECT_FALSE(hit) << round;
    view->Index(0, MaskOfPositions({0}));
    view->Index(0, MaskOfPositions({1}));
    EXPECT_TRUE(EvaluateNaive(q, *view) == EvaluateNaive(q, db)) << round;
    (void)cache.stats();
  }
  const EvalCacheStats stats = cache.stats();
  EXPECT_GT(stats.index_evictions, 0);
  EXPECT_EQ(stats.index_misses, 41);
  EXPECT_EQ(stats.index_hits, 0);
}

TEST(EvalCacheTest, InvalidateDropsEntriesOfOneDatabase) {
  EvalCache cache;
  const Database db1 = GraphDb(3, {{0, 1}});
  const Database db2 = GraphDb(3, {{1, 2}});
  cache.AcquireIndexed(db1);
  cache.AcquireIndexed(db2);
  EXPECT_EQ(cache.stats().index_entries, 2);

  cache.Invalidate(db1);
  EXPECT_EQ(cache.stats().index_entries, 1);
  bool hit = false;
  cache.AcquireIndexed(db2, &hit);
  EXPECT_TRUE(hit);  // the other database's entry survives
  cache.AcquireIndexed(db1, &hit);
  EXPECT_FALSE(hit);
}

TEST(EvalCacheTest, PlanLruEvictsBeyondEntryBound) {
  EvalCacheOptions options;
  options.max_plan_entries = 1;
  EvalCache cache(options);

  auto naive_plan = std::make_shared<PlanDecision>();
  naive_plan->kind = EngineKind::kNaive;
  cache.StorePlan({1}, naive_plan);
  auto tw_plan = std::make_shared<PlanDecision>();
  tw_plan->kind = EngineKind::kTreewidth;
  cache.StorePlan({2}, tw_plan);  // evicts key {1}

  EXPECT_EQ(cache.LookupPlan({1}), nullptr);
  const std::shared_ptr<const PlanDecision> out = cache.LookupPlan({2});
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->kind, EngineKind::kTreewidth);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.plan_evictions, 1);
  EXPECT_EQ(stats.plan_entries, 1);
}

// A planner that throws must not leave its key claimed: the caller sees the
// exception, and every later (or waiting) caller of that key plans it
// instead of blocking forever.
TEST(EvalCacheTest, AcquirePlanReleasesClaimWhenPlanningThrows) {
  EvalCache cache;
  const std::vector<int> key = {7};
  const auto good = [] {
    PlanDecision plan;
    plan.kind = EngineKind::kTreewidth;
    return plan;
  };

  std::promise<void> waiter_started;
  std::future<std::shared_ptr<const PlanDecision>> waiter;
  const auto failing = [&]() -> PlanDecision {
    // A second caller of the key arrives while this claim is held.
    waiter = std::async(std::launch::async, [&] {
      waiter_started.set_value();
      return cache.AcquirePlan(key, good);
    });
    waiter_started.get_future().wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("synthesis failed");
  };
  EXPECT_THROW(cache.AcquirePlan(key, failing), std::runtime_error);

  const std::shared_ptr<const PlanDecision> planned = waiter.get();
  ASSERT_NE(planned, nullptr);
  EXPECT_EQ(planned->kind, EngineKind::kTreewidth);
  bool hit = false;
  EXPECT_EQ(cache.AcquirePlan(key, good, &hit), planned);
  EXPECT_TRUE(hit);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.plan_misses, 2);  // the failed claim and the retry
  EXPECT_EQ(stats.plan_hits, 1);
  EXPECT_EQ(stats.plan_entries, 1);
}

// ---------------------------------------------------------------------------
// Streaming seam.

struct Workload {
  std::vector<Database> databases;
  std::vector<EvalRequest> jobs;
};

Workload MakeWorkload(uint64_t seed, int num_jobs) {
  Workload w;
  Rng rng(seed);
  w.databases.push_back(
      RandomDigraphDatabase(10, 0.3, &rng, /*allow_loops=*/true));
  w.databases.push_back(RandomCycleChordDatabase(12, 5, &rng));
  for (int i = 0; i < num_jobs; ++i) {
    const Database* db = &w.databases[i % w.databases.size()];
    if (i % 3 == 0) {
      w.jobs.push_back(
          {RandomCyclicGraphCQ(/*cycle_len=*/3, /*extra_atoms=*/2, &rng), db});
    } else {
      w.jobs.push_back({RandomGraphCQ(/*num_vars=*/2 + i % 4,
                                      /*num_atoms=*/3 + i % 3, &rng,
                                      /*num_free=*/i % 3),
                        db});
    }
  }
  return w;
}

TEST(StreamingTest, SubmitMatchesBlockingRun) {
  const Workload w = MakeWorkload(97, /*num_jobs=*/18);

  EvalOptions blocking;
  blocking.num_threads = 1;
  const auto reference = QueryService(blocking).EvaluateBatch(w.jobs);

  EvalOptions streaming;
  streaming.num_threads = 4;
  QueryService server(streaming);
  std::vector<std::future<EvalResponse>> futures;
  futures.reserve(w.jobs.size());
  for (const EvalRequest& job : w.jobs) futures.push_back(server.Submit(job));

  ASSERT_EQ(futures.size(), reference.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse result = futures[i].get();
    EXPECT_EQ(result.engine, reference[i].engine) << "job " << i;
    EXPECT_TRUE(result.answers == reference[i].answers) << "job " << i;
  }
  // Streaming went through a serving cache (the private fallback here).
  ASSERT_NE(server.serving_cache(), nullptr);
  const EvalCacheStats stats = server.serving_cache()->stats();
  EXPECT_GT(stats.plan_hits + stats.plan_misses, 0);
  server.Shutdown();
}

TEST(StreamingTest, SubmitSharesOneEvalCacheWithBatchRuns) {
  const Workload w = MakeWorkload(31337, /*num_jobs=*/12);

  EvalOptions opts;
  opts.num_threads = 2;
  opts.cache = std::make_shared<EvalCache>();
  QueryService evaluator(opts);

  // A blocking run warms the shared cache; streamed jobs then hit it.
  const auto reference = evaluator.EvaluateBatch(w.jobs);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(evaluator.Submit(job));
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse result = futures[i].get();
    EXPECT_TRUE(result.answers == reference[i].answers) << "job " << i;
    EXPECT_EQ(result.plan_source, PlanSource::kSharedCache) << "job " << i;
  }
  EXPECT_EQ(evaluator.serving_cache(), opts.cache.get());
  EXPECT_GT(opts.cache->stats().index_hits, 0);
}

TEST(StreamingTest, DrainWaitsForAllSubmittedJobs) {
  const Workload w = MakeWorkload(7, /*num_jobs=*/9);
  EvalOptions opts;
  opts.num_threads = 3;
  QueryService server(opts);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(server.Submit(job));
  server.Drain();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(StreamingTest, ShutdownCompletesQueuedJobs) {
  const Workload w = MakeWorkload(13, /*num_jobs=*/9);
  EvalOptions blocking;
  blocking.num_threads = 1;
  const auto reference = QueryService(blocking).EvaluateBatch(w.jobs);

  EvalOptions opts;
  opts.num_threads = 2;
  QueryService server(opts);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(server.Submit(job));
  server.Shutdown();  // no explicit Drain: queued jobs must still complete
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(futures[i].get().answers == reference[i].answers)
        << "job " << i;
  }
  server.Shutdown();  // idempotent
}

}  // namespace
}  // namespace cqa
