// Tests for the QueryService serving API (eval/service): batch results must
// equal one-at-a-time blocking evaluation, the approximate AnswerModes must
// sandwich the forced-exact answers (under ⊆ exact ⊆ over) on the gadget
// workloads, tractable queries must collapse the sandwich, and approximation
// synthesis must be paid once per query shape — the second batch through a
// shared EvalCache serves the synthesized plans from the plan tier. The
// over side is pinned differentially: whatever the driver-and-filters
// evaluation does, it must equal the plain intersection of the plan's
// over-rewrites, each evaluated directly through its engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "core/overapprox.h"
#include "core/query_class.h"
#include "cq/containment.h"
#include "cq/parse.h"
#include "cq/properties.h"
#include "data/generators.h"
#include "eval/cache.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

// A mixed exact-mode workload shared by the calling-convention tests.
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
      w.jobs.push_back({RandomCyclicGraphCQ(3, 2, &rng), db});
    } else {
      w.jobs.push_back(
          {RandomGraphCQ(2 + i % 4, 3 + i % 3, &rng, i % 3), db});
    }
  }
  return w;
}

// The three calling conventions must agree: a threaded batch returns
// exactly what one-at-a-time blocking Evaluate calls return, request for
// request (EvaluateBatch is documented bit-identical to a sequential run).
TEST(QueryServiceTest, BatchMatchesBlockingEvaluate) {
  const Workload w = MakeWorkload(20260726, 14);
  EvalOptions opts;
  opts.num_threads = 3;
  const QueryService service(opts);

  BatchStats stats;
  const auto batch = service.EvaluateBatch(w.jobs, &stats);

  ASSERT_EQ(batch.size(), w.jobs.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const EvalResponse one = service.Evaluate(w.jobs[i]);
    EXPECT_TRUE(batch[i].answers == one.answers) << "job " << i;
    EXPECT_EQ(batch[i].engine, one.engine) << "job " << i;
    EXPECT_EQ(batch[i].plan.reason, one.plan.reason);
    EXPECT_EQ(batch[i].mode, AnswerMode::kExact);
    EXPECT_TRUE(batch[i].exact);
    EXPECT_FALSE(batch[i].bounds.has_value());
  }
  EXPECT_EQ(stats.jobs, static_cast<int>(w.jobs.size()));
  EXPECT_EQ(stats.approx_jobs, 0);
}

TEST(QueryServiceTest, SubmitMatchesNaiveReference) {
  const Workload w = MakeWorkload(77, 6);
  EvalOptions opts;
  opts.num_threads = 2;
  QueryService service(opts);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : w.jobs) futures.push_back(service.Submit(job));
  service.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse r = futures[i].get();
    EXPECT_TRUE(r.answers == EvaluateNaive(w.jobs[i].query, *w.jobs[i].db))
        << "job " << i;
  }
  service.Shutdown();
}

// Every approximate mode must sandwich the exact answers on the worked
// gadget queries (all cyclic, all width > 1, so a width budget of 1 forces
// rewrites).
TEST(QueryServiceTest, BoundsSandwichOnGadgetWorkloads) {
  const ConjunctiveQuery queries[] = {IntroQ1(), IntroQ3(), Prop59Query(),
                                      NonBooleanTriangle(),
                                      TriangleOutputCQ()};
  EvalOptions opts;
  opts.num_threads = 2;
  opts.planner.width_budget = 1;
  const QueryService service(opts);

  for (const uint64_t seed : {3u, 17u}) {
    Rng rng(seed);
    const Database db =
        RandomDigraphDatabase(9, 0.35, &rng, /*allow_loops=*/true);
    for (const ConjunctiveQuery& q : queries) {
      const AnswerSet exact = EvaluateNaive(q, db);

      const EvalResponse bounds =
          service.Evaluate({q, &db, AnswerMode::kBounds});
      ASSERT_TRUE(bounds.bounds.has_value()) << PrintQuery(q);
      EXPECT_TRUE(bounds.plan.approximate) << PrintQuery(q);
      EXPECT_FALSE(bounds.exact) << PrintQuery(q);
      EXPECT_EQ(bounds.mode, AnswerMode::kBounds);
      EXPECT_FALSE(bounds.plan.under.empty());
      EXPECT_FALSE(bounds.plan.over.empty());
      EXPECT_TRUE(bounds.bounds->under.IsSubsetOf(exact))
          << "under ⊄ exact for " << PrintQuery(q);
      EXPECT_TRUE(exact.IsSubsetOf(bounds.bounds->over))
          << "exact ⊄ over for " << PrintQuery(q);
      // The response's `answers` is the certain (sound) reading.
      EXPECT_TRUE(bounds.answers == bounds.bounds->under);

      const EvalResponse under =
          service.Evaluate({q, &db, AnswerMode::kUnderApproximate});
      EXPECT_FALSE(under.bounds.has_value());
      EXPECT_TRUE(under.answers.IsSubsetOf(exact)) << PrintQuery(q);
      EXPECT_TRUE(under.answers == bounds.bounds->under);

      const EvalResponse over =
          service.Evaluate({q, &db, AnswerMode::kOverApproximate});
      EXPECT_FALSE(over.bounds.has_value());
      EXPECT_TRUE(exact.IsSubsetOf(over.answers)) << PrintQuery(q);
      EXPECT_TRUE(over.answers == bounds.bounds->over);
    }
  }
}

TEST(QueryServiceTest, RandomCyclicBoundsSandwich) {
  Rng rng(424242);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  const QueryService service(opts);
  int approximated = 0;
  for (int round = 0; round < 10; ++round) {
    const Database db =
        RandomDigraphDatabase(8 + round % 3, 0.35, &rng, /*allow_loops=*/true);
    const ConjunctiveQuery q = RandomCyclicGraphCQ(3 + round % 2, 2, &rng);
    const AnswerSet exact = EvaluateNaive(q, db);
    const EvalResponse r = service.Evaluate({q, &db, AnswerMode::kBounds});
    ASSERT_TRUE(r.bounds.has_value());
    EXPECT_TRUE(r.bounds->under.IsSubsetOf(exact)) << PrintQuery(q);
    EXPECT_TRUE(exact.IsSubsetOf(r.bounds->over)) << PrintQuery(q);
    if (r.plan.approximate) ++approximated;
    // Collapsed sandwiches (width within budget) must be the exact answers.
    if (!r.plan.approximate) {
      EXPECT_TRUE(r.bounds->tight());
      EXPECT_TRUE(r.answers == exact);
    }
  }
  // The generator guarantees cyclic queries; most exceed a width budget
  // of 1, so the approximation rule must actually fire in this sweep.
  EXPECT_GT(approximated, 0);
}

// Queries the planner can evaluate exactly within budget serve every mode
// exactly: the sandwich collapses and `exact` stays true.
TEST(QueryServiceTest, TractableQueriesCollapseBounds) {
  Rng rng(11);
  const Database db = RandomDigraphDatabase(10, 0.3, &rng);
  const QueryService service;  // default width budget 3
  // Acyclic (Yannakakis) and small-width cyclic (treewidth DP).
  for (const ConjunctiveQuery& q : {IntroQ2Approx(), IntroQ1()}) {
    const AnswerSet exact = EvaluateNaive(q, db);
    for (const AnswerMode mode :
         {AnswerMode::kBounds, AnswerMode::kUnderApproximate,
          AnswerMode::kOverApproximate}) {
      const EvalResponse r = service.Evaluate({q, &db, mode});
      EXPECT_TRUE(r.exact) << PrintQuery(q);
      EXPECT_FALSE(r.plan.approximate);
      EXPECT_TRUE(r.answers == exact) << PrintQuery(q);
      if (mode == AnswerMode::kBounds) {
        ASSERT_TRUE(r.bounds.has_value());
        EXPECT_TRUE(r.bounds->tight());
        EXPECT_TRUE(r.bounds->under == exact);
      } else {
        EXPECT_FALSE(r.bounds.has_value());
      }
    }
  }
}

// The acceptance criterion: approximation synthesis is per query shape and
// cached in the EvalCache plan tier, so the second batch through a shared
// cache reuses every synthesized plan (plan_cache_hits == jobs) instead of
// re-deriving them.
TEST(QueryServiceTest, ApproxPlansHitSharedCacheOnSecondBatch) {
  Rng rng(8);
  const Database db =
      RandomDigraphDatabase(10, 0.3, &rng, /*allow_loops=*/true);

  EvalOptions opts;
  opts.num_threads = 2;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();

  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({i % 2 == 0 ? IntroQ1() : TriangleOutputCQ(), &db,
                    AnswerMode::kBounds});
  }

  const QueryService service(opts);
  BatchStats first_stats, second_stats;
  const auto first = service.EvaluateBatch(jobs, &first_stats);
  const auto second = service.EvaluateBatch(jobs, &second_stats);

  // First batch: each of the two shapes is planned once, however the two
  // workers interleave; the other jobs wait for that decision.
  EXPECT_EQ(first_stats.plan_cache_hits,
            static_cast<long long>(jobs.size()) - 2);
  EXPECT_EQ(first_stats.approx_jobs, static_cast<long long>(jobs.size()));
  // Second batch: every plan comes straight from the shared plan tier.
  EXPECT_EQ(second_stats.plan_cache_hits,
            static_cast<long long>(jobs.size()));
  EXPECT_EQ(second_stats.approx_jobs, static_cast<long long>(jobs.size()));

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    // Served-from-cache plans still carry the synthesized rewrites and
    // produce identical bounds.
    EXPECT_TRUE(second[i].plan.approximate) << "job " << i;
    EXPECT_FALSE(second[i].plan.under.empty()) << "job " << i;
    ASSERT_TRUE(first[i].bounds.has_value());
    ASSERT_TRUE(second[i].bounds.has_value());
    EXPECT_TRUE(first[i].bounds->under == second[i].bounds->under);
    EXPECT_TRUE(first[i].bounds->over == second[i].bounds->over);
  }
  // The plan tier, not re-synthesis, must have served the second batch.
  const EvalCacheStats cache_stats = opts.cache->stats();
  EXPECT_GT(cache_stats.plan_hits, 0);
}

// Modes are part of the plan cache key: an exact plan for a shape must
// never be served to a bounds request of the same shape, and vice versa.
TEST(QueryServiceTest, ModesDoNotCrossInThePlanCache) {
  Rng rng(9);
  const Database db =
      RandomDigraphDatabase(9, 0.3, &rng, /*allow_loops=*/true);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();
  const QueryService service(opts);

  const AnswerSet exact = EvaluateNaive(IntroQ1(), db);
  const EvalResponse e = service.Evaluate({IntroQ1(), &db, AnswerMode::kExact});
  const EvalResponse b = service.Evaluate({IntroQ1(), &db, AnswerMode::kBounds});
  EXPECT_TRUE(e.exact);
  EXPECT_FALSE(e.plan.approximate);
  EXPECT_TRUE(e.answers == exact);
  EXPECT_TRUE(b.plan.approximate);
  ASSERT_TRUE(b.bounds.has_value());
  EXPECT_TRUE(b.bounds->under.IsSubsetOf(exact));
  EXPECT_TRUE(exact.IsSubsetOf(b.bounds->over));
}

// Forcing an engine is an exact-mode affair: approximate-mode requests go
// through the planner (and its approximation rule) regardless.
TEST(QueryServiceTest, ForcedEngineAppliesToExactModeOnly) {
  Rng rng(10);
  const Database db =
      RandomDigraphDatabase(9, 0.3, &rng, /*allow_loops=*/true);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  opts.forced_engine = EngineKind::kNaive;
  const QueryService service(opts);

  const EvalResponse e = service.Evaluate({IntroQ1(), &db, AnswerMode::kExact});
  EXPECT_EQ(e.engine, EngineKind::kNaive);
  EXPECT_EQ(e.plan.reason, "forced by EvalOptions");

  const EvalResponse b = service.Evaluate({IntroQ1(), &db, AnswerMode::kBounds});
  EXPECT_TRUE(b.plan.approximate);
  ASSERT_TRUE(b.bounds.has_value());
  EXPECT_TRUE(b.bounds->under.IsSubsetOf(EvaluateNaive(IntroQ1(), db)));
}

// Streaming must serve the approximate modes exactly like a blocking batch.
TEST(QueryServiceTest, StreamingBoundsMatchBlocking) {
  Rng rng(12);
  const Database db =
      RandomDigraphDatabase(10, 0.3, &rng, /*allow_loops=*/true);
  EvalOptions opts;
  opts.num_threads = 2;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();

  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({i % 2 == 0 ? TriangleOutputCQ() : IntroQ3(), &db,
                    AnswerMode::kBounds});
  }

  QueryService service(opts);
  const auto blocking = service.EvaluateBatch(jobs);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : jobs) futures.push_back(service.Submit(job));
  service.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse streamed = futures[i].get();
    ASSERT_TRUE(streamed.bounds.has_value());
    ASSERT_TRUE(blocking[i].bounds.has_value());
    EXPECT_TRUE(streamed.bounds->under == blocking[i].bounds->under);
    EXPECT_TRUE(streamed.bounds->over == blocking[i].bounds->over);
    // The blocking batch already planned both shapes into the shared cache.
    EXPECT_EQ(streamed.plan_source, PlanSource::kSharedCache);
  }
  service.Shutdown();
}

// Structural synthesis guards: a query too large to synthesize for falls
// back to exact evaluation instead of stalling in the candidate enumeration.
TEST(QueryServiceTest, OversizedQueryFallsBackToExact) {
  Rng rng(13);
  const Database db = RandomDigraphDatabase(8, 0.3, &rng);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  opts.planner.max_synthesis_vars = 2;  // nothing qualifies
  const QueryService service(opts);
  const EvalResponse r = service.Evaluate({IntroQ1(), &db, AnswerMode::kBounds});
  EXPECT_FALSE(r.plan.approximate);
  EXPECT_TRUE(r.exact);
  ASSERT_TRUE(r.bounds.has_value());
  EXPECT_TRUE(r.bounds->tight());
  EXPECT_TRUE(r.answers == EvaluateNaive(IntroQ1(), db));
  EXPECT_NE(r.plan.reason.find("synthesis skipped"), std::string::npos);
}

// One plan tier behind every calling convention: a cold burst of one
// width-over-budget shape — 8 concurrent Submits on 4 workers plus 2
// concurrent Subscribes — runs the planner (and its rewrite synthesis)
// exactly once; every other caller waits for that decision.
TEST(QueryServiceTest, ConcurrentColdSubmitsAndSubscribesPlanOnce) {
  Rng rng(14);
  const Database db = RandomDigraphDatabase(8, 0.3, &rng);
  const ConjunctiveQuery q = MustParseQuery(
      db.vocab(),
      "Q(x,z) :- E(x,y),E(y,z),E(z,u),E(u,w),E(w,x),E(x,z),E(y,w)");
  EvalOptions opts;
  opts.num_threads = 4;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);

  std::vector<std::unique_ptr<Subscription>> subs(2);
  std::vector<std::thread> subscribers;
  for (auto& sub : subs) {
    subscribers.emplace_back([&service, &sub, &q, &db] {
      sub = service.Subscribe({q, &db, AnswerMode::kBounds});
    });
  }
  std::vector<std::future<EvalResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit({q, &db, AnswerMode::kBounds}));
  }
  for (std::thread& t : subscribers) t.join();
  const AnswerSet exact = EvaluateNaive(q, db);
  for (std::future<EvalResponse>& f : futures) {
    const EvalResponse r = f.get();
    EXPECT_TRUE(r.plan.approximate);
    ASSERT_TRUE(r.bounds.has_value());
    EXPECT_TRUE(r.bounds->under.IsSubsetOf(exact));
    EXPECT_TRUE(exact.IsSubsetOf(r.bounds->over));
  }
  for (const auto& sub : subs) {
    ASSERT_NE(sub, nullptr);
    EXPECT_TRUE(sub->plan().approximate);
  }
  const EvalCacheStats stats = opts.cache->stats();
  EXPECT_EQ(stats.plan_misses, 1);
  EXPECT_EQ(stats.plan_hits, 9);
  service.Shutdown();
}

// Without a configured cache the service still keeps one serving cache, so
// a second blocking Evaluate over the same database builds no index again.
TEST(QueryServiceTest, DefaultServiceReusesViewsAcrossEvaluateCalls) {
  Rng rng(15);
  const Database db = RandomDigraphDatabase(12, 0.3, &rng);
  const QueryService service;
  const EvalResponse first = service.Evaluate({IntroQ2(), &db});
  const EvalResponse second = service.Evaluate({IntroQ2(), &db});
  EXPECT_GT(first.eval.index_builds, 0);
  EXPECT_EQ(second.eval.index_builds, 0);
  EXPECT_TRUE(second.plan_cached());
  EXPECT_NE(service.serving_cache(), nullptr);
  EXPECT_TRUE(second.answers == first.answers);
  EXPECT_TRUE(second.answers == EvaluateNaive(IntroQ2(), db));
}

// After Shutdown the pool is gone and Submit is refused, but a batch still
// answers: it runs inline on the caller.
TEST(QueryServiceTest, EvaluateBatchAfterShutdownStillAnswers) {
  const Workload w = MakeWorkload(16, /*num_jobs=*/9);
  EvalOptions opts;
  opts.num_threads = 3;
  QueryService service(opts);
  service.Submit(w.jobs[0]).get();  // the pool is running
  service.Shutdown();

  BatchStats stats;
  const auto results = service.EvaluateBatch(w.jobs, &stats);
  ASSERT_EQ(results.size(), w.jobs.size());
  EXPECT_EQ(stats.threads_used, 1);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].answers ==
                EvaluateNaive(w.jobs[i].query, *w.jobs[i].db))
        << "job " << i;
  }
}

// A batch and a stream of Submits share one pool and one cache: both must
// still answer exactly.
TEST(QueryServiceTest, EvaluateBatchWhileAnotherThreadSubmits) {
  const Workload w = MakeWorkload(17, /*num_jobs=*/24);
  EvalOptions opts;
  opts.num_threads = 3;
  QueryService service(opts);

  std::vector<std::future<EvalResponse>> futures;
  std::thread submitter([&] {
    for (const EvalRequest& job : w.jobs) futures.push_back(service.Submit(job));
  });
  const auto batch = service.EvaluateBatch(w.jobs);
  submitter.join();
  ASSERT_EQ(batch.size(), w.jobs.size());
  ASSERT_EQ(futures.size(), w.jobs.size());
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    const AnswerSet want = EvaluateNaive(w.jobs[i].query, *w.jobs[i].db);
    EXPECT_TRUE(batch[i].answers == want) << "batch job " << i;
    EXPECT_TRUE(futures[i].get().answers == want) << "submitted job " << i;
  }
  service.Shutdown();
}

// The over side's reference: every over-rewrite evaluated directly through
// MakeEngine(sub.kind) on the scan path, then intersected.
AnswerSet IntersectRewrites(const std::vector<ApproxSubPlan>& over,
                            const Database& db, int arity) {
  AnswerSet result(arity);
  for (size_t i = 0; i < over.size(); ++i) {
    const AnswerSet part =
        MakeEngine(over[i].kind)->Evaluate(over[i].query, db);
    if (i == 0) {
      result = part;
      continue;
    }
    AnswerSet kept(arity);
    for (const Tuple& t : result.tuples()) {
      if (part.Contains(t)) kept.Insert(t);
    }
    result = std::move(kept);
  }
  return result;
}

// True when no free-connected component of `q` holds every free variable:
// the filters must then bind one candidate into several components.
bool FreeVariablesSplit(const ConjunctiveQuery& q) {
  std::vector<int> head = q.free_variables();
  std::sort(head.begin(), head.end());
  head.erase(std::unique(head.begin(), head.end()), head.end());
  for (const FreeComponent& c : FreeConnectedComponents(q)) {
    if (c.free_vars.size() == head.size()) return false;
  }
  return true;
}

// E/2, T/3 and the nullary flag P, for the mixed-arity differential cases.
VocabularyPtr MixedVocabulary() {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("T", 3);
  vocab->AddRelation("P", 0);
  return vocab;
}

Database RandomMixedDatabase(const VocabularyPtr& vocab, int n, bool flag,
                             Rng* rng) {
  Database db(vocab, n);
  const auto pick = [&] { return static_cast<Element>(rng->UniformInt(n)); };
  for (int i = 0; i < 3 * n; ++i) db.AddFact(0, {pick(), pick()});
  for (int i = 0; i < 4 * n; ++i) db.AddFact(1, {pick(), pick(), pick()});
  if (flag) db.AddFact(2, {});
  return db;
}

// The over side — kOverApproximate's answers and kBounds's `over` — equals
// the intersection of the plan's over-rewrites on every seeded shape, in
// indexed and scan mode, unsharded and over two shards.
TEST(QueryServiceTest, OverSideEqualsIntersectionOfRewrites) {
  struct Case {
    ConjunctiveQuery query;
    const Database* db;
    int width_budget;
  };
  Rng rng(20261019);
  std::vector<Database> graphs;
  graphs.push_back(RandomDigraphDatabase(14, 0.3, &rng, /*allow_loops=*/true));
  graphs.push_back(RandomCycleChordDatabase(16, 8, &rng));
  const VocabularyPtr mixed = MixedVocabulary();
  std::vector<Database> mixed_dbs;
  mixed_dbs.push_back(RandomMixedDatabase(mixed, 8, /*flag=*/true, &rng));
  mixed_dbs.push_back(RandomMixedDatabase(mixed, 8, /*flag=*/false, &rng));

  std::vector<Case> cases;
  for (int i = 0; i < 16; ++i) {
    ConjunctiveQuery q = RandomCyclicGraphCQ(
        3 + i % 4, static_cast<int>(rng.UniformInt(4)), &rng);
    // Boolean as generated for every fourth shape; otherwise one to three
    // distinct free variables.
    if (i % 4 != 3) {
      std::vector<int> free_vars;
      const int want = std::min(1 + i % 3, q.num_variables());
      while (static_cast<int>(free_vars.size()) < want) {
        const int v = static_cast<int>(rng.UniformInt(q.num_variables()));
        if (std::find(free_vars.begin(), free_vars.end(), v) ==
            free_vars.end()) {
          free_vars.push_back(v);
        }
      }
      q.SetFreeVariables(std::move(free_vars));
    }
    cases.push_back({std::move(q), &graphs[i % 2], 1});
  }
  const VocabularyPtr graph = graphs[0].vocab();
  for (const char* text :
       {"Q(x, x) :- E(x, y), E(y, z), E(z, x)",
        "Q() :- E(x, y), E(y, z), E(z, x), E(x, w)",
        "Q(x, z) :- E(x, y), E(y, z), E(z, w), E(w, x), E(x, z)"}) {
    for (const Database& db : graphs) {
      cases.push_back({MustParseQuery(graph, text), &db, 1});
    }
  }
  // Every atom keys on x: the plan is shard-sound, so with shards the
  // driver runs as a per-shard union while the filters probe the plain view.
  for (const char* text :
       {"Q(x, y) :- T(x, y, z), T(x, z, w), T(x, w, y)",
        "Q(x, y) :- T(x, y, z), T(x, z, w), T(x, w, y), P()",
        "Q(x, z) :- E(x, y), E(y, z), E(z, x), P()"}) {
    for (const Database& db : mixed_dbs) {
      cases.push_back({MustParseQuery(mixed, text), &db, 2});
    }
  }

  const auto cache = std::make_shared<EvalCache>();
  int compared = 0, split = 0, sharded = 0;
  for (const Case& c : cases) {
    const int arity = static_cast<int>(c.query.free_variables().size());
    for (const bool use_index : {true, false}) {
      for (const int num_shards : {0, 2}) {
        EvalOptions opts;
        opts.num_threads = 1;
        opts.planner.width_budget = c.width_budget;
        opts.engine.use_index = use_index;
        opts.num_shards = num_shards;
        opts.cache = cache;
        const QueryService service(opts);
        for (const AnswerMode mode :
             {AnswerMode::kOverApproximate, AnswerMode::kBounds}) {
          const EvalResponse r = service.Evaluate({c.query, c.db, mode});
          ASSERT_EQ(r.status, ResponseStatus::kOk);
          if (!r.plan.approximate) continue;
          const AnswerSet want = IntersectRewrites(r.plan.over, *c.db, arity);
          const AnswerSet& got =
              mode == AnswerMode::kBounds ? r.bounds->over : r.answers;
          EXPECT_TRUE(got == want)
              << PrintQuery(c.query) << " index=" << use_index
              << " shards=" << num_shards << " mode=" << AnswerModeName(mode)
              << ": " << got.size() << " vs " << want.size();
          EXPECT_TRUE(EvaluateNaive(c.query, *c.db).IsSubsetOf(got));
          if (mode == AnswerMode::kBounds) {
            EXPECT_TRUE(r.bounds->over_valid);
          }
          ++compared;
          if (r.sharded) ++sharded;
          for (const ApproxSubPlan& sub : r.plan.over) {
            if (FreeVariablesSplit(sub.query)) ++split;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 100);
  EXPECT_GT(split, 0);
  EXPECT_GT(sharded, 0);
}

// A subscribed bounds query maintains each over-rewrite incrementally; its
// possible side must match what the driver-and-filters evaluation of the
// same database returns after every Publish.
TEST(QueryServiceTest, SubscribedOverSideMatchesBatchAcrossPublishes) {
  Rng rng(31);
  Database db = RandomDigraphDatabase(12, 0.2, &rng, /*allow_loops=*/true);
  const ConjunctiveQuery q = MustParseQuery(
      db.vocab(), "Q(x, z) :- E(x, y), E(y, z), E(z, w), E(w, x), E(x, z)");
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);
  const std::unique_ptr<Subscription> sub =
      service.Subscribe({q, &db, AnswerMode::kBounds});
  ASSERT_TRUE(sub->plan().approximate);
  for (int step = 0; step < 6; ++step) {
    if (step > 0) {
      for (int k = 0; k < 4; ++k) {
        service.Publish(&db, 0,
                        {static_cast<Element>(rng.UniformInt(12)),
                         static_cast<Element>(rng.UniformInt(12))});
      }
    }
    ASSERT_TRUE(sub->Poll().caught_up);
    ASSERT_TRUE(sub->over_valid());
    const std::vector<EvalResponse> batch =
        service.EvaluateBatch({{q, &db, AnswerMode::kBounds}});
    ASSERT_TRUE(batch[0].bounds.has_value());
    EXPECT_TRUE(sub->possible() == batch[0].bounds->over) << "step " << step;
    EXPECT_TRUE(batch[0].bounds->over ==
                IntersectRewrites(batch[0].plan.over, db, 2));
  }
  service.Shutdown();
}

// Search-node polls one engine run of `sub` makes against a fresh view.
long long PollsOf(const ApproxSubPlan& sub, const Database& db) {
  const IndexedDatabase idb(db);
  const EvalContext ctx;
  MakeEngine(sub.kind)->Evaluate(sub.query, idb, nullptr, &ctx);
  return ctx.nodes_polled();
}

// A node budget that lets the driver finish and trips two polls into the
// filters: the over side comes back partial and is never labelled valid.
TEST(QueryServiceTest, NodeBudgetTrippingMidFilterInvalidatesOverSide) {
  Rng rng(32);
  const Database db =
      RandomDigraphDatabase(40, 0.15, &rng, /*allow_loops=*/true);
  const ConjunctiveQuery q = TriangleOutputCQ();
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  const QueryService service(opts);
  const EvalResponse full =
      service.Evaluate({q, &db, AnswerMode::kOverApproximate});
  ASSERT_TRUE(full.plan.approximate);
  ASSERT_GE(full.plan.over.size(), 2u);
  ASSERT_FALSE(full.answers.empty());
  const long long driver = PollsOf(full.plan.over[0], db);

  // One poll before planning, then the driver, then two filter polls.
  EvalRequest over{q, &db, AnswerMode::kOverApproximate};
  over.limits.max_nodes = 1 + driver + 2;
  const EvalResponse cut = service.Evaluate(over);
  EXPECT_EQ(cut.status, ResponseStatus::kTruncated);
  EXPECT_FALSE(cut.exact);
  EXPECT_TRUE(cut.answers.IsSubsetOf(full.answers));
  EXPECT_LT(cut.answers.size(), full.answers.size());

  // kBounds runs the under side first; it completes, the over side trips.
  const EvalResponse whole = service.Evaluate({q, &db, AnswerMode::kBounds});
  ASSERT_TRUE(whole.bounds.has_value());
  ASSERT_FALSE(whole.plan.under.empty());
  long long under = 0;
  for (const ApproxSubPlan& sub : whole.plan.under) under += PollsOf(sub, db);
  EvalRequest bounds{q, &db, AnswerMode::kBounds};
  bounds.limits.max_nodes = 1 + under + driver + 2;
  const EvalResponse tripped = service.Evaluate(bounds);
  EXPECT_EQ(tripped.status, ResponseStatus::kTruncated);
  ASSERT_TRUE(tripped.bounds.has_value());
  EXPECT_FALSE(tripped.bounds->over_valid);
  EXPECT_TRUE(tripped.bounds->under == whole.bounds->under);
  EXPECT_TRUE(tripped.bounds->over.IsSubsetOf(whole.bounds->over));
}

// The rewrite cap keeps the best-ranked over-rewrites, not the first ones
// found. On the chorded 4-cycle, the first four found all lack the chord
// E(x, z); the ranking keeps the rewrites that contain it, and the possible
// answers shrink. The 5-cycle's ranking keeps the four it always kept.
TEST(QueryServiceTest, RewriteCapKeepsTheChordedRewrites) {
  Rng rng(5);
  const Database db = RandomDigraphDatabase(500, 5.0 / 500, &rng);
  const VocabularyPtr vocab = db.vocab();
  const ConjunctiveQuery chorded = MustParseQuery(
      vocab, "Q(x, z) :- E(x, y), E(y, z), E(z, w), E(w, x), E(x, z)");
  const ConjunctiveQuery five_cycle = MustParseQuery(
      vocab, "Q(x, z) :- E(x, y), E(y, z), E(z, u), E(u, w), E(w, x)");
  EvalOptions opts;
  opts.num_threads = 1;
  opts.planner.width_budget = 1;
  const QueryService service(opts);
  const std::unique_ptr<QueryClass> tw1 = MakeTreewidthClass(1);
  const auto first_found = [&](const ConjunctiveQuery& q) {
    std::vector<ConjunctiveQuery> found =
        ComputeOverapproximations(q, *tw1).overapproximations;
    if (found.size() > static_cast<size_t>(opts.planner.max_rewrites)) {
      found.erase(found.begin() + opts.planner.max_rewrites, found.end());
    }
    return found;
  };

  const EvalResponse r =
      service.Evaluate({chorded, &db, AnswerMode::kOverApproximate});
  ASSERT_TRUE(r.plan.approximate);
  const auto is_chord = [](const ApproxSubPlan& sub) {
    const std::vector<int>& head = sub.query.free_variables();
    for (const Atom& atom : sub.query.atoms()) {
      if (atom.vars == std::vector<int>{head[0], head[1]}) return true;
    }
    return false;
  };
  EXPECT_TRUE(std::any_of(r.plan.over.begin(), r.plan.over.end(), is_chord));
  std::vector<ApproxSubPlan> capped_by_discovery;
  for (ConjunctiveQuery& q : first_found(chorded)) {
    const EngineKind kind = PlanQuery(q).kind;
    capped_by_discovery.push_back({std::move(q), kind});
  }
  const AnswerSet discovery_over =
      IntersectRewrites(capped_by_discovery, db, 2);
  const AnswerSet exact = EvaluateNaive(chorded, IndexedDatabase(db));
  EXPECT_TRUE(exact.IsSubsetOf(r.answers));
  EXPECT_LT(r.answers.size(), discovery_over.size());

  const EvalResponse five =
      service.Evaluate({five_cycle, &db, AnswerMode::kOverApproximate});
  const std::vector<ConjunctiveQuery> kept = first_found(five_cycle);
  ASSERT_EQ(five.plan.over.size(), kept.size());
  for (const ConjunctiveQuery& q : kept) {
    EXPECT_TRUE(std::any_of(
        five.plan.over.begin(), five.plan.over.end(),
        [&](const ApproxSubPlan& sub) { return AreEquivalent(sub.query, q); }))
        << PrintQuery(q);
  }
}

}  // namespace
}  // namespace cqa
