// Sharded evaluation subsystem tests: the hash partition itself
// (data/shard.h), the IsShardSound union algebra (eval/engine.h), and the
// serving integration (EvalOptions::num_shards) — sharded answers must be
// identical to unsharded answers across engines, shard counts, and all four
// AnswerModes; shapes the algebra rejects must fall back (with the recorded
// reason), never error and never answer wrongly; empty and maximally skewed
// shards must behave; per-shard views must hit the shared EvalCache on warm
// batches; and the streaming path must match the blocking one.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "data/generators.h"
#include "data/shard.h"
#include "eval/cache.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/intro.h"
#include "gadgets/workloads.h"

namespace cqa {
namespace {

Database GraphDb(int n, const std::vector<std::pair<int, int>>& edges) {
  Database db(Vocabulary::Graph(), n);
  for (const auto& [u, v] : edges) db.AddFact(0, {u, v});
  return db;
}

// The canonical sound (ShardSoundStarCQ), unsound (ShardUnsoundPathCQ) and
// single-atom (EdgeEnumerationCQ) shapes come from gadgets/workloads.h, the
// same builders the benches use.

// ---------------------------------------------------------------------------
// The partition itself.

TEST(ShardOfTupleTest, DeterministicInRangeAndKeyedByFirstColumn) {
  for (const int k : {1, 2, 7}) {
    for (int a = 0; a < 50; ++a) {
      const int shard = ShardOfTuple({a, 99}, k);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, k);
      // Only the first column routes: the second is ignored...
      EXPECT_EQ(shard, ShardOfTuple({a, 7}, k));
      // ...and an arity-1 fact with the same key lands identically.
      EXPECT_EQ(shard, ShardOfTuple({a}, k));
    }
  }
  // Arity-0: nullary facts are broadcast, not routed; the routing function
  // answers a stable 0 for probing callers rather than a residence claim.
  EXPECT_EQ(ShardOfTuple({}, 7), 0);
  EXPECT_EQ(ShardOfTuple({}, 1), 0);
}

TEST(ShardedDatabaseTest, PartitionIsADisjointCoverOfTheFacts) {
  Rng rng(2026);
  const Database db = RandomDigraphDatabase(40, 0.2, &rng);
  ASSERT_GT(db.NumFacts(), 0);
  for (const int k : {1, 2, 7}) {
    const ShardedDatabase sharded(db, k);
    ASSERT_EQ(sharded.num_shards(), k);
    EXPECT_EQ(sharded.TotalFacts(), db.NumFacts());
    for (int s = 0; s < k; ++s) {
      EXPECT_EQ(sharded.shard(s).num_elements(), db.num_elements());
      EXPECT_TRUE(sharded.shard(s).IsContainedIn(db));
    }
    // Every fact appears in exactly its routed shard and nowhere else.
    for (const Tuple& fact : db.facts(0)) {
      const int home = ShardOfTuple(fact, k);
      for (int s = 0; s < k; ++s) {
        EXPECT_EQ(sharded.shard(s).HasFact(0, fact), s == home);
      }
    }
  }
}

TEST(ShardedDatabaseTest, SingleShardIsTheWholeDatabase) {
  Rng rng(7);
  const Database db = RandomDigraphDatabase(15, 0.3, &rng);
  const ShardedDatabase sharded(db, 1);
  EXPECT_TRUE(sharded.shard(0).SameFactsAs(db));
  EXPECT_NE(sharded.shard(0).uid(), db.uid());  // same facts, own identity
}

// Every shard is its own database: distinct uids across the shards of one
// partition, from the source, and from another partition of the same source.
TEST(ShardedDatabaseTest, ShardsCarryDistinctUids) {
  Rng rng(11);
  const Database db = RandomDigraphDatabase(60, 0.3, &rng);
  const ShardedDatabase first(db, 4);
  const ShardedDatabase second(db, 4);
  std::set<uint64_t> uids = {db.uid()};
  for (const ShardedDatabase* sharded : {&first, &second}) {
    for (int k = 0; k < 4; ++k) {
      ASSERT_GT(sharded->shard(k).NumFacts(), 0) << "shard " << k;
      EXPECT_TRUE(uids.insert(sharded->shard(k).uid()).second) << "shard " << k;
    }
  }
}

TEST(ShardedDatabaseTest, SkewedKeysAllLandInOneShard) {
  // Every fact keys on element 0: the partition is maximally skewed.
  Database db = GraphDb(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  const ShardedDatabase sharded(db, 7);
  EXPECT_EQ(sharded.TotalFacts(), db.NumFacts());
  EXPECT_EQ(sharded.MaxShardFacts(), db.NumFacts());
  int nonempty = 0;
  for (int s = 0; s < 7; ++s) nonempty += sharded.shard(s).NumFacts() > 0;
  EXPECT_EQ(nonempty, 1);
}

TEST(ShardedDatabaseTest, EmptyDatabasePartitionsIntoEmptyShards) {
  const Database db(Vocabulary::Graph(), 5);  // elements, no facts
  const ShardedDatabase sharded(db, 3);
  EXPECT_EQ(sharded.TotalFacts(), 0);
  EXPECT_EQ(sharded.MaxShardFacts(), 0);
}

// Nullary facts have no key column: they are replicated into every shard so
// a single-atom plan over the relation (always shard-sound) never loses the
// proposition on K-1 shards. Positive-arity facts still partition disjointly.
TEST(ShardedDatabaseTest, NullaryFactsAreBroadcastToEveryShard) {
  auto vocab = std::make_shared<Vocabulary>();
  const RelationId e = vocab->AddRelation("E", 2);
  const RelationId p = vocab->AddRelation("P", 0);
  const RelationId q = vocab->AddRelation("Q", 0);
  Database db(vocab, 6);
  for (int u = 0; u < 5; ++u) db.AddFact(e, {u, u + 1});
  db.AddFact(p, {});  // Q stays false: broadcast must not invent it

  for (const int k : {1, 3, 7}) {
    const ShardedDatabase sharded(db, k);
    for (int s = 0; s < k; ++s) {
      EXPECT_TRUE(sharded.shard(s).HasFact(p, {})) << "shard " << s;
      EXPECT_FALSE(sharded.shard(s).HasFact(q, {})) << "shard " << s;
    }
    // Replication is visible in the fact count: 5 routed + k broadcast.
    EXPECT_EQ(sharded.TotalFacts(), 5 + k);
    // The binary facts still form a disjoint cover.
    for (const Tuple& fact : db.facts(e)) {
      int copies = 0;
      for (int s = 0; s < k; ++s) copies += sharded.shard(s).HasFact(e, fact);
      EXPECT_EQ(copies, 1);
    }
  }
}

// Unary facts are the smallest routed case: the first column is the whole
// tuple, and the partition is a disjoint cover exactly as for higher arity.
TEST(ShardedDatabaseTest, UnaryFactsRouteByTheirOnlyColumn) {
  auto vocab = std::make_shared<Vocabulary>();
  const RelationId u = vocab->AddRelation("U", 1);
  Database db(vocab, 20);
  for (int a = 0; a < 20; ++a) db.AddFact(u, {a});
  const int k = 4;
  const ShardedDatabase sharded(db, k);
  EXPECT_EQ(sharded.TotalFacts(), db.NumFacts());
  for (const Tuple& fact : db.facts(u)) {
    const int home = ShardOfTuple(fact, k);
    for (int s = 0; s < k; ++s) {
      EXPECT_EQ(sharded.shard(s).HasFact(u, fact), s == home);
    }
  }
}

// ---------------------------------------------------------------------------
// The soundness algebra.

TEST(IsShardSoundTest, SingleAtomAlwaysSound) {
  std::string reason;
  EXPECT_TRUE(IsShardSound(EdgeEnumerationCQ(), &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(IsShardSoundTest, CoPartitionedAtomsSound) {
  EXPECT_TRUE(IsShardSound(ShardSoundStarCQ(2)));
  EXPECT_TRUE(IsShardSound(ShardSoundStarCQ(5)));
}

TEST(IsShardSoundTest, StraddlingShapesRejectedWithReason) {
  std::string reason;
  EXPECT_FALSE(IsShardSound(ShardUnsoundPathCQ(), &reason));
  EXPECT_NE(reason.find("partition-column"), std::string::npos);
  // Digon E(x,y), E(y,x): first columns x and y disagree.
  ConjunctiveQuery digon(Vocabulary::Graph());
  const int x = digon.AddVariable("x");
  const int y = digon.AddVariable("y");
  digon.AddAtom(0, {x, y});
  digon.AddAtom(0, {y, x});
  digon.SetFreeVariables({x, y});
  EXPECT_FALSE(IsShardSound(digon));
  // The triangle straddles too.
  EXPECT_FALSE(IsShardSound(TriangleOutputCQ()));
}

// Nullary atoms are broadcast, so they are locally satisfiable on every
// shard and exempt from the co-partitioning requirement: adding one never
// flips a sound shape to unsound, and an all-nullary query is sound outright.
TEST(IsShardSoundTest, NullaryAtomsExemptFromCoPartitioning) {
  auto vocab = std::make_shared<Vocabulary>();
  const RelationId e = vocab->AddRelation("E", 2);
  const RelationId p = vocab->AddRelation("P", 0);

  ConjunctiveQuery star(vocab);
  const int x = star.AddVariable("x");
  const int y = star.AddVariable("y");
  const int z = star.AddVariable("z");
  star.AddAtom(e, {x, y});
  star.AddAtom(e, {x, z});
  star.AddAtom(p, {});
  star.SetFreeVariables({x, y, z});
  std::string reason;
  EXPECT_TRUE(IsShardSound(star, &reason));
  EXPECT_NE(reason.find("nullary"), std::string::npos);

  ConjunctiveQuery only_p(vocab);
  only_p.AddAtom(p, {});
  only_p.SetFreeVariables({});
  EXPECT_TRUE(IsShardSound(only_p, &reason));

  // The exemption does not launder unsound positive-arity shapes: a 2-path
  // plus a nullary atom still straddles shards.
  ConjunctiveQuery path(vocab);
  const int a = path.AddVariable("a");
  const int b = path.AddVariable("b");
  const int c = path.AddVariable("c");
  path.AddAtom(e, {a, b});
  path.AddAtom(e, {b, c});
  path.AddAtom(p, {});
  path.SetFreeVariables({a, c});
  EXPECT_FALSE(IsShardSound(path));
}

// A hand-built witness that the rejected shapes are genuinely unsound:
// evaluating the 2-path per shard and unioning loses the answer whose two
// edges land in different shards — exactly what the fallback must prevent.
TEST(IsShardSoundTest, PathUnionOverShardsActuallyLosesAnswers) {
  const ConjunctiveQuery q = ShardUnsoundPathCQ();
  // Find an edge pair (a->b, b->c) whose facts hash to different shards.
  const int k = 2;
  int a = -1, b = -1;
  for (int u = 0; u < 10 && a < 0; ++u) {
    for (int v = 0; v < 10; ++v) {
      if (u != v && ShardOfTuple({u, 0}, k) != ShardOfTuple({v, 0}, k)) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_GE(a, 0);
  const Database db = GraphDb(10, {{a, b}, {b, a}});
  const AnswerSet whole = EvaluateNaive(q, db);
  EXPECT_TRUE(whole.Contains({a, a}));

  const ShardedDatabase sharded(db, k);
  AnswerSet unioned(2);
  for (int s = 0; s < k; ++s) {
    const AnswerSet part = EvaluateNaive(q, sharded.shard(s));
    for (const Tuple& t : part.tuples()) unioned.Insert(t);
  }
  EXPECT_FALSE(unioned.Contains({a, a}));  // the witness straddles shards
  EXPECT_TRUE(unioned.IsSubsetOf(whole));  // but nothing is invented
}

// ---------------------------------------------------------------------------
// Serving integration.

// A mixed workload of sound and unsound shapes over shared databases.
std::vector<EvalRequest> MakeJobs(const std::vector<Database>& dbs,
                                  AnswerMode mode, Rng* rng, int num_jobs) {
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < num_jobs; ++i) {
    const Database* db = &dbs[i % dbs.size()];
    switch (i % 5) {
      case 0:
        jobs.push_back({ShardSoundStarCQ(2 + i % 3), db, mode});
        break;
      case 1:
        jobs.push_back({EdgeEnumerationCQ(), db, mode});
        break;
      case 2:
        jobs.push_back({ShardUnsoundPathCQ(), db, mode});
        break;
      case 3:
        jobs.push_back({TriangleOutputCQ(), db, mode});
        break;
      default:
        jobs.push_back({RandomGraphCQ(2 + i % 4, 3 + i % 3, rng, i % 3), db});
        jobs.back().mode = mode;
        break;
    }
  }
  return jobs;
}

void ExpectSameResponses(const std::vector<EvalResponse>& sharded,
                         const std::vector<EvalResponse>& plain) {
  ASSERT_EQ(sharded.size(), plain.size());
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_TRUE(sharded[i].answers == plain[i].answers) << "job " << i;
    EXPECT_EQ(sharded[i].exact, plain[i].exact) << "job " << i;
    ASSERT_EQ(sharded[i].bounds.has_value(), plain[i].bounds.has_value())
        << "job " << i;
    if (sharded[i].bounds.has_value()) {
      EXPECT_TRUE(sharded[i].bounds->under == plain[i].bounds->under)
          << "job " << i;
      EXPECT_TRUE(sharded[i].bounds->over == plain[i].bounds->over)
          << "job " << i;
    }
  }
}

// The headline property: for every AnswerMode and every shard count, the
// sharded service answers exactly like the unsharded one on mixed random
// workloads (sound shapes via the per-shard union, unsound ones via the
// fallback — the caller cannot tell the difference except by the stats).
TEST(ShardedServiceTest, AllModesAndShardCountsMatchUnsharded) {
  Rng rng(20260726);
  std::vector<Database> dbs;
  dbs.push_back(RandomDigraphDatabase(12, 0.3, &rng, /*allow_loops=*/true));
  dbs.push_back(RandomCycleChordDatabase(14, 6, &rng));

  for (const AnswerMode mode :
       {AnswerMode::kExact, AnswerMode::kUnderApproximate,
        AnswerMode::kOverApproximate, AnswerMode::kBounds}) {
    const std::vector<EvalRequest> jobs =
        MakeJobs(dbs, mode, &rng, /*num_jobs=*/15);

    EvalOptions plain_opts;
    plain_opts.num_threads = 2;
    plain_opts.planner.width_budget = 1;  // force approximation on cyclic
    BatchStats plain_stats;
    const auto plain =
        QueryService(plain_opts).EvaluateBatch(jobs, &plain_stats);
    EXPECT_EQ(plain_stats.sharded_jobs, 0);
    EXPECT_EQ(plain_stats.shard_fallbacks, 0);

    for (const int k : {1, 2, 7}) {
      EvalOptions sharded_opts = plain_opts;
      sharded_opts.num_shards = k;
      BatchStats stats;
      const auto sharded =
          QueryService(sharded_opts).EvaluateBatch(jobs, &stats);
      ExpectSameResponses(sharded, plain);
      // The workload contains both sound and unsound shapes, so both
      // counters must move, and every job lands in exactly one of them.
      EXPECT_GT(stats.sharded_jobs, 0) << "K=" << k;
      EXPECT_GT(stats.shard_fallbacks, 0) << "K=" << k;
      EXPECT_EQ(stats.sharded_jobs + stats.shard_fallbacks,
                static_cast<long long>(jobs.size()));
    }
  }
}

// Engine coverage: each of the three engines, forced, agrees with its own
// unsharded run (exact mode; the force only applies where supported).
TEST(ShardedServiceTest, AllThreeEnginesAgreeAcrossShardCounts) {
  Rng rng(424242);
  const Database db =
      RandomDigraphDatabase(20, 0.25, &rng, /*allow_loops=*/true);
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({i % 2 == 0 ? ShardSoundStarCQ(1 + i % 3) : EdgeEnumerationCQ(), &db});
  }
  for (const EngineKind kind : {EngineKind::kNaive, EngineKind::kYannakakis,
                                EngineKind::kTreewidth}) {
    EvalOptions plain_opts;
    plain_opts.num_threads = 1;
    plain_opts.forced_engine = kind;
    const auto plain = QueryService(plain_opts).EvaluateBatch(jobs);
    for (const int k : {1, 2, 7}) {
      EvalOptions sharded_opts = plain_opts;
      sharded_opts.num_shards = k;
      BatchStats stats;
      const auto sharded =
          QueryService(sharded_opts).EvaluateBatch(jobs, &stats);
      ASSERT_EQ(sharded.size(), plain.size());
      for (size_t i = 0; i < sharded.size(); ++i) {
        EXPECT_EQ(sharded[i].engine, kind);
        EXPECT_TRUE(sharded[i].sharded) << "job " << i << " K=" << k;
        EXPECT_TRUE(sharded[i].answers == plain[i].answers)
            << "engine " << EngineKindName(kind) << " job " << i << " K=" << k;
      }
      EXPECT_EQ(stats.sharded_jobs, static_cast<long long>(jobs.size()));
      // Per-shard sub-evaluations: one per shard per (non-approximate) job.
      EXPECT_EQ(stats.eval.shard_evals,
                static_cast<long long>(jobs.size()) * k);
    }
  }
}

// Scan and indexed sharded paths must agree with each other and with the
// unsharded ground truth.
TEST(ShardedServiceTest, ScanAndIndexedShardedRunsAgree) {
  Rng rng(31337);
  const Database db = RandomDigraphDatabase(18, 0.3, &rng);
  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back({i % 2 == 0 ? ShardSoundStarCQ(2) : ShardUnsoundPathCQ(), &db});
  }
  EvalOptions indexed;
  indexed.num_threads = 2;
  indexed.num_shards = 3;
  EvalOptions scan = indexed;
  scan.engine.use_index = false;
  const auto via_index = QueryService(indexed).EvaluateBatch(jobs);
  const auto via_scan = QueryService(scan).EvaluateBatch(jobs);
  ASSERT_EQ(via_index.size(), via_scan.size());
  for (size_t i = 0; i < via_index.size(); ++i) {
    EXPECT_TRUE(via_index[i].answers == via_scan[i].answers) << "job " << i;
    EXPECT_TRUE(via_index[i].answers ==
                EvaluateNaive(jobs[i].query, *jobs[i].db))
        << "job " << i;
  }
}

TEST(ShardedServiceTest, UnsoundShapeFallsBackWithRecordedReason) {
  Rng rng(5);
  const Database db = RandomDigraphDatabase(12, 0.3, &rng);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 4;
  const QueryService service(opts);

  BatchStats stats;
  const auto results =
      service.EvaluateBatch({{ShardUnsoundPathCQ(), &db}}, &stats);
  EXPECT_FALSE(results[0].sharded);
  EXPECT_FALSE(results[0].plan.shard_sound);
  EXPECT_NE(results[0].plan.shard_reason.find("partition-column"),
            std::string::npos);
  EXPECT_EQ(stats.shard_fallbacks, 1);
  EXPECT_EQ(stats.sharded_jobs, 0);
  EXPECT_EQ(results[0].eval.shard_evals, 0);
  EXPECT_TRUE(results[0].answers == EvaluateNaive(ShardUnsoundPathCQ(), db));
}

TEST(ShardedServiceTest, SoundShapeTakesShardedPath) {
  Rng rng(6);
  const Database db = RandomDigraphDatabase(12, 0.3, &rng);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 4;
  const QueryService service(opts);

  BatchStats stats;
  const auto results =
      service.EvaluateBatch({{ShardSoundStarCQ(2), &db}}, &stats);
  EXPECT_TRUE(results[0].sharded);
  EXPECT_TRUE(results[0].plan.shard_sound);
  EXPECT_EQ(stats.sharded_jobs, 1);
  EXPECT_EQ(stats.shard_fallbacks, 0);
  EXPECT_EQ(results[0].eval.shard_evals, 4);
  EXPECT_TRUE(results[0].answers == EvaluateNaive(ShardSoundStarCQ(2), db));
}

// The end-to-end regression for the broadcast fix: a single-atom query over
// a nullary relation is shard-sound, so the service evaluates it per shard
// and unions. Before broadcasting, the lone P() fact lived in one shard and
// a conjunction probing it on any other shard would come back empty.
TEST(ShardedServiceTest, NullaryQueriesStayExactUnderSharding) {
  auto vocab = std::make_shared<Vocabulary>();
  const RelationId e = vocab->AddRelation("E", 2);
  const RelationId p = vocab->AddRelation("P", 0);
  Database db(vocab, 8);
  for (int u = 0; u < 7; ++u) db.AddFact(e, {u, u + 1});
  db.AddFact(p, {});

  // P() alone, and the guarded star E(x,y) ∧ E(x,z) ∧ P().
  ConjunctiveQuery only_p(vocab);
  only_p.SetFreeVariables({});
  only_p.AddAtom(p, {});
  ConjunctiveQuery guarded(vocab);
  const int x = guarded.AddVariable("x");
  const int y = guarded.AddVariable("y");
  const int z = guarded.AddVariable("z");
  guarded.AddAtom(e, {x, y});
  guarded.AddAtom(e, {x, z});
  guarded.AddAtom(p, {});
  guarded.SetFreeVariables({x, y, z});

  for (const ConjunctiveQuery& q : {only_p, guarded}) {
    const AnswerSet expected = EvaluateNaive(q, db);
    EXPECT_FALSE(expected.empty()) << PrintQuery(q);
    for (const int k : {1, 3, 5}) {
      EvalOptions opts;
      opts.num_threads = 1;
      opts.num_shards = k;
      opts.forced_engine = EngineKind::kNaive;
      BatchStats stats;
      const auto results =
          QueryService(opts).EvaluateBatch({{q, &db}}, &stats);
      EXPECT_TRUE(results[0].sharded) << PrintQuery(q) << " K=" << k;
      EXPECT_TRUE(results[0].answers == expected) << PrintQuery(q) << " K=" << k;
      EXPECT_EQ(stats.sharded_jobs, 1);
    }
  }
}

// Maximally skewed partition (every fact keys on one element): K-1 shards
// are empty, and the sharded path still answers exactly.
TEST(ShardedServiceTest, SkewedAndEmptyShardsAnswerExactly) {
  const Database db = GraphDb(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  EvalOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 7;
  const QueryService service(opts);
  for (const ConjunctiveQuery& q :
       {ShardSoundStarCQ(2), EdgeEnumerationCQ(), ShardSoundStarCQ(4)}) {
    const EvalResponse r = service.Evaluate({q, &db});
    EXPECT_TRUE(r.sharded) << PrintQuery(q);
    EXPECT_TRUE(r.answers == EvaluateNaive(q, db)) << PrintQuery(q);
  }
  // Entirely empty database: all shards empty, still exact.
  const Database empty(Vocabulary::Graph(), 4);
  const EvalResponse r = service.Evaluate({ShardSoundStarCQ(2), &empty});
  EXPECT_TRUE(r.sharded);
  EXPECT_TRUE(r.answers.empty());
}

// Per-shard views are ordinary EvalCache views: a warm batch must hit one
// cached view per shard (plus the unsharded fallback view).
TEST(ShardedServiceTest, WarmBatchesHitPerShardCachedViews) {
  Rng rng(8);
  const Database db = RandomDigraphDatabase(30, 0.3, &rng);
  EvalOptions opts;
  opts.num_threads = 2;
  opts.num_shards = 3;
  opts.cache = std::make_shared<EvalCache>();
  const QueryService service(opts);

  std::vector<EvalRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({ShardSoundStarCQ(1 + i % 3), &db});
  }

  BatchStats cold, warm;
  const auto first = service.EvaluateBatch(jobs, &cold);
  EXPECT_EQ(cold.index_cache_hits, 0);
  EXPECT_EQ(cold.index_cache_misses, 4);  // 1 plain + 3 per-shard views
  const auto second = service.EvaluateBatch(jobs, &warm);
  EXPECT_EQ(warm.index_cache_hits, 4);
  EXPECT_EQ(warm.index_cache_misses, 0);
  ExpectSameResponses(second, first);
  EXPECT_GE(opts.cache->stats().index_hits, 4);
}

// Partitions are acquired lazily: a batch whose every plan is shard-unsound
// never partitions the database and never builds per-shard views — only the
// plain fallback view is acquired.
TEST(ShardedServiceTest, UnsoundOnlyBatchesNeverPartition) {
  Rng rng(21);
  const Database db = RandomDigraphDatabase(15, 0.3, &rng);
  EvalOptions opts;
  opts.num_threads = 2;
  opts.num_shards = 5;
  opts.cache = std::make_shared<EvalCache>();
  const QueryService service(opts);

  std::vector<EvalRequest> jobs(4, EvalRequest{ShardUnsoundPathCQ(), &db});
  BatchStats stats;
  const auto results = service.EvaluateBatch(jobs, &stats);
  EXPECT_EQ(stats.shard_fallbacks, 4);
  EXPECT_EQ(stats.index_cache_misses, 1);  // the plain view only — no shards
  EXPECT_EQ(opts.cache->stats().index_entries, 1);
  EXPECT_TRUE(results[0].answers == EvaluateNaive(ShardUnsoundPathCQ(), db));
}

// Content-equal databases are distinct databases: the second one gets its
// own partition and its own shard views (all misses), and serving it again
// hits its own views.
TEST(ShardedServiceTest, ContentEqualDatabasesGetTheirOwnPartitionAndViews) {
  const std::vector<std::pair<int, int>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}};
  const Database original = GraphDb(5, edges);
  std::vector<std::pair<int, int>> reversed(edges.rbegin(), edges.rend());
  const Database twin = GraphDb(5, reversed);  // same content, other order

  EvalOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 3;
  opts.cache = std::make_shared<EvalCache>();
  const QueryService service(opts);

  BatchStats first, second, third;
  const auto a = service.EvaluateBatch({{ShardSoundStarCQ(2), &original}},
                                       &first);
  EXPECT_EQ(first.index_cache_misses, 4);
  const auto b = service.EvaluateBatch({{ShardSoundStarCQ(2), &twin}},
                                       &second);
  EXPECT_EQ(second.index_cache_hits, 0);
  EXPECT_EQ(second.index_cache_misses, 4);  // 1 plain + 3 per-shard views
  EXPECT_TRUE(a[0].answers == b[0].answers);
  service.EvaluateBatch({{ShardSoundStarCQ(2), &twin}}, &third);
  EXPECT_EQ(third.index_cache_hits, 4);
  EXPECT_EQ(opts.cache->stats().index_entries, 8);
}

// Two single-edge databases over 64 elements whose old content hashes
// collided (HashVector({3, 63}) == HashVector({4, 0}), equal counts). With
// sharding on, indexing off and no cache, only the shard-partition registry
// is shared between them; each must still answer with its own edge, through
// every calling convention.
TEST(ShardedServiceTest, CollidingDatabasesKeepTheirAnswersWithoutACache) {
  const Database a = GraphDb(64, {{3, 63}});
  const Database b = GraphDb(64, {{4, 0}});
  const ConjunctiveQuery q = EdgeEnumerationCQ();
  EvalOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 2;
  opts.engine.use_index = false;
  const auto expect_own_edge = [](const EvalResponse& r, const Tuple& edge) {
    EXPECT_TRUE(r.sharded);
    EXPECT_EQ(r.answers.size(), 1u);
    EXPECT_TRUE(r.answers.Contains(edge));
  };

  const QueryService evaluate(opts);
  expect_own_edge(evaluate.Evaluate({q, &a}), {3, 63});
  expect_own_edge(evaluate.Evaluate({q, &b}), {4, 0});

  const QueryService batch(opts);
  const auto both = batch.EvaluateBatch({{q, &a}, {q, &b}});
  expect_own_edge(both[0], {3, 63});
  expect_own_edge(both[1], {4, 0});

  QueryService submit(opts);
  expect_own_edge(submit.Submit({q, &a}).get(), {3, 63});
  expect_own_edge(submit.Submit({q, &b}).get(), {4, 0});
  submit.Shutdown();
}

// A near-twin of `a`: the same universe and fact count with one fact moved.
// Where the universe allows, the move keeps the fact's HashVector, the
// worst case for any content-hash key; otherwise it goes to a random free
// position.
Database NearTwin(const Database& a, Rng* rng) {
  const std::vector<Tuple>& facts = a.facts(0);
  const size_t moved = rng->UniformInt(facts.size());
  std::vector<Tuple> colliding, free;
  for (Element u = 0; u < a.num_elements(); ++u) {
    for (Element v = 0; v < a.num_elements(); ++v) {
      const Tuple t = {u, v};
      if (a.HasFact(0, t)) continue;
      (HashVector(t) == HashVector(facts[moved]) ? colliding : free)
          .push_back(t);
    }
  }
  const std::vector<Tuple>& pool = colliding.empty() ? free : colliding;
  const Tuple& target = pool[rng->UniformInt(pool.size())];
  Database b(a.vocab(), a.num_elements());
  for (size_t i = 0; i < facts.size(); ++i) {
    b.AddFact(0, i == moved ? target : facts[i]);
  }
  return b;
}

// The no-crossing property: through one long-lived service per
// configuration (shared cache or none, indexing on or off, sharded or not),
// random near-twin pairs answer exactly like the naive oracle on their own
// side, via Evaluate, EvaluateBatch and Submit.
TEST(ShardedServiceTest, NearTwinPairsNeverCrossAnswers) {
  const std::vector<ConjunctiveQuery> queries = {
      EdgeEnumerationCQ(), ShardSoundStarCQ(2), ShardUnsoundPathCQ()};
  for (const int num_shards : {0, 2}) {
    for (const bool use_index : {true, false}) {
      for (const bool shared_cache : {true, false}) {
        EvalOptions opts;
        opts.num_threads = 2;
        opts.num_shards = num_shards;
        opts.engine.use_index = use_index;
        if (shared_cache) opts.cache = std::make_shared<EvalCache>();
        QueryService service(opts);
        Rng rng(9000 + 4 * num_shards + 2 * use_index + shared_cache);
        for (int pair = 0; pair < 6; ++pair) {
          const Database a = RandomDigraphDatabase(64, 0.04, &rng);
          ASSERT_GT(a.NumFacts(), 0);
          const Database b = NearTwin(a, &rng);
          ASSERT_EQ(a.NumFacts(), b.NumFacts());
          ASSERT_FALSE(a.SameFactsAs(b));
          const std::string where =
              "shards=" + std::to_string(num_shards) +
              " index=" + std::to_string(use_index) +
              " cache=" + std::to_string(shared_cache) +
              " pair=" + std::to_string(pair);
          for (const ConjunctiveQuery& q : queries) {
            const AnswerSet truth_a = EvaluateNaive(q, a);
            const AnswerSet truth_b = EvaluateNaive(q, b);
            EXPECT_TRUE(service.Evaluate({q, &a}).answers == truth_a) << where;
            EXPECT_TRUE(service.Evaluate({q, &b}).answers == truth_b) << where;
            const auto batch = service.EvaluateBatch({{q, &b}, {q, &a}});
            EXPECT_TRUE(batch[0].answers == truth_b) << where;
            EXPECT_TRUE(batch[1].answers == truth_a) << where;
            std::future<EvalResponse> fa = service.Submit({q, &a});
            std::future<EvalResponse> fb = service.Submit({q, &b});
            EXPECT_TRUE(fa.get().answers == truth_a) << where;
            EXPECT_TRUE(fb.get().answers == truth_b) << where;
          }
        }
        service.Shutdown();
      }
    }
  }
}

// A sharded service destroyed before the cache it shared: its per-shard
// views stay in the cache with freed sources. Nothing can acquire them
// again, and budget polling and eviction never touch the sources, so they
// age out safely under churn (run under ASan in CI).
TEST(ShardedServiceTest, ShardViewsOutliveTheirServiceAndAgeOut) {
  EvalCacheOptions cache_options;
  cache_options.max_index_bytes = 4096;
  auto cache = std::make_shared<EvalCache>(cache_options);
  Rng rng(31);
  {
    const Database db = RandomDigraphDatabase(30, 0.3, &rng);
    EvalOptions opts;
    opts.num_threads = 1;
    opts.num_shards = 3;
    opts.cache = cache;
    const QueryService service(opts);
    const EvalResponse r = service.Evaluate({ShardSoundStarCQ(2), &db});
    EXPECT_TRUE(r.sharded);
    EXPECT_TRUE(r.answers == EvaluateNaive(ShardSoundStarCQ(2), db));
  }
  EXPECT_EQ(cache->stats().index_entries, 4);

  EvalOptions opts;
  opts.num_threads = 1;
  opts.cache = cache;
  const QueryService churn(opts);
  for (int round = 0; round < 20; ++round) {
    const Database db = RandomDigraphDatabase(12, 0.3, &rng);
    const EvalResponse r = churn.Evaluate({ShardUnsoundPathCQ(), &db});
    EXPECT_TRUE(r.answers == EvaluateNaive(ShardUnsoundPathCQ(), db));
    (void)cache->stats();
  }
  EXPECT_GT(cache->stats().index_evictions, 0);
  EXPECT_EQ(cache->stats().index_hits, 0);
}

// Mutating the database between batches: the next sharded batch must see
// the new fact (a stale partition would silently drop it). The registry
// catches the partition up in place — only the new facts are routed — but
// either way the answers must match a from-scratch evaluation.
TEST(ShardedServiceTest, MutationBetweenBatchesSeesNewFacts) {
  Database db = GraphDb(5, {{0, 1}, {1, 2}});
  EvalOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 3;
  opts.cache = std::make_shared<EvalCache>();
  const QueryService service(opts);
  const ConjunctiveQuery q = EdgeEnumerationCQ();

  const EvalResponse before = service.Evaluate({q, &db});
  EXPECT_EQ(before.answers.size(), 2u);

  db.AddFact(0, {2, 3});
  const EvalResponse after = service.Evaluate({q, &db});
  EXPECT_TRUE(after.sharded);
  EXPECT_EQ(after.answers.size(), 3u);
  EXPECT_TRUE(after.answers.Contains({2, 3}));
  EXPECT_TRUE(after.answers == EvaluateNaive(q, db));
}

// The streaming convention: Submit with sharding on must deliver exactly
// what the blocking batch delivers, for sound and unsound shapes alike.
TEST(ShardedServiceTest, StreamingShardedMatchesBlocking) {
  Rng rng(12);
  std::vector<Database> dbs;
  dbs.push_back(RandomDigraphDatabase(14, 0.3, &rng, /*allow_loops=*/true));
  const std::vector<EvalRequest> jobs =
      MakeJobs(dbs, AnswerMode::kBounds, &rng, /*num_jobs=*/8);

  EvalOptions opts;
  opts.num_threads = 2;
  opts.num_shards = 3;
  opts.planner.width_budget = 1;
  opts.cache = std::make_shared<EvalCache>();
  QueryService service(opts);

  const auto blocking = service.EvaluateBatch(jobs);
  std::vector<std::future<EvalResponse>> futures;
  for (const EvalRequest& job : jobs) futures.push_back(service.Submit(job));
  service.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    const EvalResponse streamed = futures[i].get();
    EXPECT_TRUE(streamed.answers == blocking[i].answers) << "job " << i;
    EXPECT_EQ(streamed.sharded, blocking[i].sharded) << "job " << i;
    ASSERT_EQ(streamed.bounds.has_value(), blocking[i].bounds.has_value());
    if (streamed.bounds.has_value()) {
      EXPECT_TRUE(streamed.bounds->under == blocking[i].bounds->under);
      EXPECT_TRUE(streamed.bounds->over == blocking[i].bounds->over);
    }
  }
  service.Shutdown();
}

// Approximate plans inherit the gate: when every synthesized rewrite is
// shard-sound the request shards; the answers and sandwich must match the
// unsharded run either way (checked broadly above; here we pin the gate's
// bookkeeping on a width-over-budget request).
TEST(ShardedServiceTest, ApproximatePlansCarryTheShardGate) {
  Rng rng(13);
  const Database db =
      RandomDigraphDatabase(10, 0.35, &rng, /*allow_loops=*/true);
  EvalOptions opts;
  opts.num_threads = 1;
  opts.num_shards = 2;
  opts.planner.width_budget = 1;
  const QueryService service(opts);

  const EvalResponse r =
      service.Evaluate({TriangleOutputCQ(), &db, AnswerMode::kBounds});
  ASSERT_TRUE(r.plan.approximate);
  ASSERT_TRUE(r.bounds.has_value());
  EXPECT_FALSE(r.plan.shard_reason.empty());
  // Whatever the gate decided, the sandwich must hold around the truth.
  const AnswerSet exact = EvaluateNaive(TriangleOutputCQ(), db);
  EXPECT_TRUE(r.bounds->under.IsSubsetOf(exact));
  EXPECT_TRUE(exact.IsSubsetOf(r.bounds->over));
  // And the response's sharded flag must agree with the recorded verdict.
  EXPECT_EQ(r.sharded, r.plan.shard_sound);
}

}  // namespace
}  // namespace cqa
