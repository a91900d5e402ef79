// Per-evaluation counters shared by the three engines. Indexed runs report
// how much of the work the RelationIndex layer absorbed; scan runs leave the
// index fields at zero.

#ifndef CQA_EVAL_EVAL_STATS_H_
#define CQA_EVAL_EVAL_STATS_H_

namespace cqa {

/// Counters of one evaluation (one engine run on one (query, database)).
struct EvalStats {
  long long nodes = 0;         ///< search-tree / bag-search nodes explored
  long long index_probes = 0;  ///< RelationIndex::Probe calls
  long long index_hits = 0;    ///< probes that found a nonempty bucket
  long long index_builds = 0;  ///< index/projection builds this run caused
  long long table_reuses = 0;  ///< cached projections/columns reused
  /// Probe keys materialized as heap tuples. The columnar probe core fills
  /// a reusable flat buffer instead, so indexed runs report ~0 here; the
  /// counter exists so the allocation win is observable (bench_columnar's
  /// legacy baseline counts one per probe), not assumed.
  long long probe_key_allocs = 0;
  /// Per-shard sub-evaluations this run fanned out (eval/shard_eval.h);
  /// 0 on unsharded runs. The other counters then hold the *per-shard
  /// totals*: each shard's probes/nodes are summed in, so e.g.
  /// index_probes is the work across all shards, comparable to an
  /// unsharded run's.
  long long shard_evals = 0;
  /// Incremental-maintenance ticks (StandingQueryState::Apply calls) and
  /// delta facts pushed through them (eval/delta_eval.h); 0 on full runs.
  long long delta_ticks = 0;
  long long delta_facts = 0;
  /// Rows the engines materialized into AnswerSets for the request: the
  /// exact answer set, or on approximate plans every evaluated sub-plan
  /// output (a sharded run counts its merged union). Deterministic, so it
  /// gates materialization work where wall time cannot.
  long long answer_rows = 0;

  /// Accumulates `other` (batch aggregation).
  void Add(const EvalStats& other) {
    nodes += other.nodes;
    index_probes += other.index_probes;
    index_hits += other.index_hits;
    index_builds += other.index_builds;
    table_reuses += other.table_reuses;
    probe_key_allocs += other.probe_key_allocs;
    shard_evals += other.shard_evals;
    delta_ticks += other.delta_ticks;
    delta_facts += other.delta_facts;
    answer_rows += other.answer_rows;
  }
};

}  // namespace cqa

#endif  // CQA_EVAL_EVAL_STATS_H_
