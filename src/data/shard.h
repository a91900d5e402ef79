// Hash-partitioned databases: the data substrate of the sharded evaluation
// subsystem (eval/shard_eval.h drives it, docs/ARCHITECTURE.md documents the
// union-soundness algebra).
//
// Partition scheme
// ----------------
// Facts are routed by the *first column*: fact R(a, b, ...) lands in shard
// `Mix(a) % K`, where Mix is a fixed 64-bit finalizer (so dense element ids
// spread evenly and the routing is stable across runs and machines). Every
// shard is a full Database over the parent's vocabulary and universe — only
// the fact sets are partitioned — so element ids mean the same thing in
// every shard and per-shard answer sets union literally.
//
// Nullary relations (arity 0, allowed by Vocabulary::AddRelation) have no
// first column to route by. Their facts are *broadcast*: the constructor
// replicates each nullary fact into every shard, because a proposition is
// true for the whole database, not for any one partition of it. Routing it
// to a single shard would make the (always shard-sound) single-atom plan
// over that relation come back empty on K-1 of the shards. The exchange
// is that replicated facts are counted once per shard — see TotalFacts().
// An arity-1 fact needs no special case: its first column *is* all of its
// columns.
//
// Why first-column routing: joins whose every atom places one common
// variable in the key column are *co-partitioned* — every homomorphism
// lands entirely inside one shard, which is exactly the soundness condition
// IsShardSound (eval/engine.h) tests, and which lets per-shard evaluation
// skip the cross-shard pairings entirely (a scan-path join over K shards
// costs ~1/K of the unsharded scan).
//
// Cache interplay: each shard is an ordinary Database with its own uid(),
// so per-shard IndexedDatabase views live in the existing EvalCache
// (eval/cache.h) unmodified and survive across batches like any other view.
// A partition belongs to exactly one source database: QueryService keys its
// registry by the source's uid() (eval/service.h), so two sources never
// share shards, whatever their content. When a partition dies, its shard
// views left in a cache age out of the LRU like any other stale view.

#ifndef CQA_DATA_SHARD_H_
#define CQA_DATA_SHARD_H_

#include <cstdint>
#include <vector>

#include "data/database.h"

namespace cqa {

/// The argument position facts are routed by (the partition scheme above).
inline constexpr int kShardKeyColumn = 0;

/// Stable 64-bit mixer for shard routing (SplitMix64 finalizer): decorrelates
/// the dense element ids from the shard count so K never aliases structure
/// in the data.
inline uint64_t MixShardKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The shard (in [0, num_shards)) that `fact` is routed to: the mixed hash
/// of its first column. Nullary facts are broadcast rather than routed
/// (see the partition scheme above); for them this returns 0 — a stable
/// answer for probing callers, not a residence claim. Deterministic;
/// num_shards must be >= 1.
int ShardOfTuple(const Tuple& fact, int num_shards);

/// A Database hash-partitioned into `num_shards` shard Databases. Shards
/// share the parent's vocabulary and universe size; every positive-arity
/// parent fact appears in exactly one shard (disjoint cover) and every
/// nullary fact appears in all of them (broadcast). The partition does not
/// track parent mutations automatically, but when the parent only *gained*
/// facts, CatchUp(parent) routes the new facts to their owning shards in
/// ~O(delta) — no repartition (QueryService drives this via the parent's
/// version counter).
class ShardedDatabase {
 public:
  /// Partitions `db` in one O(total facts) pass. num_shards must be >= 1;
  /// num_shards == 1 yields a single shard holding a copy of every fact
  /// (the degenerate partition, useful for testing the sharded path).
  ShardedDatabase(const Database& db, int num_shards);

  /// Routes the facts (and universe growth) `parent` gained since this
  /// partition was built or last caught up — one AddFact into the owning
  /// shard per new fact (broadcast for nullary), ~O(delta). `parent` must be
  /// the database this partition was built from, with facts only appended
  /// since. Not thread-safe against concurrent shard reads: callers
  /// serialize catch-up against evaluation (QueryService does). The shards_
  /// vector never reallocates, so shard objects — their uids, and the
  /// cached index views keyed by them — stay the same across catch-ups.
  void CatchUp(const Database& parent);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Shard `k` as an ordinary Database (own uid(), indexable, cacheable).
  /// Valid for k in [0, num_shards()).
  const Database& shard(int k) const { return shards_[k]; }

  const std::vector<Database>& shards() const { return shards_; }

  /// Sum over shards of NumFacts() — equals the parent's NumFacts() plus
  /// (num_shards() - 1) copies of each broadcast nullary fact.
  long long TotalFacts() const;

  /// Facts in the fullest shard; with heavy first-column skew (every fact
  /// sharing one key value) this is all of them.
  long long MaxShardFacts() const;

 private:
  std::vector<Database> shards_;
  std::vector<size_t> consumed_;  // per relation: parent facts routed so far
};

}  // namespace cqa

#endif  // CQA_DATA_SHARD_H_
