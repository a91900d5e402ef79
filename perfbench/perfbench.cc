// perfbench: the benchmark of record for the approximation-serving stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--config perfbench/workloads.json] [--scale full|tiny]
//             [--trace-dir <dir>]
//
// Four workloads (parameters and the reason for each in workloads.json):
// wire_paging (CqaClient -> CqaServer on loopback), cyclic_exact
// (QueryService::Submit on cyclic shapes), approx_bounds
// (QueryService::EvaluateBatch in the approximate modes) and publish_read
// (an open-loop Publish writer beside a subscriber and a reader). Every
// input is generated from --seed; the library only ever sees the generated
// databases, queries and facts.
//
// With --trace 0 the run prints every end-to-end metric and, as its last
// line, one JSON object with the gated end-to-end metrics. With --trace 1 it
// runs the same load phase, then replays the first requests of the seeded
// stream in-process through the layers' public functions (parse -> plan
// cache / PlanQuery -> AcquireIndexed -> MakeEngine(kind)->Evaluate ->
// union / intersection -> MakeCursors, plus CqaClient Eval/Fetch on
// wire_paging) twice, untraced and traced, and prints the per-layer metrics.
// Spans are kept in memory and written to --trace-dir when the run ends.
//
// Every answer is checked against EvaluateNaive on the plain Database,
// computed outside the timed phases; a wrong answer makes "correct" false
// and the exit code 1.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "bench_core.h"
#include "core/approximator.h"
#include "core/overapprox.h"
#include "core/query_class.h"
#include "cq/cq.h"
#include "cq/parse.h"
#include "data/database.h"
#include "eval/answer_set.h"
#include "eval/cache.h"
#include "eval/engine.h"
#include "eval/naive.h"
#include "eval/service.h"
#include "gadgets/workloads.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"

namespace perfbench {
namespace {

using cqa::AnswerMode;
using cqa::AnswerSet;
using cqa::ConjunctiveQuery;
using cqa::CursorResponse;
using cqa::Database;
using cqa::EngineKind;
using cqa::EvalCache;
using cqa::EvalRequest;
using cqa::EvalResponse;
using cqa::Json;
using cqa::QueryService;
using cqa::Rng;
using cqa::Tuple;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NowMs() {
  static const Clock::time_point origin = Clock::now();
  return MsBetween(origin, Clock::now());
}

/// req_per_s is the median rate over this many equal slices of the load.
constexpr int kRateSegments = 5;

EvalRequest Request(const ConjunctiveQuery& q, const Database* db,
                    AnswerMode mode) {
  EvalRequest r{q, db, mode, {}, nullptr};
  return r;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

std::vector<double> Concat(const std::vector<std::vector<double>>& parts) {
  std::vector<double> out;
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Restricts the process to the last `k` CPUs it may run on; every thread
/// started afterwards inherits the mask. Loopback client and server threads
/// hand each page to each other; on a shared virtual machine a hand-off to
/// another virtual CPU waits until the host runs that CPU, which adds
/// host-dependent stalls to every round trip. A fixed small set keeps the
/// hand-offs on CPUs the process is already using. CPU 0 is taken last
/// because it serves most device interrupts.
void PinToLastCpus(int k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < k; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (taken > 0) sched_setaffinity(0, sizeof(pinned), &pinned);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- config

const Json& Field(const Json& obj, const char* key) {
  const Json* f = obj.Find(key);
  if (f == nullptr) Die(std::string("config: missing field '") + key + "'");
  return *f;
}

int Int(const Json& obj, const char* key) {
  return static_cast<int>(Field(obj, key).AsNumber());
}

double Num(const Json& obj, const char* key) {
  return Field(obj, key).AsNumber();
}

/// A seeded, shuffled deck over the weighted combinations of one or more
/// config arrays; an entry's integer "weight" (default 1) is its
/// multiplicity. Each pass through the deck deals every combination in
/// exact proportion, so the mix a run sees does not drift with the draws
/// and work per request varies less between runs.
class Deck {
 public:
  Deck(const std::vector<const Json*>& dims, uint64_t seed) : rng_(seed) {
    cards_.push_back({});
    for (const Json* dim : dims) {
      std::vector<std::vector<int>> next;
      for (const std::vector<int>& card : cards_) {
        for (size_t i = 0; i < dim->items().size(); ++i) {
          const int weight =
              static_cast<int>(dim->items()[i].GetNumber("weight", 1));
          for (int k = 0; k < weight; ++k) {
            next.push_back(card);
            next.back().push_back(static_cast<int>(i));
          }
        }
      }
      cards_ = std::move(next);
    }
    if (cards_.empty()) Die("config: a deck has no cards");
    pos_ = cards_.size();
  }

  /// The next combination: one index per dimension.
  const std::vector<int>& Next() {
    if (pos_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng_.UniformInt(i + 1)]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  Rng rng_;
  std::vector<std::vector<int>> cards_;
  size_t pos_ = 0;
};

AnswerMode ModeNamed(const std::string& name) {
  for (AnswerMode m : {AnswerMode::kExact, AnswerMode::kOverApproximate,
                       AnswerMode::kUnderApproximate, AnswerMode::kBounds}) {
    if (name == cqa::AnswerModeName(m)) return m;
  }
  Die("config: unknown mode '" + name + "'");
}

struct DbSpec {
  std::string name;
  int nodes = 0;
  int out_degree = 0;
  int loops = 0;
};

DbSpec ReadDb(const Json& j) {
  DbSpec s;
  s.name = j.GetString("name", "db");
  s.nodes = Int(j, "nodes");
  s.out_degree = Int(j, "out_degree");
  s.loops = static_cast<int>(j.GetNumber("loops", 0));
  if (s.out_degree >= s.nodes) Die("config: out_degree must be below nodes");
  return s;
}

/// A random regular digraph: the union of `out_degree` random permutations,
/// repaired by swaps so that no edge repeats and none is a self-loop, so
/// every node has exactly `out_degree` out- and in-neighbours; then `loops`
/// self-loops on distinct random nodes. Fixing both degrees fixes the edge
/// count and the number of 2-paths, so the work a seed brings varies far
/// less between seeds than with independent edges.
std::unique_ptr<Database> MakeDb(const DbSpec& spec, uint64_t seed,
                                 int index) {
  Rng rng(Mix(seed, 1000 + static_cast<uint64_t>(index)));
  const int n = spec.nodes;
  auto db = std::make_unique<Database>(cqa::Vocabulary::Graph(), n);
  std::vector<int> perm(static_cast<size_t>(n));
  for (int k = 0; k < spec.out_degree; ++k) {
    for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm[static_cast<size_t>(i)],
                perm[rng.UniformInt(static_cast<uint64_t>(i) + 1)]);
    }
    const auto usable = [&](int u, int v) {
      return u != v && !db->HasFact(0, {u, v});
    };
    for (int u = 0; u < n; ++u) {
      while (!usable(u, perm[static_cast<size_t>(u)])) {
        const int w = static_cast<int>(rng.UniformInt(n));
        if (usable(u, perm[static_cast<size_t>(w)]) &&
            usable(w, perm[static_cast<size_t>(u)])) {
          std::swap(perm[static_cast<size_t>(u)], perm[static_cast<size_t>(w)]);
        }
      }
    }
    for (int u = 0; u < n; ++u) {
      db->AddFact(0, {u, perm[static_cast<size_t>(u)]});
    }
  }
  for (int added = 0; added < std::min(spec.loops, n);) {
    const int v = static_cast<int>(rng.UniformInt(n));
    if (db->AddFact(0, {v, v})) ++added;
  }
  return db;
}

// --------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;
};

/// What one thread of load (or the checks after it) observed.
struct Log {
  long long attempted = 0;
  long long failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> done_ms;  ///< completion times from the load start
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void Merge(const Log& o) {
    attempted += o.attempted;
    failed += o.failed;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    done_ms.insert(done_ms.end(), o.done_ms.begin(), o.done_ms.end());
    for (const std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

struct Outcome {
  Log log;
  double window_s = 0.0;           ///< measured load time
  std::vector<double> setup_s;     ///< one per set-up repetition
  std::vector<Metric> extra;       ///< workload-only end-to-end metrics
  std::map<std::string, double> layers;
  std::vector<Span> spans;         ///< traced replay (trace runs only)
  std::map<std::string, double> self_ms;
  long long replayed = 0;
};

// ---------------------------------------------------------------- oracle

std::vector<Tuple> SortedRows(const AnswerSet& answers) {
  std::vector<Tuple> rows(answers.tuples().begin(), answers.tuples().end());
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Time spent computing oracles, reported beside (never inside) the metrics.
double g_oracle_ms = 0.0;

/// Q(D) by the naive scan on the plain database, once per (query, db).
struct Expected {
  AnswerSet set = AnswerSet(0);
  std::vector<Tuple> rows;  ///< sorted: the cursor order
};

class OracleTable {
 public:
  const Expected& Get(int query, int db, const ConjunctiveQuery& q,
                      const Database& d) {
    auto it = table_.find({query, db});
    if (it == table_.end()) {
      const double t0 = NowMs();
      Expected e;
      e.set = cqa::EvaluateNaive(q, d);
      e.rows = SortedRows(e.set);
      it = table_.emplace(std::make_pair(query, db), std::move(e)).first;
      g_oracle_ms += NowMs() - t0;
    }
    return it->second;
  }

 private:
  std::map<std::pair<int, int>, Expected> table_;
};

/// Query texts and their parses; fresh shapes are appended at run time.
class QueryTable {
 public:
  int Add(const std::string& text) {
    for (size_t i = 0; i < text_.size(); ++i) {
      if (text_[i] == text) return static_cast<int>(i);
    }
    std::string error;
    std::optional<ConjunctiveQuery> q =
        cqa::ParseQuery(cqa::Vocabulary::Graph(), text, &error);
    if (!q.has_value()) Die("cannot parse query '" + text + "': " + error);
    text_.push_back(text);
    parsed_.push_back(std::move(*q));
    return static_cast<int>(text_.size()) - 1;
  }
  const std::string& text(int i) const { return text_[i]; }
  const ConjunctiveQuery& query(int i) const { return parsed_[i]; }
  int size() const { return static_cast<int>(text_.size()); }

 private:
  std::vector<std::string> text_;
  std::vector<ConjunctiveQuery> parsed_;
};

QueryTable ReadQueries(const Json& arr) {
  QueryTable t;
  for (const Json& item : arr.items()) t.Add(Field(item, "text").AsString());
  return t;
}

// ---------------------------------------------------------------- replay

struct LayerCounts {
  long long requests = 0;
  long long plan_lookups = 0;
  long long plan_hits = 0;
  long long picks[3] = {0, 0, 0};
  long long rewrites = 0;
  long long synth_results = 0;
  long long nodes = 0;
  long long probes = 0;
  long long probe_hits = 0;
  long long rows_materialized = 0;
  long long rows_returned = 0;
  long long copy_rows = 0;
  long long acquires = 0;
  long long view_hits = 0;
  long long delta_appends = 0;
  long long rebuilds = 0;
};

/// The in-process serving path, one public call per layer, each wrapped in
/// a span. Mirrors what QueryService does for one request over a shared
/// EvalCache, so the replay's answers must equal the service's.
class Replayer {
 public:
  Replayer(cqa::PlannerOptions planner, Tracer* tracer)
      : planner_(planner),
        tracer_(tracer),
        cache_(std::make_shared<EvalCache>()) {
    for (EngineKind k : {EngineKind::kNaive, EngineKind::kYannakakis,
                         EngineKind::kTreewidth}) {
      engines_[static_cast<int>(k)] = cqa::MakeEngine(k);
    }
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  LayerCounts& counts() { return counts_; }

  CursorResponse Run(long long id, const std::string& text,
                     const Database& db, AnswerMode mode) {
    Tracer& t = *tracer_;
    ++counts_.requests;
    std::optional<ConjunctiveQuery> q;
    {
      ScopedSpan s(&t, "cq.parse", id);
      q = cqa::ParseQuery(db.vocab(), text);
    }
    if (!q.has_value()) Die("replay cannot parse '" + text + "'");

    cqa::PlanDecision plan;
    bool plan_hit = false;
    {
      ScopedSpan s(&t, "eval.engine.plan", id);
      const std::vector<int> key = cqa::PlanCacheKey(*q, planner_, mode);
      std::shared_ptr<const cqa::PlanDecision> cached =
          cache_->LookupPlan(key);
      plan_hit = cached != nullptr;
      if (plan_hit) {
        plan = *cached;
      } else {
        plan = cqa::PlanQuery(*q, planner_, mode);
        cache_->StorePlan(key, std::make_shared<const cqa::PlanDecision>(plan));
      }
    }
    ++counts_.plan_lookups;
    counts_.plan_hits += plan_hit ? 1 : 0;
    // Synthesis runs inside PlanQuery; on a miss it is also timed on its
    // own, by calling the synthesis functions directly.
    if (!plan_hit && plan.approximate) {
      const std::unique_ptr<cqa::QueryClass> cls =
          cqa::MakeTreewidthClass(std::max(1, planner_.width_budget));
      if (!plan.under.empty()) {
        ScopedSpan s(&t, "core.under_synth", id);
        counts_.synth_results += static_cast<long long>(
            cqa::ComputeApproximations(*q, *cls).approximations.size());
      }
      if (!plan.over.empty()) {
        ScopedSpan s(&t, "core.over_synth", id);
        counts_.synth_results += static_cast<long long>(
            cqa::ComputeOverapproximations(*q, *cls)
                .overapproximations.size());
      }
    }

    std::shared_ptr<const cqa::IndexedDatabase> idb;
    {
      const int s = t.Begin("eval.cache.acquire", id);
      const cqa::EvalCacheStats before = cache_->stats();
      bool view_hit = false;
      idb = cache_->AcquireIndexed(db, &view_hit);
      const cqa::EvalCacheStats after = cache_->stats();
      const bool catch_up =
          after.index_delta_appends > before.index_delta_appends;
      t.End(s, catch_up   ? "eval.cache.acquire_catchup"
               : view_hit ? "eval.cache.acquire_hit"
                          : "eval.cache.acquire_build");
      ++counts_.acquires;
      counts_.view_hits += view_hit && !catch_up ? 1 : 0;
      counts_.delta_appends +=
          after.index_delta_appends - before.index_delta_appends;
      counts_.rebuilds += after.index_rebuilds - before.index_rebuilds;
    }

    const int arity = static_cast<int>(q->free_variables().size());
    cqa::EvalStats stats;
    EvalResponse resp;
    resp.mode = mode;
    if (!plan.approximate) {
      resp.answers = EvalSub(plan.kind, *q, *idb, id, &stats);
      if (mode == AnswerMode::kBounds) {
        ScopedSpan s(&t, "eval.answer_set.copy", id);
        cqa::AnswerBounds bounds;
        bounds.under = resp.answers;
        bounds.over = resp.answers;
        counts_.copy_rows += 2 * static_cast<long long>(resp.answers.size());
        counts_.rows_materialized +=
            2 * static_cast<long long>(resp.answers.size());
        resp.bounds = std::move(bounds);
      }
    } else {
      resp.exact = false;
      const auto side = [&](const std::vector<cqa::ApproxSubPlan>& subs,
                            bool intersect) {
        std::vector<AnswerSet> parts;
        for (const cqa::ApproxSubPlan& sub : subs) {
          parts.push_back(EvalSub(sub.kind, sub.query, *idb, id, &stats));
        }
        counts_.rewrites += static_cast<long long>(subs.size());
        ScopedSpan s(&t, "eval.answer_set.combine", id);
        AnswerSet out(arity);
        if (!intersect) {
          for (const AnswerSet& part : parts) {
            for (const Tuple& tuple : part.tuples()) out.Insert(tuple);
          }
        } else if (!parts.empty()) {
          for (const Tuple& tuple : parts[0].tuples()) {
            bool in_all = true;
            for (size_t i = 1; i < parts.size() && in_all; ++i) {
              in_all = parts[i].Contains(tuple);
            }
            if (in_all) out.Insert(tuple);
          }
        }
        counts_.rows_materialized += static_cast<long long>(out.size());
        return out;
      };
      if (mode == AnswerMode::kUnderApproximate) {
        resp.answers = side(plan.under, false);
      } else if (mode == AnswerMode::kOverApproximate) {
        resp.answers = side(plan.over, true);
      } else {
        cqa::AnswerBounds bounds;
        bounds.under = side(plan.under, false);
        bounds.over = side(plan.over, true);
        ScopedSpan s(&t, "eval.answer_set.copy", id);
        resp.answers = bounds.under;
        counts_.copy_rows += static_cast<long long>(bounds.under.size());
        counts_.rows_materialized +=
            static_cast<long long>(bounds.under.size());
        resp.bounds = std::move(bounds);
      }
    }
    counts_.nodes += stats.nodes;
    counts_.probes += stats.index_probes;
    counts_.probe_hits += stats.index_hits;
    counts_.rows_returned += static_cast<long long>(
        resp.answers.size() + (resp.bounds ? resp.bounds->over.size() : 0));

    ScopedSpan s(&t, "eval.answer_set.cursor", id);
    return QueryService::MakeCursors(std::move(resp), db);
  }

 private:
  AnswerSet EvalSub(EngineKind kind, const ConjunctiveQuery& q,
                    const cqa::IndexedDatabase& idb, long long id,
                    cqa::EvalStats* stats) {
    ++counts_.picks[static_cast<int>(kind)];
    ScopedSpan s(tracer_, std::string("eval.") + cqa::EngineKindName(kind),
                 id);
    AnswerSet out = engines_[static_cast<int>(kind)]->Evaluate(q, idb, stats);
    counts_.rows_materialized += static_cast<long long>(out.size());
    return out;
  }

  cqa::PlannerOptions planner_;
  Tracer* tracer_;
  std::shared_ptr<EvalCache> cache_;
  std::unique_ptr<cqa::Engine> engines_[3];
  LayerCounts counts_;
};

double Share(long long part, long long whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

/// Per-layer metrics of a traced replay pass: self time and counters, each
/// per replayed request.
void AddReplayLayers(Replayer& rep, const Tracer& tracer, Outcome* out) {
  const LayerCounts& c = rep.counts();
  const double n = static_cast<double>(std::max<long long>(1, c.requests));
  out->spans = tracer.spans();
  out->self_ms = SelfTimeByName(out->spans);
  out->replayed = c.requests;
  const auto self = [&](const char* name) {
    const auto it = out->self_ms.find(name);
    return it == out->self_ms.end() ? 0.0 : it->second / n;
  };
  auto& L = out->layers;
  L["cq.parse_ms"] = self("cq.parse");
  L["eval.engine.plan_ms"] = self("eval.engine.plan");
  L["eval.cache.plan_hit_share"] = Share(c.plan_hits, c.plan_lookups);
  L["eval.engine.pick.naive"] = static_cast<double>(c.picks[0]) / n;
  L["eval.engine.pick.yannakakis"] = static_cast<double>(c.picks[1]) / n;
  L["eval.engine.pick.treewidth"] = static_cast<double>(c.picks[2]) / n;
  L["core.under_synth_ms"] = self("core.under_synth");
  L["core.over_synth_ms"] = self("core.over_synth");
  L["core.rewrites"] = static_cast<double>(c.rewrites) / n;
  L["eval.cache.acquire_hit_ms"] = self("eval.cache.acquire_hit");
  L["eval.cache.acquire_catchup_ms"] = self("eval.cache.acquire_catchup");
  L["eval.cache.acquire_build_ms"] = self("eval.cache.acquire_build");
  L["eval.cache.acquire_ms"] = L["eval.cache.acquire_hit_ms"] +
                               L["eval.cache.acquire_catchup_ms"] +
                               L["eval.cache.acquire_build_ms"];
  L["eval.cache.view_hit_share"] = Share(c.view_hits, c.acquires);
  L["eval.cache.delta_appends"] = static_cast<double>(c.delta_appends) / n;
  L["eval.cache.rebuilds"] = static_cast<double>(c.rebuilds) / n;
  L["eval.naive.ms"] = self("eval.naive");
  L["eval.yannakakis.ms"] = self("eval.yannakakis");
  L["eval.treewidth.ms"] = self("eval.treewidth");
  L["eval.engine.nodes"] = static_cast<double>(c.nodes) / n;
  L["eval.engine.index_probes"] = static_cast<double>(c.probes) / n;
  L["eval.engine.probe_hit_share"] = Share(c.probe_hits, c.probes);
  L["eval.answer_set.rows_materialized"] =
      static_cast<double>(c.rows_materialized) / n;
  L["eval.answer_set.rows_returned"] = static_cast<double>(c.rows_returned) / n;
  L["eval.answer_set.useful_share"] =
      Share(c.rows_returned, c.rows_materialized);
  L["eval.answer_set.combine_ms"] = self("eval.answer_set.combine");
  L["eval.answer_set.copy_rows"] = static_cast<double>(c.copy_rows) / n;
  L["eval.answer_set.cursor_ms"] = self("eval.answer_set.cursor");
}

/// Runs `pass(tracer, keep)` untraced, traced (keeping its layers in
/// `out`), and untraced again; returns the traced pass's wall time over the
/// mean of the untraced ones, minus one. Bracketing the traced pass keeps a
/// drift in machine speed from reading as tracing overhead.
template <typename Pass>
double TracedPass(Pass&& pass, Outcome* out) {
  const auto timed = [&](bool traced) {
    Tracer tracer(traced);
    const double t0 = NowMs();
    pass(&tracer, traced ? out : nullptr);
    return NowMs() - t0;
  };
  const double before = timed(false);
  const double traced = timed(true);
  const double after = timed(false);
  const double untraced = (before + after) / 2;
  return untraced > 0 ? traced / untraced - 1.0 : 0.0;
}

/// Round-robin merge of per-caller request sequences, capped at `cap`.
template <typename T>
std::vector<T> Interleave(const std::vector<std::vector<T>>& seqs,
                          size_t cap) {
  std::vector<T> out;
  for (size_t i = 0; out.size() < cap; ++i) {
    bool any = false;
    for (const auto& s : seqs) {
      if (i < s.size() && out.size() < cap) {
        out.push_back(s[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

struct Req {
  int query = 0;
  int db = 0;
  AnswerMode mode = AnswerMode::kExact;
  size_t limit = 0;
};

/// Times `setup` `reps` times, keeping the last result alive.
template <typename Rig, typename Build>
void RepeatSetup(int reps, std::unique_ptr<Rig>* rig, Build&& build,
                 Outcome* out) {
  for (int r = 0; r < std::max(1, reps); ++r) {
    rig->reset();
    const double t0 = NowMs();
    *rig = build();
    out->setup_s.push_back((NowMs() - t0) / 1000.0);
  }
}

// ----------------------------------------------------------- wire_paging

using Rows = std::vector<std::vector<std::string>>;

Rows NamedRows(const std::vector<Tuple>& rows) {
  Rows out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    std::vector<std::string> row;
    row.reserve(t.size());
    for (const cqa::Element e : t) row.push_back("e" + std::to_string(e));
    out.push_back(std::move(row));
  }
  return out;
}

struct WireRig {
  std::vector<std::unique_ptr<Database>> dbs;
  std::unique_ptr<cqa::CqaServer> server;
  std::vector<std::unique_ptr<cqa::CqaClient>> clients;
};

/// One EVAL plus a drain of every cursor; false on any refusal. `eval_ms`
/// receives the EVAL round trip alone.
bool WireRequest(cqa::CqaClient* client, const std::string& db,
                 const std::string& text, AnswerMode mode, size_t limit,
                 Rows* rows, Rows* over,
                 std::optional<cqa::CqaClient::EvalResult>* result,
                 double* eval_ms) {
  cqa::CqaClient::EvalParams params;
  params.db = db;
  params.query = text;
  params.mode = cqa::AnswerModeName(mode);
  params.limit = limit;
  const double t0 = NowMs();
  *result = client->Eval(params);
  *eval_ms = NowMs() - t0;
  if (!result->has_value()) return false;
  if (!client->DrainCursor((*result)->answers, limit, rows)) return false;
  if (mode == AnswerMode::kBounds &&
      !client->DrainCursor((*result)->over, limit, over)) {
    return false;
  }
  return true;
}

long long ServerErrors(cqa::CqaClient* client) {
  const std::optional<Json> stats = client->Stats();
  if (!stats.has_value()) return -1;
  const Json* server = stats->Find("server");
  return server == nullptr
             ? -1
             : static_cast<long long>(server->GetNumber("errors", -1));
}

Outcome RunWirePaging(const Json& p, uint64_t seed, double seconds,
                      bool trace) {
  Outcome out;
  const int clients = Int(p, "clients");
  std::vector<DbSpec> specs;
  for (const Json& j : Field(p, "databases").items()) {
    specs.push_back(ReadDb(j));
  }
  QueryTable queries = ReadQueries(Field(p, "queries"));
  std::vector<AnswerMode> modes;
  for (const Json& m : Field(p, "modes").items()) {
    modes.push_back(ModeNamed(Field(m, "mode").AsString()));
  }
  std::vector<size_t> limits;
  for (const Json& l : Field(p, "limits").items()) {
    limits.push_back(static_cast<size_t>(Num(l, "limit")));
  }

  std::unique_ptr<WireRig> rig;
  RepeatSetup(Int(p, "setup_reps"), &rig, [&] {
    auto r = std::make_unique<WireRig>();
    for (size_t i = 0; i < specs.size(); ++i) {
      r->dbs.push_back(MakeDb(specs[i], seed, static_cast<int>(i)));
    }
    cqa::ServerOptions options;
    options.eval.num_threads = Int(p, "workers");
    options.eval.cache = std::make_shared<EvalCache>();
    r->server = std::make_unique<cqa::CqaServer>(options);
    for (size_t i = 0; i < specs.size(); ++i) {
      r->server->AddDatabase(specs[i].name, r->dbs[i].get());
    }
    std::string error;
    if (!r->server->Start(&error)) Die("cannot start server: " + error);
    for (int c = 0; c < clients; ++c) {
      r->clients.push_back(std::make_unique<cqa::CqaClient>());
      if (!r->clients.back()->Connect("127.0.0.1", r->server->port())) {
        Die("cannot connect to the loopback server");
      }
    }
    // Warm-up: every (query, database, mode) once, so plans and views are
    // cached before the load starts.
    for (int q = 0; q < queries.size(); ++q) {
      for (size_t d = 0; d < specs.size(); ++d) {
        for (const AnswerMode mode : modes) {
          Rows rows, over;
          std::optional<cqa::CqaClient::EvalResult> res;
          double eval_ms = 0.0;
          if (!WireRequest(r->clients[0].get(), specs[d].name,
                           queries.text(q), mode, 0, &rows, &over, &res,
                           &eval_ms)) {
            Die("warm-up request failed");
          }
        }
      }
    }
    return r;
  }, &out);

  OracleTable oracle;
  std::map<std::pair<int, int>, Rows> expected;
  for (int q = 0; q < queries.size(); ++q) {
    for (size_t d = 0; d < specs.size(); ++d) {
      const Expected& e = oracle.Get(q, static_cast<int>(d), queries.query(q),
                                     *rig->dbs[d]);
      expected[{q, static_cast<int>(d)}] = NamedRows(e.rows);
    }
  }

  const long long errors_before = ServerErrors(rig->clients[0].get());
  std::vector<Log> logs(static_cast<size_t>(clients));
  std::vector<std::vector<Req>> issued(static_cast<size_t>(clients));
  std::vector<std::vector<double>> queue_wait(static_cast<size_t>(clients));
  const double start = NowMs();
  const double end = start + seconds * 1000.0;
  std::vector<double> finish(static_cast<size_t>(clients), start);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Deck deck({&Field(p, "queries"), &Field(p, "databases"),
                   &Field(p, "modes"), &Field(p, "limits")},
                  Mix(seed, 200 + static_cast<uint64_t>(c)));
        Log& log = logs[static_cast<size_t>(c)];
        cqa::CqaClient* client = rig->clients[static_cast<size_t>(c)].get();
        while (NowMs() < end) {
          const std::vector<int>& card = deck.Next();
          Req req;
          req.query = card[0];
          req.db = card[1];
          req.mode = modes[static_cast<size_t>(card[2])];
          req.limit = limits[static_cast<size_t>(card[3])];
          Rows rows, over;
          std::optional<cqa::CqaClient::EvalResult> res;
          double eval_ms = 0.0;
          const double t0 = NowMs();
          const bool ok =
              WireRequest(client, specs[static_cast<size_t>(req.db)].name,
                          queries.text(req.query), req.mode, req.limit, &rows,
                          &over, &res, &eval_ms);
          const double t1 = NowMs();
          ++log.attempted;
          log.latency_ms.push_back(t1 - t0);
          log.done_ms.push_back(t1 - start);
          issued[static_cast<size_t>(c)].push_back(req);
          const Rows& want = expected.at({req.query, req.db});
          if (!ok) {
            log.Fail("wire request refused: " + client->last_error().code);
          } else if (res->status != "ok" || rows != want ||
                     (req.mode == AnswerMode::kBounds && over != want)) {
            log.Fail("wire answers differ from the oracle for '" +
                     queries.text(req.query) + "'");
          } else if (trace) {
            queue_wait[static_cast<size_t>(c)].push_back(
                eval_ms - res->raw.GetNumber("plan_ms") -
                res->raw.GetNumber("eval_ms"));
          }
        }
        finish[static_cast<size_t>(c)] = NowMs();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  out.window_s = (*std::max_element(finish.begin(), finish.end()) - start) /
                 1000.0;
  for (const Log& l : logs) out.log.Merge(l);
  if (!trace) return out;

  out.layers["eval.service.queue_wait_ms"] = Median(Concat(queue_wait));
  out.layers["eval.service.shed"] = static_cast<double>(
      rig->server->service().StreamingStats().shed_degraded +
      rig->server->service().StreamingStats().shed_rejected);
  out.layers["net.errors"] =
      static_cast<double>(ServerErrors(rig->clients[0].get()) - errors_before);
  out.layers["eval.cache.index_bytes"] = static_cast<double>(
      rig->server->service().serving_cache()->stats().index_bytes);

  const std::vector<Req> stream =
      Interleave(issued, static_cast<size_t>(Int(p, "max_replay")));
  cqa::CqaClient* client = rig->clients[0].get();
  const double overhead = TracedPass([&](Tracer* tracer, Outcome* keep) {
    Tracer quiet(false);
    Replayer rep(cqa::PlannerOptions{}, &quiet);
    for (int q = 0; q < queries.size(); ++q) {
      for (size_t d = 0; d < specs.size(); ++d) {
        for (const AnswerMode mode : modes) {
          rep.Run(-1, queries.text(q), *rig->dbs[d], mode);
        }
      }
    }
    rep.counts() = LayerCounts{};
    rep.set_tracer(tracer);
    long long pages = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      const Req& req = stream[i];
      const long long id = static_cast<long long>(i);
      const Expected& want = oracle.Get(req.query, req.db,
                                        queries.query(req.query),
                                        *rig->dbs[static_cast<size_t>(req.db)]);
      ScopedSpan root(tracer, "request", id);
      {
        ScopedSpan s(tracer, "inproc", id);
        const CursorResponse cur =
            rep.Run(id, queries.text(req.query),
                    *rig->dbs[static_cast<size_t>(req.db)], req.mode);
        if (cur.answers->rows() != want.rows ||
            (cur.over != nullptr && cur.over->rows() != want.rows)) {
          out.log.Fail("replayed answers differ from the untraced run");
        }
      }
      ScopedSpan s(tracer, "wire", id);
      cqa::CqaClient::EvalParams params;
      params.db = specs[static_cast<size_t>(req.db)].name;
      params.query = queries.text(req.query);
      params.mode = cqa::AnswerModeName(req.mode);
      params.limit = req.limit;
      std::optional<cqa::CqaClient::EvalResult> res;
      {
        ScopedSpan e(tracer, "net.eval", id);
        res = client->Eval(params);
      }
      if (!res.has_value()) {
        out.log.Fail("replayed wire request refused");
        continue;
      }
      ++pages;
      Rows rows = res->answers.rows, over = res->over.rows;
      for (auto [page, sink] : {std::make_pair(res->answers, &rows),
                                std::make_pair(res->over, &over)}) {
        while (page.more) {
          std::optional<cqa::CqaClient::Page> next;
          {
            ScopedSpan f(tracer, "net.fetch", id);
            next = client->Fetch(page.cursor, req.limit);
          }
          if (!next.has_value()) break;
          ++pages;
          sink->insert(sink->end(), next->rows.begin(), next->rows.end());
          page = std::move(*next);
        }
      }
      const Rows& want_rows = expected.at({req.query, req.db});
      if (rows != want_rows ||
          (req.mode == AnswerMode::kBounds && over != want_rows)) {
        out.log.Fail("replayed wire answers differ from the untraced run");
      }
    }
    if (keep == nullptr) return;
    AddReplayLayers(rep, *tracer, keep);
    std::map<long long, double> inproc, wire;
    std::vector<double> eval_rtt, fetch_rtt;
    for (const Span& s : tracer->spans()) {
      const double d = s.end_ms - s.start_ms;
      if (s.name == "inproc") inproc[s.request] = d;
      if (s.name == "wire") wire[s.request] = d;
      if (s.name == "net.eval") eval_rtt.push_back(d);
      if (s.name == "net.fetch") fetch_rtt.push_back(d);
    }
    std::vector<double> over_ms;
    for (const auto& [id, d] : wire) over_ms.push_back(d - inproc[id]);
    keep->layers["net.eval_rtt_ms"] = Median(eval_rtt);
    keep->layers["net.fetch_rtt_ms"] = Median(fetch_rtt);
    keep->layers["net.pages_per_req"] =
        static_cast<double>(pages) /
        static_cast<double>(std::max<size_t>(1, stream.size()));
    keep->layers["net.overhead_ms"] = Median(over_ms);
  }, &out);
  out.layers["bench.trace_overhead_share"] = overhead;
  return out;
}

// ---------------------------------------------------------- cyclic_exact

struct ServiceRig {
  std::vector<std::unique_ptr<Database>> dbs;
  std::unique_ptr<QueryService> service;
};

Outcome RunCyclicExact(const Json& p, uint64_t seed, double seconds,
                       bool trace) {
  Outcome out;
  const int callers = Int(p, "callers");
  const DbSpec spec = ReadDb(Field(p, "database"));
  QueryTable queries = ReadQueries(Field(p, "queries"));

  std::unique_ptr<ServiceRig> rig;
  RepeatSetup(Int(p, "setup_reps"), &rig, [&] {
    auto r = std::make_unique<ServiceRig>();
    r->dbs.push_back(MakeDb(spec, seed, 0));
    cqa::EvalOptions options;
    options.num_threads = Int(p, "workers");
    options.cache = std::make_shared<EvalCache>();
    r->service = std::make_unique<QueryService>(options);
    for (int q = 0; q < queries.size(); ++q) {
      r->service->Submit(Request(queries.query(q), r->dbs[0].get(),
                                     AnswerMode::kExact))
          .get();
    }
    return r;
  }, &out);
  const Database& db = *rig->dbs[0];

  OracleTable oracle;
  for (int q = 0; q < queries.size(); ++q) {
    oracle.Get(q, 0, queries.query(q), db);
  }

  std::vector<Log> logs(static_cast<size_t>(callers));
  std::vector<std::vector<Req>> issued(static_cast<size_t>(callers));
  std::vector<std::vector<double>> queue_wait(static_cast<size_t>(callers));
  const double start = NowMs();
  const double end = start + seconds * 1000.0;
  std::vector<double> finish(static_cast<size_t>(callers), start);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        Deck deck({&Field(p, "queries")},
                  Mix(seed, 300 + static_cast<uint64_t>(c)));
        Log& log = logs[static_cast<size_t>(c)];
        while (NowMs() < end) {
          Req req;
          req.query = deck.Next()[0];
          const Expected& want =
              oracle.Get(req.query, 0, queries.query(req.query), db);
          const double t0 = NowMs();
          std::optional<EvalResponse> resp;
          try {
            resp = rig->service
                       ->Submit(Request(queries.query(req.query), &db,
                                            AnswerMode::kExact))
                       .get();
          } catch (const std::exception& e) {
            log.Fail(std::string("submit failed: ") + e.what());
          }
          const double t1 = NowMs();
          ++log.attempted;
          log.latency_ms.push_back(t1 - t0);
          log.done_ms.push_back(t1 - start);
          issued[static_cast<size_t>(c)].push_back(req);
          if (!resp.has_value()) continue;
          if (resp->status != cqa::ResponseStatus::kOk ||
              !(resp->answers == want.set)) {
            log.Fail("answers differ from the oracle for '" +
                     queries.text(req.query) + "'");
          }
          queue_wait[static_cast<size_t>(c)].push_back(
              (t1 - t0) - resp->plan_ms - resp->eval_ms);
        }
        finish[static_cast<size_t>(c)] = NowMs();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  out.window_s = (*std::max_element(finish.begin(), finish.end()) - start) /
                 1000.0;
  for (const Log& l : logs) out.log.Merge(l);
  if (!trace) return out;

  out.layers["eval.service.queue_wait_ms"] = Median(Concat(queue_wait));
  const cqa::BatchStats streaming = rig->service->StreamingStats();
  out.layers["eval.service.shed"] =
      static_cast<double>(streaming.shed_degraded + streaming.shed_rejected);
  out.layers["eval.cache.index_bytes"] = static_cast<double>(
      rig->service->serving_cache()->stats().index_bytes);

  const std::vector<Req> stream =
      Interleave(issued, static_cast<size_t>(Int(p, "max_replay")));
  out.layers["bench.trace_overhead_share"] =
      TracedPass([&](Tracer* tracer, Outcome* keep) {
        Tracer quiet(false);
        Replayer rep(cqa::PlannerOptions{}, &quiet);
        for (int q = 0; q < queries.size(); ++q) {
          rep.Run(-1, queries.text(q), db, AnswerMode::kExact);
        }
        rep.counts() = LayerCounts{};
        rep.set_tracer(tracer);
        for (size_t i = 0; i < stream.size(); ++i) {
          const long long id = static_cast<long long>(i);
          ScopedSpan root(tracer, "request", id);
          const CursorResponse cur = rep.Run(
              id, queries.text(stream[i].query), db, AnswerMode::kExact);
          if (cur.answers->rows() !=
              oracle.Get(stream[i].query, 0, queries.query(stream[i].query), db)
                  .rows) {
            out.log.Fail("replayed answers differ from the untraced run");
          }
        }
        if (keep != nullptr) AddReplayLayers(rep, *tracer, keep);
      }, &out);
  return out;
}

// --------------------------------------------------------- approx_bounds

Outcome RunApproxBounds(const Json& p, uint64_t seed, double seconds,
                        bool trace) {
  Outcome out;
  const int batch = Int(p, "batch");
  const DbSpec main_spec = ReadDb(Field(p, "database"));
  const DbSpec fresh_spec = ReadDb(Field(p, "fresh_database"));
  QueryTable queries = ReadQueries(Field(p, "queries"));
  const int fixed_queries = queries.size();
  std::vector<AnswerMode> modes;
  for (const Json& m : Field(p, "modes").items()) {
    modes.push_back(ModeNamed(Field(m, "mode").AsString()));
  }
  const double fresh_share = Num(p, "fresh_share");
  const Json& cycle = Field(p, "fresh_cycle_len");
  const Json& extra = Field(p, "fresh_extra_atoms");
  cqa::PlannerOptions planner;
  planner.width_budget = Int(p, "width_budget");

  std::unique_ptr<ServiceRig> rig;
  RepeatSetup(Int(p, "setup_reps"), &rig, [&] {
    auto r = std::make_unique<ServiceRig>();
    r->dbs.push_back(MakeDb(main_spec, seed, 0));
    r->dbs.push_back(MakeDb(fresh_spec, seed, 1));
    cqa::EvalOptions options;
    options.num_threads = Int(p, "workers");
    options.planner = planner;
    options.cache = std::make_shared<EvalCache>();
    r->service = std::make_unique<QueryService>(options);
    std::vector<EvalRequest> warm;
    for (int q = 0; q < fixed_queries; ++q) {
      for (const AnswerMode mode : modes) {
        warm.push_back(Request(queries.query(q), r->dbs[0].get(), mode));
      }
    }
    r->service->EvaluateBatch(warm);
    return r;
  }, &out);

  OracleTable oracle;
  for (int q = 0; q < fixed_queries; ++q) {
    oracle.Get(q, 0, queries.query(q), *rig->dbs[0]);
  }

  // The first answers seen per (query, db, mode): later responses and the
  // replay must be identical to them.
  struct Seen {
    AnswerSet answers = AnswerSet(0);
    std::optional<AnswerSet> over;
  };
  std::map<std::tuple<int, int, AnswerMode>, Seen> seen;
  long long certain = 0, certain_base = 0, possible = 0, possible_base = 0;
  std::vector<Req> issued;
  std::vector<double> batch_overhead;
  Deck deck({&Field(p, "queries"), &Field(p, "modes")}, Mix(seed, 400));
  // One fresh shape in every round(1 / fresh_share) requests.
  Json fresh_cards = Json::Array();
  for (const double weight :
       {1.0, std::max(0.0, std::round(1.0 / fresh_share) - 1)}) {
    Json card = Json::Object();
    card.Set("weight", Json::Number(weight));
    fresh_cards.Append(std::move(card));
  }
  Deck fresh_deck({&fresh_cards}, Mix(seed, 402));
  Rng fresh_rng(Mix(seed, 401));
  double busy_ms = 0.0;
  const double end = NowMs() + seconds * 1000.0;
  while (NowMs() < end) {
    std::vector<Req> reqs;
    std::vector<EvalRequest> requests;
    for (int i = 0; i < batch; ++i) {
      Req req;
      const std::vector<int>& card = deck.Next();
      if (fresh_deck.Next()[0] == 0) {
        const auto draw = [&](const Json& range) {
          return fresh_rng.UniformInRange(
              static_cast<int>(range.items()[0].AsNumber()),
              static_cast<int>(range.items()[1].AsNumber()));
        };
        const int cycle_len = draw(cycle);
        ConjunctiveQuery shape =
            cqa::RandomCyclicGraphCQ(cycle_len, draw(extra), &fresh_rng);
        shape.SetFreeVariables({0, 1});
        req.query = queries.Add(cqa::PrintQuery(shape));
        req.db = 1;
      } else {
        req.query = card[0];
        req.db = 0;
      }
      req.mode = modes[static_cast<size_t>(card[1])];
      // Oracles for fresh shapes are computed here, outside the timing.
      oracle.Get(req.query, req.db, queries.query(req.query),
                 *rig->dbs[static_cast<size_t>(req.db)]);
      reqs.push_back(req);
      requests.push_back(
          Request(queries.query(req.query),
                      rig->dbs[static_cast<size_t>(req.db)].get(), req.mode));
    }
    cqa::BatchStats stats;
    const double t0 = NowMs();
    const std::vector<EvalResponse> responses =
        rig->service->EvaluateBatch(requests, &stats);
    const double latency = NowMs() - t0;
    busy_ms += latency;
    double work_ms = 0.0;
    for (const EvalResponse& r : responses) work_ms += r.plan_ms + r.eval_ms;
    batch_overhead.push_back(stats.wall_ms -
                             work_ms / std::max(1, stats.threads_used));
    for (size_t i = 0; i < responses.size(); ++i) {
      const Req& req = reqs[i];
      const EvalResponse& r = responses[i];
      const Expected& want = oracle.Get(req.query, req.db,
                                        queries.query(req.query),
                                        *rig->dbs[static_cast<size_t>(req.db)]);
      ++out.log.attempted;
      out.log.latency_ms.push_back(latency);
      out.log.done_ms.push_back(busy_ms);
      issued.push_back(req);
      const AnswerSet* under = nullptr;
      const AnswerSet* over = nullptr;
      if (req.mode == AnswerMode::kUnderApproximate) under = &r.answers;
      if (req.mode == AnswerMode::kOverApproximate) over = &r.answers;
      if (req.mode == AnswerMode::kBounds && r.bounds.has_value()) {
        under = &r.bounds->under;
        over = &r.bounds->over;
      }
      bool ok = r.status == cqa::ResponseStatus::kOk &&
                (under != nullptr || over != nullptr) &&
                (req.mode != AnswerMode::kBounds || r.bounds.has_value());
      if (ok && under != nullptr) {
        ok = under->IsSubsetOf(want.set);
        certain += static_cast<long long>(under->size());
        certain_base += static_cast<long long>(want.set.size());
      }
      if (ok && over != nullptr) {
        ok = want.set.IsSubsetOf(*over);
        possible += static_cast<long long>(over->size());
        possible_base += static_cast<long long>(want.set.size());
      }
      if (!ok) {
        out.log.Fail(std::string("sandwich violated (") +
                     cqa::AnswerModeName(req.mode) + ") for '" +
                     queries.text(req.query) + "'");
        continue;
      }
      const auto key = std::make_tuple(req.query, req.db, req.mode);
      auto it = seen.find(key);
      if (it == seen.end()) {
        Seen s;
        s.answers = r.answers;
        if (r.bounds.has_value()) s.over = r.bounds->over;
        seen.emplace(key, std::move(s));
      } else if (!(it->second.answers == r.answers) ||
                 (r.bounds.has_value() &&
                  !(*it->second.over == r.bounds->over))) {
        out.log.Fail("answers of a repeated request changed");
      }
    }
  }
  out.window_s = busy_ms / 1000.0;
  out.extra.push_back({"certain_share", Share(certain, certain_base), "share",
                       static_cast<long long>(issued.size())});
  out.extra.push_back({"possible_excess", Share(possible, possible_base),
                       "share", static_cast<long long>(issued.size())});
  if (!trace) return out;

  out.layers["eval.service.batch_overhead_ms"] = Median(batch_overhead);
  out.layers["eval.cache.index_bytes"] =
      static_cast<double>(rig->service->options().cache->stats().index_bytes);
  std::vector<Req> stream(issued.begin(),
                          issued.begin() + static_cast<long>(std::min<size_t>(
                                               issued.size(),
                                               static_cast<size_t>(
                                                   Int(p, "max_replay")))));
  out.layers["bench.trace_overhead_share"] =
      TracedPass([&](Tracer* tracer, Outcome* keep) {
        Tracer quiet(false);
        Replayer rep(planner, &quiet);
        for (int q = 0; q < fixed_queries; ++q) {
          for (const AnswerMode mode : modes) {
            rep.Run(-1, queries.text(q), *rig->dbs[0], mode);
          }
        }
        rep.counts() = LayerCounts{};
        rep.set_tracer(tracer);
        for (size_t i = 0; i < stream.size(); ++i) {
          const Req& req = stream[i];
          const long long id = static_cast<long long>(i);
          ScopedSpan root(tracer, "request", id);
          const CursorResponse cur =
              rep.Run(id, queries.text(req.query),
                      *rig->dbs[static_cast<size_t>(req.db)], req.mode);
          const Seen& s = seen.at(std::make_tuple(req.query, req.db, req.mode));
          const bool over_differs =
              s.over.has_value() &&
              (cur.over == nullptr || cur.over->rows() != SortedRows(*s.over));
          if (cur.answers->rows() != SortedRows(s.answers) || over_differs) {
            out.log.Fail("replayed answers differ from the untraced run");
          }
        }
        if (keep != nullptr) AddReplayLayers(rep, *tracer, keep);
      }, &out);
  return out;
}

// ---------------------------------------------------------- publish_read

/// Shared/exclusive lock that lets a waiting writer in ahead of new
/// readers, so a closed-loop reader cannot starve the open-loop writer.
class WriterFirstLock {
 public:
  void lock_shared() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void unlock_shared() {
    std::lock_guard<std::mutex> l(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void lock() {
    std::unique_lock<std::mutex> l(mu_);
    ++writers_waiting_;
    cv_.wait(l, [&] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
  void unlock() {
    std::lock_guard<std::mutex> l(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  bool writer_ = false;
};

struct PublishRig {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryService> service;
  std::vector<std::unique_ptr<cqa::Subscription>> subs;
};

/// The database and standing answers at one moment, for checking later.
struct Snapshot {
  Database db;
  std::vector<AnswerSet> answers;
  std::vector<AnswerSet> possible;
};

Outcome RunPublishRead(const Json& p, uint64_t seed, double seconds,
                       bool trace) {
  Outcome out;
  const DbSpec spec = ReadDb(Field(p, "database"));
  QueryTable reads = ReadQueries(Field(p, "read_queries"));
  QueryTable standing;
  std::vector<AnswerMode> standing_modes;
  for (const Json& s : Field(p, "standing").items()) {
    standing.Add(Field(s, "text").AsString());
    standing_modes.push_back(ModeNamed(Field(s, "mode").AsString()));
  }
  const double rate = Num(p, "rate_per_s");
  const int sample_every = Int(p, "read_sample_every");
  const int max_samples = Int(p, "max_read_samples");
  const int checkpoints = Int(p, "checkpoints");
  cqa::EvalOptions options;
  options.num_threads = 1;
  options.planner.width_budget = Int(p, "width_budget");

  // The facts the writer will publish: new edges, in a seeded order.
  const std::unique_ptr<Database> base = MakeDb(spec, seed, 0);
  std::vector<Tuple> facts;
  {
    Rng rng(Mix(seed, 500));
    Database probe = *base;
    const long long wanted =
        static_cast<long long>(rate * seconds) + 2;
    while (static_cast<long long>(facts.size()) < wanted) {
      const int u = static_cast<int>(rng.UniformInt(spec.nodes));
      const int v = static_cast<int>(rng.UniformInt(spec.nodes));
      if (u == v || !probe.AddFact(0, {u, v})) continue;
      facts.push_back({u, v});
    }
  }

  std::unique_ptr<PublishRig> rig;
  RepeatSetup(Int(p, "setup_reps"), &rig, [&] {
    auto r = std::make_unique<PublishRig>();
    r->db = MakeDb(spec, seed, 0);
    cqa::EvalOptions o = options;
    o.cache = std::make_shared<EvalCache>();
    r->service = std::make_unique<QueryService>(o);
    for (int s = 0; s < standing.size(); ++s) {
      r->subs.push_back(r->service->Subscribe(
          Request(standing.query(s), r->db.get(),
                      standing_modes[static_cast<size_t>(s)])));
      r->subs.back()->Poll();
    }
    for (int q = 0; q < reads.size(); ++q) {
      r->service->Evaluate(
          Request(reads.query(q), r->db.get(), AnswerMode::kExact));
    }
    return r;
  }, &out);
  Database& db = *rig->db;
  QueryService& service = *rig->service;

  WriterFirstLock rw;
  std::atomic<long long> published{0};
  std::mutex wake_mu;
  std::condition_variable wake;
  std::atomic<bool> writer_done{false};

  const double start = NowMs();
  const double end = start + seconds * 1000.0;
  OpenLoopSchedule schedule(start, rate);
  std::vector<double> lock_wait_ms;
  std::vector<double> visible_ms(facts.size(), -1.0);
  std::vector<double> tick_ms, facts_per_tick;
  long long reinit = 0;
  std::vector<Snapshot> snaps;
  Log sub_log, read_log;
  struct ReadSample {
    size_t index;
    int query;
    long long facts;
    AnswerSet answers;
  };
  std::vector<ReadSample> samples;
  std::vector<std::pair<int, long long>> read_trail;  // (query, facts seen)
  double read_finish = start;

  std::thread writer([&] {
    for (long long i = 0; i < static_cast<long long>(facts.size()); ++i) {
      const double due = schedule.DueMs(i);
      if (due >= end) break;
      const double wait = due - NowMs();
      if (wait > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait));
      }
      schedule.RecordStart(i, NowMs());
      const double t0 = NowMs();
      {
        std::unique_lock<WriterFirstLock> lock(rw);
        lock_wait_ms.push_back(NowMs() - t0);
        service.Publish(&db, 0, facts[static_cast<size_t>(i)]);
        published.store(i + 1);
      }
      { std::lock_guard<std::mutex> g(wake_mu); }
      wake.notify_one();
    }
    writer_done.store(true);
    { std::lock_guard<std::mutex> g(wake_mu); }
    wake.notify_one();
  });

  std::thread subscriber([&] {
    long long applied = 0;
    int next_checkpoint = 1;
    for (;;) {
      {
        std::unique_lock<std::mutex> l(wake_mu);
        wake.wait_for(l, std::chrono::milliseconds(5), [&] {
          return published.load() > applied || writer_done.load();
        });
      }
      const bool done = writer_done.load();
      long long k = 0;
      double t_end = 0.0;
      {
        std::shared_lock<WriterFirstLock> lock(rw);
        k = published.load();
        if (k == applied && !done) continue;
        for (auto& sub : rig->subs) {
          const double t0 = NowMs();
          const cqa::SubscriptionDelta d = sub->Poll();
          tick_ms.push_back(NowMs() - t0);
          facts_per_tick.push_back(static_cast<double>(d.facts_applied));
          reinit += d.reinitialized ? 1 : 0;
          if (d.status != cqa::ResponseStatus::kOk) {
            sub_log.Fail("a subscription tick stopped early");
          }
        }
        t_end = NowMs();
        const bool checkpoint =
            next_checkpoint < checkpoints &&
            t_end >= start + (end - start) * next_checkpoint / checkpoints;
        if (checkpoint || (done && k == published.load())) {
          ++next_checkpoint;
          Snapshot s{db, {}, {}};
          for (auto& sub : rig->subs) {
            s.answers.push_back(sub->answers());
            s.possible.push_back(sub->possible());
          }
          snaps.push_back(std::move(s));
        }
      }
      for (long long i = applied; i < k; ++i) {
        visible_ms[static_cast<size_t>(i)] = t_end - schedule.DueMs(i);
      }
      applied = k;
      if (done && applied == published.load()) break;
    }
  });

  std::thread reader([&] {
    Deck deck({&Field(p, "read_queries")}, Mix(seed, 600));
    long long n = 0;
    while (NowMs() < end) {
      const int q = deck.Next()[0];
      const double t0 = NowMs();
      long long k = 0;
      EvalResponse resp;
      {
        std::shared_lock<WriterFirstLock> lock(rw);
        k = published.load();
        resp = service.Evaluate(
            Request(reads.query(q), &db, AnswerMode::kExact));
      }
      const double t1 = NowMs();
      read_log.latency_ms.push_back(t1 - t0);
      read_log.done_ms.push_back(t1 - start);
      ++read_log.attempted;
      read_trail.push_back({q, k});
      if (resp.status != cqa::ResponseStatus::kOk) {
        read_log.Fail("a read stopped early");
      } else if (n % sample_every == 0 &&
                 static_cast<int>(samples.size()) < max_samples) {
        samples.push_back(
            {read_trail.size() - 1, q, k, std::move(resp.answers)});
      }
      ++n;
    }
    read_finish = NowMs();
  });
  writer.join();
  reader.join();
  subscriber.join();
  out.window_s = (read_finish - start) / 1000.0;

  // Checks, all after the timed phase.
  out.log.Merge(read_log);
  out.log.Merge(sub_log);
  std::vector<double> visible;
  const long long total_published = published.load();
  out.log.attempted += total_published;
  for (long long i = 0; i < total_published; ++i) {
    if (visible_ms[static_cast<size_t>(i)] < 0) {
      out.log.Fail("a published fact never became visible");
    } else {
      visible.push_back(visible_ms[static_cast<size_t>(i)]);
    }
  }
  const auto db_after = [&](long long k) {
    Database d = *base;
    for (long long i = 0; i < k; ++i) {
      d.AddFact(0, facts[static_cast<size_t>(i)]);
    }
    return d;
  };
  const double checks_start = NowMs();
  for (const ReadSample& s : samples) {
    ++out.log.attempted;
    const Database d = db_after(s.facts);
    if (!(cqa::EvaluateNaive(reads.query(s.query), d) == s.answers)) {
      out.log.Fail("a read differs from the oracle for '" +
                   reads.text(s.query) + "'");
    }
  }
  QueryService fresh(options);
  for (const Snapshot& snap : snaps) {
    for (int s = 0; s < standing.size(); ++s) {
      ++out.log.attempted;
      const AnswerSet truth = cqa::EvaluateNaive(standing.query(s), snap.db);
      const EvalResponse full = fresh.Evaluate(Request(
          standing.query(s), &snap.db, standing_modes[static_cast<size_t>(s)]));
      const AnswerSet& under =
          full.bounds.has_value() ? full.bounds->under : full.answers;
      const AnswerSet& over =
          full.bounds.has_value() ? full.bounds->over : full.answers;
      if (!(snap.answers[static_cast<size_t>(s)] == under) ||
          !(snap.possible[static_cast<size_t>(s)] == over) ||
          !under.IsSubsetOf(truth) || !truth.IsSubsetOf(over)) {
        out.log.Fail("a standing query differs from a full re-evaluation "
                     "of '" + standing.text(s) + "'");
      }
    }
  }
  if (snaps.empty()) out.log.Fail("no checkpoint was taken");
  g_oracle_ms += NowMs() - checks_start;

  out.extra.push_back({"visible_p50_ms", Percentile(visible, 0.5), "ms",
                       static_cast<long long>(visible.size())});
  out.extra.push_back({"visible_p90_ms", Percentile(visible, 0.9), "ms",
                       static_cast<long long>(visible.size())});
  if (!trace) return out;

  out.layers["eval.delta.tick_ms"] = Median(tick_ms);
  double applied_sum = 0.0;
  for (double f : facts_per_tick) applied_sum += f;
  out.layers["eval.delta.facts_per_tick"] =
      facts_per_tick.empty()
          ? 0.0
          : applied_sum / static_cast<double>(facts_per_tick.size());
  out.layers["eval.delta.publish_ms"] = Median(lock_wait_ms);
  out.layers["eval.delta.reinit"] = static_cast<double>(reinit);
  out.layers["bench.gen_lag_ms"] = Percentile(schedule.lateness_ms(), 0.9);
  out.layers["eval.cache.index_bytes"] =
      static_cast<double>(service.options().cache->stats().index_bytes);

  // Replay: the reader's requests in order, with the writer's facts applied
  // up to the count each read saw.
  const size_t replay_n = std::min<size_t>(
      read_trail.size(), static_cast<size_t>(Int(p, "max_replay")));
  std::map<size_t, const ReadSample*> sampled;
  for (const ReadSample& s : samples) sampled[s.index] = &s;
  out.layers["bench.trace_overhead_share"] =
      TracedPass([&](Tracer* tracer, Outcome* keep) {
        Database d = *base;
        Tracer quiet(false);
        Replayer rep(options.planner, &quiet);
        for (int q = 0; q < reads.size(); ++q) {
          rep.Run(-1, reads.text(q), d, AnswerMode::kExact);
        }
        rep.counts() = LayerCounts{};
        rep.set_tracer(tracer);
        long long applied = 0;
        for (size_t i = 0; i < replay_n; ++i) {
          const auto [q, k] = read_trail[i];
          for (; applied < k; ++applied) {
            d.AddFact(0, facts[static_cast<size_t>(applied)]);
          }
          const long long id = static_cast<long long>(i);
          ScopedSpan root(tracer, "request", id);
          const CursorResponse cur =
              rep.Run(id, reads.text(q), d, AnswerMode::kExact);
          const auto it = sampled.find(i);
          if (it != sampled.end() &&
              cur.answers->rows() != SortedRows(it->second->answers)) {
            out.log.Fail("replayed answers differ from the untraced run");
          }
        }
        if (keep != nullptr) AddReplayLayers(rep, *tracer, keep);
      }, &out);
  return out;
}

// ---------------------------------------------------------------- output

std::string Num17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintSelfTimeTable(const Outcome& out, FILE* to) {
  double total = 0.0;
  for (const auto& [name, ms] : out.self_ms) total += ms;
  std::fprintf(to, "self time per layer (traced replay, %lld requests)\n",
               out.replayed);
  std::fprintf(to, "  %-30s %12s %12s %8s\n", "span", "total_ms",
               "per_req_ms", "share");
  for (const auto& [name, ms] : out.self_ms) {
    std::fprintf(
        to, "  %-30s %12.3f %12.4f %7.1f%%\n", name.c_str(), ms,
        ms / static_cast<double>(std::max<long long>(1, out.replayed)),
        total > 0 ? 100.0 * ms / total : 0.0);
  }
}

/// Writes the spans (one JSON object per line) and the self-time table.
void WriteTrace(const Outcome& out, const std::string& dir,
                const std::string& stem) {
  if (dir.empty() || out.spans.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string base = dir + "/" + stem;
  std::ofstream spans(base + ".spans.jsonl");
  for (const Span& s : out.spans) {
    Json j = Json::Object();
    j.Set("name", Json::Str(s.name));
    j.Set("start_ms", Json::Number(s.start_ms));
    j.Set("end_ms", Json::Number(s.end_ms));
    j.Set("parent", Json::Number(s.parent));
    j.Set("request", Json::Number(static_cast<double>(s.request)));
    spans << j.Dump() << "\n";
  }
  FILE* table = std::fopen((base + ".selftime.txt").c_str(), "w");
  if (table != nullptr) {
    PrintSelfTimeTable(out, table);
    std::fclose(table);
  }
  if (!spans || table == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write the trace under %s\n",
                 dir.c_str());
  }
}

int Main(int argc, char** argv) {
  std::string workload, config_path = "perfbench/workloads.json",
                        scale = "full", trace_dir = ".bench_build/traces";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Die("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--config") {
      config_path = value;
    } else if (arg == "--scale") {
      scale = value;
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else {
      Die("unknown flag " + arg);
    }
  }
  std::ifstream in(config_path);
  if (!in) Die("cannot read " + config_path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const std::optional<Json> config = Json::Parse(text.str(), &error);
  if (!config.has_value()) Die("bad config: " + error);
  const Json* spec = Field(*config, "workloads").Find(workload);
  if (spec == nullptr) Die("unknown workload '" + workload + "'");
  const Json& p = Field(*spec, scale.c_str());
  // Before any thread starts, so that every thread inherits the mask.
  if (p.Find("cpus") != nullptr) PinToLastCpus(Int(p, "cpus"));

  Outcome out;
  if (workload == "wire_paging") {
    out = RunWirePaging(p, seed, seconds, trace);
  } else if (workload == "cyclic_exact") {
    out = RunCyclicExact(p, seed, seconds, trace);
  } else if (workload == "approx_bounds") {
    out = RunApproxBounds(p, seed, seconds, trace);
  } else if (workload == "publish_read") {
    out = RunPublishRead(p, seed, seconds, trace);
  } else {
    Die("workload '" + workload + "' is not implemented");
  }

  const std::vector<double>& lat = out.log.latency_ms;
  const double tail = TailPercentile(lat.size());
  std::map<std::string, Metric> e2e;
  const long long n = static_cast<long long>(lat.size());
  e2e["setup_s"] = {"setup_s", Median(out.setup_s), "s",
                    static_cast<long long>(out.setup_s.size())};
  e2e["req_p50_ms"] = {"req_p50_ms", Percentile(lat, 0.5), "ms", n};
  e2e["req_p90_ms"] = {"req_p90_ms", Percentile(lat, 0.9), "ms", n};
  e2e["req_per_s"] = {"req_per_s",
                      SegmentedRate(out.log.done_ms, out.window_s * 1000.0,
                                    kRateSegments),
                      "1/s", n};
  e2e["fail_share"] = {"fail_share",
                       Share(out.log.failed, std::max<long long>(
                                                 1, out.log.attempted)),
                       "share", out.log.attempted};
  e2e["peak_rss_mb"] = {"peak_rss_mb", PeakRssMb(), "MB", 1};
  for (const Metric& m : out.extra) e2e[m.name] = m;

  const bool correct = out.log.failed == 0;
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d scale=%s\n",
              workload.c_str(), seed, seconds, trace ? 1 : 0, scale.c_str());
  for (const std::string& e : out.log.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  if (!trace) {
    for (const auto& [name, m] : e2e) {
      std::printf("  %-18s %14.6g %-6s (n=%lld)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::printf("  (oracles and checks outside the timed phases: %.3f s)\n",
                g_oracle_ms / 1000.0);
    if (tail < 0.9) {
      std::printf("  note: only %lld samples, so p90 has fewer than ten "
                  "beyond it\n", n);
    }
  } else {
    out.layers["bench.req_p99_ms"] = Percentile(lat, 0.99);
    std::printf("  req_p99_ms %.6g ms (n=%lld, highest percentile with ten "
                "samples beyond it: p%g)\n",
                Percentile(lat, 0.99), n, tail * 100);
    std::printf("\n");
    PrintSelfTimeTable(out, stdout);
    const std::string stem = workload + "-seed" + std::to_string(seed);
    WriteTrace(out, trace_dir, stem);
    std::printf("\nper-layer metrics\n");
  }

  Json metrics = Json::Object();
  const Json& list = Field(*config, trace ? "per_layer" : "end_to_end");
  for (const Json& m : list.items()) {
    if (!m.GetBool("gated", true)) continue;
    const std::string name = Field(m, "name").AsString();
    const std::string unit = Field(m, "unit").AsString();
    double value = 0.0;
    if (trace) {
      const auto it = out.layers.find(name);
      value = it == out.layers.end() ? 0.0 : it->second;
      std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
    } else {
      const auto it = e2e.find(name);
      if (it == e2e.end()) Die("no value for end-to-end metric " + name);
      value = it->second.value;
    }
    Json entry = Json::Object();
    entry.Set("value", Json::Number(value));
    entry.Set("unit", Json::Str(unit));
    metrics.Set(name, std::move(entry));
  }

  // The result line: numbers printed with all their digits.
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " +
          std::to_string(std::max<long long>(1, out.log.attempted));
  line += ", \"failed\": " + std::to_string(out.log.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics.fields()) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + Num17(entry.GetNumber("value")) +
            ", \"unit\": \"" + entry.GetString("unit") + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
