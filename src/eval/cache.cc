#include "eval/cache.h"

#include <utility>

#include "base/check.h"

namespace cqa {

EvalCache::EvalCache(EvalCacheOptions options) : options_(options) {}

std::shared_ptr<const IndexedDatabase> EvalCache::AcquireIndexed(
    const Database& db, bool* hit) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_map_.find(db.uid());
  const bool cached = it != index_map_.end();
  if (!cached) {
    ++stats_.index_misses;
    index_lru_.push_front(IndexEntry{
        db.uid(), db.version(),
        std::make_shared<IndexedDatabase>(db, options_.index)});
    index_map_[db.uid()] = index_lru_.begin();
  } else {
    IndexEntry& entry = *it->second;
    if (entry.version != db.version()) {
      // The same database gained facts: append the delta (~O(delta))
      // instead of rebuilding (~O(db)). Safe because the mutation contract
      // (file comment) says no evaluation is in flight on the view once its
      // source mutated.
      entry.view->CatchUp();
      entry.version = db.version();
      ++stats_.index_delta_appends;
    }
    ++stats_.index_hits;
    index_lru_.splice(index_lru_.begin(), index_lru_, it->second);
  }
  if (hit != nullptr) *hit = cached;
  EnforceIndexBudgetLocked();
  return index_lru_.front().view;
}

void EvalCache::EnforceIndexBudgetLocked() {
  long long bytes = 0;
  for (const IndexEntry& entry : index_lru_) {
    bytes += entry.view->stats().bytes;
  }
  while (static_cast<size_t>(bytes) > options_.max_index_bytes &&
         index_lru_.size() > 1) {
    const IndexEntry& victim = index_lru_.back();
    bytes -= victim.view->stats().bytes;
    ++stats_.index_evictions;
    index_map_.erase(victim.uid);
    index_lru_.pop_back();
  }
  stats_.index_bytes = bytes;
  stats_.index_entries = static_cast<long long>(index_lru_.size());
}

std::shared_ptr<const PlanDecision> EvalCache::FindPlanLocked(
    const std::vector<int>& key) {
  const auto it = plan_map_.find(key);
  if (it == plan_map_.end()) return nullptr;
  ++stats_.plan_hits;
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
  return plan_lru_.front().plan;
}

std::shared_ptr<const PlanDecision> EvalCache::LookupPlan(
    const std::vector<int>& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const PlanDecision> plan = FindPlanLocked(key);
  if (plan == nullptr) ++stats_.plan_misses;
  return plan;
}

std::shared_ptr<const PlanDecision> EvalCache::AcquirePlan(
    const std::vector<int>& key, const std::function<PlanDecision()>& plan,
    bool* hit) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (std::shared_ptr<const PlanDecision> found = FindPlanLocked(key)) {
        if (hit != nullptr) *hit = true;
        return found;
      }
      if (plans_in_flight_.insert(key).second) break;  // claimed: plan it
      plan_cv_.wait(lock, [&] { return plans_in_flight_.count(key) == 0; });
    }
    ++stats_.plan_misses;
  }
  if (hit != nullptr) *hit = false;
  // Planning (possibly Bell-number rewrite synthesis) runs outside the
  // lock. The claim is released whether it succeeds or throws, so waiters
  // never block on a key nobody is planning.
  std::shared_ptr<const PlanDecision> decision;
  try {
    decision = std::make_shared<const PlanDecision>(plan());
  } catch (...) {
    ReleasePlanClaim(key, nullptr);
    throw;
  }
  ReleasePlanClaim(key, decision);
  return decision;
}

void EvalCache::ReleasePlanClaim(const std::vector<int>& key,
                                 std::shared_ptr<const PlanDecision> decision) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (decision != nullptr) StorePlanLocked(key, std::move(decision));
    plans_in_flight_.erase(key);
  }
  plan_cv_.notify_all();
}

void EvalCache::StorePlan(const std::vector<int>& key,
                          std::shared_ptr<const PlanDecision> plan) {
  CQA_CHECK(plan != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  StorePlanLocked(key, std::move(plan));
}

void EvalCache::StorePlanLocked(const std::vector<int>& key,
                                std::shared_ptr<const PlanDecision> plan) {
  const auto it = plan_map_.find(key);
  if (it != plan_map_.end()) {
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
    plan_lru_.front().plan = std::move(plan);
  } else {
    plan_lru_.push_front(PlanEntry{key, std::move(plan)});
    plan_map_[key] = plan_lru_.begin();
  }
  while (plan_lru_.size() > options_.max_plan_entries) {
    ++stats_.plan_evictions;
    plan_map_.erase(plan_lru_.back().key);
    plan_lru_.pop_back();
  }
  stats_.plan_entries = static_cast<long long>(plan_lru_.size());
}

void EvalCache::Invalidate(const Database& db) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_map_.find(db.uid());
  if (it == index_map_.end()) return;
  ++stats_.index_invalidations;
  index_lru_.erase(it->second);
  index_map_.erase(it);
  EnforceIndexBudgetLocked();
}

void EvalCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_map_.clear();
  index_lru_.clear();
  plan_map_.clear();
  plan_lru_.clear();
  stats_.index_entries = 0;
  stats_.index_bytes = 0;
  stats_.plan_entries = 0;
}

EvalCacheStats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  long long bytes = 0;
  for (const IndexEntry& entry : index_lru_) {
    bytes += entry.view->stats().bytes;
  }
  stats_.index_bytes = bytes;
  stats_.index_entries = static_cast<long long>(index_lru_.size());
  return stats_;
}

}  // namespace cqa
