#include "erql/plan_cache.h"

#include <utility>

#include "exec/parallel.h"
#include "obs/metrics.h"

namespace erbium {
namespace erql {

namespace {

// Handles resolve once: a name lookup per statement would cost more
// than the hit it counts.
obs::Counter HitCounter() {
  static const obs::Counter c =
      obs::MetricsRegistry::Global().counter("plan_cache.hits");
  return c;
}
obs::Counter MissCounter() {
  static const obs::Counter c =
      obs::MetricsRegistry::Global().counter("plan_cache.misses");
  return c;
}
obs::Counter EvictionCounter() {
  static const obs::Counter c =
      obs::MetricsRegistry::Global().counter("plan_cache.evictions");
  return c;
}
obs::Counter InvalidationCounter() {
  static const obs::Counter c =
      obs::MetricsRegistry::Global().counter("plan_cache.invalidations");
  return c;
}

void UpdateEntriesGauge(size_t entries) {
  static const obs::Gauge g =
      obs::MetricsRegistry::Global().gauge("plan_cache.entries");
  g.Set(static_cast<int64_t>(entries));
}

}  // namespace

PlanCache::PlanCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

PlanCache::~PlanCache() = default;

std::unique_ptr<CompiledQuery> PlanCache::Checkout(const std::string& key,
                                                   uint64_t generation) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    lock.unlock();
    MissCounter().Increment();
    return nullptr;
  }
  LruList::iterator entry = it->second;
  if (entry->generation != generation) {
    // A stale survivor (its tables are gone); purge instead of serving.
    EraseLocked(entry);
    size_t entries = lru_.size();
    lock.unlock();
    EvictionCounter().Increment();
    MissCounter().Increment();
    UpdateEntriesGauge(entries);
    return nullptr;
  }
  if (entry->plans.empty()) {
    // All instances for this key are checked out right now.
    lock.unlock();
    MissCounter().Increment();
    return nullptr;
  }
  return TakeLocked(entry, &lock);
}

std::unique_ptr<CompiledQuery> PlanCache::CheckoutShort(
    const std::string& key, uint64_t generation, size_t row_threshold) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  LruList::iterator entry = it->second;
  if (entry->generation != generation || entry->plans.empty() ||
      !IsShortPlan(*entry->plans.back()->plan, row_threshold)) {
    return nullptr;
  }
  return TakeLocked(entry, &lock);
}

std::unique_ptr<CompiledQuery> PlanCache::TakeLocked(
    LruList::iterator entry, std::unique_lock<std::mutex>* lock) {
  std::unique_ptr<CompiledQuery> plan = std::move(entry->plans.back());
  entry->plans.pop_back();
  // Touch: move to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, entry);
  lock->unlock();
  HitCounter().Increment();
  return plan;
}

void PlanCache::CheckIn(const std::string& key, uint64_t generation,
                        std::unique_ptr<CompiledQuery> plan) {
  if (plan == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    LruList::iterator entry = it->second;
    if (entry->generation != generation) {
      // The mapping changed while this plan ran (cannot actually happen
      // under the statement lock, but stay safe): drop both.
      EraseLocked(entry);
      size_t entries = lru_.size();
      lock.unlock();
      EvictionCounter().Increment();
      UpdateEntriesGauge(entries);
      return;
    }
    if (entry->plans.size() < kPlansPerKey) {
      entry->plans.push_back(std::move(plan));
    }
    lru_.splice(lru_.begin(), lru_, entry);
    return;
  }
  // New key: evict from the cold end until there is room.
  size_t evicted = 0;
  while (lru_.size() >= capacity_) {
    EraseLocked(std::prev(lru_.end()));
    ++evicted;
  }
  Entry entry;
  entry.key = key;
  entry.generation = generation;
  entry.plans.push_back(std::move(plan));
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  size_t entries = lru_.size();
  lock.unlock();
  if (evicted > 0) EvictionCounter().Increment(evicted);
  UpdateEntriesGauge(entries);
}

void PlanCache::InvalidateBelow(uint64_t generation) {
  std::unique_lock<std::mutex> lock(mu_);
  size_t purged = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->generation < generation) {
      auto next = std::next(it);
      EraseLocked(it);
      it = next;
      ++purged;
    } else {
      ++it;
    }
  }
  size_t entries = lru_.size();
  lock.unlock();
  if (purged > 0) InvalidationCounter().Increment(purged);
  UpdateEntriesGauge(entries);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PlanCache::EraseLocked(LruList::iterator it) {
  index_.erase(it->key);
  lru_.erase(it);
}

}  // namespace erql
}  // namespace erbium
