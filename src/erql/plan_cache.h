#ifndef ERBIUM_ERQL_PLAN_CACHE_H_
#define ERBIUM_ERQL_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "erql/translator.h"

namespace erbium {
namespace erql {

/// LRU cache of compiled SELECT plans — the paper's point that the E/R
/// layer is the *stable* abstraction above volatile physical mappings,
/// applied to the hot path: translate is paid once per (statement
/// shape, mapping generation) and reused until the mapping changes
/// underneath it. The key is the parser's literal-free shape
/// (Query::cache_key): WHERE literals become typed parameter slots that
/// the engine rebinds on every checkout. The owner
/// (api::StatementRunner) bumps the generation on every DDL / REMAP /
/// ATTACH; entries compiled under an older generation hold dangling
/// Table pointers and are never returned, only purged.
///
/// Operator trees carry cursor state (Open() resets it, but two threads
/// may not drive one tree at once), so entries are *checked out* for the
/// duration of an execution: Checkout() removes a plan instance from the
/// cache, the caller runs it under the shared statement lock, then
/// CheckIn() returns it. A second concurrent reader of the same
/// statement simply misses and compiles fresh; its check-in deepens the
/// per-key pool (up to kPlansPerKey instances), so steady-state
/// concurrency stops missing.
///
/// Thread safety: all methods lock an internal mutex; the cache never
/// executes plans itself. Metrics: plan_cache.hits / .misses /
/// .evictions / .invalidations in the global registry, plus the
/// plan_cache.entries gauge.
class PlanCache {
 public:
  /// Maximum plan instances pooled per key; more check-ins than this are
  /// dropped (a plan is cheap to recompile, unbounded pools are not).
  static constexpr size_t kPlansPerKey = 8;

  explicit PlanCache(size_t capacity = 1024);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Removes and returns one plan compiled for `key` under exactly
  /// `generation`, or nullptr (miss). A surviving entry from an older
  /// generation is purged on sight and counts as an eviction.
  std::unique_ptr<CompiledQuery> Checkout(const std::string& key,
                                          uint64_t generation);

  /// Checkout for a caller that may only run short plans: returns a
  /// pooled plan that IsShortPlan (exec/parallel.h) judges short against
  /// `row_threshold` on the tables' current sizes, and counts the hit.
  /// Anything else returns nullptr and leaves the cache and its counters
  /// untouched, so the caller's later Checkout of the same statement
  /// counts it once.
  std::unique_ptr<CompiledQuery> CheckoutShort(const std::string& key,
                                               uint64_t generation,
                                               size_t row_threshold);

  /// Returns a plan to the pool for `key`. Dropped silently when the
  /// generation has moved on, the per-key pool is full, or inserting
  /// would exceed capacity after LRU eviction.
  void CheckIn(const std::string& key, uint64_t generation,
               std::unique_ptr<CompiledQuery> plan);

  /// Purges every entry compiled under a generation < `generation`.
  /// Called by the owner right after a DDL/REMAP/ATTACH rebuild, while
  /// it still holds the exclusive statement lock, so no reader can be
  /// executing a stale plan.
  void InvalidateBelow(uint64_t generation);

  /// Number of keys currently cached.
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    uint64_t generation = 0;
    std::vector<std::unique_ptr<CompiledQuery>> plans;
  };
  using LruList = std::list<Entry>;

  /// Erases an entry (drops its plans); caller holds mu_.
  void EraseLocked(LruList::iterator it);
  /// Pops a plan from a non-empty entry, touches it, releases `lock`
  /// (held on mu_) and counts the hit.
  std::unique_ptr<CompiledQuery> TakeLocked(LruList::iterator entry,
                                            std::unique_lock<std::mutex>* lock);

  const size_t capacity_;
  mutable std::mutex mu_;
  /// Most-recently-used at the front.
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> index_;
};

}  // namespace erql
}  // namespace erbium

#endif  // ERBIUM_ERQL_PLAN_CACHE_H_
