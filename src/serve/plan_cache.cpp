#include "serve/plan_cache.h"

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/error.h"

namespace bro::serve {

namespace {

int current_thread_count() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

} // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  std::size_t h = std::hash<std::string>{}(k.matrix_id);
  h ^= std::hash<std::size_t>{}(static_cast<std::size_t>(k.format) * 131 +
                                static_cast<std::size_t>(k.threads)) +
       0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

PlanCache::PlanCache(std::size_t max_resident_bytes)
    : cap_(max_resident_bytes) {
  BRO_CHECK_MSG(cap_ > 0, "PlanCache needs a nonzero byte budget");
}

std::shared_ptr<engine::SpmvPlan> PlanCache::get_or_build(
    const std::string& matrix_id,
    const std::shared_ptr<const core::Matrix>& matrix, core::Format format) {
  BRO_CHECK_MSG(matrix != nullptr, "PlanCache requires a matrix");
  const PlanKey key{matrix_id, format, current_thread_count()};

  std::unique_lock lk(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;
    Entry& e = it->second;
    if (e.building) {
      // Another thread is compressing this key; wait for it rather than
      // duplicating the build. A failed build erases the entry, so the
      // loop re-finds and re-dispatches.
      build_done_.wait(lk);
      continue;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, e.lru_it);
    return e.plan;
  }

  ++stats_.misses;
  Entry& e = entries_[key]; // building placeholder; reference survives rehash
  lk.unlock();

  std::shared_ptr<engine::SpmvPlan> plan;
  std::size_t bytes = 0;
  try {
    plan = std::make_shared<engine::SpmvPlan>(matrix, format);
    bytes = plan->resident_bytes();
  } catch (...) {
    lk.lock();
    entries_.erase(key);
    ++stats_.build_failures;
    build_done_.notify_all();
    throw;
  }

  lk.lock();
  if (e.discard) {
    // The matrix was removed while this build was in flight: drop the
    // entry instead of inserting a plan for a matrix the server no longer
    // serves. This caller's request predates the removal, so it still
    // gets its plan — it just is not cached.
    entries_.erase(key);
    build_done_.notify_all();
    return plan;
  }
  e.plan = std::move(plan);
  e.bytes = bytes;
  e.building = false;
  stats_.resident_bytes += bytes;
  lru_.push_front(key);
  e.lru_it = lru_.begin();
  evict_locked();
  build_done_.notify_all();
  return e.plan;
}

void PlanCache::evict_locked() {
  // The LRU list holds completed entries only, most recent at the front;
  // keeping >= 1 entry admits a single oversized plan instead of thrashing.
  while (stats_.resident_bytes > cap_ && lru_.size() > 1) {
    const PlanKey victim = lru_.back();
    auto it = entries_.find(victim);
    stats_.resident_bytes -= it->second.bytes;
    ++stats_.evictions;
    entries_.erase(it);
    lru_.pop_back();
  }
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard lk(mu_);
  PlanCacheStats s = stats_;
  s.entries = entries_.size();
  return s;
}

std::size_t PlanCache::erase_matrix(const std::string& matrix_id) {
  std::lock_guard lk(mu_);
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->matrix_id != matrix_id) {
      ++it;
      continue;
    }
    auto entry = entries_.find(*it);
    stats_.resident_bytes -= entry->second.bytes;
    entries_.erase(entry);
    it = lru_.erase(it);
    ++dropped;
  }
  // The LRU walk only sees completed entries: builds still in flight live
  // solely in entries_. Mark them so their completion drops the result
  // instead of re-inserting a plan for the removed matrix.
  for (auto& [key, e] : entries_) {
    if (e.building && !e.discard && key.matrix_id == matrix_id) {
      e.discard = true;
      ++dropped;
    }
  }
  return dropped;
}

void PlanCache::clear() {
  std::lock_guard lk(mu_);
  for (const PlanKey& key : lru_) {
    auto it = entries_.find(key);
    stats_.resident_bytes -= it->second.bytes;
    entries_.erase(it);
  }
  lru_.clear();
  // Same blind spot as erase_matrix: in-flight builds are not on the LRU
  // list. Discard them on completion.
  for (auto& [key, e] : entries_) {
    (void)key;
    if (e.building) e.discard = true;
  }
}

} // namespace bro::serve
