// bro::serve::PlanCache — thread-safe LRU cache of built SpmvPlans.
//
// Planning is the expensive half of the paper's compress-once /
// apply-every-iteration split: building a plan compresses the matrix into
// its format and pre-sizes kernel scratch. A server handling requests
// against a working set of matrices must not rebuild that per request, so
// the cache keys plans by (matrix id, format, thread count) and evicts by
// least-recent use when the resident-byte budget is exceeded — the same
// amortize-the-indexing-step economics SMASH argues for, applied across
// requests instead of solver iterations.
//
// Concurrency: any number of threads may call get_or_build. A miss inserts
// a building placeholder and compresses outside the lock; other threads
// requesting the same key wait on the build (counted as hits — the plan was
// reused, not rebuilt) instead of duplicating it. Builds of different keys,
// even for one matrix, run in parallel with no lock: core::Matrix is an
// immutable CSR and each plan builds and owns its own representation.
// Eviction drops the cache's reference; the representation is freed once
// no caller holds the plan's shared_ptr, so the byte budget bounds what
// the cache keeps alive. The returned plan still carries SpmvPlan's
// single-executor contract — callers execute under their own per-plan lock
// (SpmvServer does) or hold one plan per thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/plan.h"

namespace bro::serve {

struct PlanKey {
  std::string matrix_id;
  core::Format format = core::Format::kCsr;
  int threads = 1;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;           // lookups served from the cache
  std::uint64_t misses = 0;         // lookups that triggered a build
  std::uint64_t evictions = 0;      // entries dropped for the byte budget
  std::uint64_t build_failures = 0; // builds that threw
  std::size_t resident_bytes = 0;   // sum over live entries
  std::size_t entries = 0;          // live entries (incl. in-flight builds)
};

class PlanCache {
 public:
  /// `max_resident_bytes` bounds the sum of SpmvPlan::resident_bytes() over
  /// cached entries; the most recently used entry always survives, so one
  /// oversized plan is admitted rather than thrashing forever.
  explicit PlanCache(std::size_t max_resident_bytes);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Return the cached plan for (matrix_id, format, current thread count),
  /// building it from `matrix` on a miss. Build exceptions propagate to
  /// every waiter of that key and leave the cache unchanged.
  std::shared_ptr<engine::SpmvPlan> get_or_build(
      const std::string& matrix_id,
      const std::shared_ptr<const core::Matrix>& matrix, core::Format format);

  PlanCacheStats stats() const;
  std::size_t max_resident_bytes() const { return cap_; }

  /// Drop every entry for `matrix_id` across all formats and thread counts
  /// (SpmvServer::remove_matrix). Completed entries are dropped
  /// immediately; in-flight builds are marked and their results discarded
  /// on completion (the building caller still receives its plan — the
  /// request predates the removal — it just is not cached). Callers
  /// holding an evicted plan keep it alive through their shared_ptr.
  /// Returns the number of entries dropped or marked.
  std::size_t erase_matrix(const std::string& matrix_id);

  /// Drop every entry (in-flight builds are discarded on completion, as in
  /// erase_matrix).
  void clear();

 private:
  struct Entry {
    std::shared_ptr<engine::SpmvPlan> plan; // null while building
    std::size_t bytes = 0;
    bool building = true;
    bool failed = false;  // build threw; waiters re-dispatch
    bool discard = false; // matrix removed mid-build; drop on completion
    std::list<PlanKey>::iterator lru_it;    // valid when !building
  };

  void evict_locked();

  const std::size_t cap_;
  mutable std::mutex mu_;
  std::condition_variable build_done_;
  std::list<PlanKey> lru_; // front = most recently used
  std::unordered_map<PlanKey, Entry, PlanKeyHash> entries_;
  PlanCacheStats stats_;
};

} // namespace bro::serve
