// bro::serve execution layer — the matrix registry and batch execution.
//
// The executor owns what the original monolithic SpmvServer kept tangled
// with its queue: the matrix registry, each registered matrix's plan, the
// per-matrix exec_mu that upholds SpmvPlan's single-executor contract, and
// per-batch metrics (batch sizes, queue-wait and execute-time percentiles,
// per-format latency). execute_batch() takes one coalesced batch from the
// scheduling layer, interleaves the right-hand sides, runs the SpMM on the
// calling (dispatch) thread through the matrix's plan — the kernels
// parallelize rows internally via OpenMP — and fulfills the request
// promises.
//
// Plans are the paper's compress-once step: an entry builds its plan on
// its first batch, under its exec_mu, and keeps it across batches. One LRU
// list over the entries bounds the plans' representation bytes: evicting a
// plan frees exactly those, since the registration keeps the CSR alive
// whatever happens to the plan. The most recently used plan always
// survives, so one oversized plan is admitted rather than thrashing.
// Replacing or removing a registration drops its plan with it; a batch
// already executing keeps the plan it holds.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "engine/plan.h"
#include "serve/scheduler.h"
#include "util/histogram.h"

namespace bro::serve {

struct PlanCacheStats {
  std::uint64_t hits = 0;           // batches that found their plan built
  std::uint64_t misses = 0;         // batches that built their plan
  std::uint64_t evictions = 0;      // plans dropped for the byte budget
  std::uint64_t build_failures = 0; // builds that threw
  std::size_t resident_bytes = 0;   // representation bytes of held plans
  std::size_t entries = 0;          // held plans, in-flight builds included
};

struct ExecMetrics {
  std::uint64_t served = 0;          // requests whose future got a value
  std::uint64_t failed = 0;          // requests whose future got an exception
  std::uint64_t batches = 0;         // SpMM invocations
  Histogram batch_sizes;             // one sample per batch
  Histogram queue_wait;              // per-request seconds enqueue -> execute
  Histogram execute;                 // per-batch execute seconds
  // One histogram of per-batch execute seconds per canonical format name.
  std::unordered_map<std::string, Histogram> latency_by_format;

  ExecMetrics();
};

class Executor {
 public:
  /// `cache_bytes` bounds the representation bytes of the plans held;
  /// `format` forces one format for every matrix (default: auto-selected
  /// per matrix at registration).
  Executor(std::size_t cache_bytes, std::optional<core::Format> format);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Register a matrix under `id`, replacing any previous registration and
  /// its plan for new requests; in-flight batches keep what they resolved.
  void add_matrix(const std::string& id,
                  std::shared_ptr<const core::Matrix> matrix);

  /// Drop the registration and its plan. Returns false when the id was not
  /// registered. In-flight batches keep their resolved entry and plan; new
  /// submits see an unknown id.
  bool remove_matrix(const std::string& id);

  /// The registered matrix, or null.
  std::shared_ptr<const core::Matrix> matrix(const std::string& id) const;

  /// Execute one coalesced batch on the calling thread: interleave the
  /// right-hand sides, run the SpMM under the entry's exec_mu, scatter
  /// results into the request promises. Failures become promise
  /// exceptions, never escape.
  void execute_batch(Batch& batch);

  ExecMetrics metrics() const;
  PlanCacheStats cache_stats() const;

 private:
  struct MatrixEntry {
    std::shared_ptr<const core::Matrix> matrix;
    // Resolved once at registration (the forced format, else
    // auto_format()): auto-selection runs the BRO-BCSR cover analysis over
    // the whole matrix, far too costly to repeat per batch.
    core::Format format = core::Format::kCsr;
    // SpmvPlan is a single-executor object (engine/plan.h); batches for
    // the same matrix, and so the build of its plan, serialize on this.
    std::mutex exec_mu;
    // Guarded by Executor::mu_. `plan` is non-null exactly while the entry
    // is on lru_; `registered` turns false when the id is replaced or
    // removed, so a build finishing afterwards is not kept.
    std::shared_ptr<engine::SpmvPlan> plan;
    std::size_t plan_bytes = 0;
    bool registered = true;
    std::list<MatrixEntry*>::iterator lru_it;
  };

  /// The entry's plan, built on a miss. Called under entry.exec_mu.
  std::shared_ptr<engine::SpmvPlan> plan_for(MatrixEntry& entry);
  /// Drop the entry's plan and its bytes. Called under mu_.
  void drop_plan_locked(MatrixEntry& entry);

  const std::size_t cache_bytes_;
  const std::optional<core::Format> format_;

  mutable std::mutex mu_; // guards matrices_, lru_, stats_, building_
  std::unordered_map<std::string, std::shared_ptr<MatrixEntry>> matrices_;
  std::list<MatrixEntry*> lru_; // entries holding a plan; front = MRU
  PlanCacheStats stats_;
  std::size_t building_ = 0; // plan builds in flight

  mutable std::mutex metrics_mu_;
  ExecMetrics metrics_;
};

} // namespace bro::serve
