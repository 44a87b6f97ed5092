// bro::serve execution layer — plan resolution and batch execution.
//
// The executor owns what the original monolithic SpmvServer kept tangled
// with its queue: the matrix registry, the PlanCache, the per-matrix
// exec_mu that upholds SpmvPlan's single-executor contract, and per-batch
// metrics (batch sizes, queue-wait and execute-time percentiles, per-format
// latency). execute_batch() takes one coalesced batch from the scheduling
// layer, interleaves the right-hand sides, runs the SpMM on the calling
// (dispatch) thread through the cached plan — the kernels parallelize
// rows internally via OpenMP — and fulfills the request promises.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "serve/plan_cache.h"
#include "serve/scheduler.h"
#include "util/histogram.h"

namespace bro::serve {

struct ExecutorOptions {
  std::size_t cache_bytes = std::size_t{256} << 20; // plan-cache budget
  // Force one format for every matrix; default auto-selects per matrix.
  std::optional<core::Format> format;
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
  explicit Executor(ExecutorOptions opts);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Register a matrix under `id` (replacing any previous registration for
  /// new requests; in-flight batches keep the entry they resolved).
  void add_matrix(const std::string& id,
                  std::shared_ptr<const core::Matrix> matrix);

  /// Drop the registration and every plan the cache holds for `id`.
  /// Returns false when the id was not registered. In-flight batches keep
  /// their resolved entry and plan; new submits see an unknown id.
  bool remove_matrix(const std::string& id);

  /// The registered matrix, or null.
  std::shared_ptr<const core::Matrix> matrix(const std::string& id) const;

  /// Execute one coalesced batch on the calling thread: interleave the
  /// right-hand sides, run the SpMM under the entry's exec_mu, scatter
  /// results into the request promises. Failures become promise
  /// exceptions, never escape.
  void execute_batch(Batch& batch);

  ExecMetrics metrics() const;
  PlanCacheStats cache_stats() const { return cache_.stats(); }

 private:
  struct MatrixEntry {
    std::shared_ptr<const core::Matrix> matrix;
    // Resolved once at registration (opts_.format, else auto_format()):
    // auto-selection runs the BRO-BCSR cover analysis over the whole
    // matrix, far too costly to repeat per batch.
    core::Format format = core::Format::kCsr;
    // SpmvPlan is a single-executor object (engine/plan.h); batches for
    // the same matrix serialize on this so two dispatch threads never
    // share a plan's workspace concurrently.
    std::mutex exec_mu;
  };

  const ExecutorOptions opts_;
  PlanCache cache_;

  mutable std::mutex mu_; // guards matrices_
  std::unordered_map<std::string, std::shared_ptr<MatrixEntry>> matrices_;

  mutable std::mutex metrics_mu_;
  ExecMetrics metrics_;
};

} // namespace bro::serve
