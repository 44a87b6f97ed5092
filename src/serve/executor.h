// bro::serve execution layer — plan resolution, worker pools, sharding.
//
// The executor owns what the original monolithic SpmvServer kept tangled
// with its queue: the matrix registry, the PlanCache, the per-matrix
// exec_mu that upholds SpmvPlan's single-executor contract, and per-batch
// metrics (batch sizes, queue-wait and execute-time percentiles, per-format
// latency). execute_batch() takes one coalesced batch from the scheduling
// layer, interleaves the right-hand sides, runs the SpMM, and fulfills the
// request promises.
//
// Two execution strategies:
//
//   * Executor — runs the batch on the calling (dispatch) thread, exactly
//     the old server's behavior; kernels parallelize internally via OpenMP.
//   * ShardedExecutor — owns N WorkerPools. Matrices large enough to shard
//     (>= shard_min_nnz, row-shardable format) execute as S row shards
//     fanned out across the pools through an engine::ShardedSpmvPlan,
//     bitwise-identical to the unsharded plan (engine/shard.h). Smaller or
//     unshardable matrices route whole to one pool chosen by consistent
//     hashing of the matrix id, so a working set of matrices spreads across
//     pools with minimal reshuffling as ids come and go.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/shard.h"
#include "serve/plan_cache.h"
#include "serve/scheduler.h"
#include "util/histogram.h"

namespace bro::serve {

struct ExecutorOptions {
  std::size_t cache_bytes = std::size_t{256} << 20; // plan-cache budget
  // Force one format for every matrix; default auto-selects per matrix.
  std::optional<core::Format> format;

  // ShardedExecutor only (make_executor: pools == 0 selects the plain
  // execute-on-dispatch-thread Executor):
  int pools = 0;        // worker pools
  int pool_threads = 1; // OS threads per pool
  // OpenMP threads each pool worker grants its kernels (omp_set_num_threads
  // on the worker thread); 0 leaves the ambient setting. With sharding,
  // parallelism usually moves from inside the kernel to across shards, so
  // 1 avoids oversubscription.
  int pool_omp = 0;
  int shards = 0;                      // row shards per matrix; <= 1 = off
  std::size_t shard_min_nnz = 100000;  // smaller matrices stay unsharded
};

struct ExecMetrics {
  std::uint64_t served = 0;          // requests whose future got a value
  std::uint64_t failed = 0;          // requests whose future got an exception
  std::uint64_t batches = 0;         // SpMM invocations
  std::uint64_t sharded_batches = 0; // batches that fanned out over shards
  Histogram batch_sizes;             // one sample per batch
  Histogram queue_wait;              // per-request seconds enqueue -> execute
  Histogram execute;                 // per-batch execute seconds
  // One histogram of per-batch execute seconds per canonical format name.
  std::unordered_map<std::string, Histogram> latency_by_format;

  ExecMetrics();
};

/// A fixed pool of worker threads draining a task queue. Each worker pins
/// its OpenMP thread-count ICV at startup (omp_threads > 0), so kernels
/// posted to the pool use that many threads regardless of the ambient
/// setting — the knob that keeps pool-level and kernel-level parallelism
/// from oversubscribing each other.
class WorkerPool {
 public:
  explicit WorkerPool(int threads, int omp_threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run `fn` on a pool thread; the future delivers completion or the
  /// exception `fn` threw.
  std::future<void> post(std::function<void()> fn);

  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  void loop(int omp_threads);

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::packaged_task<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Consistent hashing of string keys onto [0, nodes): each node projects
/// `vnodes` points onto a hash ring and a key maps to the next point
/// clockwise. Adding/removing one node moves only ~1/nodes of the keys.
class HashRing {
 public:
  explicit HashRing(int nodes, int vnodes = 64);

  int node(const std::string& key) const;
  int nodes() const { return nodes_; }

 private:
  int nodes_;
  std::vector<std::pair<std::size_t, int>> ring_; // (point, node), sorted
};

class Executor {
 public:
  explicit Executor(ExecutorOptions opts);
  virtual ~Executor() = default;

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
  /// right-hand sides, run the SpMM (run_batch strategy), scatter results
  /// into the request promises. Failures become promise exceptions, never
  /// escape.
  void execute_batch(Batch& batch);

  ExecMetrics metrics() const;
  PlanCacheStats cache_stats() const { return cache_.stats(); }
  const ExecutorOptions& options() const { return opts_; }

 protected:
  struct MatrixEntry {
    std::shared_ptr<const core::Matrix> matrix;
    // Resolved once at registration (opts_.format, else auto_format()):
    // auto-selection runs the BRO-BCSR cover analysis over the whole
    // matrix, far too costly to repeat per batch.
    core::Format format = core::Format::kCsr;
    // SpmvPlan is a single-executor object (engine/plan.h); batches for
    // the same matrix serialize on this so two pool workers never share a
    // plan's workspace concurrently.
    std::mutex exec_mu;
    // Lazily built by ShardedExecutor (guarded by shard_mu, executed under
    // exec_mu like the unsharded plan).
    std::mutex shard_mu;
    std::shared_ptr<engine::ShardedSpmvPlan> sharded;
  };

  struct RunResult {
    double secs = 0;                 // execute wall time
    bool sharded = false;            // fanned out across row shards
    const char* format_name = nullptr;
  };

  /// The strategy seam: run Y = A * X for the batch. Base class: resolve
  /// the plan through the cache and execute on the calling thread under
  /// the entry's exec_mu.
  virtual RunResult run_batch(MatrixEntry& entry, const std::string& id,
                              std::span<const value_t> x,
                              std::span<value_t> y, int k);

  const ExecutorOptions opts_;
  PlanCache cache_;

 private:
  mutable std::mutex mu_; // guards matrices_
  std::unordered_map<std::string, std::shared_ptr<MatrixEntry>> matrices_;

  mutable std::mutex metrics_mu_;
  ExecMetrics metrics_;
};

class ShardedExecutor : public Executor {
 public:
  explicit ShardedExecutor(ExecutorOptions opts);

  int pool_count() const { return static_cast<int>(pools_.size()); }

  /// The pool a whole (unsharded) matrix id routes to — exposed so tests
  /// and benches can reason about placement.
  int pool_for(const std::string& id) const { return ring_.node(id); }

 protected:
  RunResult run_batch(MatrixEntry& entry, const std::string& id,
                      std::span<const value_t> x, std::span<value_t> y,
                      int k) override;

 private:
  std::vector<std::unique_ptr<WorkerPool>> pools_;
  HashRing ring_;
};

/// Factory: a ShardedExecutor when pools or sharding are requested, else
/// the plain on-caller-thread Executor.
std::unique_ptr<Executor> make_executor(ExecutorOptions opts);

} // namespace bro::serve
