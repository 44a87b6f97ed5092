#include "serve/executor.h"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "engine/format_registry.h"
#include "util/error.h"
#include "util/timer.h"

namespace bro::serve {

namespace {

// Latency buckets: 1 µs .. 10 s, doubling — 24 buckets covers every host
// kernel this repo runs (and the queue waits in front of them).
Histogram latency_histogram() {
  return Histogram::exponential(1e-6, 10.0, 2.0);
}

} // namespace

ExecMetrics::ExecMetrics()
    : batch_sizes(Histogram::linear(0.5, 64.5, 64)),
      queue_wait(latency_histogram()),
      execute(latency_histogram()) {}

// ---------------------------------------------------------------- WorkerPool

WorkerPool::WorkerPool(int threads, int omp_threads) {
  BRO_CHECK_MSG(threads >= 1, "WorkerPool needs >= 1 thread, got " << threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this, omp_threads] { loop(omp_threads); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  ready_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> WorkerPool::post(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  auto future = task.get_future();
  {
    std::lock_guard lk(mu_);
    BRO_CHECK_MSG(!stop_, "WorkerPool::post after shutdown");
    tasks_.push_back(std::move(task));
  }
  ready_.notify_one();
  return future;
}

void WorkerPool::loop(int omp_threads) {
#ifdef _OPENMP
  // The num-threads ICV is per OS thread: pinning it here scopes every
  // kernel this worker runs, without touching other pools or the caller.
  if (omp_threads > 0) omp_set_num_threads(omp_threads);
#else
  (void)omp_threads;
#endif
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lk(mu_);
      ready_.wait(lk, [&] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return; // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task(); // exceptions land in the poster's future
  }
}

// ------------------------------------------------------------------ HashRing

HashRing::HashRing(int nodes, int vnodes) : nodes_(nodes) {
  BRO_CHECK_MSG(nodes >= 1, "HashRing needs >= 1 node, got " << nodes);
  BRO_CHECK_MSG(vnodes >= 1, "HashRing needs >= 1 vnode, got " << vnodes);
  const std::hash<std::string> h;
  ring_.reserve(static_cast<std::size_t>(nodes) *
                static_cast<std::size_t>(vnodes));
  for (int n = 0; n < nodes; ++n)
    for (int v = 0; v < vnodes; ++v)
      ring_.emplace_back(
          h("pool-" + std::to_string(n) + "#" + std::to_string(v)), n);
  std::sort(ring_.begin(), ring_.end());
}

int HashRing::node(const std::string& key) const {
  const std::size_t point = std::hash<std::string>{}(key);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, std::size_t p) { return entry.first < p; });
  return it == ring_.end() ? ring_.front().second : it->second;
}

// ------------------------------------------------------------------ Executor

Executor::Executor(ExecutorOptions opts)
    : opts_(opts), cache_(opts.cache_bytes) {}

void Executor::add_matrix(const std::string& id,
                          std::shared_ptr<const core::Matrix> matrix) {
  BRO_CHECK_MSG(matrix != nullptr, "add_matrix requires a matrix");
  auto entry = std::make_shared<MatrixEntry>();
  entry->format = opts_.format ? *opts_.format : matrix->auto_format();
  entry->matrix = std::move(matrix);
  std::lock_guard lk(mu_);
  matrices_[id] = std::move(entry);
}

bool Executor::remove_matrix(const std::string& id) {
  bool existed;
  {
    std::lock_guard lk(mu_);
    existed = matrices_.erase(id) > 0;
  }
  // Drop the cached plans either way: a stale build may survive a replaced
  // registration.
  cache_.erase_matrix(id);
  return existed;
}

std::shared_ptr<const core::Matrix> Executor::matrix(
    const std::string& id) const {
  std::lock_guard lk(mu_);
  const auto it = matrices_.find(id);
  return it == matrices_.end() ? nullptr : it->second->matrix;
}

void Executor::execute_batch(Batch& batch) {
  const std::string& id = batch.front().id;
  std::shared_ptr<MatrixEntry> entry;
  {
    std::lock_guard lk(mu_);
    const auto it = matrices_.find(id);
    if (it != matrices_.end()) entry = it->second;
  }
  const auto uk = batch.size();
  const int k = static_cast<int>(uk);

  // Queue-wait samples are taken whether the batch succeeds or not — the
  // time was spent either way.
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> waits;
  waits.reserve(uk);
  for (const Request& req : batch)
    waits.push_back(
        std::chrono::duration<double>(start - req.enqueued).count());

  try {
    BRO_CHECK_MSG(entry != nullptr,
                  "matrix '" << id << "' was removed while queued");
    const auto rows = static_cast<std::size_t>(entry->matrix->rows());
    const auto cols = static_cast<std::size_t>(entry->matrix->cols());

    std::vector<value_t> x_batch(cols * uk);
    for (std::size_t j = 0; j < uk; ++j) {
      BRO_CHECK_MSG(batch[j].x.size() == cols,
                    "matrix '" << id << "' changed shape mid-flight");
      for (std::size_t c = 0; c < cols; ++c)
        x_batch[c * uk + j] = batch[j].x[c];
    }
    std::vector<value_t> y_batch(rows * uk);

    const RunResult run = run_batch(*entry, id, x_batch, y_batch, k);

    std::vector<std::vector<value_t>> ys(uk, std::vector<value_t>(rows));
    for (std::size_t j = 0; j < uk; ++j)
      for (std::size_t r = 0; r < rows; ++r) ys[j][r] = y_batch[r * uk + j];

    // Record the batch before fulfilling any promise, so a caller that has
    // its result also sees it in metrics().
    {
      std::lock_guard mlk(metrics_mu_);
      ++metrics_.batches;
      if (run.sharded) ++metrics_.sharded_batches;
      metrics_.served += uk;
      metrics_.batch_sizes.add(static_cast<double>(k));
      for (double w : waits) metrics_.queue_wait.add(w);
      metrics_.execute.add(run.secs);
      if (run.format_name) {
        auto [hit, inserted] = metrics_.latency_by_format.try_emplace(
            run.format_name, latency_histogram());
        (void)inserted;
        hit->second.add(run.secs);
      }
    }
    for (std::size_t j = 0; j < uk; ++j)
      batch[j].result.set_value(std::move(ys[j]));
  } catch (...) {
    {
      std::lock_guard mlk(metrics_mu_);
      metrics_.failed += uk;
      for (double w : waits) metrics_.queue_wait.add(w);
    }
    const auto error = std::current_exception();
    for (auto& req : batch) req.result.set_exception(error);
  }
}

Executor::RunResult Executor::run_batch(MatrixEntry& entry,
                                        const std::string& id,
                                        std::span<const value_t> x,
                                        std::span<value_t> y, int k) {
  RunResult run;
  auto plan = cache_.get_or_build(id, entry.matrix, entry.format);
  run.format_name = plan->format_traits().name;
  // One executor per plan at a time (the SpmvPlan contract).
  std::lock_guard ex(entry.exec_mu);
  Timer t;
  plan->execute_multi(x, y, k);
  run.secs = t.seconds();
  return run;
}

ExecMetrics Executor::metrics() const {
  std::lock_guard mlk(metrics_mu_);
  return metrics_;
}

// ----------------------------------------------------------- ShardedExecutor

ShardedExecutor::ShardedExecutor(ExecutorOptions opts)
    : Executor(opts), ring_(std::max(opts.pools, 1)) {
  const int pools = std::max(opts.pools, 1);
  const int threads = std::max(opts.pool_threads, 1);
  pools_.reserve(static_cast<std::size_t>(pools));
  for (int p = 0; p < pools; ++p)
    pools_.push_back(std::make_unique<WorkerPool>(threads, opts.pool_omp));
}

Executor::RunResult ShardedExecutor::run_batch(MatrixEntry& entry,
                                               const std::string& id,
                                               std::span<const value_t> x,
                                               std::span<value_t> y, int k) {
  // Shard only when the format the unsharded path would pick is itself
  // row-shardable — never silently trade the matrix's format for a
  // shardable one (that would change results and drop the compression the
  // format was chosen for).
  const bool shard = opts_.shards > 1 && entry.matrix->rows() > 1 &&
                     entry.matrix->nnz() >= opts_.shard_min_nnz &&
                     engine::traits(entry.format).row_shardable;

  if (!shard) {
    // Whole-matrix route: consistent-hash the id to one pool so a working
    // set of matrices spreads across pools.
    RunResult run;
    pools_[static_cast<std::size_t>(ring_.node(id))]
        ->post([&] { run = Executor::run_batch(entry, id, x, y, k); })
        .get();
    return run;
  }

  std::shared_ptr<engine::ShardedSpmvPlan> plan;
  {
    std::lock_guard lk(entry.shard_mu);
    if (!entry.sharded)
      entry.sharded = std::make_shared<engine::ShardedSpmvPlan>(
          entry.matrix, opts_.shards, entry.format);
    plan = entry.sharded;
  }

  RunResult run;
  run.sharded = true;
  run.format_name = engine::traits(plan->format()).name;
  const auto uk = static_cast<std::size_t>(k);

  // Same-matrix batches serialize on exec_mu (each shard plan is a
  // single-executor SpmvPlan); the shards of *this* batch fan out across
  // the pools and write disjoint y sub-spans.
  std::lock_guard ex(entry.exec_mu);
  Timer t;
  std::vector<std::future<void>> parts;
  parts.reserve(static_cast<std::size_t>(plan->shard_count()));
  for (int s = 0; s < plan->shard_count(); ++s) {
    const engine::RowShard& sh = plan->shard(s);
    auto y_part = y.subspan(static_cast<std::size_t>(sh.begin) * uk,
                            static_cast<std::size_t>(sh.rows()) * uk);
    parts.push_back(
        pools_[static_cast<std::size_t>(s) % pools_.size()]->post(
            [plan, s, x, y_part, k] {
              plan->execute_shard_multi(s, x, y_part, k);
            }));
  }
  std::exception_ptr err;
  for (auto& part : parts) {
    try {
      part.get();
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  run.secs = t.seconds();
  if (err) std::rethrow_exception(err);
  return run;
}

// ------------------------------------------------------------------- factory

std::unique_ptr<Executor> make_executor(ExecutorOptions opts) {
  if (opts.pools > 0 || opts.shards > 1)
    return std::make_unique<ShardedExecutor>(opts);
  return std::make_unique<Executor>(opts);
}

} // namespace bro::serve
