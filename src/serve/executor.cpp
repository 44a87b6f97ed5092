#include "serve/executor.h"

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

    auto plan = cache_.get_or_build(id, entry->matrix, entry->format);
    double secs = 0;
    {
      // One executor per plan at a time (the SpmvPlan contract).
      std::lock_guard ex(entry->exec_mu);
      Timer t;
      plan->execute_multi(x_batch, y_batch, k);
      secs = t.seconds();
    }

    std::vector<std::vector<value_t>> ys(uk, std::vector<value_t>(rows));
    for (std::size_t j = 0; j < uk; ++j)
      for (std::size_t r = 0; r < rows; ++r) ys[j][r] = y_batch[r * uk + j];

    // Record the batch before fulfilling any promise, so a caller that has
    // its result also sees it in metrics().
    {
      std::lock_guard mlk(metrics_mu_);
      ++metrics_.batches;
      metrics_.served += uk;
      metrics_.batch_sizes.add(static_cast<double>(k));
      for (double w : waits) metrics_.queue_wait.add(w);
      metrics_.execute.add(secs);
      auto [hit, inserted] = metrics_.latency_by_format.try_emplace(
          plan->format_traits().name, latency_histogram());
      (void)inserted;
      hit->second.add(secs);
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

ExecMetrics Executor::metrics() const {
  std::lock_guard mlk(metrics_mu_);
  return metrics_;
}

} // namespace bro::serve
