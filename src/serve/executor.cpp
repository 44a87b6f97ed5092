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

Executor::Executor(std::size_t cache_bytes,
                   std::optional<core::Format> format)
    : cache_bytes_(cache_bytes), format_(format) {}

void Executor::add_matrix(const std::string& id,
                          std::shared_ptr<const core::Matrix> matrix) {
  BRO_CHECK_MSG(matrix != nullptr, "add_matrix requires a matrix");
  auto entry = std::make_shared<MatrixEntry>();
  entry->format = format_ ? *format_ : matrix->auto_format();
  entry->matrix = std::move(matrix);
  std::lock_guard lk(mu_);
  auto& slot = matrices_[id];
  if (slot) {
    slot->registered = false;
    drop_plan_locked(*slot);
  }
  slot = std::move(entry);
}

bool Executor::remove_matrix(const std::string& id) {
  std::lock_guard lk(mu_);
  const auto it = matrices_.find(id);
  if (it == matrices_.end()) return false;
  it->second->registered = false;
  drop_plan_locked(*it->second);
  matrices_.erase(it);
  return true;
}

std::shared_ptr<const core::Matrix> Executor::matrix(
    const std::string& id) const {
  std::lock_guard lk(mu_);
  const auto it = matrices_.find(id);
  return it == matrices_.end() ? nullptr : it->second->matrix;
}

void Executor::drop_plan_locked(MatrixEntry& entry) {
  if (!entry.plan) return;
  stats_.resident_bytes -= entry.plan_bytes;
  lru_.erase(entry.lru_it);
  entry.plan.reset();
  entry.plan_bytes = 0;
}

std::shared_ptr<engine::SpmvPlan> Executor::plan_for(MatrixEntry& entry) {
  {
    std::lock_guard lk(mu_);
    if (entry.plan) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, entry.lru_it);
      return entry.plan;
    }
    ++stats_.misses;
    ++building_;
  }

  // Build outside mu_: other matrices' batches and builds go on meanwhile,
  // and this matrix's next batch waits on its exec_mu.
  std::shared_ptr<engine::SpmvPlan> plan;
  try {
    plan = std::make_shared<engine::SpmvPlan>(entry.matrix, entry.format);
  } catch (...) {
    std::lock_guard lk(mu_);
    --building_;
    ++stats_.build_failures;
    throw;
  }

  std::lock_guard lk(mu_);
  --building_;
  // A registration replaced or removed mid-build gets no plan: this batch
  // predates that, so it still runs on the plan, which is then freed.
  if (!entry.registered) return plan;
  entry.plan = plan;
  // Representation bytes are what dropping the plan frees; the CSR stays
  // with the registration.
  entry.plan_bytes = plan->representation_bytes();
  stats_.resident_bytes += entry.plan_bytes;
  lru_.push_front(&entry);
  entry.lru_it = lru_.begin();
  // The front entry always survives, so one oversized plan is admitted
  // rather than thrashing.
  while (stats_.resident_bytes > cache_bytes_ && lru_.size() > 1) {
    drop_plan_locked(*lru_.back());
    ++stats_.evictions;
  }
  return plan;
}

PlanCacheStats Executor::cache_stats() const {
  std::lock_guard lk(mu_);
  PlanCacheStats s = stats_;
  s.entries = lru_.size() + building_;
  return s;
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

    std::shared_ptr<engine::SpmvPlan> plan;
    double secs = 0;
    {
      // One executor per plan at a time (the SpmvPlan contract).
      std::lock_guard ex(entry->exec_mu);
      plan = plan_for(*entry);
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
