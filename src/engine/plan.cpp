#include "engine/plan.h"

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/error.h"

namespace bro::engine {

namespace {

int plan_thread_count() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// RAII acquisition of a plan's in-use flag: entering while another thread
/// holds it is a contract violation, reported through BRO_CHECK instead of
/// racing on the workspace.
class ExecutionGuard {
 public:
  explicit ExecutionGuard(std::atomic<bool>& flag) : flag_(flag) {
    BRO_CHECK_MSG(!flag_.exchange(true, std::memory_order_acquire),
                  "SpmvPlan executed concurrently from two threads; a plan's "
                  "Workspace is single-writer scratch (see engine/plan.h)");
  }
  ~ExecutionGuard() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool>& flag_;
};

} // namespace

std::span<value_t> Workspace::values(std::size_t n) {
  if (values_.size() < n) {
    values_.resize(n);
    ++allocations_;
  }
  return {values_.data(), n};
}

std::span<kernels::BroCooCarry> Workspace::carries(std::size_t n) {
  if (carries_.size() < n) {
    carries_.resize(n);
    ++allocations_;
  }
  return {carries_.data(), n};
}

std::span<value_t> Workspace::carry_sums(std::size_t n) {
  if (carry_sums_.size() < n) {
    carry_sums_.resize(n);
    ++allocations_;
  }
  return {carry_sums_.data(), n};
}

std::span<value_t> Workspace::gather_x(std::size_t n) {
  if (gather_x_.size() < n) {
    gather_x_.resize(n);
    ++allocations_;
  }
  return {gather_x_.data(), n};
}

std::span<value_t> Workspace::gather_y(std::size_t n) {
  if (gather_y_.size() < n) {
    gather_y_.resize(n);
    ++allocations_;
  }
  return {gather_y_.data(), n};
}

std::span<const kernels::CooRange> Workspace::coo_ranges(
    const sparse::Coo& a) {
  const int threads = plan_thread_count();
  if (ranges_for_ != &a || ranges_nnz_ != a.nnz() ||
      ranges_threads_ != threads) {
    ranges_ = kernels::coo_thread_ranges(a, threads);
    ranges_for_ = &a;
    ranges_nnz_ = a.nnz();
    ranges_threads_ = threads;
    ++allocations_;
  }
  return ranges_;
}

template <typename Kernel, typename Rep>
std::span<const Kernel> Workspace::cached_kernels(
    KernelCache<Kernel>& cache, const Rep& a, std::size_t count,
    std::vector<Kernel> (*plan)(const Rep&, kernels::SimdIsa)) {
  const kernels::SimdIsa isa = kernels::active_simd_isa();
  if (cache.rep != &a || cache.table.size() != count || cache.isa != isa) {
    cache.table = plan(a, isa);
    cache.rep = &a;
    cache.isa = isa;
    ++allocations_;
  }
  return cache.table;
}

std::span<const kernels::BroEllKernel> Workspace::bro_ell_kernels(
    const core::BroEll& a) {
  return cached_kernels(ell_kernels_, a, a.slices().size(),
                        &kernels::plan_bro_ell_kernels);
}

std::span<const kernels::BroCooKernel> Workspace::bro_coo_kernels(
    const core::BroCoo& a) {
  return cached_kernels(coo_kernels_, a, a.intervals().size(),
                        &kernels::plan_bro_coo_kernels);
}

std::span<const kernels::BroAnsKernel> Workspace::bro_ans_kernels(
    const core::BroAns& a) {
  return cached_kernels(ans_kernels_, a, a.slices().size(),
                        &kernels::plan_bro_ans_kernels);
}

std::span<const kernels::BroBcsrKernel> Workspace::bro_bcsr_kernels(
    const core::BroBcsr& a) {
  return cached_kernels(bcsr_kernels_, a, a.slices().size(),
                        &kernels::plan_bro_bcsr_kernels);
}

SpmvPlan::SpmvPlan(std::shared_ptr<const core::Matrix> matrix,
                   std::optional<core::Format> format)
    : matrix_(std::move(matrix)) {
  BRO_CHECK_MSG(matrix_ != nullptr, "SpmvPlan requires a matrix");
  traits_ = &traits(format.value_or(matrix_->auto_format()));
  if (traits_->build) traits_->build(*matrix_, ws_);
}

SpmvPlan::SpmvPlan(SpmvPlan&& other) noexcept
    : matrix_(std::move(other.matrix_)),
      traits_(other.traits_),
      ws_(std::move(other.ws_)) {}

SpmvPlan& SpmvPlan::operator=(SpmvPlan&& other) noexcept {
  matrix_ = std::move(other.matrix_);
  traits_ = other.traits_;
  ws_ = std::move(other.ws_);
  return *this;
}

void SpmvPlan::execute(std::span<const value_t> x, std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows()));
  ExecutionGuard guard(in_use_);
  execute_impl(x, y);
}

void SpmvPlan::execute_impl(std::span<const value_t> x,
                            std::span<value_t> y) {
  if (traits_->native)
    traits_->native(*matrix_, ws_, x, y);
  else
    traits_->apply(*matrix_, x, y);
}

void SpmvPlan::execute_multi(std::span<const value_t> x,
                             std::span<value_t> y, int k) {
  BRO_CHECK_MSG(k >= 1, "SpMM batch size must be >= 1");
  const std::size_t uk = static_cast<std::size_t>(k);
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols()) * uk);
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows()) * uk);
  ExecutionGuard guard(in_use_);
  if (k == 1) {
    execute_impl(x, y);
    return;
  }
  if (traits_->native_multi) {
    traits_->native_multi(*matrix_, ws_, x, y, k);
    return;
  }
  // Fallback for formats without an SpMM kernel: de-interleave each column
  // into plan scratch, run the single-vector path, scatter the result back.
  auto xg = ws_.gather_x(static_cast<std::size_t>(cols()));
  auto yg = ws_.gather_y(static_cast<std::size_t>(rows()));
  for (std::size_t j = 0; j < uk; ++j) {
    for (std::size_t c = 0; c < xg.size(); ++c) xg[c] = x[c * uk + j];
    execute_impl(xg, yg);
    for (std::size_t r = 0; r < yg.size(); ++r) y[r * uk + j] = yg[r];
  }
}

std::size_t SpmvPlan::resident_bytes() const {
  // Every facade owns its base CSR; the hook adds the bytes of the built
  // format-specific representation (null = the representation is that CSR).
  const std::size_t csr_bytes =
      (static_cast<std::size_t>(matrix_->rows()) + 1) * sizeof(index_t) +
      matrix_->nnz() * (sizeof(index_t) + sizeof(value_t));
  const std::size_t rep_bytes =
      traits_->resident_bytes ? traits_->resident_bytes(*matrix_) : 0;
  return csr_bytes + rep_bytes;
}

void SpmvPlan::debug_acquire() {
  BRO_CHECK_MSG(!in_use_.exchange(true, std::memory_order_acquire),
                "SpmvPlan executed concurrently from two threads; a plan's "
                "Workspace is single-writer scratch (see engine/plan.h)");
}

void SpmvPlan::debug_release() {
  in_use_.store(false, std::memory_order_release);
}

SpmvPlan make_plan(core::Matrix matrix, std::optional<core::Format> format) {
  return SpmvPlan(std::make_shared<core::Matrix>(std::move(matrix)), format);
}

std::shared_ptr<SpmvPlan> make_shared_plan(core::Matrix matrix,
                                           std::optional<core::Format> format) {
  return std::make_shared<SpmvPlan>(
      std::make_shared<core::Matrix>(std::move(matrix)), format);
}

solver::Operator plan_operator(std::shared_ptr<SpmvPlan> plan) {
  return [plan](std::span<const value_t> x, std::span<value_t> y) {
    plan->execute(x, y);
  };
}

} // namespace bro::engine
