// bro::engine planned SpMV execution.
//
// The paper's deployment model (and SMASH/clSpMV's architecture) is a
// one-time planning/indexing step feeding a cheap repeated-apply step:
// compress once, then decode every CG/GMRES iteration. SpmvPlan is that
// split made explicit. Building a plan builds the chosen format's
// representation from the matrix's CSR — the plan owns it, and it is freed
// with the plan — and pre-sizes every scratch buffer the native kernels
// need (the BRO-HYB y_coo vector, the BRO-COO carry array, the COO
// per-thread row-range split); execute() is then allocation-free, which an
// instrumented workspace counter makes testable.
//
//   auto m = std::make_shared<core::Matrix>(core::Matrix::from_file(path));
//   engine::SpmvPlan plan(m);            // auto-selected format
//   plan.execute(x, y);                  // y = A*x, no per-call allocation
//
// Concurrency contract: a plan's Workspace is single-writer scratch. One
// SpmvPlan (and hence its Workspace) must NOT be shared across threads that
// execute concurrently — the kernels parallelize internally with OpenMP, so
// there is nothing to gain and a silent data race to lose. Concurrent
// callers need one plan each (each plan holds one representation, so that
// costs its bytes again) or an external lock; bro::serve::SpmvServer
// implements the locked variant, one plan per registered matrix. Building
// plans is lock-free: the shared core::Matrix is immutable. Misuse fails
// loudly: execute()/execute_multi() guard entry with an atomic in-use flag
// and throw via BRO_CHECK instead of racing.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/matrix.h"
#include "engine/format_registry.h"
#include "kernels/bro_bcsr_decode.h"
#include "kernels/native_spmv.h"
#include "solver/operator.h"

namespace bro::engine {

/// Pre-sized scratch owned by a plan. Each accessor grows its buffer only
/// when the request exceeds the current size and counts every growth, so a
/// test can assert that repeated execute() calls allocate nothing.
/// Not thread-safe: see the SpmvPlan concurrency contract above.
class Workspace {
 public:
  /// Scratch vector of n values (BRO-HYB's y_coo).
  std::span<value_t> values(std::size_t n);

  /// BRO-COO carry scratch for n intervals.
  std::span<kernels::BroCooCarry> carries(std::size_t n);

  /// BRO-COO SpMM carry sums: n = intervals * 2 * k values (see
  /// kernels/native_spmm.h for the layout).
  std::span<value_t> carry_sums(std::size_t n);

  /// Gather/scatter scratch for the multi-vector fallback path: one
  /// contiguous x column and one y column.
  std::span<value_t> gather_x(std::size_t n);
  std::span<value_t> gather_y(std::size_t n);

  /// The COO row-range split of the plan's representation at the current
  /// thread count, computed on first request and cached. A workspace
  /// belongs to one plan and so to one immutable representation: only an
  /// omp_set_num_threads() change recomputes the split.
  std::span<const kernels::CooRange> coo_ranges(const sparse::Coo& a);

  /// The decode-kernel choice for a BRO representation, computed on first
  /// request and cached: per slice / per interval for BRO-ELL and BRO-COO
  /// (scalar dispatch specializes by bit width), one kernel per matrix for
  /// BRO-ANS and BRO-BCSR. A change of the active SIMD ISA
  /// (ScopedSimdIsa/BRO_SIMD) re-selects instead of reusing stale kernels.
  /// The build hooks populate these so execute()/execute_multi() dispatch
  /// through pre-selected kernels with no per-call selection or allocation.
  std::span<const kernels::BroEllKernel> bro_ell_kernels(
      const core::BroEll& a);
  std::span<const kernels::BroCooKernel> bro_coo_kernels(
      const core::BroCoo& a);
  const kernels::BroAnsKernel& bro_ans_kernel(const core::BroAns& a);
  const kernels::BroBcsrKernel& bro_bcsr_kernel(const core::BroBcsr& a);

  /// Number of (re)allocations and kernel re-selections performed so far.
  std::size_t allocations() const { return allocations_; }

 private:
  /// One cached kernel choice (a table or a single kernel) and the ISA it
  /// was selected for (none yet).
  template <typename Choice>
  struct KernelCache {
    Choice choice;
    std::optional<kernels::SimdIsa> isa;
  };

  /// Re-selects through `select` unless `cache` already holds the choice
  /// for the active ISA.
  template <typename Choice, typename Rep>
  const Choice& cached_kernels(KernelCache<Choice>& cache, const Rep& a,
                               Choice (*select)(const Rep&,
                                                kernels::SimdIsa));

  std::vector<value_t> values_;
  std::vector<kernels::BroCooCarry> carries_;
  std::vector<value_t> carry_sums_;
  std::vector<value_t> gather_x_;
  std::vector<value_t> gather_y_;
  std::vector<kernels::CooRange> ranges_;
  int ranges_threads_ = 0; // 0: not split yet
  KernelCache<std::vector<kernels::BroEllKernel>> ell_kernels_;
  KernelCache<std::vector<kernels::BroCooKernel>> coo_kernels_;
  KernelCache<kernels::BroAnsKernel> ans_kernel_;
  KernelCache<kernels::BroBcsrKernel> bcsr_kernel_;
  std::size_t allocations_ = 0;
};

/// A matrix bound to one format with everything needed to apply y = A*x
/// repeatedly: the built representation, which the plan owns, plus a
/// pre-sized workspace. Built once per (matrix, format, thread
/// count); execute() performs no per-call heap allocation.
///
/// Plans are movable but not copyable, and must not execute concurrently
/// from two threads (see the file-header contract).
class SpmvPlan {
 public:
  /// Plans `format`, or the matrix's auto_format() when none is given; a
  /// given format never runs the applicability gates.
  explicit SpmvPlan(std::shared_ptr<const core::Matrix> matrix,
                    std::optional<core::Format> format = std::nullopt);

  SpmvPlan(SpmvPlan&& other) noexcept;
  SpmvPlan& operator=(SpmvPlan&& other) noexcept;
  SpmvPlan(const SpmvPlan&) = delete;
  SpmvPlan& operator=(const SpmvPlan&) = delete;

  core::Format format() const { return traits_->format; }
  const FormatTraits& format_traits() const { return *traits_; }
  const core::Matrix& matrix() const { return *matrix_; }
  index_t rows() const { return matrix_->rows(); }
  index_t cols() const { return matrix_->cols(); }

  /// y = A * x through the plan's native kernel (or the sequential
  /// reference for formats without one). Allocation-free after build.
  void execute(std::span<const value_t> x, std::span<value_t> y);

  /// Y = A * X for k interleaved right-hand sides (X[c*k + j] is element c
  /// of vector j; see kernels/native_spmm.h). Formats with an SpMM kernel
  /// (CSR, ELLPACK, BRO-ELL, BRO-COO, BRO-BCSR) decode each index once per
  /// batch; the rest fall back to k single-vector executes through
  /// gather/scatter scratch. Column j of Y is bitwise-identical to
  /// execute() on column j of X either way.
  void execute_multi(std::span<const value_t> x, std::span<value_t> y, int k);

  /// Workspace growth counter — stable across execute() calls once built.
  std::size_t workspace_allocations() const { return ws_.allocations(); }

  /// The plan's representation, as the registry hooks take it: the make
  /// hook's object, or the matrix's CSR for formats without one. Only this
  /// plan's format_traits() hooks may be given it; it lives as long as the
  /// plan.
  const void* representation() const { return rep_; }

  /// Heap bytes of the plan's own representation (registry rep_bytes hook;
  /// 0 when it runs on the matrix's CSR): what freeing the plan frees while
  /// the matrix lives, and what the serve layer charges against its plan
  /// byte budget.
  std::size_t representation_bytes() const;

  /// Resident bytes of this plan: the matrix's CSR plus the plan's
  /// representation.
  std::size_t resident_bytes() const;

  /// Test seam for the concurrency contract: acquire/release exactly the
  /// in-use guard execute() takes, so a test can prove that concurrent
  /// entry throws instead of racing.
  void debug_acquire();
  void debug_release();

 private:
  void execute_impl(std::span<const value_t> x, std::span<value_t> y);

  std::shared_ptr<const core::Matrix> matrix_;
  const FormatTraits* traits_;
  Representation owned_;      // null when the plan runs on the matrix's CSR
  const void* rep_ = nullptr; // owned_.get() or &matrix_->csr()
  Workspace ws_;
  std::atomic<bool> in_use_{false};
};

/// Convenience: take ownership of a matrix and plan it in one step.
SpmvPlan make_plan(core::Matrix matrix,
                   std::optional<core::Format> format = std::nullopt);
std::shared_ptr<SpmvPlan> make_shared_plan(
    core::Matrix matrix, std::optional<core::Format> format = std::nullopt);

/// Wrap a plan as a solver::Operator so CG/BiCGSTAB/GMRES iterate through
/// the planned, allocation-free apply path.
solver::Operator plan_operator(std::shared_ptr<SpmvPlan> plan);

} // namespace bro::engine
