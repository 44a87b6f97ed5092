// OpenMP-parallel host SpMV kernels: the real wall-clock measurement path
// used by the google-benchmark binaries (the simulator path models GPU
// behaviour; this path demonstrates the library on actual hardware).
//
// The BRO decode loops come in two flavours: a generic variable-width
// decoder (one shift/mask pair per delta with the bit width read from
// bit_alloc at run time) and width-specialized kernels instantiated for
// every bit width 0..kMaxSpecializedDecodeWidth with the shift/mask
// constants folded at compile time (src/kernels/bro_decode.h). Selection is
// per BRO-ELL slice / BRO-COO interval: a slice whose bit_alloc is constant
// across columns (the common post-BAR case) or an interval (always a single
// width) dispatches to the specialized kernel; everything else falls back to
// the generic decoder. plan_bro_*_kernels() / select_bro_*_kernel()
// materialize that choice once at SpmvPlan build time, and each format has
// exactly one OpenMP driver that runs the choice it is given, so execute()
// stays branch- and allocation-free. The parity oracle runs the same driver
// with the generic_bro_*_kernel() choice.
#pragma once

#include <span>

#include "core/bro_ans.h"
#include "core/bro_coo.h"
#include "core/bro_ell.h"
#include "core/bro_hyb.h"
#include "kernels/cpu_features.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/ell.h"
#include "sparse/hyb.h"

namespace bro::kernels {

/// One row-complete [lo, hi) chunk of a row-sorted COO entry stream.
struct CooRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Part `part` of a `parts`-way balanced split of a row-sorted COO entry
/// stream: boundaries are placed by entry count and snapped forward to the
/// next row change, so every part owns complete rows and parallel
/// accumulation into y is race-free. The single definition of the snap rule;
/// coo_thread_ranges applies it part by part.
CooRange coo_entry_range(const sparse::Coo& a, std::size_t part,
                         std::size_t parts);

/// Split a row-sorted COO entry stream into up to `parts` row-complete,
/// disjoint ranges (balanced on entry count, boundaries snapped forward to
/// row changes). Computed once per plan; ranges stay valid as long as the
/// matrix structure does. Empty parts are dropped.
std::vector<CooRange> coo_thread_ranges(const sparse::Coo& a, int parts);

/// Per-interval partial sums for the rows a BRO-COO interval shares with its
/// neighbours; sized to intervals().size() and merged sequentially.
struct BroCooCarry {
  index_t first_row = 0, last_row = 0;
  value_t first_sum = 0, last_sum = 0;
};

/// Widths 0..kMaxSpecializedDecodeWidth get a compile-time-specialized
/// decode kernel; wider (rare: deltas above 16M) fall back to the generic
/// decoder.
inline constexpr int kMaxSpecializedDecodeWidth = 24;

/// The decode-kernel choice for one BRO-ELL slice: the uniform bit width
/// (-1 when the slice mixes widths; for scalar dispatch that selects the
/// generic decoder), the SpMV/SpMM slice kernels to run, and the ISA the
/// kernels were compiled for (SIMD kernels take the width at run time, so
/// one kernel per ISA covers the whole table). Selected once per slice at
/// plan build time; both function pointers are always non-null.
struct BroEllKernel {
  int width = -1;
  void (*spmv)(const core::BroEll& a, const core::BroEllSlice& slice,
               std::span<const value_t> x, std::span<value_t> y) = nullptr;
  void (*spmm)(const core::BroEll& a, const core::BroEllSlice& slice,
               std::span<const value_t> x, std::span<value_t> y,
               int k) = nullptr;
  SimdIsa isa = SimdIsa::kScalar;
};

/// The decode-kernel choice for one BRO-COO interval (intervals always have
/// a single bit width, so only widths above kMaxSpecializedDecodeWidth use
/// the generic decoder). The interval kernels decode every lane, write
/// interior rows straight into y and report the boundary-row partial sums
/// through the carry (SpMM: through first_sum/last_sum, k values each).
struct BroCooKernel {
  int width = -1;
  void (*spmv)(const core::BroCoo& a, std::size_t interval,
               std::span<const value_t> x, std::span<value_t> y,
               BroCooCarry& carry) = nullptr;
  void (*spmm)(const core::BroCoo& a, std::size_t interval,
               std::span<const value_t> x, std::span<value_t> y, int k,
               BroCooCarry& carry, value_t* first_sum,
               value_t* last_sum) = nullptr;
  SimdIsa isa = SimdIsa::kScalar;
};

/// The decode-kernel choice for a BRO-ANS matrix. Entropy-coded streams
/// have no compile-time width to specialize on (the per-symbol bit count is
/// state-dependent), so the choice is only scalar-vs-SIMD and is made once
/// per matrix: every slice runs the same kernel.
struct BroAnsKernel {
  void (*spmv)(const core::BroAns& a, const core::BroAnsSlice& slice,
               std::span<const value_t> x, std::span<value_t> y) = nullptr;
  SimdIsa isa = SimdIsa::kScalar;
};

/// Host kernels decode 32-bit symbols only: sym_len 64 is a simulator and
/// file-format setting. Kernel selection for a representation and every BRO
/// driver below call this first, so planning or running a 64-bit
/// representation throws std::runtime_error naming sym_len before any
/// kernel reads the stream's (empty) 32-bit slot array.
void check_host_sym_len(int sym_len);

/// Per-slice / per-interval kernel selection (the plan-time step) at `isa`.
/// The returned vectors are index-aligned with slices() / intervals().
/// Execute paths pass active_simd_isa(), so the BRO_SIMD override and host
/// capability are folded in exactly once, at plan time; execute() runs
/// whatever the table says with no further branching.
std::vector<BroEllKernel> plan_bro_ell_kernels(const core::BroEll& a,
                                               SimdIsa isa);
std::vector<BroCooKernel> plan_bro_coo_kernels(const core::BroCoo& a,
                                               SimdIsa isa);

/// BRO-ANS kernel selection for `a` at `isa`: the ISA's SimdKernels entry
/// when it has one, else the scalar multi-chain kernel.
BroAnsKernel select_bro_ans_kernel(const core::BroAns& a, SimdIsa isa);

/// The generic variable-width kernels as a dispatch entry (width -1), and
/// the single-chain sequential BRO-ANS decoder: the bitwise-parity
/// baselines the specialized, multi-chain and SIMD kernels are fuzzed
/// against. Run them through the same drivers as the plan's choices (a
/// table of n copies for BRO-ELL / BRO-COO).
BroEllKernel generic_bro_ell_kernel();
BroCooKernel generic_bro_coo_kernel();
BroAnsKernel generic_bro_ans_kernel();

// The drivers: one OpenMP driver per format, running the kernel choice the
// plan made. Every x/y span must match the matrix shape exactly.

void native_spmv_csr(const sparse::Csr& a, std::span<const value_t> x,
                     std::span<value_t> y);

void native_spmv_ell(const sparse::Ell& a, std::span<const value_t> x,
                     std::span<value_t> y);

void native_spmv_ellr(const sparse::EllR& a, std::span<const value_t> x,
                      std::span<value_t> y);

/// COO over pre-computed row-complete ranges (see coo_thread_ranges): the
/// split is computed once per plan, not per call.
void native_spmv_coo(const sparse::Coo& a, std::span<const CooRange> ranges,
                     std::span<const value_t> x, std::span<value_t> y);

/// HYB with the COO overflow accumulated in parallel over pre-computed
/// row-complete ranges: row-complete chunks touch disjoint y entries, so
/// the overflow does not serialize on skewed matrices.
void native_spmv_hyb(const sparse::Hyb& a, std::span<const CooRange> ranges,
                     std::span<const value_t> x, std::span<value_t> y);

/// BRO-ELL over per-slice kernel choices (aligned with slices()).
void native_spmv_bro_ell(const core::BroEll& a,
                         std::span<const BroEllKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y);

/// BRO-COO over per-interval kernel choices (aligned with intervals()) with
/// caller-owned carry scratch (>= intervals().size() entries).
void native_spmv_bro_coo(const core::BroCoo& a,
                         std::span<const BroCooKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         std::span<BroCooCarry> carries);

/// BRO-HYB over kernel choices for both halves. Caller-owned scratch:
/// y_coo (>= y.size()) holds the COO half's partial result, carries covers
/// the COO half's intervals; neither is touched when the COO half is empty.
void native_spmv_bro_hyb(const core::BroHyb& a,
                         std::span<const BroEllKernel> ell_kernels,
                         std::span<const BroCooKernel> coo_kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         std::span<value_t> y_coo,
                         std::span<BroCooCarry> carries);

/// BRO-ANS with one kernel for every slice.
void native_spmv_bro_ans(const core::BroAns& a, const BroAnsKernel& kernel,
                         std::span<const value_t> x, std::span<value_t> y);

} // namespace bro::kernels
