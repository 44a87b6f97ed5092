// BRO-BCSR decode kernels: one bit-unpacked block index feeds r*c FMAs.
//
// The scalar kernels are shape-templated (one instantiation per candidate
// block shape, a runtime-shape generic fallback) over both symbol lengths.
// The SSE4/AVX2 kernels vectorize the VALUE loop — the part no other BRO
// format can vectorize: a block's tile is contiguous, and because every
// candidate block width divides 8 the block's columns land in one aligned
// lane group of the 8-lane accumulator (core/bro_bcsr.h), so the vector
// slots ARE the contract's lanes. Index decode stays scalar: it is 1/(r*c)
// of the symbol traffic of BRO-ELL and no longer the bottleneck.
//
// Bitwise contract: every kernel here — scalar, SIMD, SpMM column j —
// performs, per output element, exactly the multiply/add/reduce sequence of
// core::BroBcsr::spmv. The differential fuzzer compares them with no
// tolerance.
//
// The SIMD kernels are the bcsr_* entries of each ISA's SimdKernels table
// (bro_decode_simd.h), compiled from bro_bcsr_decode_simd_impl.h into the
// per-ISA TUs.
#pragma once

#include <span>
#include <vector>

#include "core/bro_bcsr.h"
#include "kernels/cpu_features.h"

namespace bro::kernels {

/// The kernel choice for one BRO-BCSR slice. Kernels take the parent matrix
/// plus a slice index (the slice's value-tile base lives in the parent).
/// Both pointers are always non-null after selection.
struct BroBcsrKernel {
  void (*spmv)(const core::BroBcsr& a, std::size_t slice_index,
               std::span<const value_t> x, std::span<value_t> y) = nullptr;
  void (*spmm)(const core::BroBcsr& a, std::size_t slice_index,
               std::span<const value_t> x, std::span<value_t> y,
               int k) = nullptr;
  SimdIsa isa = SimdIsa::kScalar;
};

/// Index of (br, bc) in kBcsrCandidateShapes, or -1 for other shapes.
int bcsr_shape_index(int br, int bc);

/// Per-slice kernel selection (all slices of one matrix share shape and
/// sym_len, so every entry is identical; the table keeps plan symmetry with
/// the other BRO formats). A shape with a SIMD entry at `isa` gets it for
/// SpMV; SpMM stays on the scalar kernels.
std::vector<BroBcsrKernel> plan_bro_bcsr_kernels(const core::BroBcsr& a,
                                                 SimdIsa isa);
BroBcsrKernel select_bro_bcsr_kernel(const core::BroBcsr& a, SimdIsa isa);

/// The runtime-shape scalar kernels as a dispatch entry: the bitwise-parity
/// baseline of the differential decode checks.
BroBcsrKernel generic_bro_bcsr_kernel(int sym_len);

/// BRO-BCSR SpMV with inline kernel selection (table-free convenience).
void native_spmv_bro_bcsr(const core::BroBcsr& a, std::span<const value_t> x,
                          std::span<value_t> y);

/// BRO-BCSR over plan-time kernel choices (aligned with slices()): the
/// branch- and allocation-free plan path.
void native_spmv_bro_bcsr(const core::BroBcsr& a,
                          std::span<const BroBcsrKernel> kernels,
                          std::span<const value_t> x, std::span<value_t> y);

/// BRO-BCSR forced through the runtime-shape generic kernel for every slice.
void native_spmv_bro_bcsr_generic(const core::BroBcsr& a,
                                  std::span<const value_t> x,
                                  std::span<value_t> y);

/// Y = A * X for k interleaved right-hand sides (layout as native_spmm.h:
/// X[c*k + j], Y[r*k + j]); column j is bitwise equal to a single-vector
/// spmv against column j.
void native_spmm_bro_bcsr(const core::BroBcsr& a, std::span<const value_t> x,
                          std::span<value_t> y, int k);

void native_spmm_bro_bcsr(const core::BroBcsr& a,
                          std::span<const BroBcsrKernel> kernels,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k);

} // namespace bro::kernels
