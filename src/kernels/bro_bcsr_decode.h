// BRO-BCSR decode kernels: one bit-unpacked block index feeds r*c FMAs.
//
// The scalar kernels are shape-templated (one instantiation per candidate
// block shape, a runtime-shape generic fallback) over 32-bit symbols, the
// only symbol length host kernels decode.
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

#include "core/bro_bcsr.h"
#include "kernels/cpu_features.h"

namespace bro::kernels {

/// The kernel choice for a BRO-BCSR matrix. Kernels take the parent matrix
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

/// Kernel selection for `a` at `isa`, made once per matrix: every slice
/// shares the matrix's block shape, so every slice runs the same kernel. A
/// shape with a SIMD entry at `isa` gets it for SpMV; SpMM stays on the
/// scalar kernels. Throws when sym_len is not 32 (check_host_sym_len).
BroBcsrKernel select_bro_bcsr_kernel(const core::BroBcsr& a, SimdIsa isa);

/// The runtime-shape scalar kernels as a dispatch entry: the bitwise-parity
/// baseline of the differential decode checks.
BroBcsrKernel generic_bro_bcsr_kernel();

/// The OpenMP drivers: every slice runs `kernel`. SpMM uses the interleaved
/// layout of native_spmm.h (X[c*k + j], Y[r*k + j]); column j is bitwise
/// equal to a single-vector spmv against column j.
void native_spmv_bro_bcsr(const core::BroBcsr& a, const BroBcsrKernel& kernel,
                          std::span<const value_t> x, std::span<value_t> y);
void native_spmm_bro_bcsr(const core::BroBcsr& a, const BroBcsrKernel& kernel,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k);

} // namespace bro::kernels
