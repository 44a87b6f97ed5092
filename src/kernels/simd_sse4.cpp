// The SSE4.2 SimdKernels table: BRO-ELL/COO lockstep decode (4 x u32 /
// 2 x u64 lanes — the portable x86-64 tier below AVX2) and BRO-BCSR
// value-loop kernels (2 x f64 lanes). It carries no BRO-ANS entry: without
// gathers or per-lane variable shifts a tANS chain has nothing to
// vectorize, and the wider scalar interleave measured no faster than the
// baseline 4-chain kernel, which SSE4 hosts therefore run. Compiled with
// -msse4.2 -ffp-contract=off when the toolchain supports it (see
// src/kernels/CMakeLists.txt); collapses to a stub exporting a null table
// otherwise, so non-x86 builds link unchanged.
//
// Each impl header is included under its own BRO_SIMD_NS, so their internal
// helpers (each keeps local copies of the scalar decoders) cannot collide.
#include "kernels/bro_decode_simd.h"

#if defined(__SSE4_2__)

#define BRO_SIMD_NS simd_sse4
#include "kernels/bro_decode_simd_impl.h"
#undef BRO_SIMD_NS
#define BRO_SIMD_NS bcsr_sse4
#include "kernels/bro_bcsr_decode_simd_impl.h"
#undef BRO_SIMD_NS

namespace bro::kernels::detail {
namespace {
constexpr SimdKernels kSse4 = [] {
  SimdKernels t;
  t.isa = SimdIsa::kSse4;
  simd_sse4::add_kernels(t);
  bcsr_sse4::add_kernels(t);
  return t;
}();
} // namespace
const SimdKernels* const kSimdKernelsSse4 = &kSse4;
} // namespace bro::kernels::detail

#else

namespace bro::kernels::detail {
const SimdKernels* const kSimdKernelsSse4 = nullptr;
} // namespace bro::kernels::detail

#endif
