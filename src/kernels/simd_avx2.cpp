// The AVX2 SimdKernels table: BRO-ELL/COO lockstep decode (8 x u32 / 4 x u64
// lanes), BRO-ANS 8-state vectorized tANS decode (vpgatherdd table lookups,
// branchless vector renorm) and BRO-BCSR value-loop kernels (4 x f64
// lanes). Compiled with -mavx2 -ffp-contract=off when the toolchain
// supports it (see src/kernels/CMakeLists.txt); collapses to a stub
// exporting a null table otherwise, so non-x86 builds link unchanged.
//
// Each impl header is included under its own BRO_SIMD_NS, so their internal
// helpers (each keeps local copies of the scalar decoders) cannot collide.
#include "kernels/bro_decode_simd.h"

#if defined(__AVX2__)

#define BRO_SIMD_NS simd_avx2
#include "kernels/bro_decode_simd_impl.h"
#undef BRO_SIMD_NS
#define BRO_SIMD_NS ans_avx2
#include "kernels/bro_ans_decode_simd_impl.h"
#undef BRO_SIMD_NS
#define BRO_SIMD_NS bcsr_avx2
#include "kernels/bro_bcsr_decode_simd_impl.h"
#undef BRO_SIMD_NS

namespace bro::kernels::detail {
namespace {
constexpr SimdKernels kAvx2 = [] {
  SimdKernels t;
  t.isa = SimdIsa::kAvx2;
  simd_avx2::add_kernels(t);
  ans_avx2::add_kernels(t);
  bcsr_avx2::add_kernels(t);
  return t;
}();
} // namespace
const SimdKernels* const kSimdKernelsAvx2 = &kAvx2;
} // namespace bro::kernels::detail

#else

namespace bro::kernels::detail {
const SimdKernels* const kSimdKernelsAvx2 = nullptr;
} // namespace bro::kernels::detail

#endif
