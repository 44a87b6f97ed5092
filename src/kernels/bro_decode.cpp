// Dispatch tables over the width-templated BRO decode kernels
// (bro_decode.h) and the per-slice / per-interval selection rules.
//
// ISA layering: the scalar tables below are always present and are what
// generic_bro_*_kernel exposes as the parity baseline. When the requested
// ISA has a compiled-in SimdKernels table (bro_decode_simd.h), selection
// returns that table's runtime-width kernel instead — for specialized AND
// mixed-width slices alike, since the vector shift count is a register
// operand. The width field keeps its informational meaning (uniform width
// or -1) either way, so selection-rule tests and diagnostics are
// ISA-independent.
#include <array>
#include <utility>

#include "kernels/bro_decode.h"
#include "kernels/bro_decode_simd.h"
#include "kernels/native_spmv.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

using detail::kGenericWidth;

// One specialized entry per width 0..kMaxSpecializedDecodeWidth, built at
// compile time from the templates in bro_decode.h.
template <std::size_t... Ws>
constexpr auto ell_table(std::index_sequence<Ws...>) {
  return std::array<BroEllKernel, sizeof...(Ws)>{
      BroEllKernel{static_cast<int>(Ws),
                   &detail::bro_ell_slice_spmv<static_cast<int>(Ws)>,
                   &detail::bro_ell_slice_spmm<static_cast<int>(Ws)>}...};
}

template <std::size_t... Ws>
constexpr auto coo_table(std::index_sequence<Ws...>) {
  return std::array<BroCooKernel, sizeof...(Ws)>{
      BroCooKernel{static_cast<int>(Ws),
                   &detail::bro_coo_interval_spmv<static_cast<int>(Ws)>,
                   &detail::bro_coo_interval_spmm<static_cast<int>(Ws)>}...};
}

using Widths = std::make_index_sequence<kMaxSpecializedDecodeWidth + 1>;

constexpr auto kEll = ell_table(Widths{});
constexpr auto kCoo = coo_table(Widths{});

constexpr BroEllKernel kEllGeneric{
    kGenericWidth, &detail::bro_ell_slice_spmv<kGenericWidth>,
    &detail::bro_ell_slice_spmm<kGenericWidth>};
constexpr BroCooKernel kCooGeneric{
    kGenericWidth, &detail::bro_coo_interval_spmv<kGenericWidth>,
    &detail::bro_coo_interval_spmm<kGenericWidth>};

/// The uniform width of a slice's bit allocation, or kGenericWidth when the
/// slice mixes widths (pre-BAR slices with ragged per-column maxima).
int uniform_width(const core::BroEllSlice& slice) {
  if (slice.num_col == 0) return 0; // nothing to decode: any width works
  const int b = slice.bit_alloc[0];
  for (std::size_t c = 1; c < slice.bit_alloc.size(); ++c)
    if (slice.bit_alloc[c] != b) return kGenericWidth;
  return b;
}

/// One slice's choice: the ISA's runtime-width SIMD kernel when it has a
/// table, else the specialized scalar kernel for a uniform width up to
/// kMaxSpecializedDecodeWidth, else the generic decoder.
BroEllKernel select_bro_ell_kernel(const core::BroEllSlice& slice,
                                   SimdIsa isa) {
  const int w = uniform_width(slice);
  if (const SimdKernels* t = simd_kernels(isa)) {
    BroEllKernel k;
    k.width = w >= 0 && w <= kMaxSpecializedDecodeWidth ? w : -1;
    k.spmv = t->ell_spmv;
    k.spmm = t->ell_spmm;
    k.isa = isa;
    return k;
  }
  if (w < 0 || w > kMaxSpecializedDecodeWidth) return kEllGeneric;
  return kEll[static_cast<std::size_t>(w)];
}

/// One interval's choice, by the same rule over its single bit width.
BroCooKernel select_bro_coo_kernel(const core::BroCooInterval& iv,
                                   SimdIsa isa) {
  if (const SimdKernels* t = simd_kernels(isa)) {
    BroCooKernel k;
    k.width =
        iv.bits >= 0 && iv.bits <= kMaxSpecializedDecodeWidth ? iv.bits : -1;
    k.spmv = t->coo_spmv;
    k.spmm = t->coo_spmm;
    k.isa = isa;
    return k;
  }
  if (iv.bits < 0 || iv.bits > kMaxSpecializedDecodeWidth) return kCooGeneric;
  return kCoo[static_cast<std::size_t>(iv.bits)];
}

} // namespace

void check_host_sym_len(int sym_len) {
  BRO_CHECK_MSG(sym_len == detail::kSym,
                "host kernels decode 32-bit symbols only; sym_len "
                    << sym_len
                    << " is a simulator and file-format setting");
}

BroEllKernel generic_bro_ell_kernel() { return kEllGeneric; }

BroCooKernel generic_bro_coo_kernel() { return kCooGeneric; }

std::vector<BroEllKernel> plan_bro_ell_kernels(const core::BroEll& a,
                                               SimdIsa isa) {
  check_host_sym_len(a.options().sym_len);
  std::vector<BroEllKernel> kernels;
  kernels.reserve(a.slices().size());
  for (const auto& slice : a.slices())
    kernels.push_back(select_bro_ell_kernel(slice, isa));
  return kernels;
}

std::vector<BroCooKernel> plan_bro_coo_kernels(const core::BroCoo& a,
                                               SimdIsa isa) {
  check_host_sym_len(a.options().sym_len);
  std::vector<BroCooKernel> kernels;
  kernels.reserve(a.intervals().size());
  for (const auto& iv : a.intervals())
    kernels.push_back(select_bro_coo_kernel(iv, isa));
  return kernels;
}

} // namespace bro::kernels
