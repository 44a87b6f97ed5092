// BRO-ANS kernel selection and the OpenMP-parallel slice driver (the entropy
// format's counterpart of the dispatch half of bro_decode.cpp).
#include "kernels/bro_ans_decode.h"

#include "kernels/bro_decode_simd.h"
#include "kernels/native_spmv.h"
#include "util/error.h"

namespace bro::kernels {

BroAnsKernel select_bro_ans_kernel(const core::BroAns& a, SimdIsa isa) {
  check_host_sym_len(a.options().sym_len);
  BroAnsKernel k;
  const SimdKernels* t = simd_kernels(isa);
  if (t != nullptr && t->ans_spmv != nullptr) {
    k.spmv = t->ans_spmv;
    k.isa = isa;
    return k;
  }
  k.spmv = &detail::bro_ans_slice_spmv;
  return k;
}

BroAnsKernel generic_bro_ans_kernel() {
  BroAnsKernel k;
  k.spmv = &detail::bro_ans_slice_spmv_single;
  return k;
}

void native_spmv_bro_ans(const core::BroAns& a, const BroAnsKernel& kernel,
                         std::span<const value_t> x, std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows()));
  check_host_sym_len(a.options().sym_len);
  const auto& slices = a.slices();
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < slices.size(); ++si)
    kernel.spmv(a, slices[si], x, y);
}

} // namespace bro::kernels
