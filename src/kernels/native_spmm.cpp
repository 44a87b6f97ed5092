#include "kernels/native_spmm.h"

#include <algorithm>

#include "util/error.h"

namespace bro::kernels {

namespace {

void check_spmm_shapes(index_t rows, index_t cols, std::span<const value_t> x,
                       std::span<value_t> y, int k) {
  BRO_CHECK_MSG(k >= 1, "SpMM batch size must be >= 1");
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols) *
                            static_cast<std::size_t>(k));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(k));
}

} // namespace

void native_spmm_csr(const sparse::Csr& a, std::span<const value_t> x,
                     std::span<value_t> y, int k) {
  check_spmm_shapes(a.rows, a.cols, x, y, k);
  const std::size_t uk = static_cast<std::size_t>(k);
#pragma omp parallel for schedule(guided)
  for (index_t r = 0; r < a.rows; ++r) {
    value_t* yr = y.data() + static_cast<std::size_t>(r) * uk;
    std::fill(yr, yr + uk, value_t{0});
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const value_t v = a.vals[p];
      const value_t* xc = x.data() + static_cast<std::size_t>(a.col_idx[p]) * uk;
      for (std::size_t j = 0; j < uk; ++j) yr[j] += v * xc[j];
    }
  }
}

void native_spmm_ell(const sparse::Ell& a, std::span<const value_t> x,
                     std::span<value_t> y, int k) {
  check_spmm_shapes(a.rows, a.cols, x, y, k);
  const std::size_t uk = static_cast<std::size_t>(k);
#pragma omp parallel for schedule(static)
  for (index_t r = 0; r < a.rows; ++r) {
    value_t* yr = y.data() + static_cast<std::size_t>(r) * uk;
    std::fill(yr, yr + uk, value_t{0});
    for (index_t j = 0; j < a.width; ++j) {
      const index_t c = a.col_at(r, j);
      if (c == sparse::kPad) break; // rows are left-packed
      const value_t v = a.val_at(r, j);
      const value_t* xc = x.data() + static_cast<std::size_t>(c) * uk;
      for (std::size_t b = 0; b < uk; ++b) yr[b] += v * xc[b];
    }
  }
}

void native_spmm_bro_ell(const core::BroEll& a,
                         std::span<const BroEllKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         int k) {
  check_spmm_shapes(a.rows(), a.cols(), x, y, k);
  check_host_sym_len(a.options().sym_len);
  const auto& slices = a.slices();
  BRO_CHECK(kernels.size() == slices.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < slices.size(); ++si)
    kernels[si].spmm(a, slices[si], x, y, k);
}

void native_spmm_bro_coo(const core::BroCoo& a,
                         std::span<const BroCooKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         int k, std::span<BroCooCarry> carries,
                         std::span<value_t> carry_sums) {
  check_spmm_shapes(a.rows(), a.cols(), x, y, k);
  check_host_sym_len(a.options().sym_len);
  const auto& intervals = a.intervals();
  BRO_CHECK(kernels.size() == intervals.size());
  std::fill(y.begin(), y.end(), value_t{0});
  if (intervals.empty()) return;
  const std::size_t uk = static_cast<std::size_t>(k);
  BRO_CHECK(carries.size() >= intervals.size());
  BRO_CHECK(carry_sums.size() >= intervals.size() * 2 * uk);

  // The single-vector driver's carry discipline (native_spmv.cpp), k sums
  // per boundary row.
#pragma omp parallel for schedule(dynamic, 4)
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    value_t* first_sum = carry_sums.data() + i * 2 * uk;
    kernels[i].spmm(a, i, x, y, k, carries[i], first_sum, first_sum + uk);
  }

  // Sequential carry resolution, in interval order as the single-vector
  // driver does it.
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const BroCooCarry& c = carries[i];
    const value_t* first_sum = carry_sums.data() + i * 2 * uk;
    const value_t* last_sum = first_sum + uk;
    value_t* yf = y.data() + static_cast<std::size_t>(c.first_row) * uk;
    for (std::size_t b = 0; b < uk; ++b) yf[b] += first_sum[b];
    if (c.last_row != c.first_row) {
      value_t* yl = y.data() + static_cast<std::size_t>(c.last_row) * uk;
      for (std::size_t b = 0; b < uk; ++b) yl[b] += last_sum[b];
    }
  }
}

} // namespace bro::kernels
