#include "kernels/native_spmv.h"

#include <algorithm>
#include <vector>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "util/error.h"

namespace bro::kernels {

CooRange coo_entry_range(const sparse::Coo& a, std::size_t part,
                         std::size_t parts) {
  const std::size_t n = a.nnz();
  if (n == 0 || parts == 0 || part >= parts) return {};
  const auto snap = [&](std::size_t i) {
    while (i > 0 && i < n && a.row_idx[i] == a.row_idx[i - 1]) ++i;
    return std::min(i, n);
  };
  return {snap(n * part / parts), snap(n * (part + 1) / parts)};
}

std::vector<CooRange> coo_thread_ranges(const sparse::Coo& a, int parts) {
  std::vector<CooRange> ranges;
  if (a.nnz() == 0 || parts < 1) return ranges;
  ranges.reserve(static_cast<std::size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    const CooRange r = coo_entry_range(a, static_cast<std::size_t>(p),
                                       static_cast<std::size_t>(parts));
    if (r.lo < r.hi) ranges.push_back(r);
  }
  return ranges;
}

namespace {

/// Accumulate one row-complete chunk of a COO entry stream onto y.
void accumulate_coo_range(const sparse::Coo& a, const CooRange& r,
                          std::span<const value_t> x, std::span<value_t> y) {
  for (std::size_t i = r.lo; i < r.hi; ++i)
    y[static_cast<std::size_t>(a.row_idx[i])] +=
        a.vals[i] * x[static_cast<std::size_t>(a.col_idx[i])];
}

} // namespace

void native_spmv_csr(const sparse::Csr& a, std::span<const value_t> x,
                     std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows));
#pragma omp parallel for schedule(guided)
  for (index_t r = 0; r < a.rows; ++r) {
    value_t sum = 0;
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p)
      sum += a.vals[p] * x[static_cast<std::size_t>(a.col_idx[p])];
    y[static_cast<std::size_t>(r)] = sum;
  }
}

void native_spmv_ell(const sparse::Ell& a, std::span<const value_t> x,
                     std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows));
#pragma omp parallel for schedule(static)
  for (index_t r = 0; r < a.rows; ++r) {
    value_t sum = 0;
    for (index_t j = 0; j < a.width; ++j) {
      const index_t c = a.col_at(r, j);
      if (c == sparse::kPad) break; // rows are left-packed
      sum += a.val_at(r, j) * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

void native_spmv_ellr(const sparse::EllR& a, std::span<const value_t> x,
                      std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.ell.cols));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.ell.rows));
#pragma omp parallel for schedule(static)
  for (index_t r = 0; r < a.ell.rows; ++r) {
    value_t sum = 0;
    const index_t len = a.row_length[static_cast<std::size_t>(r)];
    for (index_t j = 0; j < len; ++j)
      sum += a.ell.val_at(r, j) *
             x[static_cast<std::size_t>(a.ell.col_at(r, j))];
    y[static_cast<std::size_t>(r)] = sum;
  }
}

void native_spmv_coo(const sparse::Coo& a, std::span<const CooRange> ranges,
                     std::span<const value_t> x, std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  std::fill(y.begin(), y.end(), value_t{0});
  // Ranges are row-complete and disjoint, so chunks write race-free
  // regardless of how many threads the runtime actually provides.
#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < ranges.size(); ++p)
    accumulate_coo_range(a, ranges[p], x, y);
}

void native_spmv_hyb(const sparse::Hyb& a, std::span<const CooRange> ranges,
                     std::span<const value_t> x, std::span<value_t> y) {
  native_spmv_ell(a.ell, x, y);
#pragma omp parallel for schedule(static)
  for (std::size_t p = 0; p < ranges.size(); ++p)
    accumulate_coo_range(a.coo, ranges[p], x, y);
}

void native_spmv_bro_ell(const core::BroEll& a,
                         std::span<const BroEllKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows()));
  check_host_sym_len(a.options().sym_len);
  const auto& slices = a.slices();
  BRO_CHECK(kernels.size() == slices.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < slices.size(); ++si)
    kernels[si].spmv(a, slices[si], x, y);
}

void native_spmv_bro_coo(const core::BroCoo& a,
                         std::span<const BroCooKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         std::span<BroCooCarry> carries) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows()));
  check_host_sym_len(a.options().sym_len);
  const auto& intervals = a.intervals();
  BRO_CHECK(kernels.size() == intervals.size());
  std::fill(y.begin(), y.end(), value_t{0});
  if (intervals.empty()) return;
  BRO_CHECK(carries.size() >= intervals.size());

  // One interval kernel per interval: interior rows are written directly,
  // boundary rows into carries. The carries are then merged sequentially
  // (tiny: two sums per interval) — interval-boundary rows may be shared
  // with the neighbouring interval, so they cannot be written concurrently.
#pragma omp parallel for schedule(dynamic, 4)
  for (std::size_t i = 0; i < intervals.size(); ++i)
    kernels[i].spmv(a, i, x, y, carries[i]);

  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const BroCooCarry& c = carries[i];
    y[static_cast<std::size_t>(c.first_row)] += c.first_sum;
    if (c.last_row != c.first_row)
      y[static_cast<std::size_t>(c.last_row)] += c.last_sum;
  }
}

void native_spmv_bro_hyb(const core::BroHyb& a,
                         std::span<const BroEllKernel> ell_kernels,
                         std::span<const BroCooKernel> coo_kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         std::span<value_t> y_coo,
                         std::span<BroCooCarry> carries) {
  native_spmv_bro_ell(a.ell_part(), ell_kernels, x, y);
  if (a.coo_part().nnz() > 0) {
    BRO_CHECK(y_coo.size() >= y.size());
    native_spmv_bro_coo(a.coo_part(), coo_kernels, x, y_coo.first(y.size()),
                        carries);
    for (std::size_t i = 0; i < y.size(); ++i) y[i] += y_coo[i];
  }
}

} // namespace bro::kernels
