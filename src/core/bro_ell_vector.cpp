#include "core/bro_ell_vector.h"

#include <vector>

#include "sparse/convert.h"
#include "util/error.h"

namespace bro::core {

BroEllVector BroEllVector::compress(const sparse::Ell& ell,
                                    int threads_per_row,
                                    BroEllOptions opts) {
  BRO_CHECK_MSG(threads_per_row >= 1 && threads_per_row <= 32 &&
                    (threads_per_row & (threads_per_row - 1)) == 0,
                "threads_per_row must be a power of two in [1, 32]");
  const int t_count = threads_per_row;

  // Expand to m*T sub-rows: sub-row r*T + l holds entries l, l+T, ... of
  // row r. Column indices stay strictly increasing within each sub-row.
  const sparse::Csr src = sparse::ell_to_csr(ell);
  sparse::CsrBuilder expanded(ell.rows * t_count, ell.cols, src.nnz());
  for (index_t r = 0; r < ell.rows; ++r) {
    for (int l = 0; l < t_count; ++l) {
      for (index_t p = src.row_ptr[r] + l; p < src.row_ptr[r + 1]; p += t_count)
        expanded.push(src.col_idx[p], src.vals[p]);
      expanded.end_row();
    }
  }

  BroEllVector out;
  out.rows_ = ell.rows;
  out.threads_per_row_ = t_count;
  out.original_index_bytes_ = ell.index_bytes();
  out.inner_ = BroEll::compress(expanded.finish(),
                                (ell.width + t_count - 1) / t_count, opts);
  return out;
}

void BroEllVector::spmv(std::span<const value_t> x,
                        std::span<value_t> y) const {
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows_));
  std::vector<value_t> partial(
      static_cast<std::size_t>(rows_) * threads_per_row_);
  inner_.spmv(x, partial);
  for (index_t r = 0; r < rows_; ++r) {
    value_t sum = 0;
    for (int l = 0; l < threads_per_row_; ++l)
      sum += partial[static_cast<std::size_t>(r) * threads_per_row_ +
                     static_cast<std::size_t>(l)];
    y[static_cast<std::size_t>(r)] = sum;
  }
}

} // namespace bro::core
