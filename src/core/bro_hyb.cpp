#include "core/bro_hyb.h"

#include <algorithm>
#include <utility>

#include "sparse/convert.h"
#include "util/error.h"

namespace bro::core {

BroHyb BroHyb::compress(const sparse::Csr& csr, BroHybOptions opts) {
  const index_t k = opts.width_override >= 0
                        ? opts.width_override
                        : sparse::hyb_split_width(sparse::row_lengths(csr));

  // The ELL part packs straight from the CSR rows; only the overflow
  // entries (beyond column k of a row) are gathered, in canonical order,
  // into arrays of BRO-COO's padded length so it pads them in place.
  std::size_t overflow_nnz = 0;
  for (index_t r = 0; r < csr.rows; ++r)
    overflow_nnz += static_cast<std::size_t>(
        std::max<index_t>(csr.row_length(r) - k, 0));
  const std::size_t capacity = BroCoo::padded_length(overflow_nnz, opts.coo);
  sparse::Coo overflow;
  overflow.rows = csr.rows;
  overflow.cols = csr.cols;
  overflow.reserve(capacity);
  for (index_t r = 0; r < csr.rows; ++r)
    for (index_t p = csr.row_ptr[r] + std::min(k, csr.row_length(r));
         p < csr.row_ptr[r + 1]; ++p)
      overflow.push(r, csr.col_idx[p], csr.vals[p]);

  BroHyb out;
  out.rows_ = csr.rows;
  out.cols_ = csr.cols;
  out.split_width_ = k;
  out.ell_nnz_ = csr.nnz() - overflow.nnz();
  out.ell_ = BroEll::compress(csr, k, opts.ell);
  out.coo_ = BroCoo::compress(std::move(overflow), opts.coo);
  return out;
}

double BroHyb::ell_fraction() const {
  const std::size_t total = ell_nnz_ + coo_.nnz();
  if (total == 0) return 1.0;
  return static_cast<double>(ell_nnz_) / static_cast<double>(total);
}

void BroHyb::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  ell_.spmv(x, y); // writes y
  if (coo_.nnz() > 0) coo_.spmv_accumulate(x, y);
}

std::size_t BroHyb::compressed_index_bytes() const {
  return ell_.compressed_index_bytes() + coo_.compressed_row_bytes() +
         coo_.nnz() * sizeof(index_t); // COO col_idx stays uncompressed
}

std::size_t BroHyb::resident_index_bytes() const {
  return ell_.resident_index_bytes() + coo_.resident_row_bytes() +
         coo_.padded_nnz() * sizeof(index_t);
}

std::size_t BroHyb::original_index_bytes() const {
  return ell_.original_index_bytes() + 2 * coo_.nnz() * sizeof(index_t);
}

} // namespace bro::core
