#include "core/bro_hyb.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "sparse/convert.h"
#include "util/error.h"
#include "util/parallel.h"

namespace bro::core {

BroHyb BroHyb::compress(std::shared_ptr<const sparse::Csr> shared,
                        BroHybOptions opts) {
  BRO_CHECK_MSG(shared != nullptr, "BRO-HYB needs a source CSR");
  const sparse::Csr& csr = *shared;
  const index_t k = opts.width_override >= 0
                        ? opts.width_override
                        : sparse::hyb_split_width(sparse::row_lengths(csr));

  // The ELL part packs straight from the CSR rows; only the overflow
  // entries (beyond column k of a row) are gathered, in canonical order,
  // into arrays of BRO-COO's padded length so it pads them in place. The
  // gather runs over 256-row tiles: count each tile's overflow, scan the
  // counts into tile offsets, then fill each tile's range in row order.
  constexpr index_t kTileRows = 256;
  const index_t tiles = (csr.rows + kTileRows - 1) / kTileRows;
  const auto tile_end = [&](index_t t) {
    return std::min(csr.rows, (t + 1) * kTileRows);
  };
  const auto overflow_begin = [&](index_t r) {
    return csr.row_ptr[r] + std::min(k, csr.row_length(r));
  };
  std::vector<std::size_t> offset(static_cast<std::size_t>(tiles) + 1, 0);
  util::parallel_for_slices(tiles, [&](index_t t) {
    std::size_t n = 0;
    for (index_t r = t * kTileRows; r < tile_end(t); ++r)
      n += static_cast<std::size_t>(csr.row_ptr[r + 1] - overflow_begin(r));
    offset[static_cast<std::size_t>(t) + 1] = n;
  });
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  const std::size_t overflow_nnz = offset.back();

  sparse::Coo overflow;
  overflow.rows = csr.rows;
  overflow.cols = csr.cols;
  overflow.reserve(BroCoo::padded_length(overflow_nnz, opts.coo));
  overflow.row_idx.resize(overflow_nnz);
  overflow.col_idx.resize(overflow_nnz);
  overflow.vals.resize(overflow_nnz);
  util::parallel_for_slices(tiles, [&](index_t t) {
    std::size_t e = offset[static_cast<std::size_t>(t)];
    for (index_t r = t * kTileRows; r < tile_end(t); ++r)
      for (index_t p = overflow_begin(r); p < csr.row_ptr[r + 1]; ++p, ++e) {
        overflow.row_idx[e] = r;
        overflow.col_idx[e] = csr.col_idx[p];
        overflow.vals[e] = csr.vals[p];
      }
  });

  BroHyb out;
  out.rows_ = csr.rows;
  out.cols_ = csr.cols;
  out.split_width_ = k;
  out.ell_nnz_ = csr.nnz() - overflow_nnz;
  out.ell_ = BroEll::compress(std::move(shared), k, opts.ell);
  out.coo_ = BroCoo::compress(std::move(overflow), opts.coo);
  return out;
}

BroHyb BroHyb::compress(sparse::Csr csr, BroHybOptions opts) {
  return compress(std::make_shared<const sparse::Csr>(std::move(csr)), opts);
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
