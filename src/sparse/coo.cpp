#include "sparse/coo.h"

#include <algorithm>

#include "sparse/convert.h"

namespace bro::sparse {

void Coo::canonicalize(bool drop_zeros) {
  if (!drop_zeros && is_canonical()) return;
  // One canonicalization rule for the whole library: coo_to_csr buckets
  // the entries by row and applies canonicalize_row to each.
  Csr csr = coo_to_csr(std::move(*this));
  row_idx.resize(csr.nnz());
  for (index_t r = 0; r < csr.rows; ++r)
    std::fill(row_idx.begin() + csr.row_ptr[r],
              row_idx.begin() + csr.row_ptr[r + 1], r);
  col_idx = std::move(csr.col_idx);
  vals = std::move(csr.vals);

  if (drop_zeros) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (vals[i] != value_t{0}) {
        row_idx[w] = row_idx[i];
        col_idx[w] = col_idx[i];
        vals[w] = vals[i];
        ++w;
      }
    }
    row_idx.resize(w);
    col_idx.resize(w);
    vals.resize(w);
  }
}

bool Coo::is_canonical() const {
  for (std::size_t i = 1; i < nnz(); ++i) {
    if (row_idx[i] < row_idx[i - 1]) return false;
    if (row_idx[i] == row_idx[i - 1] && col_idx[i] <= col_idx[i - 1])
      return false;
  }
  return true;
}

bool Coo::is_valid() const {
  if (row_idx.size() != vals.size() || col_idx.size() != vals.size())
    return false;
  for (std::size_t i = 0; i < nnz(); ++i) {
    if (row_idx[i] < 0 || row_idx[i] >= rows) return false;
    if (col_idx[i] < 0 || col_idx[i] >= cols) return false;
  }
  return true;
}

} // namespace bro::sparse
