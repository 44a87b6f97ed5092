// Coordinate (COO) sparse matrix storage (paper §2.1.1).
#pragma once

#include "util/types.h"
#include "util/uninit.h"

namespace bro::sparse {

/// COO stores every non-zero as an explicit (row, col, value) triple.
/// Invariant after canonicalize(): entries are sorted by (row, col) with no
/// duplicates — the order the GPU COO kernel requires for segmented reduction.
struct Coo {
  index_t rows = 0;
  index_t cols = 0;
  util::UninitVector<index_t> row_idx;
  util::UninitVector<index_t> col_idx;
  util::UninitVector<value_t> vals;

  std::size_t nnz() const { return vals.size(); }

  void reserve(std::size_t n) {
    row_idx.reserve(n);
    col_idx.reserve(n);
    vals.reserve(n);
  }

  void push(index_t r, index_t c, value_t v) {
    row_idx.push_back(r);
    col_idx.push_back(c);
    vals.push_back(v);
  }

  /// Sort by (row, col) and sum duplicate entries in arrival order
  /// (canonicalize_row in sparse/csr.h). Drops explicit zeros only if
  /// `drop_zeros` is set. Requires is_valid().
  void canonicalize(bool drop_zeros = false);

  /// True if entries are sorted by (row, col) without duplicates.
  bool is_canonical() const;

  /// Structural validity: all indices within [0, rows) x [0, cols),
  /// array lengths consistent.
  bool is_valid() const;
};

} // namespace bro::sparse
