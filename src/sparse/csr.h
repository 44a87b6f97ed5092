// Compressed Sparse Row storage. CSR is the library's canonical in-memory
// format: all conversions and the reference SpMV go through it.
#pragma once

#include <span>

#include "util/types.h"
#include "util/uninit.h"

namespace bro::sparse {

struct Csr {
  index_t rows = 0;
  index_t cols = 0;
  util::UninitVector<index_t> row_ptr; // length rows+1
  util::UninitVector<index_t> col_idx; // length nnz, sorted within each row
  util::UninitVector<value_t> vals;    // length nnz

  std::size_t nnz() const { return vals.size(); }

  index_t row_length(index_t r) const { return row_ptr[r + 1] - row_ptr[r]; }

  std::span<const index_t> row_cols(index_t r) const {
    return {col_idx.data() + row_ptr[r],
            static_cast<std::size_t>(row_length(r))};
  }

  std::span<const value_t> row_vals(index_t r) const {
    return {vals.data() + row_ptr[r], static_cast<std::size_t>(row_length(r))};
  }

  /// Structural validity: monotone row_ptr, in-range sorted column indices.
  bool is_valid() const;

  /// Maximum row length (the ELLPACK width k).
  index_t max_row_length() const;
};

/// Sort one row's entries by column and sum the entries that share a
/// column. The sort is stable, so duplicates are summed in arrival order
/// and the result is deterministic. Returns the row's new length; the
/// arrays past it hold leftovers. This is the one canonicalization rule
/// behind Coo::canonicalize, coo_to_csr and the .bro ingest path.
std::size_t canonicalize_row(index_t* cols, value_t* vals, std::size_t n);

/// Builds a canonical CSR one row at a time: push() a row's entries in any
/// order, then end_row(), which canonicalizes the row in place when its
/// columns are not strictly increasing. Callers keep every column inside
/// [0, cols).
class CsrBuilder {
 public:
  CsrBuilder(index_t rows, index_t cols, std::size_t nnz_hint = 0);

  void push(index_t col, value_t v) {
    out_.col_idx.push_back(col);
    out_.vals.push_back(v);
  }
  void end_row();

  /// The finished matrix; throws unless exactly `rows` rows were ended.
  Csr finish();

 private:
  Csr out_;
};

/// y = A * x (sequential reference used as ground truth by every test).
void spmv_csr_reference(const Csr& a, std::span<const value_t> x,
                        std::span<value_t> y);

} // namespace bro::sparse
