// BRO-HYB: hybrid BRO-ELL + BRO-COO (paper §3.3).
//
// The matrix is split with the same Bell & Garland heuristic as HYB (so the
// HYB and BRO-HYB comparisons share identical partitions, as the paper
// requires for fairness); the ELL part is compressed with BRO-ELL and the
// COO part with BRO-COO. Both parts are built straight from the CSR rows:
// no padded HYB is materialized. The ELL part reads its values from that
// CSR, which it shares (core/bro_ell.h); the COO part owns the overflow.
#pragma once

#include <iosfwd>
#include <memory>

#include "core/bro_coo.h"
#include "core/bro_ell.h"
#include "sparse/csr.h"
#include "sparse/hyb.h"

namespace bro::core {

struct BroHybOptions {
  BroEllOptions ell;
  BroCooOptions coo;
  index_t width_override = -1; // force the ELL width; -1 = use the heuristic
};

class BroHyb {
 public:
  /// Compression from CSR rows; the ELL part shares ownership of `csr`.
  static BroHyb compress(std::shared_ptr<const sparse::Csr> csr,
                         BroHybOptions opts = {});
  /// Adapter for callers without a shared CSR: the result owns `csr`.
  static BroHyb compress(sparse::Csr csr, BroHybOptions opts = {});

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  const BroEll& ell_part() const { return ell_; }
  const BroCoo& coo_part() const { return coo_; }
  index_t split_width() const { return split_width_; }

  /// Fraction of non-zeros stored in the BRO-ELL part (Table 4 column 1).
  double ell_fraction() const;

  std::size_t ell_nnz() const { return ell_nnz_; }
  std::size_t total_nnz() const { return ell_nnz_ + coo_.nnz(); }

  /// y = A * x.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// Compressed index bytes: BRO-ELL streams + BRO-COO row streams + the
  /// COO part's uncompressed column indices.
  std::size_t compressed_index_bytes() const;

  /// Actual heap bytes of the index data as stored (see
  /// BroEll::resident_index_bytes / BroCoo::resident_row_bytes).
  std::size_t resident_index_bytes() const;

  /// Uncompressed HYB index bytes: ELL col_idx + COO row_idx + COO col_idx.
  std::size_t original_index_bytes() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t split_width_ = 0;
  std::size_t ell_nnz_ = 0;
  BroEll ell_;
  BroCoo coo_;
};

} // namespace bro::core
