// BRO-COO: bit-representation-optimized COO (paper §3.2, Fig. 2).
//
// Only the row-index array is compressed. The nnz stream is divided into
// intervals of warp_size * interval_cols entries; each interval is viewed as
// a warp_size-wide 2-D array in which lane j owns entries
// base + c*warp_size + j, so the row index increases monotonically down each
// lane ("the vertical direction"). Lane sequences are delta-encoded against
// the interval's starting row, packed with a single bit width per interval,
// and multiplexed exactly like BRO-ELL row streams.
//
// The trailing partial interval is padded with copies of the last coordinate
// carrying value 0 (a harmless fused multiply-add during SpMV).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "bits/mux.h"
#include "sparse/coo.h"

namespace bro::core {

struct BroCooOptions {
  int warp_size = 32;     // lanes per interval (GPU warp width)
  int interval_cols = 64; // entries per lane; interval = warp_size * this
  int sym_len = 32;
};

struct BroCooInterval {
  index_t start_row = 0; // row index of the interval's first entry
  int bits = 1;          // single bit width used for every delta
  bits::MuxedStream stream;
};

/// Decode the row index of every entry the intervals hold, padding
/// included, in stream order (interval i, lane j, position c -> entry
/// i*warp_size*interval_cols + c*warp_size + j), one interval per task of
/// a parallel loop (util::parallel_for_slices). Throws std::runtime_error
/// when a decoded row falls outside [0, rows), a lane overruns its stream,
/// or an interval's stream is not warp_size lanes wide or its bit width
/// outside [1, 32], so a corrupt interval cannot index past the caller's
/// arrays.
util::UninitVector<index_t> decode_coo_rows(
    std::span<const BroCooInterval> intervals, const BroCooOptions& opts,
    index_t rows);

class BroCoo {
 public:
  /// Offline compression. Requires canonical (row-sorted) COO. Takes the
  /// COO by value: a caller that gives it up with std::move hands its
  /// arrays over without a copy.
  static BroCoo compress(sparse::Coo coo, BroCooOptions opts = {});

  /// Entries after padding `nnz` to a whole number of intervals: the
  /// length of col_idx() and vals(). A caller that reserves this much
  /// lets compress pad the moved-in arrays in place.
  static std::size_t padded_length(std::size_t nnz, const BroCooOptions& opts);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t nnz() const { return nnz_; }                 // real entries
  std::size_t padded_nnz() const { return col_idx_.size(); } // incl. padding
  const BroCooOptions& options() const { return opts_; }
  const std::vector<BroCooInterval>& intervals() const { return intervals_; }
  const util::UninitVector<index_t>& col_idx() const { return col_idx_; }
  const util::UninitVector<value_t>& vals() const { return vals_; }

  /// Decode all row indices (testing path); returns padded_nnz entries in
  /// stream order.
  util::UninitVector<index_t> decode_rows() const;

  /// y += A * x (accumulating, matching the GPU kernel's semantics where the
  /// COO part runs after the ELL part in HYB). Callers wanting y = A*x must
  /// zero y first.
  void spmv_accumulate(std::span<const value_t> x, std::span<value_t> y) const;

  /// Compressed bytes of the row-index data (streams + per-interval header).
  std::size_t compressed_row_bytes() const;

  /// Actual heap bytes of the row-index data as stored. Coincides with
  /// compressed_row_bytes() now that MuxedStream packs symbols at their
  /// true width; feeds the plan's representation-byte accounting.
  std::size_t resident_row_bytes() const;

  /// Original row-index bytes (nnz * 4, unpadded).
  std::size_t original_row_bytes() const { return nnz_ * sizeof(index_t); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::size_t nnz_ = 0;
  BroCooOptions opts_;
  std::vector<BroCooInterval> intervals_;
  util::UninitVector<index_t> col_idx_; // uncompressed, padded
  util::UninitVector<value_t> vals_;    // uncompressed, padded
};

} // namespace bro::core
