// BRO-ELL: bit-representation-optimized ELLPACK (paper §3.1, Fig. 1).
//
// The ELLPACK col_idx array is delta-encoded row-wise (1-based gaps, 0 =
// padding sentinel), partitioned into slices of `slice_height` rows (one GPU
// thread block each), bit-packed with one bit width per slice column
// (bit_alloc), padded so sym_len divides every row stream, and finally
// multiplexed so thread t reads symbol c*h + t — a coalesced access.
//
// The values array is kept exactly as in ELLPACK (column-major m-by-k);
// BRO compresses index data only. Space savings η = 1 - C/O are therefore
// reported against the ELLPACK index array.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "bits/mux.h"
#include "sparse/ell.h"

namespace bro::core {

struct SerializeAccess;

struct BroEllOptions {
  int slice_height = 256; // h: rows per slice = GPU thread-block size
  int sym_len = 32;       // bits per load during decompression (32 or 64)
  // Floor for every column's bit width (0 = automatic). Used by the Fig. 3
  // experiment to sweep the compression ratio on a dense matrix, where all
  // deltas are 1 and any forced width decodes correctly. Columns needing
  // more bits than the floor still get what they need.
  int forced_bit_width = 0;
};

/// One compressed slice: the per-column bit allocation, the actual column
/// count (num_col), and the multiplexed symbol stream.
struct BroEllSlice {
  index_t first_row = 0;              // first matrix row of the slice
  index_t height = 0;                 // rows in this slice (<= slice_height)
  index_t num_col = 0;                // l_s: valid columns in the slice
  std::vector<std::uint8_t> bit_alloc; // b_1..b_{l_s} (pad bits tracked below)
  int pad_bits = 0;                   // b_p
  bits::MuxedStream stream;
};

class BroEll {
 public:
  /// Offline host-side compression (all Fig. 1 stages).
  static BroEll compress(const sparse::Ell& ell, BroEllOptions opts = {});

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t width() const { return width_; }
  const BroEllOptions& options() const { return opts_; }
  const std::vector<BroEllSlice>& slices() const { return slices_; }
  const std::vector<value_t>& vals() const { return vals_; }

  /// Decode the column indices of one row (testing / verification path).
  std::vector<index_t> decode_row(index_t row) const;

  /// Full decompression back to ELLPACK (round-trip testing).
  sparse::Ell decompress() const;

  /// y = A * x via the Algorithm-1 decode loop, sequentially per row.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// Compressed size of the index data: streams + bit_alloc + num_col.
  std::size_t compressed_index_bytes() const;

  /// Actual heap bytes of the index data as stored (streams at their true
  /// symbol width + bit_alloc + per-slice header). Now that MuxedStream
  /// packs symbols, this coincides with compressed_index_bytes(); it is the
  /// number the plan/PlanCache resident accounting charges.
  std::size_t resident_index_bytes() const;

  /// Original ELLPACK index size (m * k * 4 bytes).
  std::size_t original_index_bytes() const;

  value_t val_at(index_t r, index_t j) const {
    return vals_[static_cast<std::size_t>(j) * rows_ + r];
  }

  friend struct SerializeAccess; // serialization (serialize.cpp)

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t width_ = 0;
  BroEllOptions opts_;
  std::vector<BroEllSlice> slices_;
  std::vector<value_t> vals_; // column-major m x k, as in ELLPACK
};

/// Stateful implementation of the Algorithm-1 symbol-buffer decoder for one
/// row stream. Exposed so both the native SpMV and the GPU-simulator kernel
/// share one decode definition; `needs_load()` tells the caller (and the
/// simulator's traffic model) when the next sym_len-bit symbol is consumed.
/// Any multiplexed stream decodes through it: a BRO-ELL slice row, a BRO-ANS
/// lane-group lane or a BRO-COO interval lane. A decode that would load
/// past the row's symbols throws std::runtime_error instead of reading out
/// of bounds.
class RowStreamDecoder {
 public:
  RowStreamDecoder(const bits::MuxedStream& stream, index_t row, int sym_len);
  RowStreamDecoder(const BroEllSlice& slice, index_t row_in_slice, int sym_len)
      : RowStreamDecoder(slice.stream, row_in_slice, sym_len) {}

  /// True if decoding the next value will consume a symbol from the stream.
  bool needs_load(int b) const { return b > rb_; }

  /// Decode the next value with bit width b (Algorithm 1 lines 6-16).
  std::uint32_t next(int b);

  /// Symbols consumed so far.
  index_t symbols_loaded() const { return loads_; }

 private:
  const bits::MuxedStream* stream_;
  index_t row_;
  int sym_len_;
  std::uint64_t sym_ = 0; // buffer, left-aligned in sym_len bits
  int rb_ = 0;            // remaining bits in the buffer
  index_t loads_ = 0;
};

} // namespace bro::core
