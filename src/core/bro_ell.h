// BRO-ELL: bit-representation-optimized ELLPACK (paper §3.1, Fig. 1).
//
// The ELLPACK col_idx array is delta-encoded row-wise (1-based gaps, 0 =
// padding sentinel), partitioned into slices of `slice_height` rows (one GPU
// thread block each), bit-packed with one bit width per slice column
// (bit_alloc), padded so sym_len divides every row stream, and finally
// multiplexed so thread t reads symbol c*h + t — a coalesced access.
//
// BRO compresses index data only, so the values are not copied: a BroEll
// shares ownership of the CSR it was built from and reads slot c of row r
// at csr.vals[row_ptr[r] + c]. Each row holds its valid entries in its
// first min(length, width) slots, so that slot is the row's c-th entry.
// ELLPACK's padded column-major value array, the GPU layout, exists only
// on the way out (ell_values: the .bro writer, the CUDA check, ELLPACK
// reconstruction). Space savings η = 1 - C/O are reported against the
// ELLPACK index array.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "bits/bitwidth.h"
#include "bits/mux.h"
#include "sparse/csr.h"
#include "sparse/ell.h"
#include "util/parallel.h"
#include "util/uninit.h"

namespace bro::core {

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

/// The BRO slice packer, all Fig. 1 stages for one slice of rows given as
/// strictly increasing index lists: deltas, per-column bit widths (floor
/// max(1, forced_bit_width)), fields written MSB-first straight into the
/// multiplexed slots. BRO-ELL, BRO-HYB and BRO-BCSR all pack through it.
BroEllSlice pack_slice(index_t first_row,
                       std::span<const std::span<const index_t>> rows,
                       int sym_len, int forced_bit_width = 0);

/// The packer's layout alone: num_col, bit_alloc and pad_bits, with an
/// empty stream. BRO-BCSR's cost model prices its candidate covers with it.
BroEllSlice slice_layout(index_t first_row,
                         std::span<const std::span<const index_t>> rows,
                         int sym_len, int forced_bit_width = 0);

/// Row r of `csr` in an ELLPACK of width `width`: its first
/// min(length, width) column indices.
std::span<const index_t> ell_row(const sparse::Csr& csr, index_t r,
                                 index_t width);

/// ELLPACK's m x width column-major value array of those rows, +0.0 in the
/// padding slots, filled in parallel 256-row tiles.
util::UninitVector<value_t> ell_values(const sparse::Csr& csr, index_t width);

/// Index bytes of packed slices: each stream, one byte per column's bit
/// width and a num_col entry. Streams hold symbols at their true width, so
/// this is the resident size as well as the packed one.
std::size_t slice_index_bytes(std::span<const BroEllSlice> slices);

/// ELLPACK reconstruction of a row-decodable BRO-ELL-layout format (BroEll,
/// BroAns): decode_row(r) fills row r's leading slots; `vals` is the
/// format's ELLPACK value array, copied verbatim.
template <typename Bro>
sparse::Ell decompress_to_ell(const Bro& m, std::span<const value_t> vals) {
  sparse::Ell out;
  out.rows = m.rows();
  out.cols = m.cols();
  out.width = m.width();
  out.col_idx.assign(static_cast<std::size_t>(out.rows) * out.width, sparse::kPad);
  out.vals.assign(vals.begin(), vals.end());
  for (index_t r = 0; r < out.rows; ++r) {
    const std::vector<index_t> cols = m.decode_row(r);
    for (std::size_t j = 0; j < cols.size(); ++j)
      out.col_idx[j * static_cast<std::size_t>(out.rows) + r] = cols[j];
  }
  return out;
}

class BroEll {
 public:
  /// Offline host-side compression straight from CSR rows (ell_row), one
  /// parallel task per slice; the output does not depend on the thread
  /// count. The result shares ownership of `csr` and reads its values.
  static BroEll compress(std::shared_ptr<const sparse::Csr> csr,
                         index_t width, BroEllOptions opts = {});
  /// Adapter for callers without a shared CSR: the result owns `csr`.
  static BroEll compress(sparse::Csr csr, index_t width,
                         BroEllOptions opts = {});
  /// Adapter for callers that hold a padded ELLPACK.
  static BroEll compress(const sparse::Ell& ell, BroEllOptions opts = {});

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t width() const { return width_; }
  const BroEllOptions& options() const { return opts_; }
  const std::vector<BroEllSlice>& slices() const { return slices_; }
  /// The CSR the representation was built from: the values' home.
  const sparse::Csr& csr() const { return *csr_; }

  /// Decode the column indices of one row (testing / verification path).
  std::vector<index_t> decode_row(index_t row) const;

  /// Full decompression back to ELLPACK (round-trip testing).
  sparse::Ell decompress() const {
    return decompress_to_ell(*this, ell_values(*csr_, width_));
  }

  /// y = A * x via the Algorithm-1 decode loop, sequentially per row.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// Compressed size of the index data: streams + bit_alloc + num_col.
  std::size_t compressed_index_bytes() const {
    return slice_index_bytes(slices_);
  }

  /// Actual heap bytes of the index data as stored (streams at their true
  /// symbol width + bit_alloc + per-slice header). Now that MuxedStream
  /// packs symbols, this coincides with compressed_index_bytes(); it is the
  /// number the plan's representation-byte accounting charges, since the
  /// values are the CSR's.
  std::size_t resident_index_bytes() const { return compressed_index_bytes(); }

  /// Original ELLPACK index size (m * k * 4 bytes).
  std::size_t original_index_bytes() const;

  /// Value of slot j of row r, a valid slot (j < min(length, width)).
  value_t val_at(index_t r, index_t j) const {
    return csr_->vals[static_cast<std::size_t>(csr_->row_ptr[r] + j)];
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t width_ = 0;
  BroEllOptions opts_;
  std::vector<BroEllSlice> slices_;
  std::shared_ptr<const sparse::Csr> csr_;
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
  /// Inline: every sequential decode (the formats' own spmv, the BRO-ANS
  /// row decoder, the simulator) calls it once per field.
  std::uint32_t next(int b) {
    // Top-of-register extraction: sym[0:q] of Algorithm 1.
    const std::uint64_t field = bits::max_value_for_bits(sym_len_);
    const auto take = [&](int q) -> std::uint64_t {
      if (q <= 0) return 0;
      return (sym_ >> (sym_len_ - q)) & bits::max_value_for_bits(q);
    };
    const auto shift_out = [&](int q) {
      sym_ = (q >= 64 ? 0 : (sym_ << q)) & field;
    };

    // Algorithm 1 uses the strict test `b < rb`, which loads a symbol even
    // when the value exactly drains the buffer — over-reading the stream
    // by one symbol on exact-fit rows. We use b <= rb, which decodes
    // identically, preserves warp-uniform control flow (rb evolves the same
    // in all lanes), and reads exactly ceil(sum(bit_alloc)/sym_len)
    // symbols per row.
    std::uint64_t decoded;
    if (b <= rb_) {
      decoded = take(b);
      shift_out(b);
      rb_ -= b;
    } else {
      // Drain the buffer, then split the value across the freshly loaded
      // symbol (high part came from the old buffer).
      decoded = take(rb_);
      const int b2 = b - rb_;
      if (static_cast<std::size_t>(loads_) >= stream_->symbols_per_row())
        overrun();
      sym_ = stream_->at(static_cast<std::size_t>(loads_),
                         static_cast<std::size_t>(row_)) &
             field;
      ++loads_;
      decoded = (decoded << b2) | take(b2);
      shift_out(b2);
      rb_ = sym_len_ - b2;
    }
    return static_cast<std::uint32_t>(decoded);
  }

  /// Symbols consumed so far.
  index_t symbols_loaded() const { return loads_; }

 private:
  [[noreturn]] void overrun() const;

  const bits::MuxedStream* stream_;
  index_t row_;
  int sym_len_;
  std::uint64_t sym_ = 0; // buffer, left-aligned in sym_len bits
  int rb_ = 0;            // remaining bits in the buffer
  index_t loads_ = 0;
};

/// Lockstep decoder of every row (lane) of one multiplexed stream, as a
/// slice decodes on the GPU: all lanes consume the same bit width at each
/// step, so the buffer level and the load counter are shared and only the
/// symbol buffers are per lane (Algorithm 1's warp-uniform control flow).
/// Lane t yields exactly what RowStreamDecoder(stream, t, sym_len) does,
/// under the same b <= rb load rule, while each load reads the h
/// consecutive slots of one symbol column. A step that would load past the
/// rows' symbols throws std::runtime_error.
class LockstepDecoder {
 public:
  LockstepDecoder(const bits::MuxedStream& stream, int sym_len);

  /// Decode the next value of every lane, with bit width b in [1, 32],
  /// into out[0, height).
  void next(int b, std::uint32_t* out);

  /// Symbols consumed so far by each lane.
  index_t symbols_loaded() const { return static_cast<index_t>(loads_); }

 private:
  template <typename SymT>
  void load(int b, std::uint32_t* out);

  const bits::MuxedStream* stream_;
  int sym_len_;
  int rb_ = 0; // remaining bits in every lane's buffer
  std::size_t loads_ = 0;
  std::vector<std::uint64_t> sym_; // per lane, left-aligned in 64 bits
};

} // namespace bro::core
