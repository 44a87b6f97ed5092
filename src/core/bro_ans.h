// BRO-ANS: entropy-coded BRO-ELL (extension beyond the paper).
//
// Same pipeline as BRO-ELL — delta-encode rows (1-based gaps, 0 = padding
// sentinel), slice into `slice_height`-row blocks, pack per-row bit
// strings, multiplex so thread t reads symbol c*h + t — but the fixed
// per-column bit allocation is replaced by a tANS entropy coder over delta
// bit-width classes (bits/ans.h): one normalized frequency table for the
// whole matrix, ~log2(1/p) bits per class plus the mantissa, beating the
// per-column-maximum widths wherever delta widths are skewed.
//
// Interleaved-stream layout (v2, DESIGN.md §10): the rows of a slice are
// partitioned into *lane groups* of kAnsLaneGroup (= 8, the AVX2 u32 SIMD
// width) consecutive rows. Each group is one MuxedStream — symbol c of
// group-lane j lives at flat slot c*gw + j — so a single aligned 8x32-bit
// load feeds all eight ANS states of a group in the vectorized decoder.
// Streams hold nothing but per-symbol fields (bits/ans.h); each row's
// initial decoder state is carried out of band in the slice's init_states
// array (one uint16 offset x0 - L per row). Rows of a group consume
// different bit counts, so each is zero-padded up to the group's longest
// row (rounded to sym_len) before multiplexing — a strictly tighter bound
// than the v1 whole-slice maximum; decoders stop after num_col symbols and
// never read the pad. The values array is ELLPACK's, untouched: like every
// BRO scheme this compresses index data only.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "bits/ans.h"
#include "bits/mux.h"
#include "core/bro_ell.h"
#include "sparse/ell.h"

namespace bro::core {

struct BroAnsOptions {
  int slice_height = 256; // h: rows per slice, as in BRO-ELL
  int sym_len = 32;       // bits per load during decompression (32 or 64)
  int table_log = 10;     // log2 of the ANS table size (4 KiB decode table)
};

/// Rows per interleaved lane group — the AVX2 u32 SIMD width. Slices keep
/// the BRO-ELL slice_height for the value layout; the lane group is the
/// unit the SIMD decoder consumes.
inline constexpr index_t kAnsLaneGroup = 8;

/// Number of lane groups covering `height` rows.
constexpr index_t ans_num_groups(index_t height) {
  return (height + kAnsLaneGroup - 1) / kAnsLaneGroup;
}

/// Width (row count) of group `g` within a slice of `height` rows — the
/// last group may be partial.
constexpr index_t ans_group_width(index_t height, index_t g) {
  const index_t r0 = g * kAnsLaneGroup;
  return height - r0 < kAnsLaneGroup ? height - r0 : kAnsLaneGroup;
}

/// One compressed slice: the actual column count, the per-row initial ANS
/// states, and one multiplexed fields-only stream per lane group (per-row
/// layout documented in bits/ans.h).
struct BroAnsSlice {
  index_t first_row = 0;
  index_t height = 0;
  index_t num_col = 0; // symbols decoded per row (0: empty streams)
  std::vector<std::uint16_t> init_states; // height entries, x0 - L
  std::vector<bits::MuxedStream> groups;  // ans_num_groups(height) streams
};

/// Sequential decoder of one BRO-ANS row: each next() yields the row's
/// next delta (0 = padding), num_col of them in all. The reference decode
/// that decode_row, spmv and the .bro ingest share; the SIMD kernels are
/// fuzzed bitwise against it.
class AnsRowDecoder {
 public:
  AnsRowDecoder(const bits::AnsTable& table, const BroAnsSlice& slice,
                index_t row_in_slice, int sym_len);

  std::uint32_t next() {
    const std::uint32_t e = table_->entry(state_);
    const int cls = bits::AnsTable::entry_class(e);
    const int nb = bits::AnsTable::entry_bits(e);
    const std::uint32_t mantissa = cls > 0 ? fields_.next(cls - 1) : 0;
    state_ = bits::AnsTable::entry_base(e) + fields_.next(nb);
    return cls == 0 ? 0 : (1u << (cls - 1)) | mantissa;
  }

 private:
  const bits::AnsTable* table_;
  RowStreamDecoder fields_;
  std::uint32_t state_;
};

class BroAns {
 public:
  /// Compression straight from CSR rows, laid out as BroEll::compress
  /// lays them; thread-count independent.
  static BroAns compress(const sparse::Csr& csr, index_t width,
                         BroAnsOptions opts = {});
  /// Adapter for callers that hold a padded ELLPACK.
  static BroAns compress(const sparse::Ell& ell, BroAnsOptions opts = {});

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t width() const { return width_; }
  const BroAnsOptions& options() const { return opts_; }
  const bits::AnsTable& table() const { return table_; }
  const std::vector<BroAnsSlice>& slices() const { return slices_; }
  const util::UninitVector<value_t>& vals() const { return vals_; }

  /// Decode the column indices of one row (testing / verification path).
  std::vector<index_t> decode_row(index_t row) const;

  /// Full decompression back to ELLPACK (round-trip testing).
  sparse::Ell decompress() const { return decompress_to_ell(*this, vals_); }

  /// y = A * x via the sequential per-row decode loop.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// Compressed size of the index data: streams + per-slice num_col + the
  /// serialized frequency table.
  std::size_t compressed_index_bytes() const;

  /// Heap bytes of the index data as resident (decode table included) —
  /// what the plan's representation-byte accounting charges.
  std::size_t resident_index_bytes() const;

  /// Original ELLPACK index size (m * k * 4 bytes).
  std::size_t original_index_bytes() const;

  value_t val_at(index_t r, index_t j) const {
    return vals_[static_cast<std::size_t>(j) * rows_ + r];
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t width_ = 0;
  BroAnsOptions opts_;
  bits::AnsTable table_;
  std::vector<BroAnsSlice> slices_;
  util::UninitVector<value_t> vals_; // column-major m x k, as in ELLPACK
};

} // namespace bro::core
