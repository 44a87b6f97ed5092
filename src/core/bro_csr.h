// BRO-CSR: bit-representation-optimized CSR (an extension beyond the paper,
// closing the gap to the CPU-side CSR compression work it cites — Willcock &
// Lumsdaine, Kourtis et al. — with a GPU-friendly decode).
//
// BRO-ELL needs ELLPACK's padded shape; matrices with wild row-length
// variance fall back to BRO-HYB's two kernels. BRO-CSR instead compresses
// the CSR column indices row-by-row with a single bit width per row
// (bits[r] = max Γ over the row's 1-based deltas) and decodes with a *warp
// per row*: the warp's 32 lanes extract 32 consecutive deltas in parallel
// from the row's bit stream (coalesced symbol loads, branch-free extraction)
// and reconstruct absolute columns with one inclusive warp scan. No padding
// is ever stored, so the format handles power-law matrices directly.
//
// Wire format: one packed bit stream per row, starting at a sym_len-aligned
// symbol boundary; row_sym_ptr[r] gives the row's first symbol index.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "bits/bit_string.h"
#include "sparse/csr.h"

namespace bro::core {

struct BroCsrOptions {
  int sym_len = 32;
};

class BroCsr {
 public:
  static BroCsr compress(const sparse::Csr& csr, BroCsrOptions opts = {});

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t nnz() const { return vals_.size(); }
  const BroCsrOptions& options() const { return opts_; }

  const util::UninitVector<index_t>& row_ptr() const { return row_ptr_; }
  const util::UninitVector<std::uint8_t>& bits_per_row() const {
    return bits_;
  }
  const util::UninitVector<std::uint32_t>& row_sym_ptr() const {
    return sym_ptr_;
  }
  const util::UninitVector<value_t>& vals() const { return vals_; }
  /// Every row's packed deltas, as written to a .bro stream.
  const bits::BitString& stream() const { return stream_; }

  /// Symbol `i` of the global packed stream (right-aligned sym_len bits).
  std::uint64_t symbol(std::size_t i) const {
    return stream_.symbol(i, opts_.sym_len);
  }
  std::size_t total_symbols() const { return stream_.symbol_count(opts_.sym_len); }

  /// Raw bit extraction from the packed stream (simulator decode path).
  std::uint64_t decode_bits(std::size_t bit_pos, int nbits) const {
    return stream_.peek(bit_pos, nbits);
  }

  /// Decode one row's column indices (verification path).
  std::vector<index_t> decode_row(index_t r) const;

  /// Full decompression back to CSR.
  sparse::Csr decompress() const;

  /// y = A * x with on-the-fly decoding.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// Compressed bytes of the column-index data (stream + bits + sym_ptr).
  std::size_t compressed_index_bytes() const;

  /// Original CSR column-index bytes (nnz * 4).
  std::size_t original_index_bytes() const { return nnz() * sizeof(index_t); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  BroCsrOptions opts_;
  util::UninitVector<index_t> row_ptr_;        // as in CSR (row lengths)
  util::UninitVector<std::uint8_t> bits_;      // per-row delta bit width
  util::UninitVector<std::uint32_t> sym_ptr_;  // first symbol, rows+1
  bits::BitString stream_;                     // all rows' packed deltas
  util::UninitVector<value_t> vals_;           // as in CSR
};

} // namespace bro::core
