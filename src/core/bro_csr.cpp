#include "core/bro_csr.h"

#include <algorithm>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "util/error.h"

namespace bro::core {

BroCsr BroCsr::compress(const sparse::Csr& csr, BroCsrOptions opts) {
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");
  BroCsr out;
  out.rows_ = csr.rows;
  out.cols_ = csr.cols;
  out.opts_ = opts;
  out.row_ptr_ = csr.row_ptr;
  out.vals_ = csr.vals;
  out.bits_.resize(static_cast<std::size_t>(csr.rows), 1);
  out.sym_ptr_.resize(static_cast<std::size_t>(csr.rows) + 1, 0);

  for (index_t r = 0; r < csr.rows; ++r) {
    const auto deltas = bits::delta_encode_row(csr.row_cols(r));
    int b = 1;
    for (const auto d : deltas) b = std::max(b, bits::bit_width_of(d));
    out.bits_[static_cast<std::size_t>(r)] = static_cast<std::uint8_t>(b);
    for (const auto d : deltas) out.stream_.append(d, b);
    out.stream_.pad_to_multiple(opts.sym_len); // rows start symbol-aligned
    out.sym_ptr_[static_cast<std::size_t>(r) + 1] = static_cast<std::uint32_t>(
        out.stream_.symbol_count(opts.sym_len));
  }
  out.stream_.shrink_to_fit();
  return out;
}

std::vector<index_t> BroCsr::decode_row(index_t r) const {
  BRO_CHECK(r >= 0 && r < rows_);
  const index_t len = row_ptr_[r + 1] - row_ptr_[r];
  const int b = bits_[static_cast<std::size_t>(r)];
  std::vector<index_t> cols;
  cols.reserve(static_cast<std::size_t>(len));
  std::size_t bit_pos = static_cast<std::size_t>(sym_ptr_[static_cast<std::size_t>(r)]) *
                        static_cast<std::size_t>(opts_.sym_len);
  std::int64_t acc = -1;
  for (index_t j = 0; j < len; ++j) {
    acc += static_cast<std::int64_t>(stream_.peek(bit_pos, b));
    bit_pos += static_cast<std::size_t>(b);
    BRO_CHECK_MSG(acc < cols_, "decoded column " << acc << " outside [0, "
                                                 << cols_ << ')');
    cols.push_back(static_cast<index_t>(acc));
  }
  return cols;
}

sparse::Csr BroCsr::decompress() const {
  sparse::Csr out;
  out.rows = rows_;
  out.cols = cols_;
  out.row_ptr = row_ptr_;
  out.vals = vals_;
  out.col_idx.reserve(nnz());
  for (index_t r = 0; r < rows_; ++r) {
    const auto cols = decode_row(r);
    out.col_idx.insert(out.col_idx.end(), cols.begin(), cols.end());
  }
  return out;
}

void BroCsr::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols_));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (index_t r = 0; r < rows_; ++r) {
    const index_t len = row_ptr_[r + 1] - row_ptr_[r];
    const int b = bits_[static_cast<std::size_t>(r)];
    std::size_t bit_pos =
        static_cast<std::size_t>(sym_ptr_[static_cast<std::size_t>(r)]) *
        static_cast<std::size_t>(opts_.sym_len);
    index_t col = -1;
    value_t sum = 0;
    for (index_t j = 0; j < len; ++j) {
      col += static_cast<index_t>(stream_.peek(bit_pos, b));
      bit_pos += static_cast<std::size_t>(b);
      sum += vals_[static_cast<std::size_t>(row_ptr_[r] + j)] *
             x[static_cast<std::size_t>(col)];
    }
    y[static_cast<std::size_t>(r)] = sum;
  }
}

std::size_t BroCsr::compressed_index_bytes() const {
  return total_symbols() * static_cast<std::size_t>(opts_.sym_len / 8) +
         bits_.size() + sym_ptr_.size() * sizeof(std::uint32_t);
}

} // namespace bro::core
