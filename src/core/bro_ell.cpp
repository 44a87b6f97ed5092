#include "core/bro_ell.h"

#include <algorithm>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "util/error.h"

namespace bro::core {

namespace {

std::uint64_t field_mask(int sym_len) {
  return sym_len >= 64 ? ~0ull : ((1ull << sym_len) - 1);
}

} // namespace

RowStreamDecoder::RowStreamDecoder(const bits::MuxedStream& stream,
                                   index_t row, int sym_len)
    : stream_(&stream), row_(row), sym_len_(sym_len) {}

std::uint32_t RowStreamDecoder::next(int b) {
  // Top-of-register extraction: sym[0:q] of Algorithm 1.
  const auto take = [&](int q) -> std::uint64_t {
    if (q <= 0) return 0;
    return (sym_ >> (sym_len_ - q)) & bits::max_value_for_bits(q);
  };
  const auto shift_out = [&](int q) {
    sym_ = (q >= 64 ? 0 : (sym_ << q)) & field_mask(sym_len_);
  };

  // Algorithm 1 uses the strict test `b < rb`, which loads a symbol even
  // when the value exactly drains the buffer — over-reading the stream by
  // one symbol on exact-fit rows. We use b <= rb, which decodes identically,
  // preserves warp-uniform control flow (rb evolves the same in all lanes),
  // and reads exactly ceil(sum(bit_alloc)/sym_len) symbols per row.
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
    BRO_CHECK_MSG(static_cast<std::size_t>(loads_) <
                      stream_->symbols_per_row(),
                  "row stream overruns its " << stream_->symbols_per_row()
                                             << " symbols");
    sym_ = stream_->at(static_cast<std::size_t>(loads_),
                       static_cast<std::size_t>(row_)) &
           field_mask(sym_len_);
    ++loads_;
    decoded = (decoded << b2) | ((b2 > 0) ? ((sym_ >> (sym_len_ - b2)) &
                                             bits::max_value_for_bits(b2))
                                          : 0);
    shift_out(b2);
    rb_ = sym_len_ - b2;
  }
  return static_cast<std::uint32_t>(decoded);
}

BroEll BroEll::compress(const sparse::Ell& ell, BroEllOptions opts) {
  BRO_CHECK_MSG(opts.slice_height > 0, "slice height must be positive");
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");
  BRO_CHECK_MSG(opts.forced_bit_width >= 0 && opts.forced_bit_width <= 32,
                "forced_bit_width must be in [0, 32]");

  BroEll out;
  out.rows_ = ell.rows;
  out.cols_ = ell.cols;
  out.width_ = ell.width;
  out.opts_ = opts;
  out.vals_ = ell.vals;

  const index_t h = opts.slice_height;
  const index_t num_slices = ell.rows == 0 ? 0 : (ell.rows + h - 1) / h;
  out.slices_.reserve(static_cast<std::size_t>(num_slices));

  std::vector<std::vector<std::uint32_t>> deltas; // per row in slice
  for (index_t s = 0; s < num_slices; ++s) {
    BroEllSlice slice;
    slice.first_row = s * h;
    slice.height = std::min<index_t>(h, ell.rows - slice.first_row);

    // Stage 1: delta-encode each row of the slice (Fig. 1 "delta encoding").
    deltas.assign(static_cast<std::size_t>(slice.height), {});
    slice.num_col = 0;
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r = slice.first_row + t;
      index_t len = 0;
      while (len < ell.width && ell.col_at(r, len) != sparse::kPad) ++len;
      std::vector<index_t> row_cols(static_cast<std::size_t>(len));
      for (index_t j = 0; j < len; ++j) row_cols[j] = ell.col_at(r, j);
      deltas[static_cast<std::size_t>(t)] = bits::delta_encode_row(row_cols);
      slice.num_col = std::max(slice.num_col, len);
    }

    // Stage 2: per-column bit allocation (Fig. 1 "bit packing").
    slice.bit_alloc.assign(static_cast<std::size_t>(slice.num_col), 1);
    for (index_t c = 0; c < slice.num_col; ++c) {
      // Every valid column holds at least one 1-bit delta; forced_bit_width
      // raises the floor for compression-ratio sweeps.
      int b = std::max(1, opts.forced_bit_width);
      for (index_t t = 0; t < slice.height; ++t) {
        const auto& d = deltas[static_cast<std::size_t>(t)];
        if (static_cast<std::size_t>(c) < d.size())
          b = std::max(b, bits::bit_width_of(d[static_cast<std::size_t>(c)]));
      }
      slice.bit_alloc[static_cast<std::size_t>(c)] =
          static_cast<std::uint8_t>(b);
    }

    // Stage 3: build per-row bit strings (padding rows emit delta 0) and pad
    // each to a sym_len multiple. Every row appends the same total bit count,
    // so pad_bits is identical across rows by construction.
    std::vector<bits::BitString> row_streams(
        static_cast<std::size_t>(slice.height));
    for (index_t t = 0; t < slice.height; ++t) {
      auto& bs = row_streams[static_cast<std::size_t>(t)];
      const auto& d = deltas[static_cast<std::size_t>(t)];
      for (index_t c = 0; c < slice.num_col; ++c) {
        const std::uint32_t v = static_cast<std::size_t>(c) < d.size()
                                    ? d[static_cast<std::size_t>(c)]
                                    : bits::kInvalidDelta;
        bs.append(v, slice.bit_alloc[static_cast<std::size_t>(c)]);
      }
      slice.pad_bits = bs.pad_to_multiple(opts.sym_len);
    }

    // Stage 4: multiplex the row streams (Fig. 1 final stage).
    if (slice.num_col > 0) {
      slice.stream = bits::MuxedStream::interleave(row_streams, opts.sym_len);
    } else {
      slice.stream = bits::MuxedStream(opts.sym_len,
                                       static_cast<std::size_t>(slice.height), 0);
    }
    out.slices_.push_back(std::move(slice));
  }
  return out;
}

std::vector<index_t> BroEll::decode_row(index_t row) const {
  BRO_CHECK(row >= 0 && row < rows_);
  const auto& slice = slices_[static_cast<std::size_t>(row / opts_.slice_height)];
  const index_t t = row - slice.first_row;
  RowStreamDecoder dec(slice, t, opts_.sym_len);
  std::vector<index_t> cols;
  index_t acc = -1;
  for (index_t c = 0; c < slice.num_col; ++c) {
    const std::uint32_t d = dec.next(slice.bit_alloc[static_cast<std::size_t>(c)]);
    if (d == bits::kInvalidDelta) continue;
    acc += static_cast<index_t>(d);
    cols.push_back(acc);
  }
  return cols;
}

sparse::Ell BroEll::decompress() const {
  sparse::Ell out;
  out.rows = rows_;
  out.cols = cols_;
  out.width = width_;
  out.col_idx.assign(static_cast<std::size_t>(rows_) * width_, sparse::kPad);
  out.vals = vals_;
  for (index_t r = 0; r < rows_; ++r) {
    const std::vector<index_t> cols = decode_row(r);
    for (std::size_t j = 0; j < cols.size(); ++j)
      out.col_idx[j * static_cast<std::size_t>(rows_) + r] = cols[j];
  }
  return out;
}

void BroEll::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols_));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (const BroEllSlice& slice : slices_) {
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r = slice.first_row + t;
      RowStreamDecoder dec(slice, t, opts_.sym_len);
      index_t col = -1;
      value_t sum = 0;
      for (index_t c = 0; c < slice.num_col; ++c) {
        const std::uint32_t d =
            dec.next(slice.bit_alloc[static_cast<std::size_t>(c)]);
        if (d != bits::kInvalidDelta) {
          col += static_cast<index_t>(d);
          sum += val_at(r, c) * x[static_cast<std::size_t>(col)];
        }
      }
      y[static_cast<std::size_t>(r)] = sum;
    }
  }
}

std::size_t BroEll::compressed_index_bytes() const {
  std::size_t total = 0;
  for (const auto& s : slices_) {
    total += s.stream.byte_size();
    total += s.bit_alloc.size();  // one byte per column's bit width
    total += sizeof(index_t);     // num_col entry
  }
  return total;
}

std::size_t BroEll::resident_index_bytes() const {
  std::size_t total = 0;
  for (const auto& s : slices_) {
    total += s.stream.resident_bytes();
    total += s.bit_alloc.size();
    total += sizeof(index_t);
  }
  return total;
}

std::size_t BroEll::original_index_bytes() const {
  return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_) *
         sizeof(index_t);
}

} // namespace bro::core
