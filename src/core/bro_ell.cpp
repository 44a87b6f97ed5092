#include "core/bro_ell.h"

#include <algorithm>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "sparse/convert.h"
#include "util/error.h"

namespace bro::core {

RowStreamDecoder::RowStreamDecoder(const bits::MuxedStream& stream,
                                   index_t row, int sym_len)
    : stream_(&stream), row_(row), sym_len_(sym_len) {}

void RowStreamDecoder::overrun() const {
  BRO_CHECK_MSG(false, "row stream overruns its "
                           << stream_->symbols_per_row() << " symbols");
}

LockstepDecoder::LockstepDecoder(const bits::MuxedStream& stream, int sym_len)
    : stream_(&stream), sym_len_(sym_len), sym_(stream.height(), 0) {
  BRO_CHECK_MSG(stream.sym_len() == sym_len,
                "stream sym_len " << stream.sym_len() << " is not " << sym_len);
}

void LockstepDecoder::next(int b, std::uint32_t* out) {
  BRO_CHECK_MSG(b >= 1 && b <= 32, "bit width " << b << " outside [1, 32]");
  if (b <= rb_) {
    for (std::uint64_t& s : sym_) {
      *out++ = static_cast<std::uint32_t>(s >> (64 - b));
      s <<= b;
    }
    rb_ -= b;
  } else if (sym_len_ == 32) {
    load<std::uint32_t>(b, out);
  } else {
    load<std::uint64_t>(b, out);
  }
}

template <typename SymT>
void LockstepDecoder::load(int b, std::uint32_t* out) {
  BRO_CHECK_MSG(loads_ < stream_->symbols_per_row(),
                "row stream overruns its " << stream_->symbols_per_row()
                                           << " symbols");
  // Every lane drains its rb_ buffered bits (the value's high part), then
  // takes the low b2 bits from the top of its next symbol.
  const SymT* slots = stream_->data<SymT>() + loads_ * sym_.size();
  const int rest = 63 - rb_; // (s >> 1) >> rest is s's top rb_ bits, or 0
  const int b2 = b - rb_;
  const int align = 64 - sym_len_;
  for (std::size_t t = 0; t < sym_.size(); ++t) {
    const std::uint64_t high = (sym_[t] >> 1) >> rest;
    const std::uint64_t s = std::uint64_t{slots[t]} << align;
    out[t] = static_cast<std::uint32_t>((high << b2) | (s >> (64 - b2)));
    sym_[t] = s << b2;
  }
  ++loads_;
  rb_ = sym_len_ - b2;
}

namespace {

std::uint32_t delta(index_t col, index_t prev) {
  return static_cast<std::uint32_t>(static_cast<std::int64_t>(col) - prev);
}

std::size_t row_bits(const BroEllSlice& slice) {
  std::size_t bits = 0;
  for (const std::uint8_t b : slice.bit_alloc) bits += b;
  return bits;
}

} // namespace

BroEllSlice slice_layout(index_t first_row,
                         std::span<const std::span<const index_t>> rows,
                         int sym_len, int forced_bit_width) {
  BroEllSlice slice;
  slice.first_row = first_row;
  slice.height = static_cast<index_t>(rows.size());

  // Stages 1-2: delta-encode each row on the fly and widen its columns'
  // bit allocation (Fig. 1 "delta encoding", "bit packing"). Every valid
  // column holds at least one 1-bit delta; forced_bit_width raises the
  // floor for compression-ratio sweeps.
  const auto floor = static_cast<std::uint8_t>(std::max(1, forced_bit_width));
  for (const std::span<const index_t> row : rows) {
    if (row.size() > slice.bit_alloc.size())
      slice.bit_alloc.resize(row.size(), floor);
    index_t prev = -1;
    for (std::size_t c = 0; c < row.size(); ++c) {
      BRO_CHECK_MSG(row[c] > prev, "column indices must be strictly increasing");
      const auto b = static_cast<std::uint8_t>(
          bits::bit_width_of(delta(row[c], prev)));
      slice.bit_alloc[c] = std::max(slice.bit_alloc[c], b);
      prev = row[c];
    }
  }
  slice.num_col = static_cast<index_t>(slice.bit_alloc.size());

  // Stage 3: every row carries the same bit count, padded to a sym_len
  // multiple.
  const std::size_t bits = row_bits(slice);
  const auto sym = static_cast<std::size_t>(sym_len);
  slice.pad_bits = static_cast<int>((bits + sym - 1) / sym * sym - bits);
  return slice;
}

BroEllSlice pack_slice(index_t first_row,
                       std::span<const std::span<const index_t>> rows,
                       int sym_len, int forced_bit_width) {
  BroEllSlice slice = slice_layout(first_row, rows, sym_len, forced_bit_width);
  const std::size_t symbols =
      (row_bits(slice) + static_cast<std::size_t>(slice.pad_bits)) /
      static_cast<std::size_t>(sym_len);

  // Stage 4: write each row's fields MSB-first into its multiplexed slots.
  // The stream starts zeroed, so a row stops after its last real delta:
  // the padding deltas it would append are zero bits.
  slice.stream = bits::MuxedStream(sym_len, rows.size(), symbols);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    bits::MuxRowWriter out(slice.stream, t);
    index_t prev = -1;
    for (std::size_t c = 0; c < rows[t].size(); ++c) {
      out.append(delta(rows[t][c], prev), slice.bit_alloc[c]);
      prev = rows[t][c];
    }
    out.finish();
  }
  return slice;
}

std::span<const index_t> ell_row(const sparse::Csr& csr, index_t r,
                                 index_t width) {
  return csr.row_cols(r).first(static_cast<std::size_t>(
      std::min(csr.row_length(r), width)));
}

util::UninitVector<value_t> ell_values(const sparse::Csr& csr, index_t width) {
  BRO_CHECK_MSG(width >= 0, "ELL width must be non-negative");
  constexpr index_t kTileRows = 256;
  const auto m = static_cast<std::size_t>(csr.rows);
  util::UninitVector<value_t> vals(m * static_cast<std::size_t>(width));
  // Each 256-row tile writes +0.0 in all its slots, then its rows' values
  // over their leading slots, while the tile's slots are cache-resident.
  // Tiles are disjoint, so the array is first touched in parallel.
  const index_t tiles = (csr.rows + kTileRows - 1) / kTileRows;
  util::parallel_for_slices(tiles, [&](index_t t) {
    const index_t first = t * kTileRows;
    const index_t last = std::min(csr.rows, first + kTileRows);
    for (std::size_t j = 0; j < static_cast<std::size_t>(width); ++j)
      std::fill(vals.begin() + j * m + first, vals.begin() + j * m + last,
                value_t{0});
    for (index_t r = first; r < last; ++r) {
      const std::span<const value_t> row = csr.row_vals(r);
      const std::size_t len = ell_row(csr, r, width).size();
      for (std::size_t j = 0; j < len; ++j)
        vals[j * m + static_cast<std::size_t>(r)] = row[j];
    }
  });
  return vals;
}

BroEll BroEll::compress(std::shared_ptr<const sparse::Csr> shared,
                        index_t width, BroEllOptions opts) {
  BRO_CHECK_MSG(shared != nullptr, "BRO-ELL needs a source CSR");
  BRO_CHECK_MSG(opts.slice_height > 0, "slice height must be positive");
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");
  BRO_CHECK_MSG(opts.forced_bit_width >= 0 && opts.forced_bit_width <= 32,
                "forced_bit_width must be in [0, 32]");
  BRO_CHECK_MSG(width >= 0, "ELL width must be non-negative");

  const sparse::Csr& csr = *shared;
  BroEll out;
  out.rows_ = csr.rows;
  out.cols_ = csr.cols;
  out.width_ = width;
  out.opts_ = opts;
  out.csr_ = std::move(shared);

  const index_t h = opts.slice_height;
  const index_t num_slices = csr.rows == 0 ? 0 : (csr.rows + h - 1) / h;
  out.slices_.resize(static_cast<std::size_t>(num_slices));
  util::parallel_for_slices(num_slices, [&](index_t s) {
    const index_t first = s * h;
    const index_t last = std::min<index_t>(csr.rows, first + h);
    std::vector<std::span<const index_t>> rows(
        static_cast<std::size_t>(last - first));
    for (std::size_t t = 0; t < rows.size(); ++t)
      rows[t] = ell_row(csr, first + static_cast<index_t>(t), width);
    out.slices_[static_cast<std::size_t>(s)] =
        pack_slice(first, rows, opts.sym_len, opts.forced_bit_width);
  });
  return out;
}

BroEll BroEll::compress(sparse::Csr csr, index_t width, BroEllOptions opts) {
  return compress(std::make_shared<const sparse::Csr>(std::move(csr)), width,
                  opts);
}

BroEll BroEll::compress(const sparse::Ell& ell, BroEllOptions opts) {
  return compress(sparse::ell_to_csr(ell), ell.width, opts);
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

std::size_t slice_index_bytes(std::span<const BroEllSlice> slices) {
  std::size_t total = 0;
  for (const auto& s : slices)
    total += s.stream.byte_size() + s.bit_alloc.size() + sizeof(index_t);
  return total;
}

std::size_t BroEll::original_index_bytes() const {
  return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_) *
         sizeof(index_t);
}

} // namespace bro::core
