#include "core/bro_coo.h"

#include <algorithm>
#include <utility>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "core/bro_ell.h"
#include "util/error.h"

namespace bro::core {

std::size_t BroCoo::padded_length(std::size_t nnz, const BroCooOptions& opts) {
  BRO_CHECK_MSG(opts.warp_size > 0 && opts.interval_cols > 0,
                "interval dimensions must be positive");
  const std::size_t interval_size =
      static_cast<std::size_t>(opts.warp_size) *
      static_cast<std::size_t>(opts.interval_cols);
  return (nnz + interval_size - 1) / interval_size * interval_size;
}

BroCoo BroCoo::compress(sparse::Coo coo, BroCooOptions opts) {
  BRO_CHECK_MSG(coo.is_canonical(), "BRO-COO requires canonical COO order");
  // Pad the entry stream to a whole number of intervals with (last_row,
  // last_col, 0.0) entries: delta 0, value 0 — no effect on the product.
  const std::size_t padded = padded_length(coo.nnz(), opts);
  BRO_CHECK_MSG(opts.sym_len == 32 || opts.sym_len == 64,
                "sym_len must be 32 or 64");

  BroCoo out;
  out.rows_ = coo.rows;
  out.cols_ = coo.cols;
  out.nnz_ = coo.nnz();
  out.opts_ = opts;

  if (coo.nnz() == 0) return out;

  // Reserve the exact padded length first: a moved-in vector's capacity is
  // usually its size, and resize() alone would roughly double it.
  util::UninitVector<index_t> row_idx = std::move(coo.row_idx);
  out.col_idx_ = std::move(coo.col_idx);
  out.vals_ = std::move(coo.vals);
  row_idx.reserve(padded);
  out.col_idx_.reserve(padded);
  out.vals_.reserve(padded);
  row_idx.resize(padded, row_idx.back());
  out.col_idx_.resize(padded, out.col_idx_.back());
  out.vals_.resize(padded, value_t{0});

  const std::size_t interval_size =
      static_cast<std::size_t>(opts.warp_size) *
      static_cast<std::size_t>(opts.interval_cols);
  const std::size_t num_intervals = padded / interval_size;
  out.intervals_.reserve(num_intervals);
  const int w = opts.warp_size;

  for (std::size_t i = 0; i < num_intervals; ++i) {
    const std::size_t base = i * interval_size;
    BroCooInterval iv;
    iv.start_row = row_idx[base];

    // Pass 1: delta-encode down each lane to find the interval's bit width.
    int bits_needed = 1;
    for (int j = 0; j < w; ++j) {
      index_t prev = iv.start_row;
      for (int c = 0; c < opts.interval_cols; ++c) {
        const index_t r =
            row_idx[base + static_cast<std::size_t>(c) * w +
                    static_cast<std::size_t>(j)];
        BRO_CHECK_MSG(r >= prev, "row indices not sorted within interval");
        bits_needed = std::max(
            bits_needed,
            bits::bit_width_of(static_cast<std::uint32_t>(r - prev)));
        prev = r;
      }
    }

    // Pass 2: pack every lane with the final bit width.
    iv.bits = bits_needed;
    const auto sym = static_cast<std::size_t>(opts.sym_len);
    iv.stream = bits::MuxedStream(
        opts.sym_len, static_cast<std::size_t>(w),
        (static_cast<std::size_t>(opts.interval_cols) * iv.bits + sym - 1) / sym);
    for (int j = 0; j < w; ++j) {
      bits::MuxRowWriter lane(iv.stream, static_cast<std::size_t>(j));
      index_t prev = iv.start_row;
      for (int c = 0; c < opts.interval_cols; ++c) {
        const index_t r =
            row_idx[base + static_cast<std::size_t>(c) * w +
                    static_cast<std::size_t>(j)];
        lane.append(static_cast<std::uint32_t>(r - prev), iv.bits);
        prev = r;
      }
      lane.finish();
    }
    out.intervals_.push_back(std::move(iv));
  }
  return out;
}

util::UninitVector<index_t> decode_coo_rows(
    std::span<const BroCooInterval> intervals, const BroCooOptions& opts,
    index_t rows) {
  const int w = opts.warp_size;
  const std::size_t interval_size =
      static_cast<std::size_t>(w) * static_cast<std::size_t>(opts.interval_cols);
  util::UninitVector<index_t> out(intervals.size() * interval_size);
  // Each interval writes only its own entries, so intervals decode in
  // parallel. Lane j of an interval is row stream j of its mux (symbol c at
  // c*w + j) and every lane has the interval's one bit width, so the lanes
  // decode in lockstep and position c of all lanes lands contiguously.
  const auto num_intervals = static_cast<index_t>(intervals.size());
  util::parallel_for_slices(num_intervals, [&](index_t s) {
    const auto i = static_cast<std::size_t>(s);
    const auto& iv = intervals[i];
    BRO_CHECK_MSG(iv.stream.height() == static_cast<std::size_t>(w),
                  "BRO-COO interval " << i << " is not " << w
                                      << " lanes wide");
    LockstepDecoder dec(iv.stream, opts.sym_len);
    std::vector<std::uint32_t> d(static_cast<std::size_t>(w));
    std::vector<std::int64_t> acc(static_cast<std::size_t>(w), iv.start_row);
    index_t* dst = out.data() + i * interval_size;
    for (int c = 0; c < opts.interval_cols; ++c, dst += w) {
      dec.next(iv.bits, d.data());
      for (std::size_t j = 0; j < d.size(); ++j) {
        acc[j] += d[j];
        BRO_CHECK_MSG(acc[j] >= 0 && acc[j] < rows,
                      "BRO-COO row " << acc[j] << " outside [0, " << rows
                                     << ')');
        dst[j] = static_cast<index_t>(acc[j]);
      }
    }
  });
  return out;
}

util::UninitVector<index_t> BroCoo::decode_rows() const {
  return decode_coo_rows(intervals_, opts_, rows_);
}

void BroCoo::spmv_accumulate(std::span<const value_t> x,
                             std::span<value_t> y) const {
  BRO_CHECK(x.size() == static_cast<std::size_t>(cols_));
  BRO_CHECK(y.size() == static_cast<std::size_t>(rows_));
  const util::UninitVector<index_t> rows = decode_rows();
  for (std::size_t i = 0; i < rows.size(); ++i)
    y[static_cast<std::size_t>(rows[i])] +=
        vals_[i] * x[static_cast<std::size_t>(col_idx_[i])];
}

std::size_t BroCoo::compressed_row_bytes() const {
  std::size_t total = 0;
  for (const auto& iv : intervals_) {
    total += iv.stream.byte_size();
    total += sizeof(index_t); // start_row
    total += 1;               // bit width
  }
  return total;
}

std::size_t BroCoo::resident_row_bytes() const {
  std::size_t total = 0;
  for (const auto& iv : intervals_) {
    total += iv.stream.resident_bytes();
    total += sizeof(index_t) + 1;
  }
  return total;
}

} // namespace bro::core
