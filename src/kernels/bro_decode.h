// Width-templated BRO decode loops (internal header: included by the
// bro_decode/native_spmv/native_spmm translation units and the decode
// microbenchmark only; the public dispatch API lives in native_spmv.h).
//
// The paper's compression pays off only if the decode path runs at memory
// speed, so the inner loops here are templated on the delta bit width B:
// every shift amount and mask is a compile-time constant, the 32-bit symbol
// stream (host execution decodes sym_len = 32 only) is read through a raw
// pointer with the lane stride folded in, and the compiler can unroll the
// periodic load pattern. B = kGenericWidth selects the runtime-width
// variant, which decodes bit-for-bit identically and serves as the parity
// baseline.
//
// All variants implement the same MSB-first symbol-buffer algorithm as
// core::RowStreamDecoder / the BRO-COO lane decoder (Algorithm 1 with the
// b <= rb load rule), so decoded deltas — and therefore the floating-point
// accumulation order — are identical across variants.
#pragma once

#include <algorithm>
#include <cstdint>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "kernels/native_spmv.h"

namespace bro::kernels::detail {

/// Template argument selecting the runtime-width decoder variant.
inline constexpr int kGenericWidth = -1;

/// Bits per stream symbol on the host: every host kernel reads uint32_t
/// slots (check_host_sym_len in native_spmv.h rejects anything else).
inline constexpr int kSym = 32;

/// Right-hand-side tile width for the BRO-COO SpMM kernel: per-lane row
/// segments accumulate into a stack array of this many values, and wider
/// batches re-decode the interval once per tile. 8 doubles fit the tile in
/// registers without starving the decode loop.
inline constexpr int kCooSegWidth = 8;

/// Widest warp the transposed BRO-COO decode loop supports: per-lane symbol
/// buffers and row cursors live in stack arrays of this many entries (1.5 KiB
/// at 128 — comfortably L1-resident). Wider configurations take the simple
/// lane-at-a-time path.
inline constexpr int kMaxCooLanes = 128;

/// Sequential MSB-first decoder over one lane of a muxed stream: lane t of
/// a stream with `stride` lanes reads symbols stream[c*stride + t]. B >= 0
/// fixes the bit width at compile time; B == kGenericWidth takes the width
/// as a next() argument.
template <int B>
class LaneDecoder {
 public:
  LaneDecoder(const std::uint32_t* stream, std::size_t stride,
              std::size_t lane)
      : next_load_(stream + lane), stride_(stride) {}

  inline std::uint32_t next(int runtime_b = 0) {
    const int b = B >= 0 ? B : runtime_b;
    std::uint64_t d;
    if (b <= rb_) {
      d = (sym_ >> (rb_ - b)) & bits::max_value_for_bits(b);
      rb_ -= b;
    } else {
      // Drain the rb_ remaining bits, then split the value across the
      // freshly loaded symbol (high part came from the old buffer).
      const int high = rb_;
      d = high > 0 ? (sym_ & bits::max_value_for_bits(high)) : 0;
      sym_ = *next_load_;
      next_load_ += stride_;
      const int low = b - high;
      d = (d << low) |
          ((sym_ >> (kSym - low)) & bits::max_value_for_bits(low));
      rb_ = kSym - low;
    }
    return static_cast<std::uint32_t>(d);
  }

 private:
  const std::uint32_t* next_load_;
  std::size_t stride_;
  std::uint64_t sym_ = 0;
  int rb_ = 0;
};

// ---------------------------------------------------------------- BRO-ELL

template <int B>
void bro_ell_slice_spmv(const core::BroEll& a, const core::BroEllSlice& slice,
                        std::span<const value_t> x, std::span<value_t> y) {
  const std::uint32_t* stream = slice.stream.data<std::uint32_t>();
  const std::size_t h = static_cast<std::size_t>(slice.height);
  const std::uint8_t* alloc = slice.bit_alloc.data();
  const value_t* vals = a.csr().vals.data();
  const index_t* row_ptr = a.csr().row_ptr.data();
  const value_t* xp = x.data();

  // Every row of a slice consumes the same alloc[c] bits at column c, so
  // all row decoders drain their symbol buffers in lockstep: the residual
  // bit count and refill cadence are shared state. Decoding four rows per
  // pass therefore costs one refill branch per column (not per row), the
  // four refill loads are adjacent lanes (one or two cache lines), and the
  // four extract chains are independent. Each row's sum still accumulates
  // in column order, so no result bit changes. A valid slot c of row r is
  // the row's c-th CSR entry, so each row reads its values through one
  // base pointer.
  index_t t = 0;
  for (; t + 3 < slice.height; t += 4) {
    const std::size_t r0 = static_cast<std::size_t>(slice.first_row + t);
    const std::uint32_t* next_load = stream + static_cast<std::size_t>(t);
    const value_t* v0 = vals + row_ptr[r0];
    const value_t* v1 = vals + row_ptr[r0 + 1];
    const value_t* v2 = vals + row_ptr[r0 + 2];
    const value_t* v3 = vals + row_ptr[r0 + 3];
    std::uint64_t sym0 = 0, sym1 = 0, sym2 = 0, sym3 = 0;
    int rb = 0;
    index_t col0 = -1, col1 = -1, col2 = -1, col3 = -1;
    value_t sum0 = 0, sum1 = 0, sum2 = 0, sum3 = 0;
    for (index_t c = 0; c < slice.num_col; ++c) {
      const int b = B >= 0 ? B : alloc[static_cast<std::size_t>(c)];
      std::uint32_t d0, d1, d2, d3;
      if (b <= rb) {
        rb -= b;
        const std::uint64_t mask = bits::max_value_for_bits(b);
        d0 = static_cast<std::uint32_t>((sym0 >> rb) & mask);
        d1 = static_cast<std::uint32_t>((sym1 >> rb) & mask);
        d2 = static_cast<std::uint32_t>((sym2 >> rb) & mask);
        d3 = static_cast<std::uint32_t>((sym3 >> rb) & mask);
      } else {
        const int high = rb;
        const int low = b - high;
        const std::uint64_t hmask = bits::max_value_for_bits(high);
        const std::uint64_t lmask = bits::max_value_for_bits(low);
        const std::uint64_t h0 = sym0 & hmask, h1 = sym1 & hmask;
        const std::uint64_t h2 = sym2 & hmask, h3 = sym3 & hmask;
        sym0 = next_load[0];
        sym1 = next_load[1];
        sym2 = next_load[2];
        sym3 = next_load[3];
        next_load += h;
        rb = kSym - low;
        d0 = static_cast<std::uint32_t>((h0 << low) | ((sym0 >> rb) & lmask));
        d1 = static_cast<std::uint32_t>((h1 << low) | ((sym1 >> rb) & lmask));
        d2 = static_cast<std::uint32_t>((h2 << low) | ((sym2 >> rb) & lmask));
        d3 = static_cast<std::uint32_t>((h3 << low) | ((sym3 >> rb) & lmask));
      }
      if (d0 != bits::kInvalidDelta) {
        col0 += static_cast<index_t>(d0);
        sum0 += v0[c] * xp[static_cast<std::size_t>(col0)];
      }
      if (d1 != bits::kInvalidDelta) {
        col1 += static_cast<index_t>(d1);
        sum1 += v1[c] * xp[static_cast<std::size_t>(col1)];
      }
      if (d2 != bits::kInvalidDelta) {
        col2 += static_cast<index_t>(d2);
        sum2 += v2[c] * xp[static_cast<std::size_t>(col2)];
      }
      if (d3 != bits::kInvalidDelta) {
        col3 += static_cast<index_t>(d3);
        sum3 += v3[c] * xp[static_cast<std::size_t>(col3)];
      }
    }
    y[r0] = sum0;
    y[r0 + 1] = sum1;
    y[r0 + 2] = sum2;
    y[r0 + 3] = sum3;
  }
  for (; t < slice.height; ++t) {
    const std::size_t r = static_cast<std::size_t>(slice.first_row + t);
    LaneDecoder<B> dec(stream, h, static_cast<std::size_t>(t));
    const value_t* v = vals + row_ptr[r];
    index_t col = -1;
    value_t sum = 0;
    for (index_t c = 0; c < slice.num_col; ++c) {
      const std::uint32_t d =
          B >= 0 ? dec.next()
                 : dec.next(alloc[static_cast<std::size_t>(c)]);
      if (d != bits::kInvalidDelta) {
        col += static_cast<index_t>(d);
        sum += v[c] * xp[static_cast<std::size_t>(col)];
      }
    }
    y[r] = sum;
  }
}

template <int B>
void bro_ell_slice_spmm(const core::BroEll& a, const core::BroEllSlice& slice,
                        std::span<const value_t> x, std::span<value_t> y,
                        int k) {
  const std::uint32_t* stream = slice.stream.data<std::uint32_t>();
  const std::size_t h = static_cast<std::size_t>(slice.height);
  const std::uint8_t* alloc = slice.bit_alloc.data();
  const value_t* vals = a.csr().vals.data();
  const index_t* row_ptr = a.csr().row_ptr.data();
  const std::size_t uk = static_cast<std::size_t>(k);
  // Row pairing as in the SpMV kernel: per-row accumulation order is
  // untouched (each row still sums in column order), so results are
  // bit-identical while two decode chains stay in flight. One decode per
  // column index, k FMAs per decode: the unpacking cost of Algorithm 1 is
  // amortized over the batch.
  index_t t = 0;
  for (; t + 1 < slice.height; t += 2) {
    const std::size_t r0 = static_cast<std::size_t>(slice.first_row + t);
    const std::size_t r1 = r0 + 1;
    LaneDecoder<B> dec0(stream, h, static_cast<std::size_t>(t));
    LaneDecoder<B> dec1(stream, h, static_cast<std::size_t>(t) + 1);
    const value_t* v0 = vals + row_ptr[r0];
    const value_t* v1 = vals + row_ptr[r1];
    index_t col0 = -1, col1 = -1;
    value_t* y0 = y.data() + r0 * uk;
    value_t* y1 = y.data() + r1 * uk;
    for (std::size_t b = 0; b < uk; ++b) y0[b] = 0;
    for (std::size_t b = 0; b < uk; ++b) y1[b] = 0;
    for (index_t c = 0; c < slice.num_col; ++c) {
      const int bw = B >= 0 ? 0 : alloc[static_cast<std::size_t>(c)];
      const std::uint32_t d0 = dec0.next(bw);
      const std::uint32_t d1 = dec1.next(bw);
      if (d0 != bits::kInvalidDelta) {
        col0 += static_cast<index_t>(d0);
        const value_t v = v0[c];
        const value_t* xc = x.data() + static_cast<std::size_t>(col0) * uk;
        for (std::size_t b = 0; b < uk; ++b) y0[b] += v * xc[b];
      }
      if (d1 != bits::kInvalidDelta) {
        col1 += static_cast<index_t>(d1);
        const value_t v = v1[c];
        const value_t* xc = x.data() + static_cast<std::size_t>(col1) * uk;
        for (std::size_t b = 0; b < uk; ++b) y1[b] += v * xc[b];
      }
    }
  }
  for (; t < slice.height; ++t) {
    const std::size_t r = static_cast<std::size_t>(slice.first_row + t);
    LaneDecoder<B> dec(stream, h, static_cast<std::size_t>(t));
    const value_t* vr = vals + row_ptr[r];
    index_t col = -1;
    value_t* yr = y.data() + r * uk;
    for (std::size_t b = 0; b < uk; ++b) yr[b] = 0;
    for (index_t c = 0; c < slice.num_col; ++c) {
      const std::uint32_t d =
          B >= 0 ? dec.next()
                 : dec.next(alloc[static_cast<std::size_t>(c)]);
      if (d != bits::kInvalidDelta) {
        col += static_cast<index_t>(d);
        const value_t v = vr[c];
        const value_t* xc = x.data() + static_cast<std::size_t>(col) * uk;
        for (std::size_t b = 0; b < uk; ++b) yr[b] += v * xc[b];
      }
    }
  }
}

// ---------------------------------------------------------------- BRO-COO

/// Decode-only pass over the final lane of interval i: the entry stream is
/// row-sorted in entry order and the interval's last entry ((cols-1)*w +
/// (w-1)) lives in lane w-1, so this yields the interval's last row for
/// 1/w-th of the interval's decode work. Knowing it up front lets the main
/// loop route every entry with two predictable equality tests instead of
/// tracking a candidate last row with a flush-and-reset chain per row
/// change.
template <int B>
index_t bro_coo_interval_last_row(const core::BroCooInterval& iv,
                                  const std::uint32_t* stream, int w,
                                  int cols) {
  LaneDecoder<B> dec(stream, static_cast<std::size_t>(w),
                     static_cast<std::size_t>(w - 1));
  index_t row = iv.start_row;
  for (int c = 0; c < cols; ++c)
    row += static_cast<index_t>(B >= 0 ? dec.next() : dec.next(iv.bits));
  return row;
}

template <int B>
void bro_coo_interval_spmv(const core::BroCoo& a, std::size_t i,
                           std::span<const value_t> x, std::span<value_t> y,
                           BroCooCarry& carry) {
  const auto& iv = a.intervals()[i];
  const int w = a.options().warp_size;
  const int cols = a.options().interval_cols;
  const std::size_t base = i * static_cast<std::size_t>(w) *
                           static_cast<std::size_t>(cols);
  const std::uint32_t* stream = iv.stream.data<std::uint32_t>();
  const value_t* vals = a.vals().data();
  const index_t* col_idx = a.col_idx().data();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  const index_t last_row =
      bro_coo_interval_last_row<B>(iv, stream, w, cols);
  carry = BroCooCarry{};
  carry.first_row = iv.start_row;
  carry.last_row = last_row;

  // Decode lanes and accumulate. Lane j covers entries base + c*w + j.
  // Interior rows are exclusive to the interval and go straight into y;
  // the first and the last row may be shared with a neighbour and are
  // reported through the carry. (When the whole interval is one row, the
  // first test catches every entry and last_sum stays 0.)
  const auto route = [&](index_t row, value_t contrib) {
    if (row == iv.start_row) {
      carry.first_sum += contrib;
    } else if (row == last_row) {
      carry.last_sum += contrib;
    } else {
      yp[static_cast<std::size_t>(row)] += contrib;
    }
  };
  const int b = B >= 0 ? B : iv.bits;
  if (w <= kMaxCooLanes) {
    // Every lane of the interval decodes the same iv.bits per column, so
    // all w symbol buffers drain in lockstep: residual bit count and refill
    // cadence are shared, the loop walks entries column-major (base + c*w
    // + j for j = 0..w-1, i.e. global entry order), refill loads are w
    // contiguous symbols, and vals/col_idx are read sequentially. The w
    // decode chains live in small stack arrays, so no chain ever waits on
    // another. Mirrored exactly (same traversal, same w cutoff) by the
    // SpMM kernel below so multi-vector results stay bitwise equal to
    // per-column SpMV.
    std::uint64_t sym[kMaxCooLanes];
    index_t row[kMaxCooLanes];
    for (int j = 0; j < w; ++j) sym[j] = 0;
    for (int j = 0; j < w; ++j) row[j] = iv.start_row;
    int rb = 0;
    const std::uint32_t* next_load = stream;
    std::size_t e = base;
    for (int c = 0; c < cols; ++c) {
      if (b <= rb) {
        rb -= b;
        const std::uint64_t mask = bits::max_value_for_bits(b);
        for (int j = 0; j < w; ++j)
          row[j] += static_cast<index_t>((sym[j] >> rb) & mask);
      } else {
        const int high = rb;
        const int low = b - high;
        const std::uint64_t hmask = bits::max_value_for_bits(high);
        const std::uint64_t lmask = bits::max_value_for_bits(low);
        rb = kSym - low;
        for (int j = 0; j < w; ++j) {
          const std::uint64_t hpart = sym[j] & hmask;
          const std::uint64_t s = next_load[j];
          sym[j] = s;
          row[j] += static_cast<index_t>((hpart << low) | ((s >> rb) & lmask));
        }
        next_load += w;
      }
      for (int j = 0; j < w; ++j)
        route(row[j],
              vals[e + static_cast<std::size_t>(j)] *
                  xp[static_cast<std::size_t>(
                      col_idx[e + static_cast<std::size_t>(j)])]);
      e += static_cast<std::size_t>(w);
    }
  } else {
    // Correctness path for exotic warp sizes: one lane at a time.
    for (int j = 0; j < w; ++j) {
      LaneDecoder<B> dec(stream, static_cast<std::size_t>(w),
                         static_cast<std::size_t>(j));
      index_t row = iv.start_row;
      std::size_t e = base + static_cast<std::size_t>(j);
      for (int c = 0; c < cols; ++c, e += static_cast<std::size_t>(w)) {
        row += static_cast<index_t>(dec.next(b));
        route(row, vals[e] * xp[static_cast<std::size_t>(col_idx[e])]);
      }
    }
  }
}

template <int B>
void bro_coo_interval_spmm(const core::BroCoo& a, std::size_t i,
                           std::span<const value_t> x, std::span<value_t> y,
                           int k, BroCooCarry& carry, value_t* first_sum,
                           value_t* last_sum) {
  const auto& iv = a.intervals()[i];
  const int w = a.options().warp_size;
  const int cols = a.options().interval_cols;
  const std::size_t base = i * static_cast<std::size_t>(w) *
                           static_cast<std::size_t>(cols);
  const std::uint32_t* stream = iv.stream.data<std::uint32_t>();
  const value_t* vals = a.vals().data();
  const index_t* col_idx = a.col_idx().data();
  const std::size_t uk = static_cast<std::size_t>(k);
  const index_t last_row =
      bro_coo_interval_last_row<B>(iv, stream, w, cols);
  carry = BroCooCarry{};
  carry.first_row = iv.start_row;
  carry.last_row = last_row;

  // Same transposed traversal (and the same w cutoff) as the single-vector
  // kernel — per right-hand side, entries hit each y element in the same
  // order, so multi-vector results stay bitwise equal to per-column SpMV —
  // with every scalar accumulation widened to a tile of at most
  // kCooSegWidth right-hand sides. Wider batches re-decode the interval
  // once per tile: the unpacking cost is amortized over kc FMAs per entry.
  const int b = B >= 0 ? B : iv.bits;
  for (int k0 = 0; k0 < k; k0 += kCooSegWidth) {
    const std::size_t kc =
        static_cast<std::size_t>(std::min(kCooSegWidth, k - k0));
    const std::size_t uk0 = static_cast<std::size_t>(k0);
    for (std::size_t bb = 0; bb < kc; ++bb) first_sum[uk0 + bb] = 0;
    for (std::size_t bb = 0; bb < kc; ++bb) last_sum[uk0 + bb] = 0;
    const auto accumulate = [&](index_t row, std::size_t e) {
      const value_t v = vals[e];
      const value_t* xc =
          x.data() + static_cast<std::size_t>(col_idx[e]) * uk + uk0;
      value_t* dst;
      if (row == iv.start_row) {
        dst = first_sum + uk0;
      } else if (row == last_row) {
        dst = last_sum + uk0;
      } else {
        dst = y.data() + static_cast<std::size_t>(row) * uk + uk0;
      }
      for (std::size_t bb = 0; bb < kc; ++bb) dst[bb] += v * xc[bb];
    };
    if (w <= kMaxCooLanes) {
      std::uint64_t sym[kMaxCooLanes];
      index_t row[kMaxCooLanes];
      for (int j = 0; j < w; ++j) sym[j] = 0;
      for (int j = 0; j < w; ++j) row[j] = iv.start_row;
      int rb = 0;
      const std::uint32_t* next_load = stream;
      std::size_t e = base;
      for (int c = 0; c < cols; ++c) {
        if (b <= rb) {
          rb -= b;
          const std::uint64_t mask = bits::max_value_for_bits(b);
          for (int j = 0; j < w; ++j)
            row[j] += static_cast<index_t>((sym[j] >> rb) & mask);
        } else {
          const int high = rb;
          const int low = b - high;
          const std::uint64_t hmask = bits::max_value_for_bits(high);
          const std::uint64_t lmask = bits::max_value_for_bits(low);
          rb = kSym - low;
          for (int j = 0; j < w; ++j) {
            const std::uint64_t hpart = sym[j] & hmask;
            const std::uint64_t s = next_load[j];
            sym[j] = s;
            row[j] +=
                static_cast<index_t>((hpart << low) | ((s >> rb) & lmask));
          }
          next_load += w;
        }
        for (int j = 0; j < w; ++j)
          accumulate(row[j], e + static_cast<std::size_t>(j));
        e += static_cast<std::size_t>(w);
      }
    } else {
      for (int j = 0; j < w; ++j) {
        LaneDecoder<B> dec(stream, static_cast<std::size_t>(w),
                           static_cast<std::size_t>(j));
        index_t row = iv.start_row;
        std::size_t e = base + static_cast<std::size_t>(j);
        for (int c = 0; c < cols; ++c, e += static_cast<std::size_t>(w)) {
          row += static_cast<index_t>(dec.next(b));
          accumulate(row, e);
        }
      }
    }
  }
}

/// Decode `count` deltas of width B from one lane and fold them into a
/// checksum — the decode-only inner loop the throughput microbenchmark
/// times (no values, no x gather: pure unpack speed).
template <int B>
std::uint64_t decode_lane_checksum(const std::uint32_t* stream,
                                   std::size_t stride, std::size_t lane,
                                   std::size_t count, int runtime_b) {
  LaneDecoder<B> dec(stream, stride, lane);
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < count; ++c)
    sum += B >= 0 ? dec.next() : dec.next(runtime_b);
  return sum;
}

} // namespace bro::kernels::detail
