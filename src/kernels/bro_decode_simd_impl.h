// Vectorized BRO-ELL/BRO-COO decode kernels, included once per ISA
// translation unit (simd_sse4.cpp / simd_avx2.cpp).
//
// The including TU defines BRO_SIMD_NS — the namespace for this header's
// kernels at that ISA (e.g. simd_avx2) — and is compiled with exactly that
// ISA's target flag plus -ffp-contract=off (src/kernels/CMakeLists.txt),
// never -march=native.
//
// ODR rule for this file: stay self-contained. Do NOT instantiate the
// kernel/decoder templates from bro_decode.h (or any other non-trivial
// shared inline code that baseline TUs also instantiate) — the linker keeps
// a single copy of such comdat instantiations, and if it picks the one
// compiled here the "scalar" dispatch path would execute ISA instructions
// on hosts that lack them. bro_decode.h is included for its constexpr
// cutoff constants only; the scalar remainder loops below are local copies.
//
// Lane mapping follows the paper's warp mapping: BRO-ELL assigns one vector
// lane per row of a slice, BRO-COO one lane per interval column position.
// Only the integer bit-unpack (shared refill + shift + mask, Algorithm 1
// with the b <= rb load rule) is vectorized; column-index updates, x loads
// and floating-point accumulation stay scalar per lane in the exact order
// of the kernels in bro_decode.h, so results are bitwise identical by
// construction — the property the differential fuzzer's SIMD sweep and the
// ISA-sweep dispatch tests pin down.

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "core/bro_ans.h"
#include "core/bro_coo.h"
#include "core/bro_ell.h"
#include "kernels/bro_decode.h" // constexpr cutoffs only — see ODR rule above
#include "kernels/bro_decode_simd.h"

namespace bro::kernels::BRO_SIMD_NS {
namespace {

// Vector-op shims: the kernels below are written once against this
// interface and instantiated per symbol type. Shift counts are runtime
// values (that is the point — one kernel covers every bit width 0..32,
// uniform or mixed), so the _sll/_srl forms with the count in an xmm
// register, which treat counts >= the lane width as a full shift to zero —
// matching the scalar decoders' uint64 arithmetic on every path the widths
// can reach.
#if defined(__AVX2__)

struct VecU32 {
  using Reg = __m256i;
  static constexpr int kLanes = 8;
  static Reg zero() { return _mm256_setzero_si256(); }
  static Reg load(const std::uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint32_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Reg srl(Reg v, int n) {
    return _mm256_srl_epi32(v, _mm_cvtsi32_si128(n));
  }
  static Reg sll(Reg v, int n) {
    return _mm256_sll_epi32(v, _mm_cvtsi32_si128(n));
  }
  static Reg and_mask(Reg v, std::uint32_t m) {
    return _mm256_and_si256(v, _mm256_set1_epi32(static_cast<int>(m)));
  }
  static Reg or_(Reg a, Reg b) { return _mm256_or_si256(a, b); }
};

struct VecU64 {
  using Reg = __m256i;
  static constexpr int kLanes = 4;
  static Reg zero() { return _mm256_setzero_si256(); }
  static Reg load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Reg srl(Reg v, int n) {
    return _mm256_srl_epi64(v, _mm_cvtsi32_si128(n));
  }
  static Reg sll(Reg v, int n) {
    return _mm256_sll_epi64(v, _mm_cvtsi32_si128(n));
  }
  static Reg and_mask(Reg v, std::uint64_t m) {
    return _mm256_and_si256(v,
                            _mm256_set1_epi64x(static_cast<long long>(m)));
  }
  static Reg or_(Reg a, Reg b) { return _mm256_or_si256(a, b); }
};

#else // 128-bit lanes: every intrinsic below is SSE2, the TU targets SSE4.2.

struct VecU32 {
  using Reg = __m128i;
  static constexpr int kLanes = 4;
  static Reg zero() { return _mm_setzero_si128(); }
  static Reg load(const std::uint32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::uint32_t* p, Reg v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static Reg srl(Reg v, int n) { return _mm_srl_epi32(v, _mm_cvtsi32_si128(n)); }
  static Reg sll(Reg v, int n) { return _mm_sll_epi32(v, _mm_cvtsi32_si128(n)); }
  static Reg and_mask(Reg v, std::uint32_t m) {
    return _mm_and_si128(v, _mm_set1_epi32(static_cast<int>(m)));
  }
  static Reg or_(Reg a, Reg b) { return _mm_or_si128(a, b); }
};

struct VecU64 {
  using Reg = __m128i;
  static constexpr int kLanes = 2;
  static Reg zero() { return _mm_setzero_si128(); }
  static Reg load(const std::uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::uint64_t* p, Reg v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static Reg srl(Reg v, int n) { return _mm_srl_epi64(v, _mm_cvtsi32_si128(n)); }
  static Reg sll(Reg v, int n) { return _mm_sll_epi64(v, _mm_cvtsi32_si128(n)); }
  static Reg and_mask(Reg v, std::uint64_t m) {
    return _mm_and_si128(v, _mm_set1_epi64x(static_cast<long long>(m)));
  }
  static Reg or_(Reg a, Reg b) { return _mm_or_si128(a, b); }
};

#endif

/// One lockstep decode step for V::kLanes adjacent lanes: extract a b-bit
/// delta per lane into d[], refilling every lane from next_load (advanced
/// by `stride`) when the shared residual bit count runs dry. Branch
/// structure and bit arithmetic match LaneDecoder::next exactly.
template <typename SymT, typename V>
inline void lockstep_next(typename V::Reg& sym, int& rb, int b,
                          const SymT*& next_load, std::size_t stride,
                          SymT* d) {
  constexpr int kSym = static_cast<int>(sizeof(SymT) * 8);
  if (b <= rb) {
    rb -= b;
    V::store(d, V::and_mask(V::srl(sym, rb),
                            static_cast<SymT>(bits::max_value_for_bits(b))));
  } else {
    const int high = rb;
    const int low = b - high;
    const typename V::Reg hpart = V::and_mask(
        sym, static_cast<SymT>(bits::max_value_for_bits(high)));
    sym = V::load(next_load);
    next_load += stride;
    rb = kSym - low;
    V::store(d,
             V::or_(V::sll(hpart, low),
                    V::and_mask(V::srl(sym, rb),
                                static_cast<SymT>(
                                    bits::max_value_for_bits(low)))));
  }
}

/// Local copy of LaneDecoder's runtime-width decode (see the ODR rule in
/// the file header for why this is not the shared template): drives the
/// remainder rows of a slice, lanes past the vector multiple of a COO
/// interval's warp, and warps wider than detail::kMaxCooLanes.
template <typename SymT>
class ScalarLane {
 public:
  ScalarLane() = default; // for arrays of deferred-init ANS chains below
  ScalarLane(const SymT* stream, std::size_t stride, std::size_t lane)
      : next_load_(stream + lane), stride_(stride) {}

  inline std::uint32_t next(int b) {
    constexpr int kSym = static_cast<int>(sizeof(SymT) * 8);
    std::uint64_t d;
    if (b <= rb_) {
      d = (sym_ >> (rb_ - b)) & bits::max_value_for_bits(b);
      rb_ -= b;
    } else {
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
  const SymT* next_load_ = nullptr;
  std::size_t stride_ = 0;
  std::uint64_t sym_ = 0;
  int rb_ = 0;
};

// ---------------------------------------------------------------- BRO-ELL

template <typename SymT, typename V>
void ell_slice_spmv(const core::BroEll& a, const core::BroEllSlice& slice,
                    std::span<const value_t> x, std::span<value_t> y) {
  const SymT* stream = slice.stream.template data<SymT>();
  const std::size_t h = static_cast<std::size_t>(slice.height);
  const std::uint8_t* alloc = slice.bit_alloc.data();
  const value_t* vals = a.vals().data();
  const value_t* xp = x.data();
  const std::size_t m = static_cast<std::size_t>(a.rows());
  constexpr int W = V::kLanes;

  // One vector lane per row: all rows of a slice consume alloc[c] bits at
  // column c, so the W symbol buffers live in one register and drain in
  // lockstep. The decoded deltas are spilled to d[] and each row's column
  // walk + FP accumulation runs scalar in column order, exactly as in
  // bro_ell_slice_spmv.
  index_t t = 0;
  for (; t + W - 1 < slice.height; t += W) {
    const std::size_t r0 = static_cast<std::size_t>(slice.first_row + t);
    const SymT* next_load = stream + static_cast<std::size_t>(t);
    typename V::Reg sym = V::zero();
    int rb = 0;
    alignas(32) SymT d[W];
    index_t col[W];
    value_t sum[W];
    for (int j = 0; j < W; ++j) col[j] = -1;
    for (int j = 0; j < W; ++j) sum[j] = 0;
    std::size_t voff = 0;
    for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
      lockstep_next<SymT, V>(sym, rb, alloc[static_cast<std::size_t>(c)],
                             next_load, h, d);
      for (int j = 0; j < W; ++j) {
        if (static_cast<std::uint32_t>(d[j]) != bits::kInvalidDelta) {
          col[j] += static_cast<index_t>(static_cast<std::uint32_t>(d[j]));
          sum[j] += vals[voff + r0 + static_cast<std::size_t>(j)] *
                    xp[static_cast<std::size_t>(col[j])];
        }
      }
    }
    for (int j = 0; j < W; ++j)
      y[r0 + static_cast<std::size_t>(j)] = sum[j];
  }
  for (; t < slice.height; ++t) {
    const std::size_t r = static_cast<std::size_t>(slice.first_row + t);
    ScalarLane<SymT> dec(stream, h, static_cast<std::size_t>(t));
    index_t col = -1;
    value_t sum = 0;
    std::size_t voff = 0;
    for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
      const std::uint32_t d = dec.next(alloc[static_cast<std::size_t>(c)]);
      if (d != bits::kInvalidDelta) {
        col += static_cast<index_t>(d);
        sum += vals[voff + r] * xp[static_cast<std::size_t>(col)];
      }
    }
    y[r] = sum;
  }
}

template <typename SymT, typename V>
void ell_slice_spmm(const core::BroEll& a, const core::BroEllSlice& slice,
                    std::span<const value_t> x, std::span<value_t> y,
                    int k) {
  const SymT* stream = slice.stream.template data<SymT>();
  const std::size_t h = static_cast<std::size_t>(slice.height);
  const std::uint8_t* alloc = slice.bit_alloc.data();
  const value_t* vals = a.vals().data();
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t uk = static_cast<std::size_t>(k);
  constexpr int W = V::kLanes;

  // Same lane-per-row decode as the SpMV kernel; each decoded column feeds
  // k FMAs per live row, per-row in column order as in bro_ell_slice_spmm.
  index_t t = 0;
  for (; t + W - 1 < slice.height; t += W) {
    const std::size_t r0 = static_cast<std::size_t>(slice.first_row + t);
    const SymT* next_load = stream + static_cast<std::size_t>(t);
    typename V::Reg sym = V::zero();
    int rb = 0;
    alignas(32) SymT d[W];
    index_t col[W];
    value_t* yr[W];
    for (int j = 0; j < W; ++j) col[j] = -1;
    for (int j = 0; j < W; ++j) {
      yr[j] = y.data() + (r0 + static_cast<std::size_t>(j)) * uk;
      for (std::size_t bb = 0; bb < uk; ++bb) yr[j][bb] = 0;
    }
    std::size_t voff = 0;
    for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
      lockstep_next<SymT, V>(sym, rb, alloc[static_cast<std::size_t>(c)],
                             next_load, h, d);
      for (int j = 0; j < W; ++j) {
        if (static_cast<std::uint32_t>(d[j]) != bits::kInvalidDelta) {
          col[j] += static_cast<index_t>(static_cast<std::uint32_t>(d[j]));
          const value_t v = vals[voff + r0 + static_cast<std::size_t>(j)];
          const value_t* xc =
              x.data() + static_cast<std::size_t>(col[j]) * uk;
          for (std::size_t bb = 0; bb < uk; ++bb) yr[j][bb] += v * xc[bb];
        }
      }
    }
  }
  for (; t < slice.height; ++t) {
    const std::size_t r = static_cast<std::size_t>(slice.first_row + t);
    ScalarLane<SymT> dec(stream, h, static_cast<std::size_t>(t));
    index_t col = -1;
    value_t* yr = y.data() + r * uk;
    for (std::size_t bb = 0; bb < uk; ++bb) yr[bb] = 0;
    std::size_t voff = 0;
    for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
      const std::uint32_t d = dec.next(alloc[static_cast<std::size_t>(c)]);
      if (d != bits::kInvalidDelta) {
        col += static_cast<index_t>(d);
        const value_t v = vals[voff + r];
        const value_t* xc = x.data() + static_cast<std::size_t>(col) * uk;
        for (std::size_t bb = 0; bb < uk; ++bb) yr[bb] += v * xc[bb];
      }
    }
  }
}

// ---------------------------------------------------------------- BRO-COO

/// Decode-only pass over the final lane of interval i (cf.
/// bro_coo_interval_last_row): 1/w-th of the decode work up front buys the
/// branch-cheap routing below.
template <typename SymT>
index_t coo_last_row(const core::BroCooInterval& iv, const SymT* stream,
                     int w, int cols) {
  ScalarLane<SymT> dec(stream, static_cast<std::size_t>(w),
                       static_cast<std::size_t>(w - 1));
  index_t row = iv.start_row;
  for (int c = 0; c < cols; ++c)
    row += static_cast<index_t>(dec.next(iv.bits));
  return row;
}

template <typename SymT, typename V>
void coo_interval_spmv(const core::BroCoo& a, std::size_t i,
                       std::span<const value_t> x, std::span<value_t> y,
                       BroCooCarry& carry) {
  const auto& iv = a.intervals()[i];
  const int w = a.options().warp_size;
  const int cols = a.options().interval_cols;
  const std::size_t base =
      i * static_cast<std::size_t>(w) * static_cast<std::size_t>(cols);
  const SymT* stream = iv.stream.template data<SymT>();
  const value_t* vals = a.vals().data();
  const index_t* col_idx = a.col_idx().data();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  const index_t last_row = coo_last_row<SymT>(iv, stream, w, cols);
  carry = BroCooCarry{};
  carry.first_row = iv.start_row;
  carry.last_row = last_row;

  const auto route = [&](index_t row, value_t contrib) {
    if (row == iv.start_row) {
      carry.first_sum += contrib;
    } else if (row == last_row) {
      carry.last_sum += contrib;
    } else {
      yp[static_cast<std::size_t>(row)] += contrib;
    }
  };
  constexpr int kSym = static_cast<int>(sizeof(SymT) * 8);
  constexpr int W = V::kLanes;
  const int b = iv.bits;
  if (w <= detail::kMaxCooLanes) {
    // Transposed column-major walk in lockstep, as in
    // bro_coo_interval_spmv, with the per-column extract/refill running
    // over the w lane buffers in W-wide vector chunks (plus a scalar chunk
    // for the remainder lanes). Row updates and routing stay scalar in
    // lane order, so every entry hits y/the carry in global entry order.
    alignas(32) SymT sym[detail::kMaxCooLanes];
    alignas(32) SymT d[detail::kMaxCooLanes];
    index_t row[detail::kMaxCooLanes];
    for (int j = 0; j < w; ++j) sym[j] = 0;
    for (int j = 0; j < w; ++j) row[j] = iv.start_row;
    int rb = 0;
    const SymT* next_load = stream;
    std::size_t e = base;
    for (int c = 0; c < cols; ++c) {
      if (b <= rb) {
        rb -= b;
        const SymT mask = static_cast<SymT>(bits::max_value_for_bits(b));
        int j = 0;
        for (; j + W <= w; j += W)
          V::store(d + j, V::and_mask(V::srl(V::load(sym + j), rb), mask));
        for (; j < w; ++j) d[j] = static_cast<SymT>((sym[j] >> rb) & mask);
      } else {
        const int high = rb;
        const int low = b - high;
        const SymT hmask = static_cast<SymT>(bits::max_value_for_bits(high));
        const SymT lmask = static_cast<SymT>(bits::max_value_for_bits(low));
        rb = kSym - low;
        int j = 0;
        for (; j + W <= w; j += W) {
          const typename V::Reg hpart = V::and_mask(V::load(sym + j), hmask);
          const typename V::Reg s = V::load(next_load + j);
          V::store(sym + j, s);
          V::store(d + j, V::or_(V::sll(hpart, low),
                                 V::and_mask(V::srl(s, rb), lmask)));
        }
        for (; j < w; ++j) {
          const std::uint64_t hpart = sym[j] & hmask;
          const SymT s = next_load[j];
          sym[j] = s;
          d[j] = static_cast<SymT>((hpart << low) | ((s >> rb) & lmask));
        }
        next_load += w;
      }
      for (int j = 0; j < w; ++j)
        row[j] += static_cast<index_t>(static_cast<std::uint32_t>(d[j]));
      for (int j = 0; j < w; ++j)
        route(row[j],
              vals[e + static_cast<std::size_t>(j)] *
                  xp[static_cast<std::size_t>(
                      col_idx[e + static_cast<std::size_t>(j)])]);
      e += static_cast<std::size_t>(w);
    }
  } else {
    // Exotic warp sizes: one lane at a time, as in the scalar kernels.
    for (int j = 0; j < w; ++j) {
      ScalarLane<SymT> dec(stream, static_cast<std::size_t>(w),
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

template <typename SymT, typename V>
void coo_interval_spmm(const core::BroCoo& a, std::size_t i,
                       std::span<const value_t> x, std::span<value_t> y,
                       int k, BroCooCarry& carry, value_t* first_sum,
                       value_t* last_sum) {
  const auto& iv = a.intervals()[i];
  const int w = a.options().warp_size;
  const int cols = a.options().interval_cols;
  const std::size_t base =
      i * static_cast<std::size_t>(w) * static_cast<std::size_t>(cols);
  const SymT* stream = iv.stream.template data<SymT>();
  const value_t* vals = a.vals().data();
  const index_t* col_idx = a.col_idx().data();
  const std::size_t uk = static_cast<std::size_t>(k);
  const index_t last_row = coo_last_row<SymT>(iv, stream, w, cols);
  carry = BroCooCarry{};
  carry.first_row = iv.start_row;
  carry.last_row = last_row;

  // Tile-of-kCooSegWidth structure exactly as in bro_coo_interval_spmm:
  // wider batches re-decode the interval once per tile, every entry hits
  // each destination in the same order per right-hand side.
  constexpr int kSym = static_cast<int>(sizeof(SymT) * 8);
  constexpr int W = V::kLanes;
  const int b = iv.bits;
  for (int k0 = 0; k0 < k; k0 += detail::kCooSegWidth) {
    const std::size_t kc =
        static_cast<std::size_t>(std::min(detail::kCooSegWidth, k - k0));
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
    if (w <= detail::kMaxCooLanes) {
      alignas(32) SymT sym[detail::kMaxCooLanes];
      alignas(32) SymT d[detail::kMaxCooLanes];
      index_t row[detail::kMaxCooLanes];
      for (int j = 0; j < w; ++j) sym[j] = 0;
      for (int j = 0; j < w; ++j) row[j] = iv.start_row;
      int rb = 0;
      const SymT* next_load = stream;
      std::size_t e = base;
      for (int c = 0; c < cols; ++c) {
        if (b <= rb) {
          rb -= b;
          const SymT mask = static_cast<SymT>(bits::max_value_for_bits(b));
          int j = 0;
          for (; j + W <= w; j += W)
            V::store(d + j, V::and_mask(V::srl(V::load(sym + j), rb), mask));
          for (; j < w; ++j) d[j] = static_cast<SymT>((sym[j] >> rb) & mask);
        } else {
          const int high = rb;
          const int low = b - high;
          const SymT hmask =
              static_cast<SymT>(bits::max_value_for_bits(high));
          const SymT lmask =
              static_cast<SymT>(bits::max_value_for_bits(low));
          rb = kSym - low;
          int j = 0;
          for (; j + W <= w; j += W) {
            const typename V::Reg hpart =
                V::and_mask(V::load(sym + j), hmask);
            const typename V::Reg s = V::load(next_load + j);
            V::store(sym + j, s);
            V::store(d + j, V::or_(V::sll(hpart, low),
                                   V::and_mask(V::srl(s, rb), lmask)));
          }
          for (; j < w; ++j) {
            const std::uint64_t hpart = sym[j] & hmask;
            const SymT s = next_load[j];
            sym[j] = s;
            d[j] = static_cast<SymT>((hpart << low) | ((s >> rb) & lmask));
          }
          next_load += w;
        }
        for (int j = 0; j < w; ++j)
          row[j] += static_cast<index_t>(static_cast<std::uint32_t>(d[j]));
        for (int j = 0; j < w; ++j)
          accumulate(row[j], e + static_cast<std::size_t>(j));
        e += static_cast<std::size_t>(w);
      }
    } else {
      for (int j = 0; j < w; ++j) {
        ScalarLane<SymT> dec(stream, static_cast<std::size_t>(w),
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

// --------------------------------------------------------------- checksum

/// Lockstep decode-only checksum over a muxed stream with per-column
/// widths: the bench's pure-unpack inner loop (see SimdChecksumFn). Vector
/// groups of kLanes lanes, scalar for the remainder; the sum over all lanes
/// equals the scalar decoders' checksum (uint64 addition commutes).
template <typename SymT, typename V>
std::uint64_t stream_checksum(const SymT* stream, std::size_t lanes,
                              const std::uint8_t* widths, std::size_t cols) {
  constexpr int W = V::kLanes;
  std::uint64_t total = 0;
  std::size_t t = 0;
  for (; t + W <= lanes; t += W) {
    const SymT* next_load = stream + t;
    typename V::Reg sym = V::zero();
    int rb = 0;
    alignas(32) SymT d[W];
    std::uint64_t acc[W] = {};
    for (std::size_t c = 0; c < cols; ++c) {
      lockstep_next<SymT, V>(sym, rb, widths[c], next_load, lanes, d);
      for (int j = 0; j < W; ++j) acc[j] += d[j];
    }
    for (int j = 0; j < W; ++j) total += acc[j];
  }
  for (; t < lanes; ++t) {
    ScalarLane<SymT> dec(stream, lanes, t);
    for (std::size_t c = 0; c < cols; ++c) total += dec.next(widths[c]);
  }
  return total;
}

} // namespace

// This header's entries of the ISA's SimdKernels table, filled at compile
// time so the baseline-ABI dispatch code can read the exported table
// without running any code compiled at this ISA.
constexpr void add_kernels(SimdKernels& t) {
  t.ell_spmv32 = &ell_slice_spmv<std::uint32_t, VecU32>;
  t.ell_spmv64 = &ell_slice_spmv<std::uint64_t, VecU64>;
  t.ell_spmm32 = &ell_slice_spmm<std::uint32_t, VecU32>;
  t.ell_spmm64 = &ell_slice_spmm<std::uint64_t, VecU64>;
  t.coo_spmv32 = &coo_interval_spmv<std::uint32_t, VecU32>;
  t.coo_spmv64 = &coo_interval_spmv<std::uint64_t, VecU64>;
  t.coo_spmm32 = &coo_interval_spmm<std::uint32_t, VecU32>;
  t.coo_spmm64 = &coo_interval_spmm<std::uint64_t, VecU64>;
  t.checksum32 = &stream_checksum<std::uint32_t, VecU32>;
  t.checksum64 = &stream_checksum<std::uint64_t, VecU64>;
}

} // namespace bro::kernels::BRO_SIMD_NS
