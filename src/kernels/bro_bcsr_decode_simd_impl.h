// Vectorized BRO-BCSR kernels, included once per ISA translation unit
// (simd_sse4.cpp / simd_avx2.cpp).
//
// The including TU defines BRO_SIMD_NS and is compiled with exactly that
// ISA's target flag plus -ffp-contract=off (src/kernels/CMakeLists.txt),
// never -march=native.
//
// ODR rule: as in bro_decode_simd_impl.h, stay self-contained — the symbol
// decoder below is a local copy of the bro_bcsr_decode.cpp one, not a shared
// template the baseline TUs also instantiate.
//
// Unlike the ELL/COO kernels (which vectorize the integer bit-unpack), BCSR
// vectorizes the VALUE loop: a block's tile is contiguous and every
// candidate block width divides 8, so a block's columns occupy one aligned
// group of the 8-lane accumulator contract (core/bro_bcsr.h) and the vector
// slots ARE the contract's lanes. Index decode stays scalar — it carries
// 1/(r*c) of BRO-ELL's symbol traffic. Multiplies and adds are separate
// intrinsics in ascending block order and the reduction is always the
// scalar pairwise tree over a spilled 8-lane buffer, so results are bitwise
// identical to the scalar kernels by construction.
//
// x tail safety: a vector x load spans one block's columns. Only the last
// real block column of the matrix can be column-partial (cols % bc != 0),
// and block columns per row are strictly increasing, so each row defers at
// most that one block and applies it scalar on the spilled lanes — after
// the vector loop, which preserves the per-lane ascending-column order.
// Row-partial tail blocks need no care: their padding tile rows are zero
// and their lanes are simply never stored back.

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "core/bro_bcsr.h"
#include "kernels/bro_decode_simd.h"

namespace bro::kernels::BRO_SIMD_NS {
namespace {

using core::BroBcsr;
using core::BroEllSlice;

// Local copy of the symbol-buffer lane decoder (see ODR rule above).
class LaneStream {
 public:
  LaneStream(const bits::MuxedStream& s, std::size_t lane)
      : base_(s.data<std::uint32_t>()), height_(s.height()), lane_(lane) {}

  std::uint32_t next(int b) {
    std::uint64_t decoded;
    if (b <= rb_) {
      decoded = take(b);
      shift_out(b);
      rb_ -= b;
    } else {
      decoded = take(rb_);
      const int b2 = b - rb_;
      sym_ = static_cast<std::uint64_t>(base_[loads_ * height_ + lane_]);
      ++loads_;
      decoded = (decoded << b2) | take(b2);
      shift_out(b2);
      rb_ = kSymLen - b2;
    }
    return static_cast<std::uint32_t>(decoded);
  }

 private:
  static constexpr int kSymLen = 32;
  static constexpr std::uint64_t kMask = bits::max_value_for_bits(kSymLen);

  std::uint64_t take(int q) const {
    if (q <= 0) return 0;
    return (sym_ >> (kSymLen - q)) & bits::max_value_for_bits(q);
  }
  void shift_out(int q) { sym_ = (sym_ << q) & kMask; }

  const std::uint32_t* base_;
  std::size_t height_;
  std::size_t lane_;
  std::uint64_t sym_ = 0;
  int rb_ = 0;
  std::size_t loads_ = 0;
};

// Double-lane shim: one kernel body per shape covers both register widths.
// madd() is a separate multiply then add — with -ffp-contract=off the
// compiler cannot fuse them, matching the scalar two-statement contract.
#if defined(__AVX2__)

struct VecD {
  using Reg = __m256d;
  static constexpr int kLanes = 4;
  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg load(const value_t* p) { return _mm256_loadu_pd(p); }
  static void store(value_t* p, Reg v) { _mm256_storeu_pd(p, v); }
  static Reg broadcast(value_t v) { return _mm256_set1_pd(v); }
  static Reg madd(Reg acc, Reg a, Reg b) {
    return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
  }
};

#else // 128-bit lanes: every intrinsic below is SSE2, the TU targets SSE4.2.

struct VecD {
  using Reg = __m128d;
  static constexpr int kLanes = 2;
  static Reg zero() { return _mm_setzero_pd(); }
  static Reg load(const value_t* p) { return _mm_loadu_pd(p); }
  static void store(value_t* p, Reg v) { _mm_storeu_pd(p, v); }
  static Reg broadcast(value_t v) { return _mm_set1_pd(v); }
  static Reg madd(Reg acc, Reg a, Reg b) {
    return _mm_add_pd(acc, _mm_mul_pd(a, b));
  }
};

#endif

// The contract's fixed pairwise reduction (core::BcsrLaneAcc::reduce).
inline value_t reduce8(const value_t* l) {
  return (((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))) +
         0.0;
}

// Scalar application of the deferred column-partial block onto spilled
// lanes: rows i < rh, columns k < ch, ascending — core::BroBcsr::spmv's
// clipped path verbatim.
inline void apply_partial(value_t lanes[][8], const value_t* tv, int bc,
                          int rh, int ch, index_t c0,
                          std::span<const value_t> x) {
  for (int i = 0; i < rh; ++i) {
    for (int k = 0; k < ch; ++k) {
      const value_t p = tv[i * bc + k] * x[static_cast<std::size_t>(c0 + k)];
      lanes[i][(c0 + k) & 7] += p;
    }
  }
}

// 2x2: block columns land on lane pair {2*(bcol&3), +1}; accumulators are
// four xmm pairs per block row. Pure SSE2, shared by both register widths.
void spmv_2x2(const BroBcsr& a, std::size_t si, std::span<const value_t> x,
              std::span<value_t> y) {
  const BroEllSlice& slice = a.slices()[si];
  const value_t* vb = a.vals().data() + a.slice_val_offset(si);
  const index_t rows = a.rows(), cols = a.cols();
  const index_t last_partial = (cols % 2 != 0) ? cols / 2 : -1;
  for (index_t t = 0; t < slice.height; ++t) {
    const index_t r0 = (slice.first_row + t) * 2;
    const int rh = static_cast<int>(std::min<index_t>(2, rows - r0));
    __m128d acc[2][4];
    for (auto& row : acc)
      for (auto& s : row) s = _mm_setzero_pd();
    LaneStream dec(slice.stream, static_cast<std::size_t>(t));
    const value_t* trow =
        vb + static_cast<std::size_t>(t) *
                 static_cast<std::size_t>(slice.num_col) * 4;
    index_t bcol = -1, pj = -1;
    for (index_t j = 0; j < slice.num_col; ++j) {
      const std::uint32_t d =
          dec.next(slice.bit_alloc[static_cast<std::size_t>(j)]);
      if (d == bits::kInvalidDelta) continue;
      bcol += static_cast<index_t>(d);
      if (bcol == last_partial) {
        pj = j;
        continue;
      }
      const value_t* tv = trow + static_cast<std::size_t>(j) * 4;
      const __m128d xv = _mm_loadu_pd(x.data() + bcol * 2);
      const int s = bcol & 3;
      acc[0][s] = _mm_add_pd(acc[0][s], _mm_mul_pd(_mm_loadu_pd(tv), xv));
      acc[1][s] = _mm_add_pd(acc[1][s], _mm_mul_pd(_mm_loadu_pd(tv + 2), xv));
    }
    value_t lanes[2][8];
    for (int i = 0; i < rh; ++i)
      for (int s = 0; s < 4; ++s) _mm_storeu_pd(lanes[i] + 2 * s, acc[i][s]);
    if (pj >= 0)
      apply_partial(lanes, trow + static_cast<std::size_t>(pj) * 4, 2, rh,
                    static_cast<int>(cols - last_partial * 2),
                    last_partial * 2, x);
    for (int i = 0; i < rh; ++i)
      y[static_cast<std::size_t>(r0 + i)] = reduce8(lanes[i]);
  }
}

// 4x4: block columns land on lane quad {4*(bcol&1)..}; per block row, two
// accumulator slots of 4 lanes each.
void spmv_4x4(const BroBcsr& a, std::size_t si, std::span<const value_t> x,
              std::span<value_t> y) {
  constexpr int kRegs = 4 / VecD::kLanes;
  const BroEllSlice& slice = a.slices()[si];
  const value_t* vb = a.vals().data() + a.slice_val_offset(si);
  const index_t rows = a.rows(), cols = a.cols();
  const index_t last_partial = (cols % 4 != 0) ? cols / 4 : -1;
  for (index_t t = 0; t < slice.height; ++t) {
    const index_t r0 = (slice.first_row + t) * 4;
    const int rh = static_cast<int>(std::min<index_t>(4, rows - r0));
    typename VecD::Reg acc[4][2][kRegs];
    for (auto& row : acc)
      for (auto& slot : row)
        for (auto& r : slot) r = VecD::zero();
    LaneStream dec(slice.stream, static_cast<std::size_t>(t));
    const value_t* trow =
        vb + static_cast<std::size_t>(t) *
                 static_cast<std::size_t>(slice.num_col) * 16;
    index_t bcol = -1, pj = -1;
    for (index_t j = 0; j < slice.num_col; ++j) {
      const std::uint32_t d =
          dec.next(slice.bit_alloc[static_cast<std::size_t>(j)]);
      if (d == bits::kInvalidDelta) continue;
      bcol += static_cast<index_t>(d);
      if (bcol == last_partial) {
        pj = j;
        continue;
      }
      const value_t* tv = trow + static_cast<std::size_t>(j) * 16;
      typename VecD::Reg xv[kRegs];
      for (int v = 0; v < kRegs; ++v)
        xv[v] = VecD::load(x.data() + bcol * 4 + v * VecD::kLanes);
      const int s = bcol & 1;
      for (int i = 0; i < 4; ++i)
        for (int v = 0; v < kRegs; ++v)
          acc[i][s][v] = VecD::madd(acc[i][s][v],
                                    VecD::load(tv + i * 4 + v * VecD::kLanes),
                                    xv[v]);
    }
    value_t lanes[4][8];
    for (int i = 0; i < rh; ++i)
      for (int s = 0; s < 2; ++s)
        for (int v = 0; v < kRegs; ++v)
          VecD::store(lanes[i] + 4 * s + v * VecD::kLanes, acc[i][s][v]);
    if (pj >= 0)
      apply_partial(lanes, trow + static_cast<std::size_t>(pj) * 16, 4, rh,
                    static_cast<int>(cols - last_partial * 4),
                    last_partial * 4, x);
    for (int i = 0; i < rh; ++i)
      y[static_cast<std::size_t>(r0 + i)] = reduce8(lanes[i]);
  }
}

// 8x1: one lane per block (bcol & 7), vectorized over the tile's 8 ROWS
// with a broadcast x value. Accumulators live in a lane-major buffer
// (accT[lane][row]) touched one lane per block; bc == 1 means no block can
// be column-partial.
void spmv_8x1(const BroBcsr& a, std::size_t si, std::span<const value_t> x,
              std::span<value_t> y) {
  constexpr int kRegs = 8 / VecD::kLanes;
  const BroEllSlice& slice = a.slices()[si];
  const value_t* vb = a.vals().data() + a.slice_val_offset(si);
  const index_t rows = a.rows();
  for (index_t t = 0; t < slice.height; ++t) {
    const index_t r0 = (slice.first_row + t) * 8;
    const int rh = static_cast<int>(std::min<index_t>(8, rows - r0));
    alignas(32) value_t accT[8][8] = {};
    LaneStream dec(slice.stream, static_cast<std::size_t>(t));
    const value_t* trow =
        vb + static_cast<std::size_t>(t) *
                 static_cast<std::size_t>(slice.num_col) * 8;
    index_t bcol = -1;
    for (index_t j = 0; j < slice.num_col; ++j) {
      const std::uint32_t d =
          dec.next(slice.bit_alloc[static_cast<std::size_t>(j)]);
      if (d == bits::kInvalidDelta) continue;
      bcol += static_cast<index_t>(d);
      const value_t* tv = trow + static_cast<std::size_t>(j) * 8;
      value_t* al = accT[bcol & 7];
      const typename VecD::Reg xb =
          VecD::broadcast(x[static_cast<std::size_t>(bcol)]);
      for (int v = 0; v < kRegs; ++v) {
        const int o = v * VecD::kLanes;
        VecD::store(al + o, VecD::madd(VecD::load(al + o),
                                       VecD::load(tv + o), xb));
      }
    }
    for (int i = 0; i < rh; ++i) {
      value_t lanes[8];
      for (int l = 0; l < 8; ++l) lanes[l] = accT[l][i];
      y[static_cast<std::size_t>(r0 + i)] = reduce8(lanes);
    }
  }
}

// 1x8: the block's 8 columns ARE the 8 contract lanes (c0 aligned to 8);
// never a row tail.
void spmv_1x8(const BroBcsr& a, std::size_t si, std::span<const value_t> x,
              std::span<value_t> y) {
  constexpr int kRegs = 8 / VecD::kLanes;
  const BroEllSlice& slice = a.slices()[si];
  const value_t* vb = a.vals().data() + a.slice_val_offset(si);
  const index_t cols = a.cols();
  const index_t last_partial = (cols % 8 != 0) ? cols / 8 : -1;
  for (index_t t = 0; t < slice.height; ++t) {
    const index_t r0 = slice.first_row + t;
    typename VecD::Reg acc[kRegs];
    for (auto& r : acc) r = VecD::zero();
    LaneStream dec(slice.stream, static_cast<std::size_t>(t));
    const value_t* trow =
        vb + static_cast<std::size_t>(t) *
                 static_cast<std::size_t>(slice.num_col) * 8;
    index_t bcol = -1, pj = -1;
    for (index_t j = 0; j < slice.num_col; ++j) {
      const std::uint32_t d =
          dec.next(slice.bit_alloc[static_cast<std::size_t>(j)]);
      if (d == bits::kInvalidDelta) continue;
      bcol += static_cast<index_t>(d);
      if (bcol == last_partial) {
        pj = j;
        continue;
      }
      const value_t* tv = trow + static_cast<std::size_t>(j) * 8;
      for (int v = 0; v < kRegs; ++v) {
        const int o = v * VecD::kLanes;
        acc[v] = VecD::madd(acc[v], VecD::load(tv + o),
                            VecD::load(x.data() + bcol * 8 + o));
      }
    }
    value_t lanes[1][8];
    for (int v = 0; v < kRegs; ++v)
      VecD::store(lanes[0] + v * VecD::kLanes, acc[v]);
    if (pj >= 0)
      apply_partial(lanes, trow + static_cast<std::size_t>(pj) * 8, 8, 1,
                    static_cast<int>(cols - last_partial * 8),
                    last_partial * 8, x);
    y[static_cast<std::size_t>(r0)] = reduce8(lanes[0]);
  }
}

} // namespace

// This header's entries of the ISA's SimdKernels table, in
// kBcsrCandidateShapes order: 0=2x2, 1=4x4, 2=8x1, 3=1x8.
constexpr void add_kernels(SimdKernels& t) {
  t.bcsr_spmv[0] = &spmv_2x2;
  t.bcsr_spmv[1] = &spmv_4x4;
  t.bcsr_spmv[2] = &spmv_8x1;
  t.bcsr_spmv[3] = &spmv_1x8;
}

} // namespace bro::kernels::BRO_SIMD_NS
