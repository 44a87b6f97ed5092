// Scalar BRO-BCSR kernels and the baseline-ABI dispatch layer.
#include "kernels/bro_bcsr_decode.h"

#include <algorithm>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "kernels/bro_decode_simd.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

using core::BcsrLaneAcc;
using core::BroBcsr;
using core::BroEllSlice;

/// Symbol-buffer decoder over one lane (block row) of a muxed stream,
/// templated on the symbol type. Decodes the identical sequence as
/// core::RowStreamDecoder (same b <= rb load rule), with the symbol width a
/// compile-time constant.
template <typename SymT>
class LaneStream {
 public:
  LaneStream(const bits::MuxedStream& s, std::size_t lane)
      : base_(s.template data<SymT>()), height_(s.height()), lane_(lane) {}

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
  static constexpr int kSymLen = 8 * static_cast<int>(sizeof(SymT));
  static constexpr std::uint64_t kMask = bits::max_value_for_bits(kSymLen);

  std::uint64_t take(int q) const {
    if (q <= 0) return 0;
    return (sym_ >> (kSymLen - q)) & bits::max_value_for_bits(q);
  }
  void shift_out(int q) { sym_ = (q >= 64 ? 0 : (sym_ << q)) & kMask; }

  const SymT* base_;
  std::size_t height_;
  std::size_t lane_;
  std::uint64_t sym_ = 0;
  int rb_ = 0;
  std::size_t loads_ = 0;
};

/// One slice's SpMV, shape-templated (BR/BC = -1 reads the shape at run
/// time). Performs exactly the contract op sequence of core::BroBcsr::spmv.
template <typename SymT, int BR, int BC>
void slice_spmv(const BroBcsr& a, std::size_t si, std::span<const value_t> x,
                std::span<value_t> y) {
  const BroEllSlice& slice = a.slices()[si];
  const int br = BR > 0 ? BR : a.block_r();
  const int bc = BC > 0 ? BC : a.block_c();
  const auto tile = static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
  const value_t* vb = a.vals().data() + a.slice_val_offset(si);
  const index_t rows = a.rows(), cols = a.cols();
  // Shape-templated instantiations size the accumulator bank to the block
  // height: a 2x2 slice then clears and reduces 2 lane groups per block
  // row, not 8 — at two output rows per block row the bank setup would
  // otherwise dominate the whole kernel.
  constexpr int kAccRows = BR > 0 ? BR : 8;
  for (index_t t = 0; t < slice.height; ++t) {
    const index_t r0 = (slice.first_row + t) * br;
    const int rh = static_cast<int>(std::min<index_t>(br, rows - r0));
    BcsrLaneAcc acc[kAccRows];
    LaneStream<SymT> dec(slice.stream, static_cast<std::size_t>(t));
    const value_t* trow =
        vb + static_cast<std::size_t>(t) *
                 static_cast<std::size_t>(slice.num_col) * tile;
    index_t bcol = -1;
    for (index_t j = 0; j < slice.num_col; ++j) {
      const std::uint32_t d =
          dec.next(slice.bit_alloc[static_cast<std::size_t>(j)]);
      if (d == bits::kInvalidDelta) continue;
      bcol += static_cast<index_t>(d);
      const value_t* tv = trow + static_cast<std::size_t>(j) * tile;
      const index_t c0 = bcol * bc;
      const int ch = static_cast<int>(std::min<index_t>(bc, cols - c0));
      if (rh == br && ch == bc) {
        // c0 is bc-aligned and bc divides 8, so the block's columns map to
        // the contiguous lanes [c0 & 7, (c0 & 7) + bc) — hoist the lane
        // base instead of recomputing col & 7 per entry. Same products,
        // same lanes, same order as BcsrLaneAcc::add.
        const int lbase = static_cast<int>(c0 & 7);
        for (int i = 0; i < br; ++i) {
          value_t* lane = acc[i].lane + lbase;
          const value_t* tr = tv + i * bc;
          for (int k = 0; k < bc; ++k) {
            const value_t p = tr[k] * x[static_cast<std::size_t>(c0 + k)];
            lane[k] += p;
          }
        }
      } else {
        for (int i = 0; i < rh; ++i)
          for (int k = 0; k < ch; ++k)
            acc[i].add(c0 + k, tv[i * bc + k],
                       x[static_cast<std::size_t>(c0 + k)]);
      }
    }
    for (int i = 0; i < rh; ++i)
      y[static_cast<std::size_t>(r0 + i)] = acc[i].reduce();
  }
}

/// One slice's SpMM over chunks of up to 8 right-hand sides: the stream is
/// decoded once per chunk and every column's accumulation follows the
/// single-vector contract exactly (acc[i][lane][j] sees the same products in
/// the same order as column j's spmv).
template <typename SymT, int BR, int BC>
void slice_spmm(const BroBcsr& a, std::size_t si, std::span<const value_t> x,
                std::span<value_t> y, int k) {
  const BroEllSlice& slice = a.slices()[si];
  const int br = BR > 0 ? BR : a.block_r();
  const int bc = BC > 0 ? BC : a.block_c();
  const auto tile = static_cast<std::size_t>(br) * static_cast<std::size_t>(bc);
  const value_t* vb = a.vals().data() + a.slice_val_offset(si);
  const index_t rows = a.rows(), cols = a.cols();
  const auto uk = static_cast<std::size_t>(k);
  for (int j0 = 0; j0 < k; j0 += 8) {
    const int kc = std::min(8, k - j0);
    for (index_t t = 0; t < slice.height; ++t) {
      const index_t r0 = (slice.first_row + t) * br;
      const int rh = static_cast<int>(std::min<index_t>(br, rows - r0));
      value_t acc[8][8][8]; // [block row][lane][rhs in chunk]
      for (int i = 0; i < rh; ++i)
        for (int l = 0; l < 8; ++l)
          for (int j = 0; j < kc; ++j) acc[i][l][j] = 0;
      LaneStream<SymT> dec(slice.stream, static_cast<std::size_t>(t));
      const value_t* trow =
          vb + static_cast<std::size_t>(t) *
                   static_cast<std::size_t>(slice.num_col) * tile;
      index_t bcol = -1;
      for (index_t j = 0; j < slice.num_col; ++j) {
        const std::uint32_t d =
            dec.next(slice.bit_alloc[static_cast<std::size_t>(j)]);
        if (d == bits::kInvalidDelta) continue;
        bcol += static_cast<index_t>(d);
        const value_t* tv = trow + static_cast<std::size_t>(j) * tile;
        const index_t c0 = bcol * bc;
        const int ch = static_cast<int>(std::min<index_t>(bc, cols - c0));
        for (int i = 0; i < rh; ++i) {
          for (int kk = 0; kk < ch; ++kk) {
            const int lane = (c0 + kk) & 7;
            const value_t av = tv[i * bc + kk];
            const value_t* xv =
                x.data() + static_cast<std::size_t>(c0 + kk) * uk + j0;
            for (int jj = 0; jj < kc; ++jj) {
              const value_t p = av * xv[jj];
              acc[i][lane][jj] += p;
            }
          }
        }
      }
      for (int i = 0; i < rh; ++i) {
        value_t* yr = y.data() + static_cast<std::size_t>(r0 + i) * uk + j0;
        for (int jj = 0; jj < kc; ++jj) {
          const auto& l = acc[i];
          yr[jj] = (((l[0][jj] + l[1][jj]) + (l[2][jj] + l[3][jj])) +
                    ((l[4][jj] + l[5][jj]) + (l[6][jj] + l[7][jj]))) +
                   0.0;
        }
      }
    }
  }
}

template <typename SymT, int BR, int BC>
constexpr BroBcsrKernel make_scalar_kernel() {
  return {&slice_spmv<SymT, BR, BC>, &slice_spmm<SymT, BR, BC>,
          SimdIsa::kScalar};
}

template <typename SymT>
BroBcsrKernel scalar_kernel_for(int shape_index) {
  switch (shape_index) {
    case 0: return make_scalar_kernel<SymT, 2, 2>();
    case 1: return make_scalar_kernel<SymT, 4, 4>();
    case 2: return make_scalar_kernel<SymT, 8, 1>();
    case 3: return make_scalar_kernel<SymT, 1, 8>();
    default: return make_scalar_kernel<SymT, -1, -1>();
  }
}

} // namespace

int bcsr_shape_index(int br, int bc) {
  for (int i = 0; i < static_cast<int>(core::kBcsrCandidateShapes.size()); ++i)
    if (core::kBcsrCandidateShapes[static_cast<std::size_t>(i)].first == br &&
        core::kBcsrCandidateShapes[static_cast<std::size_t>(i)].second == bc)
      return i;
  return -1;
}

BroBcsrKernel select_bro_bcsr_kernel(const core::BroBcsr& a, SimdIsa isa) {
  const int sym_len = a.options().sym_len;
  const int shape = bcsr_shape_index(a.block_r(), a.block_c());
  BroBcsrKernel k = sym_len == 32 ? scalar_kernel_for<std::uint32_t>(shape)
                                  : scalar_kernel_for<std::uint64_t>(shape);
  const SimdKernels* t = simd_kernels(isa);
  if (t == nullptr || shape < 0) return k;
  const auto fn =
      sym_len == 32 ? t->bcsr_spmv32[shape] : t->bcsr_spmv64[shape];
  if (fn != nullptr) {
    k.spmv = fn;
    k.isa = isa;
  }
  return k;
}

BroBcsrKernel generic_bro_bcsr_kernel(int sym_len) {
  return sym_len == 32 ? make_scalar_kernel<std::uint32_t, -1, -1>()
                       : make_scalar_kernel<std::uint64_t, -1, -1>();
}

std::vector<BroBcsrKernel> plan_bro_bcsr_kernels(const core::BroBcsr& a,
                                                 SimdIsa isa) {
  return std::vector<BroBcsrKernel>(a.slices().size(),
                                    select_bro_bcsr_kernel(a, isa));
}

void native_spmv_bro_bcsr(const core::BroBcsr& a,
                          std::span<const BroBcsrKernel> kernels,
                          std::span<const value_t> x, std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows()));
  BRO_CHECK(kernels.size() == a.slices().size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < kernels.size(); ++si)
    kernels[si].spmv(a, si, x, y);
}

void native_spmv_bro_bcsr(const core::BroBcsr& a, std::span<const value_t> x,
                          std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows()));
  const BroBcsrKernel k = select_bro_bcsr_kernel(a, active_simd_isa());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < a.slices().size(); ++si) k.spmv(a, si, x, y);
}

void native_spmv_bro_bcsr_generic(const core::BroBcsr& a,
                                  std::span<const value_t> x,
                                  std::span<value_t> y) {
  BRO_CHECK(x.size() == static_cast<std::size_t>(a.cols()));
  BRO_CHECK(y.size() == static_cast<std::size_t>(a.rows()));
  const BroBcsrKernel k = generic_bro_bcsr_kernel(a.options().sym_len);
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < a.slices().size(); ++si) k.spmv(a, si, x, y);
}

void native_spmm_bro_bcsr(const core::BroBcsr& a,
                          std::span<const BroBcsrKernel> kernels,
                          std::span<const value_t> x, std::span<value_t> y,
                          int k) {
  BRO_CHECK(k > 0);
  BRO_CHECK(x.size() ==
            static_cast<std::size_t>(a.cols()) * static_cast<std::size_t>(k));
  BRO_CHECK(y.size() ==
            static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(k));
  BRO_CHECK(kernels.size() == a.slices().size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < kernels.size(); ++si)
    kernels[si].spmm(a, si, x, y, k);
}

void native_spmm_bro_bcsr(const core::BroBcsr& a, std::span<const value_t> x,
                          std::span<value_t> y, int k) {
  BRO_CHECK(k > 0);
  BRO_CHECK(x.size() ==
            static_cast<std::size_t>(a.cols()) * static_cast<std::size_t>(k));
  BRO_CHECK(y.size() ==
            static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(k));
  const BroBcsrKernel kn = select_bro_bcsr_kernel(a, active_simd_isa());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t si = 0; si < a.slices().size(); ++si)
    kn.spmm(a, si, x, y, k);
}

} // namespace bro::kernels
