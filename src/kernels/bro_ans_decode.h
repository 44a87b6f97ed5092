// Entropy-coded (BRO-ANS) decode loops (internal header, like
// bro_decode.h: included by the kernel translation units and benches only;
// the public dispatch API lives in native_spmv.h).
//
// The v2 interleaved layout (core/bro_ans.h) stores each slice as lane
// groups of core::kAnsLaneGroup rows sharing one muxed stream, with every
// row's initial decoder state carried out of band. A tANS chain is still
// state-serial — the bit count consumed per symbol depends on the evolving
// state — so the scalar kernels here run several fully independent row
// chains in flight (instruction-level parallelism), each over its own lane
// of the group stream plus a 4 KiB (L1-resident) decode-table lookup per
// symbol. The vectorized counterparts are the ans_* entries of the AVX2
// SimdKernels table (bro_ans_decode_simd_impl.h). Per-row floating-point
// accumulation stays in column order everywhere, so results are bitwise
// identical to the sequential reference decoder by construction — the
// property the differential fuzzer pins.
#pragma once

#include <cstdint>

#include "bits/ans.h"
#include "bits/bitwidth.h"
#include "core/bro_ans.h"
#include "kernels/bro_decode.h"

namespace bro::kernels::detail {

/// One independent tANS decode chain over lane `lane` of a group stream:
/// seeded from the out-of-band initial state, then per step one
/// decode-table lookup and one fused bit-read covering the mantissa and
/// the renormalization bits (split in two only when their sum exceeds a
/// single read's 32-bit yield — bit-identical either way, since
/// consecutive MSB-first reads concatenate).
///
/// Unlike the fixed-width kernels' LaneDecoder, the per-symbol bit count
/// here is state-dependent, so a lazy "refill when short" buffer turns
/// into a data-dependent branch that mispredicts every few symbols — and
/// the mispredict stalls, not the arithmetic, dominate entropy decode.
/// The chain instead keeps a 64-bit buffer, twice the 32-bit symbol width,
/// and refills eagerly and branchlessly after every read: an unconditional
/// load (the cursor is clamped to the stream's last slot, so it stays in
/// bounds; duplicated tail bits sit below the live ones and are never
/// consumed) plus conditional-move updates of buffer, bit count, and
/// cursor. The refill restores rb >= 32, so every read of <= 32 bits hits
/// the in-buffer fast path.
class AnsChain {
 public:
  AnsChain(const std::uint32_t* stream, std::size_t stride, std::size_t lane,
           std::size_t total_slots, std::uint32_t init_state, int tl)
      : stride_(stride) {
    if (total_slots == 0) {
      // All rows of this group coded to zero bits: every read is 0 bits
      // wide, but the eager refill still dereferences the cursor — park it
      // on a chain-local zero word.
      p_ = last_ = &zero_;
    } else {
      p_ = stream + lane;
      last_ = stream + (total_slots - 1);
    }
    // Prime the invariant rb_ >= kSym: buffer the lane's first symbol.
    buf_ = *p_;
    rb_ = kSym;
    advance();
    x_ = (1u << tl) + init_state;
  }

  // The clamped cursor may point at the chain-local zero word.
  AnsChain(const AnsChain&) = delete;
  AnsChain& operator=(const AnsChain&) = delete;

  /// Decode one delta (0 = padding sentinel).
  inline std::uint32_t step(const std::uint32_t* table, std::uint32_t L) {
    const std::uint32_t e = table[x_ - L];
    const int cls = static_cast<int>(e & 63u);
    const int nb = static_cast<int>((e >> 6) & 31u);
    const int mb = cls > 0 ? cls - 1 : 0;
    std::uint32_t mantissa, state_bits;
    if (mb + nb <= 32) {
      const std::uint32_t r = read(mb + nb);
      mantissa = r >> nb;
      state_bits =
          r & static_cast<std::uint32_t>(bits::max_value_for_bits(nb));
    } else {
      mantissa = read(mb);
      state_bits = read(nb);
    }
    x_ = (e >> 11) + state_bits;
    return cls > 0 ? ((1u << (cls - 1)) | mantissa) : 0;
  }

 private:
  /// MSB-first read of b <= 32 bits.
  inline std::uint32_t read(int b) {
    const std::uint64_t d = (buf_ >> (rb_ - b)) & bits::max_value_for_bits(b);
    rb_ -= b;
    // Branchless eager refill: restore rb_ >= kSym so the next read of up
    // to 32 bits always hits the fast extract above. Capacity is safe:
    // rb_ <= kSym - 1 before a refill, so rb_ <= 2*kSym - 1 after, and the
    // buffer holds 2*kSym bits.
    const std::uint32_t w = *p_; // clamped cursor — always in bounds
    const bool need = rb_ < kSym;
    const std::uint32_t* pn = p_ + stride_;
    buf_ = need ? ((buf_ << kSym) | w) : buf_;
    rb_ += need ? kSym : 0;
    p_ = need ? (pn < last_ ? pn : last_) : p_;
    return static_cast<std::uint32_t>(d);
  }

  inline void advance() {
    const std::uint32_t* pn = p_ + stride_;
    p_ = pn < last_ ? pn : last_;
  }

  const std::uint32_t* p_;
  const std::uint32_t* last_;
  std::size_t stride_;
  std::uint64_t buf_ = 0;
  int rb_ = 0;
  std::uint32_t x_ = 0;
  std::uint32_t zero_ = 0; // cursor target for zero-slot group streams
};

/// Up to four independent chains in flight over one lane group (the ILP
/// analogue of the fixed-width kernels' four-row lockstep; wider
/// interleave loses to register spills — each chain carries six live
/// values), scalar single-chain remainder for partial quads.
inline void bro_ans_slice_spmv(const core::BroAns& a,
                               const core::BroAnsSlice& slice,
                               std::span<const value_t> x,
                               std::span<value_t> y) {
  const std::size_t first = static_cast<std::size_t>(slice.first_row);
  if (slice.num_col == 0) {
    for (index_t t = 0; t < slice.height; ++t)
      y[first + static_cast<std::size_t>(t)] = 0;
    return;
  }
  const std::uint32_t* table = a.table().decode_data();
  const int tl = a.table().table_log();
  const std::uint32_t L = 1u << tl;
  const std::uint16_t* init = slice.init_states.data();
  const value_t* vals = a.vals().data();
  const value_t* xp = x.data();
  const std::size_t m = static_cast<std::size_t>(a.rows());

  const index_t num_groups = core::ans_num_groups(slice.height);
  for (index_t g = 0; g < num_groups; ++g) {
    const bits::MuxedStream& mux = slice.groups[static_cast<std::size_t>(g)];
    const std::uint32_t* stream = mux.data<std::uint32_t>();
    const std::size_t gw = mux.height();
    const std::size_t n = mux.total_symbols();
    const index_t t0 = g * core::kAnsLaneGroup;
    index_t j = 0;
    for (; j + 3 < static_cast<index_t>(gw); j += 4) {
      const std::size_t b = static_cast<std::size_t>(t0 + j);
      const std::size_t r0 = first + b;
      AnsChain ch0(stream, gw, static_cast<std::size_t>(j), n,
                   init[b], tl);
      AnsChain ch1(stream, gw, static_cast<std::size_t>(j) + 1, n,
                   init[b + 1], tl);
      AnsChain ch2(stream, gw, static_cast<std::size_t>(j) + 2, n,
                   init[b + 2], tl);
      AnsChain ch3(stream, gw, static_cast<std::size_t>(j) + 3, n,
                   init[b + 3], tl);
      index_t col0 = -1, col1 = -1, col2 = -1, col3 = -1;
      value_t sum0 = 0, sum1 = 0, sum2 = 0, sum3 = 0;
      std::size_t voff = 0;
      for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
        const std::uint32_t d0 = ch0.step(table, L);
        const std::uint32_t d1 = ch1.step(table, L);
        const std::uint32_t d2 = ch2.step(table, L);
        const std::uint32_t d3 = ch3.step(table, L);
        if (d0 != bits::kInvalidDelta) {
          col0 += static_cast<index_t>(d0);
          sum0 += vals[voff + r0] * xp[static_cast<std::size_t>(col0)];
        }
        if (d1 != bits::kInvalidDelta) {
          col1 += static_cast<index_t>(d1);
          sum1 += vals[voff + r0 + 1] * xp[static_cast<std::size_t>(col1)];
        }
        if (d2 != bits::kInvalidDelta) {
          col2 += static_cast<index_t>(d2);
          sum2 += vals[voff + r0 + 2] * xp[static_cast<std::size_t>(col2)];
        }
        if (d3 != bits::kInvalidDelta) {
          col3 += static_cast<index_t>(d3);
          sum3 += vals[voff + r0 + 3] * xp[static_cast<std::size_t>(col3)];
        }
      }
      y[r0] = sum0;
      y[r0 + 1] = sum1;
      y[r0 + 2] = sum2;
      y[r0 + 3] = sum3;
    }
    for (; j < static_cast<index_t>(gw); ++j) {
      const std::size_t b = static_cast<std::size_t>(t0 + j);
      const std::size_t r = first + b;
      AnsChain ch(stream, gw, static_cast<std::size_t>(j), n, init[b], tl);
      index_t col = -1;
      value_t sum = 0;
      std::size_t voff = 0;
      for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
        const std::uint32_t d = ch.step(table, L);
        if (d != bits::kInvalidDelta) {
          col += static_cast<index_t>(d);
          sum += vals[voff + r] * xp[static_cast<std::size_t>(col)];
        }
      }
      y[r] = sum;
    }
  }
}

/// One chain at a time — the parity baseline the differential fuzzer's
/// decode sweep compares the dispatched kernels against.
inline void bro_ans_slice_spmv_single(const core::BroAns& a,
                                      const core::BroAnsSlice& slice,
                                      std::span<const value_t> x,
                                      std::span<value_t> y) {
  const std::size_t first = static_cast<std::size_t>(slice.first_row);
  if (slice.num_col == 0) {
    for (index_t t = 0; t < slice.height; ++t)
      y[first + static_cast<std::size_t>(t)] = 0;
    return;
  }
  const std::uint32_t* table = a.table().decode_data();
  const int tl = a.table().table_log();
  const std::uint32_t L = 1u << tl;
  const value_t* vals = a.vals().data();
  const value_t* xp = x.data();
  const std::size_t m = static_cast<std::size_t>(a.rows());
  for (index_t t = 0; t < slice.height; ++t) {
    const bits::MuxedStream& mux =
        slice.groups[static_cast<std::size_t>(t / core::kAnsLaneGroup)];
    const std::size_t r = first + static_cast<std::size_t>(t);
    AnsChain ch(mux.data<std::uint32_t>(), mux.height(),
                static_cast<std::size_t>(t % core::kAnsLaneGroup),
                mux.total_symbols(),
                slice.init_states[static_cast<std::size_t>(t)], tl);
    index_t col = -1;
    value_t sum = 0;
    std::size_t voff = 0;
    for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
      const std::uint32_t d = ch.step(table, L);
      if (d != bits::kInvalidDelta) {
        col += static_cast<index_t>(d);
        sum += vals[voff + r] * xp[static_cast<std::size_t>(col)];
      }
    }
    y[r] = sum;
  }
}

/// Decode-only checksum over every lane of one BRO-ANS slice — the entropy
/// counterpart of decode_lane_checksum for the throughput bench. Four
/// interleaved chains per group, the ILP structure of the dispatched
/// scalar SpMV kernel, so the bench times what execute() actually runs.
inline std::uint64_t ans_decode_checksum(const core::BroAns& a,
                                         const core::BroAnsSlice& slice) {
  if (slice.num_col == 0) return 0;
  const std::uint32_t* table = a.table().decode_data();
  const int tl = a.table().table_log();
  const std::uint32_t L = 1u << tl;
  const std::uint16_t* init = slice.init_states.data();
  std::uint64_t sum = 0;
  const index_t num_groups = core::ans_num_groups(slice.height);
  for (index_t g = 0; g < num_groups; ++g) {
    const bits::MuxedStream& mux = slice.groups[static_cast<std::size_t>(g)];
    const std::uint32_t* stream = mux.data<std::uint32_t>();
    const std::size_t gw = mux.height();
    const std::size_t n = mux.total_symbols();
    const index_t t0 = g * core::kAnsLaneGroup;
    index_t j = 0;
    for (; j + 3 < static_cast<index_t>(gw); j += 4) {
      const std::size_t b = static_cast<std::size_t>(t0 + j);
      AnsChain ch0(stream, gw, static_cast<std::size_t>(j), n,
                   init[b], tl);
      AnsChain ch1(stream, gw, static_cast<std::size_t>(j) + 1, n,
                   init[b + 1], tl);
      AnsChain ch2(stream, gw, static_cast<std::size_t>(j) + 2, n,
                   init[b + 2], tl);
      AnsChain ch3(stream, gw, static_cast<std::size_t>(j) + 3, n,
                   init[b + 3], tl);
      std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (index_t c = 0; c < slice.num_col; ++c) {
        s0 += ch0.step(table, L);
        s1 += ch1.step(table, L);
        s2 += ch2.step(table, L);
        s3 += ch3.step(table, L);
      }
      sum += s0 + s1 + s2 + s3;
    }
    for (; j < static_cast<index_t>(gw); ++j) {
      const std::size_t b = static_cast<std::size_t>(t0 + j);
      AnsChain ch(stream, gw, static_cast<std::size_t>(j), n, init[b], tl);
      for (index_t c = 0; c < slice.num_col; ++c) sum += ch.step(table, L);
    }
  }
  return sum;
}

} // namespace bro::kernels::detail
