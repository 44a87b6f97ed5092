// Vectorized BRO-ANS entropy decode, included by the AVX2 translation unit
// (simd_avx2.cpp) only.
//
// The including TU defines BRO_SIMD_NS — the namespace for this header's
// kernels (ans_avx2) — and is compiled with -mavx2 -ffp-contract=off
// (src/kernels/CMakeLists.txt), never -march=native.
//
// ODR rule, as in bro_decode_simd_impl.h: stay self-contained. The scalar
// chain below is a local copy of detail::AnsChain (bro_ans_decode.h), NOT
// an instantiation of it — the linker keeps one copy of comdat template
// instantiations, and if it picked the one compiled here the baseline
// dispatch path could execute ISA instructions on hosts without them.
//
// What vectorizes (AVX2, 32-bit stream symbols): the v2 layout interleaves
// the 8 rows of a lane group round-robin into one stream, so the 8 ANS
// states advance over disjoint bit budgets — symbol c of lane j at flat
// slot c*8 + j. Per decoded column the kernel does one vpgatherdd into the
// L1-resident decode table for all 8 states, extracts class/nb/base with
// vector shifts and masks, reads mantissa + renorm bits through an
// MSB-justified per-lane window (variable-shift extract, vector-compare
// cross detection, one vpgatherdd refill prefetched a read ahead), and
// rebuilds the deltas with vpsllv. kVecChains lane groups run as
// independent interleaved chains so the table-gather latency that
// serializes each chain overlaps the others' work; slice drivers drain
// leftover groups in power-of-two batches. The SpMV driver phase-splits
// each kSpmvTile-column tile: decode parks deltas in a stack buffer at
// full chain ILP, then a vectorized column/FP tail (masked x gather,
// -0.0 blend for padding lanes, all-live and all-padding fast paths)
// accumulates per lane in column order — bitwise identical to the
// sequential reference, the property the differential fuzzer and the
// dispatch parity tests pin.
//
// There is no SSE4 variant: without gathers or per-lane variable shifts a
// tANS chain has nothing to vectorize, and running all 8 chains of a lane
// group as scalars measured no faster than the baseline 4-chain kernel. 64-bit
// stream symbols stay on the baseline scalar path too.

#if !defined(__AVX2__)
#error "bro_ans_decode_simd_impl.h needs AVX2 (gathers, per-lane shifts)"
#endif

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "core/bro_ans.h"
#include "kernels/bro_decode_simd.h"

namespace bro::kernels::BRO_SIMD_NS {
namespace {

// ------------------------------------------------ local scalar chain
// Default-constructible local copy of detail::AnsChain (see ODR rule) so a
// fixed-size array of chains can be init()'d in a loop; eager branchless
// refill, 64-bit buffer (this TU only ever runs it for 32-bit symbols).
struct Chain {
  const std::uint32_t* p = nullptr;
  const std::uint32_t* last = nullptr;
  std::size_t stride = 0;
  std::uint64_t buf = 0;
  int rb = 0;
  std::uint32_t x = 0;
  std::uint32_t zero = 0;

  void init(const std::uint32_t* stream, std::size_t stride_in,
            std::size_t lane, std::size_t total_slots,
            std::uint32_t init_state, int tl) {
    stride = stride_in;
    if (total_slots == 0) {
      p = last = &zero;
    } else {
      p = stream + lane;
      last = stream + (total_slots - 1);
    }
    buf = static_cast<std::uint64_t>(*p);
    rb = 32;
    const std::uint32_t* pn = p + stride;
    p = pn < last ? pn : last;
    x = (1u << tl) + init_state;
  }

  inline std::uint32_t read(int b) {
    const std::uint64_t d = (buf >> (rb - b)) & bits::max_value_for_bits(b);
    rb -= b;
    const std::uint32_t w = *p; // clamped cursor — always in bounds
    const bool need = rb < 32;
    const std::uint32_t* pn = p + stride;
    buf = need ? ((buf << 32) | w) : buf;
    rb += need ? 32 : 0;
    p = need ? (pn < last ? pn : last) : p;
    return static_cast<std::uint32_t>(d);
  }

  inline std::uint32_t step(const std::uint32_t* table, std::uint32_t L) {
    const std::uint32_t e = table[x - L];
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
    x = (e >> 11) + state_bits;
    return cls > 0 ? ((1u << (cls - 1)) | mantissa) : 0;
  }
};

/// One lane group decoded by up-to-kAnsLaneGroup interleaved scalar chains
/// — the remainder path (partial last group or zero-slot streams).
inline void ans_group_spmv_chains(const core::BroAns& a,
                                  const core::BroAnsSlice& slice, index_t g,
                                  const value_t* xp, value_t* yp) {
  const bits::MuxedStream& mux = slice.groups[static_cast<std::size_t>(g)];
  const std::uint32_t* stream = mux.data<std::uint32_t>();
  const int gw = static_cast<int>(mux.height());
  const std::size_t n = mux.total_symbols();
  const std::uint32_t* table = a.table().decode_data();
  const int tl = a.table().table_log();
  const std::uint32_t L = 1u << tl;
  const value_t* vals = a.vals().data();
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const index_t t0 = g * core::kAnsLaneGroup;
  const std::size_t r0 =
      static_cast<std::size_t>(slice.first_row) + static_cast<std::size_t>(t0);

  Chain ch[core::kAnsLaneGroup];
  index_t col[core::kAnsLaneGroup];
  value_t sum[core::kAnsLaneGroup];
  for (int j = 0; j < gw; ++j) {
    ch[j].init(stream, static_cast<std::size_t>(gw),
               static_cast<std::size_t>(j), n,
               slice.init_states[static_cast<std::size_t>(t0 + j)], tl);
    col[j] = -1;
    sum[j] = 0;
  }
  std::size_t voff = 0;
  for (index_t c = 0; c < slice.num_col; ++c, voff += m) {
    for (int j = 0; j < gw; ++j) {
      const std::uint32_t d = ch[j].step(table, L);
      if (d != bits::kInvalidDelta) {
        col[j] += static_cast<index_t>(d);
        sum[j] += vals[voff + r0 + static_cast<std::size_t>(j)] *
                  xp[static_cast<std::size_t>(col[j])];
      }
    }
  }
  for (int j = 0; j < gw; ++j) yp[r0 + static_cast<std::size_t>(j)] = sum[j];
}

/// Checksum twin of ans_group_spmv_chains.
inline std::uint64_t ans_group_checksum_chains(const core::BroAns& a,
                                               const core::BroAnsSlice& slice,
                                               index_t g) {
  const bits::MuxedStream& mux = slice.groups[static_cast<std::size_t>(g)];
  const std::uint32_t* stream = mux.data<std::uint32_t>();
  const int gw = static_cast<int>(mux.height());
  const std::size_t n = mux.total_symbols();
  const std::uint32_t* table = a.table().decode_data();
  const int tl = a.table().table_log();
  const std::uint32_t L = 1u << tl;
  const index_t t0 = g * core::kAnsLaneGroup;

  Chain ch[core::kAnsLaneGroup];
  std::uint64_t acc[core::kAnsLaneGroup] = {};
  for (int j = 0; j < gw; ++j)
    ch[j].init(stream, static_cast<std::size_t>(gw),
               static_cast<std::size_t>(j), n,
               slice.init_states[static_cast<std::size_t>(t0 + j)], tl);
  for (index_t c = 0; c < slice.num_col; ++c)
    for (int j = 0; j < gw; ++j) acc[j] += ch[j].step(table, L);
  std::uint64_t sum = 0;
  for (int j = 0; j < gw; ++j) sum += acc[j];
  return sum;
}

// ------------------------------------------------ AVX2 vector group
// All eight ANS states of one full lane group as 8 x u32 vectors. The bit
// reader keeps each lane's window MSB-justified: `va` holds the lane's
// next `rb` unread bits in its TOP bits with zeros below, so a b-bit read
// is one variable shift with no masking — vpsrlvd/vpsllvd yield 0 for any
// count outside [0, 31], which makes every edge (b = 0, b = rb, rb = 0)
// fall out of the same two-term splice. `k` is the next round-robin slot
// index (flat slot k*8 + lane); `nextw` is that slot's word, gathered one
// read ahead so the renorm load stays off the serial state chain. Decoded
// values are invariant to refill timing versus the eager scalar chain —
// consecutive MSB-first reads concatenate — which the dispatch parity
// tests and the fuzzer verify end to end.
struct VecGroup {
  __m256i x, va, rb;
  __m256i idx;   // flat slot of the next refill word: cursor k * 8 + lane,
                 // maintained incrementally (crossers step by 8)
  __m256i nextw; // per-lane word at idx, gathered one read ahead
  const std::uint32_t* base;
  __m256i idxmax; // last flat slot per lane: cursor clamp for exhausted
                  // lanes
};

inline __m256i lane_offsets() {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

inline void vg_init(VecGroup& vg, const std::uint32_t* stream,
                    std::size_t spr, const std::uint16_t* init,
                    std::uint32_t L) {
  const __m128i s16 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(init));
  vg.x = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(L)),
                          _mm256_cvtepu16_epi32(s16));
  vg.va = _mm256_setzero_si256();
  vg.rb = _mm256_setzero_si256();
  vg.idx = lane_offsets();
  vg.base = stream;
  vg.idxmax = _mm256_add_epi32(
      _mm256_set1_epi32((static_cast<int>(spr) - 1) * 8), lane_offsets());
  // spr > 0 (vg_eligible), so slot 0 of every lane exists.
  vg.nextw = _mm256_i32gather_epi32(reinterpret_cast<const int*>(stream),
                                    lane_offsets(), 4);
}

/// MSB-first read of b bits per lane (0 <= b <= 32), branchless renorm.
/// Non-crossing lanes take the top b bits of their window; lanes whose
/// window runs short (`cross`) splice its remainder onto the head of the
/// prefetched slot. Both paths are the same OR of two variable shifts:
/// counts outside [0, 31] (b = 0; the non-crossers' `low` is negative)
/// contribute exact zeros, so no lane needs a mask or a blend.
inline __m256i vg_read(VecGroup& vg, __m256i b) {
  const __m256i c32 = _mm256_set1_epi32(32);
  const __m256i cross = _mm256_cmpgt_epi32(b, vg.rb);
  const __m256i d_hi = _mm256_srlv_epi32(vg.va, _mm256_sub_epi32(c32, b));
  if (_mm256_movemask_epi8(cross) == 0) {
    vg.va = _mm256_sllv_epi32(vg.va, b);
    vg.rb = _mm256_sub_epi32(vg.rb, b);
    return d_hi;
  }
  const __m256i w = vg.nextw;
  const __m256i low = _mm256_sub_epi32(b, vg.rb); // < 0 for non-crossers
  const __m256i d = _mm256_or_si256(
      d_hi, _mm256_srlv_epi32(w, _mm256_sub_epi32(c32, low)));
  // A lane with b == rb drains its window and picks up the whole of w here
  // (sllv count 0), leaving va = w with rb = 0. That is self-consistent:
  // until the lane's next read advances k, nextw still holds w, and with
  // rb = 0 both splice terms read the same top-of-w bits.
  vg.va = _mm256_or_si256(_mm256_sllv_epi32(vg.va, b),
                          _mm256_sllv_epi32(w, low));
  vg.rb = _mm256_add_epi32(_mm256_sub_epi32(vg.rb, b),
                           _mm256_and_si256(cross, c32));
  // cross is all-ones: the flat slot steps by one cursor (8 slots).
  vg.idx = _mm256_sub_epi32(vg.idx,
                            _mm256_and_si256(cross, _mm256_set1_epi32(-8)));
  // A crossing lane always has another slot (the encoder wrote every bit
  // it consumes); clamp only the exhausted lanes' cursors, then gather the
  // new cursors' words for the *next* crossing read — the load overlaps
  // the table gathers in between. Non-crossing lanes re-gather their
  // unchanged slot, which is idempotent.
  const __m256i idxc = _mm256_min_epu32(vg.idx, vg.idxmax);
  vg.nextw = _mm256_i32gather_epi32(reinterpret_cast<const int*>(vg.base),
                                    idxc, 4);
  return d;
}

/// Decode one delta per lane: gather the packed table entries for all
/// eight states, unpack class/nb/base, read the mantissa and renorm bits
/// (fused into one read when every lane fits a 32-bit yield — the common
/// case for table_log <= 15; bit-identical either way), advance the
/// states, and return the rebuilt deltas (0 = padding sentinel).
inline __m256i vg_step(VecGroup& vg, const std::uint32_t* table,
                       std::uint32_t L) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i pos =
      _mm256_sub_epi32(vg.x, _mm256_set1_epi32(static_cast<int>(L)));
  const __m256i e = _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(table), pos, 4);
  const __m256i cls = _mm256_and_si256(e, _mm256_set1_epi32(63));
  const __m256i nb =
      _mm256_and_si256(_mm256_srli_epi32(e, 6), _mm256_set1_epi32(31));
  const __m256i basev = _mm256_srli_epi32(e, 11);
  const __m256i gt0 = _mm256_cmpgt_epi32(cls, _mm256_setzero_si256());
  const __m256i mb = _mm256_add_epi32(cls, gt0); // cls - 1, floored at 0
  const __m256i b = _mm256_add_epi32(mb, nb);
  __m256i mant, sb;
  if (_mm256_movemask_epi8(
          _mm256_cmpgt_epi32(b, _mm256_set1_epi32(32))) == 0) {
    const __m256i r = vg_read(vg, b);
    mant = _mm256_srlv_epi32(r, nb);
    // r minus the mantissa bits shifted back up == the low nb state bits,
    // one op cheaper than masking.
    sb = _mm256_sub_epi32(r, _mm256_sllv_epi32(mant, nb));
  } else {
    mant = vg_read(vg, mb);
    sb = vg_read(vg, nb);
  }
  vg.x = _mm256_add_epi32(basev, sb);
  return _mm256_and_si256(_mm256_or_si256(_mm256_sllv_epi32(one, mb), mant),
                          gt0);
}

/// Column/FP tail for one lane group, vectorized ACROSS lanes: each lane's
/// adds still land in column order, so per-row results are bitwise
/// identical to the sequential reference (lanes are independent rows — no
/// cross-lane reassociation). Padding lanes (delta 0) must not perturb
/// their accumulator, so their product is replaced by -0.0 before the add:
/// s + (-0.0) == s bitwise for every s (+0 stays +0, -0 stays -0, inf and
/// NaN pass through as vaddpd's first operand), exactly matching the
/// scalar kernels' skipped add. The x gather is masked with the same
/// validity mask, so padding lanes (whose running column can still be the
/// initial -1) never form an address and load 0.0 instead; their junk
/// product is then blended away before it can touch the accumulator.
inline void vg_accumulate(__m256i dv, __m256i& col, __m256d& sum_lo,
                          __m256d& sum_hi, const value_t* v,
                          const value_t* xp) {
  col = _mm256_add_epi32(col, dv); // delta 0 leaves the lane's column put
  const __m256i iszero =
      _mm256_cmpeq_epi32(dv, _mm256_setzero_si256());
  const int zm = _mm256_movemask_epi8(iszero);
  if (zm == 0) {
    // All eight lanes live — the overwhelmingly common case (padding is
    // trailing), and the branch predicts as such. Plain gathers on the
    // (all-valid) columns, no masks, no blends.
    const __m256d x_lo =
        _mm256_i32gather_pd(xp, _mm256_castsi256_si128(col), 8);
    const __m256d x_hi =
        _mm256_i32gather_pd(xp, _mm256_extracti128_si256(col, 1), 8);
    sum_lo = _mm256_add_pd(sum_lo, _mm256_mul_pd(_mm256_loadu_pd(v), x_lo));
    sum_hi = _mm256_add_pd(sum_hi,
                           _mm256_mul_pd(_mm256_loadu_pd(v + 4), x_hi));
    return;
  }
  // All eight lanes padding: nothing to touch. Rows of a group are
  // adjacent and a slice's rows have similar lengths, so once the whole
  // group runs past its shortest row the remaining columns are usually
  // all-padding for the whole group — on heavily padded suites this skips
  // the value loads ELL's branchy tail never issues either, and the
  // branch predicts cleanly (padding is trailing).
  if (zm == -1) return;
  const __m256i valid =
      _mm256_xor_si256(iszero, _mm256_set1_epi32(-1));
  const __m256i vm_lo =
      _mm256_cvtepi32_epi64(_mm256_castsi256_si128(valid));
  const __m256i vm_hi =
      _mm256_cvtepi32_epi64(_mm256_extracti128_si256(valid, 1));
  const __m256d x_lo = _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), xp, _mm256_castsi256_si128(col),
      _mm256_castsi256_pd(vm_lo), 8);
  const __m256d x_hi = _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), xp, _mm256_extracti128_si256(col, 1),
      _mm256_castsi256_pd(vm_hi), 8);
  const __m256d neg0 = _mm256_set1_pd(-0.0);
  const __m256d p_lo = _mm256_mul_pd(_mm256_loadu_pd(v), x_lo);
  const __m256d p_hi = _mm256_mul_pd(_mm256_loadu_pd(v + 4), x_hi);
  sum_lo = _mm256_add_pd(
      sum_lo, _mm256_blendv_pd(neg0, p_lo, _mm256_castsi256_pd(vm_lo)));
  sum_hi = _mm256_add_pd(
      sum_hi, _mm256_blendv_pd(neg0, p_hi, _mm256_castsi256_pd(vm_hi)));
}

/// Whether group g is eligible for the vector path: a full 8-lane group
/// with at least one stream slot (the gather needs a real base).
inline bool vg_eligible(const core::BroAnsSlice& slice, index_t g) {
  const bits::MuxedStream& mux = slice.groups[static_cast<std::size_t>(g)];
  return mux.height() == core::kAnsLaneGroup && mux.symbols_per_row() > 0;
}

/// How many vector chains (lane groups) the slice drivers keep in flight:
/// the table gather that serializes each 8-state chain has enough latency
/// to hide several independent chains' worth of ALU work.
inline constexpr int kVecChains = 8;
inline constexpr int kSpmvChains = kVecChains;

/// Column-tile depth for the SpMV driver's phase split (see below).
inline constexpr index_t kSpmvTile = 16;

/// NG full lane groups decoded in lockstep column steps — NG independent
/// 8-state vector chains whose gathers overlap — feeding the vectorized
/// column/FP tail.
///
/// Decode and accumulate are phase-split over kSpmvTile-column tiles: the
/// decode phase runs all NG chains with only the ANS state live (the same
/// register footprint the checksum kernel sustains at kVecChains), parking
/// each step's deltas in a small stack buffer; the accumulate phase then
/// walks the buffer one chain at a time with just that chain's column and
/// accumulator vectors live. Fusing the two per column-step instead would
/// keep NG * 3 extra vectors live across every step and spill the decode
/// chains themselves — measured several ticks slower — while the buffer
/// traffic here is L1-resident and off every critical path.
template <int NG>
inline void vg_spmv_groups(const core::BroAns& a,
                           const core::BroAnsSlice& slice,
                           const index_t* gs, const value_t* xp,
                           value_t* yp) {
  const std::uint32_t* table = a.table().decode_data();
  const std::uint32_t L = 1u << a.table().table_log();
  const value_t* vals = a.vals().data();
  const std::size_t m = static_cast<std::size_t>(a.rows());
  const std::size_t first = static_cast<std::size_t>(slice.first_row);
  VecGroup vg[NG];
  __m256i col[NG];
  __m256d slo[NG], shi[NG];
  std::size_t r0[NG];
  for (int i = 0; i < NG; ++i) {
    const index_t g = gs[i];
    const bits::MuxedStream& mux = slice.groups[static_cast<std::size_t>(g)];
    const index_t t0 = g * core::kAnsLaneGroup;
    r0[i] = first + static_cast<std::size_t>(t0);
    vg_init(vg[i], mux.data<std::uint32_t>(), mux.symbols_per_row(),
            slice.init_states.data() + t0, L);
    col[i] = _mm256_set1_epi32(-1);
    slo[i] = _mm256_setzero_pd();
    shi[i] = _mm256_setzero_pd();
  }
  alignas(32) std::uint32_t dbuf[kSpmvTile][NG][core::kAnsLaneGroup];
  for (index_t c0 = 0; c0 < slice.num_col; c0 += kSpmvTile) {
    const index_t tc = std::min(kSpmvTile, slice.num_col - c0);
    for (index_t t = 0; t < tc; ++t)
      for (int i = 0; i < NG; ++i)
        _mm256_store_si256(reinterpret_cast<__m256i*>(dbuf[t][i]),
                           vg_step(vg[i], table, L));
    for (int i = 0; i < NG; ++i) {
      __m256i cl = col[i];
      __m256d lo = slo[i], hi = shi[i];
      const value_t* v = vals + static_cast<std::size_t>(c0) * m + r0[i];
      for (index_t t = 0; t < tc; ++t, v += m)
        vg_accumulate(
            _mm256_load_si256(reinterpret_cast<const __m256i*>(dbuf[t][i])),
            cl, lo, hi, v, xp);
      col[i] = cl;
      slo[i] = lo;
      shi[i] = hi;
    }
  }
  for (int i = 0; i < NG; ++i) {
    _mm256_storeu_pd(yp + r0[i], slo[i]);
    _mm256_storeu_pd(yp + r0[i] + 4, shi[i]);
  }
}

/// AVX2 SpMV over one slice: eligible lane groups batched kSpmvChains at a
/// time through the vector chains (order across groups is free — rows are
/// independent); leftovers and ineligible groups take the interleaved
/// scalar chains.
void ans_slice_spmv_vec(const core::BroAns& a, const core::BroAnsSlice& slice,
                        std::span<const value_t> x, std::span<value_t> y) {
  static_assert(std::is_same_v<value_t, double>,
                "vg_accumulate assumes 64-bit lanes");
  const std::size_t first = static_cast<std::size_t>(slice.first_row);
  if (slice.num_col == 0) {
    for (index_t t = 0; t < slice.height; ++t)
      y[first + static_cast<std::size_t>(t)] = 0;
    return;
  }
  const value_t* xp = x.data();
  value_t* yp = y.data();
  const index_t num_groups = core::ans_num_groups(slice.height);
  index_t pend[kSpmvChains];
  int np = 0;
  for (index_t g = 0; g < num_groups; ++g) {
    if (vg_eligible(slice, g)) {
      pend[np++] = g;
      if (np == kSpmvChains) {
        vg_spmv_groups<kSpmvChains>(a, slice, pend, xp, yp);
        np = 0;
      }
    } else {
      ans_group_spmv_chains(a, slice, g, xp, yp);
    }
  }
  // Leftovers (np < kSpmvChains at slice end) still deserve cross-chain
  // ILP: drain them in power-of-two batches rather than one latency-bound
  // chain at a time — on suites whose slices hold ~30 groups the leftover
  // fraction is ~10% of all groups and single-chain decode is several
  // times slower.
  int i = 0;
  for (; i + 3 < np; i += 4) vg_spmv_groups<4>(a, slice, pend + i, xp, yp);
  for (; i + 1 < np; i += 2) vg_spmv_groups<2>(a, slice, pend + i, xp, yp);
  if (i < np) vg_spmv_groups<1>(a, slice, pend + i, xp, yp);
}

/// Pairwise u32 -> u64 widening of all eight lanes into four u64 partials
/// (u64 addition commutes, so any lane-to-partial assignment checksums the
/// same) and its horizontal fold — the checksum kernel's accumulator.
inline __m256i widen_u32_sum(__m256i v) {
  return _mm256_add_epi64(
      _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v)),
      _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1)));
}

inline std::uint64_t hsum_u64(__m256i v) {
  alignas(32) std::uint64_t t[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(t), v);
  return t[0] + t[1] + t[2] + t[3];
}

/// Checksum twin of vg_spmv_groups (the bench kernel's inner block).
template <int NG>
inline std::uint64_t vg_checksum_groups(const core::BroAns& a,
                                        const core::BroAnsSlice& slice,
                                        const index_t* gs) {
  const std::uint32_t* table = a.table().decode_data();
  const std::uint32_t L = 1u << a.table().table_log();
  VecGroup vg[NG];
  __m256i acc[NG];
  for (int i = 0; i < NG; ++i) {
    const index_t g = gs[i];
    const bits::MuxedStream& mux = slice.groups[static_cast<std::size_t>(g)];
    const index_t t0 = g * core::kAnsLaneGroup;
    vg_init(vg[i], mux.data<std::uint32_t>(), mux.symbols_per_row(),
            slice.init_states.data() + t0, L);
    acc[i] = _mm256_setzero_si256();
  }
  for (index_t c = 0; c < slice.num_col; ++c)
    for (int i = 0; i < NG; ++i)
      acc[i] = _mm256_add_epi64(acc[i], widen_u32_sum(vg_step(vg[i], table, L)));
  std::uint64_t total = 0;
  for (int i = 0; i < NG; ++i) total += hsum_u64(acc[i]);
  return total;
}

/// Decode-only checksum twin of ans_slice_spmv_vec (the bench kernel).
std::uint64_t ans_slice_checksum_vec(const core::BroAns& a,
                                     const core::BroAnsSlice& slice) {
  if (slice.num_col == 0) return 0;
  const index_t num_groups = core::ans_num_groups(slice.height);
  std::uint64_t total = 0;
  index_t pend[kVecChains];
  int np = 0;
  for (index_t g = 0; g < num_groups; ++g) {
    if (vg_eligible(slice, g)) {
      pend[np++] = g;
      if (np == kVecChains) {
        total += vg_checksum_groups<kVecChains>(a, slice, pend);
        np = 0;
      }
    } else {
      total += ans_group_checksum_chains(a, slice, g);
    }
  }
  int i = 0;
  for (; i + 3 < np; i += 4)
    total += vg_checksum_groups<4>(a, slice, pend + i);
  for (; i + 1 < np; i += 2)
    total += vg_checksum_groups<2>(a, slice, pend + i);
  if (i < np) total += vg_checksum_groups<1>(a, slice, pend + i);
  return total;
}

} // namespace

// This header's entries of the AVX2 SimdKernels table, filled at compile
// time so the baseline-ABI dispatch code can read the exported table
// without running any code compiled at this ISA.
constexpr void add_kernels(SimdKernels& t) {
  t.ans_spmv32 = &ans_slice_spmv_vec;
  t.ans_checksum32 = &ans_slice_checksum_vec;
}

} // namespace bro::kernels::BRO_SIMD_NS
