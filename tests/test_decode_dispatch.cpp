// Width-specialized decode dispatch tests: plan-time kernel selection rules
// and the bitwise-parity property the dispatch rests on — for every forced
// bit width, symbol length, adversarial matrix shape AND every SIMD ISA this
// host can run, the dispatched SpMV/SpMM kernels must reproduce the generic
// runtime-width scalar decoder's result bit for bit (same algorithm, same
// traversal, same accumulation order; only the unpacking code differs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/bro_bcsr.h"
#include "core/bro_coo.h"
#include "core/bro_ell.h"
#include "core/bro_hyb.h"
#include "kernels/bro_decode_simd.h"
#include "kernels/cpu_features.h"
#include "kernels/native_spmm.h"
#include "kernels/native_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bk = bro::kernels;
namespace bs = bro::sparse;
namespace bc = bro::core;
using bro::index_t;
using bro::value_t;

namespace {

std::vector<value_t> random_x(index_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

/// Every ISA the parity sweeps can actually force on this host/binary:
/// scalar always, each SIMD set when compiled in and supported by the CPU.
std::vector<bk::SimdIsa> host_isas() {
  std::vector<bk::SimdIsa> isas = {bk::SimdIsa::kScalar};
  for (const bk::SimdIsa isa : {bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2})
    if (bk::simd_isa_runnable(isa)) isas.push_back(isa);
  return isas;
}

void expect_bitwise(const std::vector<value_t>& got,
                    const std::vector<value_t>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < want.size(); ++r)
    ASSERT_EQ(std::memcmp(&got[r], &want[r], sizeof(value_t)), 0)
        << what << " diverges at row " << r << ": " << got[r] << " vs "
        << want[r];
}

/// The selection rules: uniform-width slices take the matching specialized
/// kernel, widths above kMaxSpecializedDecodeWidth and mixed-width slices
/// take the generic one (width -1), and the table is slice-aligned.
TEST(DecodeDispatch, EllSelectionUniformWidth) {
  const bs::Csr csr = bs::generate_poisson2d(40, 40);
  bool saw_specialized = false;
  for (const int w : {1, 5, 24}) {
    // forced_bit_width is a floor, not a cap: a column whose deltas need
    // more bits keeps its natural width, so derive the expected kernel
    // width from each slice's actual allocation.
    bc::BroEllOptions opt;
    opt.forced_bit_width = w;
    const auto bro = bc::BroEll::compress(bs::csr_to_ell(csr), opt);
    const auto kernels = bk::plan_bro_ell_kernels(bro, bk::active_simd_isa());
    ASSERT_EQ(kernels.size(), bro.slices().size());
    for (std::size_t s = 0; s < kernels.size(); ++s) {
      const auto& alloc = bro.slices()[s].bit_alloc;
      ASSERT_FALSE(alloc.empty());
      const int first = alloc.front();
      const bool uniform =
          std::all_of(alloc.begin(), alloc.end(),
                      [first](std::uint8_t b) { return b == first; });
      const int expected =
          uniform && first <= bk::kMaxSpecializedDecodeWidth ? first : -1;
      EXPECT_EQ(kernels[s].width, expected) << "slice " << s;
      saw_specialized = saw_specialized || kernels[s].width >= 0;
      EXPECT_NE(kernels[s].spmv, nullptr);
      EXPECT_NE(kernels[s].spmm, nullptr);
    }
  }
  EXPECT_TRUE(saw_specialized);
}

TEST(DecodeDispatch, EllSelectionWideAndMixedFallBack) {
  const bs::Csr csr = bs::generate_poisson2d(40, 40);
  bc::BroEllOptions opt;
  opt.forced_bit_width = bk::kMaxSpecializedDecodeWidth + 4;
  const auto wide = bc::BroEll::compress(bs::csr_to_ell(csr), opt);
  for (const auto& kernel :
       bk::plan_bro_ell_kernels(wide, bk::active_simd_isa()))
    EXPECT_EQ(kernel.width, -1);

  // A spike matrix mixes per-column widths within one slice: one long row
  // with large deltas next to short local rows.
  bs::GenSpec spec;
  spec.rows = 64;
  spec.cols = 4096;
  spec.mu = 6;
  spec.spike_rows = 2;
  spec.spike_len = 2000;
  spec.seed = 9;
  const auto mixed =
      bc::BroEll::compress(bs::csr_to_ell(bs::generate(spec)));
  bool saw_generic = false;
  for (const auto& kernel :
       bk::plan_bro_ell_kernels(mixed, bk::active_simd_isa()))
    saw_generic = saw_generic || kernel.width == -1;
  EXPECT_TRUE(saw_generic);
}

TEST(DecodeDispatch, CooSelectionMatchesIntervalBits) {
  const bs::Csr csr = bs::generate_poisson2d(50, 50);
  const auto bro = bc::BroCoo::compress(bs::csr_to_coo(csr));
  const auto kernels = bk::plan_bro_coo_kernels(bro, bk::active_simd_isa());
  ASSERT_EQ(kernels.size(), bro.intervals().size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const int bits = bro.intervals()[i].bits;
    EXPECT_EQ(kernels[i].width,
              bits <= bk::kMaxSpecializedDecodeWidth ? bits : -1)
        << "interval " << i;
    EXPECT_NE(kernels[i].spmv, nullptr);
    EXPECT_NE(kernels[i].spmm, nullptr);
  }
}

/// One (matrix, width, sym_len) parity probe, swept across every host ISA:
/// dispatched SpMV and SpMM against the always-scalar generic decoder,
/// bitwise. The compression is ISA-independent and done once.
void check_parity(const bs::Csr& csr, int width, int sym_len,
                  const char* name) {
  if (csr.nnz() == 0 || csr.rows == 0) return;
  const auto x = random_x(csr.cols, 77);
  const std::size_t rows = static_cast<std::size_t>(csr.rows);
  std::vector<value_t> y(rows), y_gen(rows);

  // BRO-ELL: forced_bit_width drives the slice widths through the whole
  // specializable range (columns needing more bits keep their natural
  // width, which also exercises mixed slices).
  bc::BroEllOptions eopt;
  eopt.sym_len = sym_len;
  eopt.forced_bit_width = width;
  const auto ell = bc::BroEll::compress(bs::csr_to_ell(csr), eopt);

  const int k = 3;
  std::vector<value_t> ym(rows * k), ym_gen(rows * k);
  std::vector<value_t> xm(static_cast<std::size_t>(csr.cols) * k);
  for (std::size_t c = 0; c < static_cast<std::size_t>(csr.cols); ++c)
    for (int j = 0; j < k; ++j)
      xm[c * k + static_cast<std::size_t>(j)] =
          x[(c + static_cast<std::size_t>(j)) % x.size()];

  for (const bk::SimdIsa isa : host_isas()) {
    bk::ScopedSimdIsa forced(isa);
    bk::native_spmv_bro_ell(ell, x, y);
    bk::native_spmv_bro_ell_generic(ell, x, y_gen);
    expect_bitwise(y, y_gen, name);

    const auto table = bk::plan_bro_ell_kernels(ell, isa);
    std::vector<bk::BroEllKernel> generic_table(
        table.size(), bk::generic_bro_ell_kernel(sym_len));
    bk::native_spmm_bro_ell(ell, table, xm, ym, k);
    bk::native_spmm_bro_ell(ell, generic_table, xm, ym_gen, k);
    expect_bitwise(ym, ym_gen, name);
  }
}

TEST(DecodeDispatch, EllParityAcrossWidthsAndSymLens) {
  const bs::Csr grid = bs::generate_poisson2d(37, 29);
  bs::GenSpec spec;
  spec.rows = 300;
  spec.cols = 9000;
  spec.mu = 9;
  spec.sigma = 5;
  spec.seed = 21;
  const bs::Csr wide = bs::generate(spec);
  for (int width = 0; width <= 32; ++width)
    for (const int sym_len : {32, 64}) {
      check_parity(grid, width, sym_len, "grid");
      check_parity(wide, width, sym_len, "wide");
    }
}

/// The adversarial battery at its natural widths: every degenerate shape,
/// both symbol lengths, SpMV and SpMM, BRO-ELL + BRO-COO + BRO-HYB.
TEST(DecodeDispatch, AdversarialParity) {
  for (auto& adversarial : bs::adversarial_suite(5)) {
    const bs::Csr& csr = adversarial.csr;
    if (csr.nnz() == 0 || csr.rows == 0) continue;
    const auto x = random_x(csr.cols, 31);
    const std::size_t rows = static_cast<std::size_t>(csr.rows);
    std::vector<value_t> y(rows), y_gen(rows);

    for (const int sym_len : {32, 64}) {
      // ELL blows up on spike shapes; gate like the registry does. All
      // compressions are ISA-independent, so build once per sym_len and
      // sweep the dispatch ISA over the kernel calls only.
      const double expand = static_cast<double>(csr.rows) *
                            static_cast<double>(csr.max_row_length());
      const bool ell_ok = expand <= 3.0 * static_cast<double>(csr.nnz());
      bc::BroEllOptions eopt;
      eopt.sym_len = sym_len;
      const auto ell = ell_ok ? bc::BroEll::compress(bs::csr_to_ell(csr), eopt)
                              : bc::BroEll();

      bc::BroCooOptions copt;
      copt.sym_len = sym_len;
      const auto coo = bc::BroCoo::compress(bs::csr_to_coo(csr), copt);
      const auto hyb = bc::BroHyb::compress(csr);

      const int k = 2;
      const std::size_t n = coo.intervals().size();
      std::vector<bk::BroCooCarry> carries(n);
      std::vector<value_t> sums(n * 2 * k);
      std::vector<value_t> ym(rows * k), ym_gen(rows * k);
      std::vector<value_t> xm(static_cast<std::size_t>(csr.cols) * k);
      for (std::size_t c = 0; c < static_cast<std::size_t>(csr.cols); ++c)
        for (int j = 0; j < k; ++j)
          xm[c * k + static_cast<std::size_t>(j)] =
              x[(c + static_cast<std::size_t>(j)) % x.size()];

      for (const bk::SimdIsa isa : host_isas()) {
        bk::ScopedSimdIsa forced(isa);
        if (ell_ok) {
          bk::native_spmv_bro_ell(ell, x, y);
          bk::native_spmv_bro_ell_generic(ell, x, y_gen);
          expect_bitwise(y, y_gen, adversarial.name.c_str());
        }

        bk::native_spmv_bro_coo(coo, x, y);
        bk::native_spmv_bro_coo_generic(coo, x, y_gen);
        expect_bitwise(y, y_gen, adversarial.name.c_str());

        const auto table = bk::plan_bro_coo_kernels(coo, isa);
        std::vector<bk::BroCooKernel> generic_table(
            table.size(), bk::generic_bro_coo_kernel(sym_len));
        bk::native_spmm_bro_coo(coo, table, xm, ym, k, carries, sums);
        bk::native_spmm_bro_coo(coo, generic_table, xm, ym_gen, k, carries,
                                sums);
        expect_bitwise(ym, ym_gen, adversarial.name.c_str());

        bk::native_spmv_bro_hyb(hyb, x, y);
        bk::native_spmv_bro_hyb_generic(hyb, x, y_gen);
        expect_bitwise(y, y_gen, adversarial.name.c_str());
      }
    }
  }
}

/// Exotic warp widths cross the transposed-decode cutoff (w > kMaxCooLanes
/// takes the lane-at-a-time path): parity must hold on both sides.
TEST(DecodeDispatch, CooParityAcrossWarpSizes) {
  bs::GenSpec spec;
  spec.rows = 700;
  spec.cols = 900;
  spec.mu = 8;
  spec.sigma = 6;
  spec.seed = 3;
  const bs::Csr csr = bs::generate(spec);
  const auto x = random_x(csr.cols, 13);
  std::vector<value_t> y(static_cast<std::size_t>(csr.rows)),
      y_gen(static_cast<std::size_t>(csr.rows));
  for (const int warp : {1, 2, 32, 160}) {
    bc::BroCooOptions opt;
    opt.warp_size = warp;
    opt.interval_cols = 16;
    const auto coo = bc::BroCoo::compress(bs::csr_to_coo(csr), opt);
    for (const bk::SimdIsa isa : host_isas()) {
      bk::ScopedSimdIsa forced(isa);
      bk::native_spmv_bro_coo(coo, x, y);
      bk::native_spmv_bro_coo_generic(coo, x, y_gen);
      expect_bitwise(y, y_gen, "warp-sweep");
    }
  }
}

/// One SimdKernels table per ISA: present exactly when the ISA is compiled
/// in (never for scalar), and plan-time selection at that ISA hands out
/// exactly its ELL, COO and BCSR entries, tagged with the ISA; scalar
/// selection keeps the baseline kernels (tag kScalar). Selection only reads
/// the table, so every compiled ISA is checked, runnable on this host or
/// not.
TEST(DecodeDispatch, SimdSelectionTagsKernels) {
  EXPECT_EQ(bk::simd_kernels(bk::SimdIsa::kScalar), nullptr);
  for (const bk::SimdIsa isa : {bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2}) {
    const bk::SimdKernels* t = bk::simd_kernels(isa);
    EXPECT_EQ(t != nullptr, bk::simd_isa_compiled(isa))
        << bk::simd_isa_name(isa);
    if (t != nullptr) {
      EXPECT_EQ(t->isa, isa);
    }
  }

  const bs::Csr csr = bs::generate_poisson2d(40, 40);
  const bs::Csr truss = bs::generate_truss2d(40, 6, 7);
  for (const int sym_len : {32, 64}) {
    bc::BroEllOptions eopt;
    eopt.sym_len = sym_len;
    const auto ell = bc::BroEll::compress(bs::csr_to_ell(csr), eopt);
    bc::BroCooOptions copt;
    copt.sym_len = sym_len;
    const auto coo = bc::BroCoo::compress(bs::csr_to_coo(csr), copt);

    for (const bk::SimdIsa isa :
         {bk::SimdIsa::kScalar, bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2}) {
      const bk::SimdKernels* t = bk::simd_kernels(isa);
      const bk::SimdIsa tag = t != nullptr ? isa : bk::SimdIsa::kScalar;
      const bool w32 = sym_len == 32;
      for (const auto& kernel : bk::plan_bro_ell_kernels(ell, isa)) {
        EXPECT_EQ(kernel.isa, tag);
        if (t != nullptr) {
          EXPECT_EQ(kernel.spmv, w32 ? t->ell_spmv32 : t->ell_spmv64);
          EXPECT_EQ(kernel.spmm, w32 ? t->ell_spmm32 : t->ell_spmm64);
        }
      }
      for (const auto& kernel : bk::plan_bro_coo_kernels(coo, isa)) {
        EXPECT_EQ(kernel.isa, tag);
        if (t != nullptr) {
          EXPECT_EQ(kernel.spmv, w32 ? t->coo_spmv32 : t->coo_spmv64);
          EXPECT_EQ(kernel.spmm, w32 ? t->coo_spmm32 : t->coo_spmm64);
        }
      }
      for (const auto& [br, bcol] : bc::kBcsrCandidateShapes) {
        bc::BroBcsrOptions bopt;
        bopt.block_rows = br;
        bopt.block_cols = bcol;
        bopt.sym_len = sym_len;
        const auto bcsr = bc::BroBcsr::compress(truss, bopt);
        const auto shape =
            static_cast<std::size_t>(bk::bcsr_shape_index(br, bcol));
        for (const auto& kernel : bk::plan_bro_bcsr_kernels(bcsr, isa)) {
          EXPECT_EQ(kernel.isa, tag);
          if (t != nullptr) {
            EXPECT_EQ(kernel.spmv,
                      w32 ? t->bcsr_spmv32[shape] : t->bcsr_spmv64[shape]);
          }
        }
      }
    }
  }
}

/// The resolution rule is a pure clamp: explicit requests are honored but
/// never exceed `best`, and no request takes `best` as-is.
TEST(DecodeDispatch, ResolveSimdIsaClamps) {
  using I = bk::SimdIsa;
  EXPECT_EQ(bk::resolve_simd_isa(std::nullopt, I::kAvx2), I::kAvx2);
  EXPECT_EQ(bk::resolve_simd_isa(std::nullopt, I::kScalar), I::kScalar);
  EXPECT_EQ(bk::resolve_simd_isa(I::kAvx2, I::kAvx2), I::kAvx2);
  EXPECT_EQ(bk::resolve_simd_isa(I::kAvx2, I::kSse4), I::kSse4);
  EXPECT_EQ(bk::resolve_simd_isa(I::kAvx2, I::kScalar), I::kScalar);
  EXPECT_EQ(bk::resolve_simd_isa(I::kSse4, I::kAvx2), I::kSse4);
  EXPECT_EQ(bk::resolve_simd_isa(I::kScalar, I::kAvx2), I::kScalar);
}

TEST(DecodeDispatch, ParseSimdIsaNames) {
  EXPECT_EQ(bk::parse_simd_isa("scalar"), bk::SimdIsa::kScalar);
  EXPECT_EQ(bk::parse_simd_isa("sse4"), bk::SimdIsa::kSse4);
  EXPECT_EQ(bk::parse_simd_isa("avx2"), bk::SimdIsa::kAvx2);
  EXPECT_EQ(bk::parse_simd_isa("AVX2"), std::nullopt);
  EXPECT_EQ(bk::parse_simd_isa(""), std::nullopt);
  EXPECT_EQ(bk::parse_simd_isa("neon"), std::nullopt);
  for (const bk::SimdIsa isa :
       {bk::SimdIsa::kScalar, bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2})
    EXPECT_EQ(bk::parse_simd_isa(bk::simd_isa_name(isa)), isa);
}

/// With no ScopedSimdIsa live, the active ISA is exactly the env request
/// resolved against the host's best — the documented layering.
TEST(DecodeDispatch, ActiveIsaMatchesResolution) {
  EXPECT_EQ(bk::active_simd_isa(),
            bk::resolve_simd_isa(bk::simd_env_override(), bk::best_simd_isa()));
  // A scoped force wins over the environment, and restores on exit.
  const bk::SimdIsa before = bk::active_simd_isa();
  {
    bk::ScopedSimdIsa forced(bk::SimdIsa::kScalar);
    EXPECT_EQ(bk::active_simd_isa(), bk::SimdIsa::kScalar);
  }
  EXPECT_EQ(bk::active_simd_isa(), before);
}

} // namespace
