// Width-specialized decode dispatch tests: plan-time kernel selection rules
// and the bitwise-parity property the dispatch rests on — for every forced
// bit width, adversarial matrix shape AND every SIMD ISA this host can run,
// the dispatched SpMV/SpMM kernels must reproduce the generic runtime-width
// scalar decoder's result bit for bit (same algorithm, same traversal, same
// accumulation order; only the unpacking code differs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
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

/// The parity oracle's choices: the generic decoder for every slice /
/// interval, run through the same drivers as the selected kernels.
std::vector<bk::BroEllKernel> generic_table(const bc::BroEll& a) {
  return std::vector<bk::BroEllKernel>(a.slices().size(),
                                       bk::generic_bro_ell_kernel());
}

std::vector<bk::BroCooKernel> generic_table(const bc::BroCoo& a) {
  return std::vector<bk::BroCooKernel>(a.intervals().size(),
                                       bk::generic_bro_coo_kernel());
}

void run_coo(const bc::BroCoo& a, std::span<const bk::BroCooKernel> kernels,
             const std::vector<value_t>& x, std::vector<value_t>& y) {
  std::vector<bk::BroCooCarry> carries(a.intervals().size());
  bk::native_spmv_bro_coo(a, kernels, x, y, carries);
}

void run_hyb(const bc::BroHyb& a, std::span<const bk::BroEllKernel> ell,
             std::span<const bk::BroCooKernel> coo,
             const std::vector<value_t>& x, std::vector<value_t>& y) {
  std::vector<value_t> y_coo(y.size());
  std::vector<bk::BroCooCarry> carries(a.coo_part().intervals().size());
  bk::native_spmv_bro_hyb(a, ell, coo, x, y, y_coo, carries);
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

/// One (matrix, width) parity probe, swept across every host ISA:
/// dispatched SpMV and SpMM against the always-scalar generic decoder,
/// bitwise. The compression is ISA-independent and done once.
void check_parity(const bs::Csr& csr, int width, const char* name) {
  if (csr.nnz() == 0 || csr.rows == 0) return;
  const auto x = random_x(csr.cols, 77);
  const std::size_t rows = static_cast<std::size_t>(csr.rows);
  std::vector<value_t> y(rows), y_gen(rows);

  // BRO-ELL: forced_bit_width drives the slice widths through the whole
  // specializable range (columns needing more bits keep their natural
  // width, which also exercises mixed slices).
  bc::BroEllOptions eopt;
  eopt.forced_bit_width = width;
  const auto ell = bc::BroEll::compress(bs::csr_to_ell(csr), eopt);

  const int k = 3;
  std::vector<value_t> ym(rows * k), ym_gen(rows * k);
  std::vector<value_t> xm(static_cast<std::size_t>(csr.cols) * k);
  for (std::size_t c = 0; c < static_cast<std::size_t>(csr.cols); ++c)
    for (int j = 0; j < k; ++j)
      xm[c * k + static_cast<std::size_t>(j)] =
          x[(c + static_cast<std::size_t>(j)) % x.size()];

  const auto generic = generic_table(ell);
  for (const bk::SimdIsa isa : host_isas()) {
    const auto table = bk::plan_bro_ell_kernels(ell, isa);
    bk::native_spmv_bro_ell(ell, table, x, y);
    bk::native_spmv_bro_ell(ell, generic, x, y_gen);
    expect_bitwise(y, y_gen, name);

    bk::native_spmm_bro_ell(ell, table, xm, ym, k);
    bk::native_spmm_bro_ell(ell, generic, xm, ym_gen, k);
    expect_bitwise(ym, ym_gen, name);
  }
}

TEST(DecodeDispatch, EllParityAcrossWidths) {
  const bs::Csr grid = bs::generate_poisson2d(37, 29);
  bs::GenSpec spec;
  spec.rows = 300;
  spec.cols = 9000;
  spec.mu = 9;
  spec.sigma = 5;
  spec.seed = 21;
  const bs::Csr wide = bs::generate(spec);
  for (int width = 0; width <= 32; ++width) {
    check_parity(grid, width, "grid");
    check_parity(wide, width, "wide");
  }
}

/// The adversarial battery at its natural widths: every degenerate shape,
/// SpMV and SpMM, BRO-ELL + BRO-COO + BRO-HYB.
/// A BroEll reads its values from the CSR it shares. Built through the
/// ELLPACK adapter, or from a shared CSR whose other owner is gone, it runs
/// bitwise like one built from a CSR the caller keeps, SpMV and SpMM, at
/// every ISA. (Under ASan a dangling source would be a use-after-free.)
TEST(DecodeDispatch, EllKeepsTheSourceItReads) {
  const bs::Csr csr = bs::generate_poisson2d(37, 29); // ragged: 3-5 per row
  const index_t width = csr.max_row_length();
  const bc::BroEll kept = bc::BroEll::compress(csr, width);
  const bc::BroEll adapted = bc::BroEll::compress(bs::csr_to_ell(csr));
  auto shared = std::make_shared<const bs::Csr>(csr);
  const bc::BroEll orphan = bc::BroEll::compress(shared, width);
  shared.reset();

  constexpr int k = 3;
  const auto x = random_x(csr.cols, 51);
  const auto xk = random_x(csr.cols * k, 52);
  std::vector<value_t> want(static_cast<std::size_t>(csr.rows));
  bk::native_spmv_bro_ell(kept, generic_table(kept), x, want);
  for (const bk::SimdIsa isa : host_isas()) {
    SCOPED_TRACE(bk::simd_isa_name(isa));
    std::vector<value_t> want_k(want.size() * k);
    bk::native_spmm_bro_ell(kept, bk::plan_bro_ell_kernels(kept, isa), xk,
                            want_k, k);
    for (const bc::BroEll* bro : {&adapted, &orphan}) {
      const auto kernels = bk::plan_bro_ell_kernels(*bro, isa);
      std::vector<value_t> y(want.size());
      bk::native_spmv_bro_ell(*bro, kernels, x, y);
      expect_bitwise(y, want, "SpMV");
      std::vector<value_t> yk(want_k.size());
      bk::native_spmm_bro_ell(*bro, kernels, xk, yk, k);
      expect_bitwise(yk, want_k, "SpMM");
    }
  }
}

TEST(DecodeDispatch, AdversarialParity) {
  for (auto& adversarial : bs::adversarial_suite(5)) {
    const bs::Csr& csr = adversarial.csr;
    if (csr.nnz() == 0 || csr.rows == 0) continue;
    const auto x = random_x(csr.cols, 31);
    const std::size_t rows = static_cast<std::size_t>(csr.rows);
    std::vector<value_t> y(rows), y_gen(rows);

    // ELL blows up on spike shapes; gate like the registry does. All
    // compressions are ISA-independent, so build once and sweep the
    // selection ISA over the kernel calls only.
    const double expand = static_cast<double>(csr.rows) *
                          static_cast<double>(csr.max_row_length());
    const bool ell_ok = expand <= 3.0 * static_cast<double>(csr.nnz());
    const auto ell =
        ell_ok ? bc::BroEll::compress(bs::csr_to_ell(csr)) : bc::BroEll();
    const auto coo = bc::BroCoo::compress(bs::csr_to_coo(csr));
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

    const auto coo_generic = generic_table(coo);
    for (const bk::SimdIsa isa : host_isas()) {
      if (ell_ok) {
        bk::native_spmv_bro_ell(ell, bk::plan_bro_ell_kernels(ell, isa), x, y);
        bk::native_spmv_bro_ell(ell, generic_table(ell), x, y_gen);
        expect_bitwise(y, y_gen, adversarial.name.c_str());
      }

      const auto table = bk::plan_bro_coo_kernels(coo, isa);
      run_coo(coo, table, x, y);
      run_coo(coo, coo_generic, x, y_gen);
      expect_bitwise(y, y_gen, adversarial.name.c_str());

      bk::native_spmm_bro_coo(coo, table, xm, ym, k, carries, sums);
      bk::native_spmm_bro_coo(coo, coo_generic, xm, ym_gen, k, carries,
                              sums);
      expect_bitwise(ym, ym_gen, adversarial.name.c_str());

      run_hyb(hyb, bk::plan_bro_ell_kernels(hyb.ell_part(), isa),
              bk::plan_bro_coo_kernels(hyb.coo_part(), isa), x, y);
      run_hyb(hyb, generic_table(hyb.ell_part()),
              generic_table(hyb.coo_part()), x, y_gen);
      expect_bitwise(y, y_gen, adversarial.name.c_str());
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
      run_coo(coo, bk::plan_bro_coo_kernels(coo, isa), x, y);
      run_coo(coo, generic_table(coo), x, y_gen);
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
  const auto ell = bc::BroEll::compress(bs::csr_to_ell(csr));
  const auto coo = bc::BroCoo::compress(bs::csr_to_coo(csr));
  for (const bk::SimdIsa isa :
       {bk::SimdIsa::kScalar, bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2}) {
    const bk::SimdKernels* t = bk::simd_kernels(isa);
    const bk::SimdIsa tag = t != nullptr ? isa : bk::SimdIsa::kScalar;
    for (const auto& kernel : bk::plan_bro_ell_kernels(ell, isa)) {
      EXPECT_EQ(kernel.isa, tag);
      if (t != nullptr) {
        EXPECT_EQ(kernel.spmv, t->ell_spmv);
        EXPECT_EQ(kernel.spmm, t->ell_spmm);
      }
    }
    for (const auto& kernel : bk::plan_bro_coo_kernels(coo, isa)) {
      EXPECT_EQ(kernel.isa, tag);
      if (t != nullptr) {
        EXPECT_EQ(kernel.spmv, t->coo_spmv);
        EXPECT_EQ(kernel.spmm, t->coo_spmm);
      }
    }
    for (const auto& [br, bcol] : bc::kBcsrCandidateShapes) {
      bc::BroBcsrOptions bopt;
      bopt.block_rows = br;
      bopt.block_cols = bcol;
      const auto bcsr = bc::BroBcsr::compress(truss, bopt);
      const auto shape =
          static_cast<std::size_t>(bk::bcsr_shape_index(br, bcol));
      const bk::BroBcsrKernel kernel = bk::select_bro_bcsr_kernel(bcsr, isa);
      EXPECT_EQ(kernel.isa, tag);
      if (t != nullptr) {
        EXPECT_EQ(kernel.spmv, t->bcsr_spmv[shape]);
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
