// BRO-BCSR tests: exact block-cover reconstruction, shape selection under
// the fill-charged savings model, the bitwise-FP kernel contract across
// scalar/SSE4/AVX2 at every forced shape and symbol length, SpMM column
// equivalence, serialize round-trips, auto-selection hygiene, and the
// truss-FEM generator the format is benchmarked on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "bcsr_gate_reference.h"
#include "core/bro_bcsr.h"
#include "core/serialize.h"
#include "kernels/bro_bcsr_decode.h"
#include "sparse/convert.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace bk = bro::kernels;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;
using bro::oracle::reference_applicable;

namespace {

std::vector<value_t> random_x(index_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

/// Drop explicit zeros — the cover's fill-in — so a reconstruction can be
/// compared entry-for-entry with the (zero-free) source pattern.
bs::Csr strip_zeros(const bs::Csr& in) {
  bs::Csr out;
  out.rows = in.rows;
  out.cols = in.cols;
  out.row_ptr.push_back(0);
  for (index_t r = 0; r < in.rows; ++r) {
    for (index_t p = in.row_ptr[r]; p < in.row_ptr[r + 1]; ++p)
      if (in.vals[static_cast<std::size_t>(p)] != 0.0) {
        out.col_idx.push_back(in.col_idx[static_cast<std::size_t>(p)]);
        out.vals.push_back(in.vals[static_cast<std::size_t>(p)]);
      }
    out.row_ptr.push_back(static_cast<index_t>(out.col_idx.size()));
  }
  return out;
}

void expect_exact_reconstruction(const bs::Csr& src, const bc::BroBcsr& a) {
  const bs::Csr back = strip_zeros(a.to_csr());
  ASSERT_EQ(back.rows, src.rows);
  ASSERT_EQ(back.cols, src.cols);
  ASSERT_EQ(back.row_ptr, src.row_ptr);
  ASSERT_EQ(back.col_idx, src.col_idx);
  for (std::size_t i = 0; i < src.vals.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.vals[i]),
              std::bit_cast<std::uint64_t>(src.vals[i]))
        << "value " << i;
}

void expect_bitwise_spmv(const bs::Csr& csr, const bc::BroBcsr& a,
                         bk::SimdIsa isa, const char* what) {
  const auto x = random_x(csr.cols, 0xb17b17);
  std::vector<value_t> ref(static_cast<std::size_t>(csr.rows));
  a.spmv(x, ref);
  std::vector<value_t> y(ref.size(), 0.0);
  bk::native_spmv_bro_bcsr(a, bk::select_bro_bcsr_kernel(a, isa), x, y);
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
              std::bit_cast<std::uint64_t>(ref[i]))
        << what << " " << bk::simd_isa_name(isa) << " row " << i;
}

} // namespace

TEST(BroBcsr, ExactCoverRoundTripsTruss) {
  const bs::Csr csr = bs::generate_truss2d(40, 6, 7);
  for (const int sym_len : {32, 64}) {
    bc::BroBcsrOptions opts;
    opts.sym_len = sym_len;
    const bc::BroBcsr a = bc::BroBcsr::compress(csr, opts);
    EXPECT_EQ(a.nnz(), csr.nnz());
    expect_exact_reconstruction(csr, a);
  }
}

TEST(BroBcsr, ExactCoverRoundTripsAdversarial) {
  for (const auto& c : bs::adversarial_suite())
    for (const auto& [br, bc_] : bc::kBcsrCandidateShapes) {
      bc::BroBcsrOptions opts;
      opts.block_rows = br;
      opts.block_cols = bc_;
      const bc::BroBcsr a = bc::BroBcsr::compress(c.csr, opts);
      const bs::Csr back = strip_zeros(a.to_csr());
      // Adversarial sources may themselves hold explicit zeros, so compare
      // against the equally stripped source.
      const bs::Csr src = strip_zeros(c.csr);
      ASSERT_EQ(back.row_ptr, src.row_ptr) << c.name << " " << br << "x"
                                           << bc_;
      ASSERT_EQ(back.col_idx, src.col_idx) << c.name;
    }
}

TEST(BroBcsr, TrussChoosesTwoByTwo) {
  // A jittered truss assembly is a union of fully dense 2x2 dof blocks;
  // the savings model must find that shape (and fully dense covers).
  const bs::Csr csr = bs::generate_truss2d(120, 6, 3);
  const bc::BroBcsr a = bc::BroBcsr::compress(csr);
  EXPECT_EQ(a.block_r(), 2);
  EXPECT_EQ(a.block_c(), 2);
  const auto analysis = bc::analyze_bro_bcsr(csr);
  ASSERT_GE(analysis.best, 0);
  EXPECT_DOUBLE_EQ(
      analysis.shapes[static_cast<std::size_t>(analysis.best)].fill, 1.0);
  EXPECT_TRUE(bc::bro_bcsr_applicable(csr, 3.0));
}

TEST(BroBcsr, ForcedShapesAreRespected) {
  const bs::Csr csr = bs::generate_truss2d(24, 4, 11);
  for (const auto& [br, bc_] : bc::kBcsrCandidateShapes) {
    bc::BroBcsrOptions opts;
    opts.block_rows = br;
    opts.block_cols = bc_;
    const bc::BroBcsr a = bc::BroBcsr::compress(csr, opts);
    EXPECT_EQ(a.block_r(), br);
    EXPECT_EQ(a.block_c(), bc_);
    expect_exact_reconstruction(csr, a);
  }
}

TEST(BroBcsr, KernelsMatchReferenceBitwiseEverywhere) {
  // The tentpole contract: every ISA's kernels reproduce the sequential
  // 8-lane reference exactly, for every adversarial case and forced shape
  // this process can run.
  for (const auto& c : bs::adversarial_suite())
    for (const auto& [br, bc_] : bc::kBcsrCandidateShapes) {
      bc::BroBcsrOptions opts;
      opts.block_rows = br;
      opts.block_cols = bc_;
      const bc::BroBcsr a = bc::BroBcsr::compress(c.csr, opts);
      for (const bk::SimdIsa isa :
           {bk::SimdIsa::kScalar, bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2}) {
        if (isa != bk::SimdIsa::kScalar && !bk::simd_isa_runnable(isa))
          continue;
        expect_bitwise_spmv(c.csr, a, isa, c.name.c_str());
      }
    }
}

TEST(BroBcsr, SpmvMatchesCsrReferenceNumerically) {
  const bs::Csr csr = bs::generate_truss2d(60, 6, 21);
  const bc::BroBcsr a = bc::BroBcsr::compress(csr);
  const auto x = random_x(csr.cols, 5);
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y_ref);
  a.spmv(x, y);
  for (index_t r = 0; r < csr.rows; ++r)
    EXPECT_NEAR(y[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)],
                1e-10 * (1.0 + std::abs(y_ref[static_cast<std::size_t>(r)])))
        << "row " << r;
}

TEST(BroBcsr, SpmmColumnsMatchSpmvBitwise) {
  const bs::Csr csr = bs::generate_truss2d(32, 5, 13);
  const bc::BroBcsr a = bc::BroBcsr::compress(csr);
  constexpr int k = 5;
  const auto n = static_cast<std::size_t>(csr.cols);
  const auto m = static_cast<std::size_t>(csr.rows);
  const auto flat = random_x(static_cast<index_t>(n * k), 17);
  std::vector<value_t> ym(m * k);
  bk::native_spmm_bro_bcsr(
      a, bk::select_bro_bcsr_kernel(a, bk::active_simd_isa()), flat, ym, k);
  for (int j = 0; j < k; ++j) {
    std::vector<value_t> xj(n), yj(m);
    for (std::size_t c = 0; c < n; ++c)
      xj[c] = flat[c * k + static_cast<std::size_t>(j)];
    a.spmv(xj, yj);
    for (std::size_t r = 0; r < m; ++r)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    ym[r * k + static_cast<std::size_t>(j)]),
                std::bit_cast<std::uint64_t>(yj[r]))
          << "column " << j << " row " << r;
  }
}

TEST(BroBcsr, SerializeRoundTripsBitwise) {
  const bs::Csr csr = bs::generate_truss2d(28, 4, 29);
  for (const int sym_len : {32, 64}) {
    bc::BroBcsrOptions opts;
    opts.sym_len = sym_len;
    const bc::BroBcsr a = bc::BroBcsr::compress(csr, opts);
    std::stringstream buf;
    bc::write_bro_bcsr(buf, a);
    bc::Format fmt{};
    const bs::Csr back = bc::read_bro_to_csr(buf, &fmt);
    EXPECT_EQ(fmt, bc::Format::kBroBcsr);
    EXPECT_EQ(back.row_ptr, csr.row_ptr);
    EXPECT_EQ(back.col_idx, csr.col_idx);
    ASSERT_EQ(back.vals.size(), csr.vals.size());
    for (std::size_t i = 0; i < csr.vals.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(back.vals[i]),
                std::bit_cast<std::uint64_t>(csr.vals[i]));
    // Recompressed from the loaded CSR: the same cover, the same product.
    const bc::BroBcsr b = bc::BroBcsr::compress(back, opts);
    EXPECT_EQ(b.block_r(), a.block_r());
    EXPECT_EQ(b.block_c(), a.block_c());
    EXPECT_EQ(b.nnz(), a.nnz());
    const auto x = random_x(csr.cols, 31);
    std::vector<value_t> ya(static_cast<std::size_t>(csr.rows));
    std::vector<value_t> yb(static_cast<std::size_t>(csr.rows));
    a.spmv(x, ya);
    b.spmv(x, yb);
    for (std::size_t i = 0; i < ya.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ya[i]),
                std::bit_cast<std::uint64_t>(yb[i]));
  }
}

TEST(BroBcsr, ApplicabilityRejectsRunsAcceptsBlocks) {
  // A pure diagonal is all fill; a dense-block adversarial pattern is the
  // format's home turf. At least one adversarial case must pass the gate
  // (the acceptance criterion the block-bench gate also enforces).
  bs::Coo diag;
  diag.rows = 512;
  diag.cols = 512;
  for (index_t i = 0; i < 512; ++i) diag.push(i, i, 1.0);
  diag.canonicalize();
  EXPECT_FALSE(bc::bro_bcsr_applicable(bs::coo_to_csr(diag), 3.0));

  int applicable = 0;
  for (const auto& c : bs::adversarial_suite())
    if (bc::bro_bcsr_applicable(c.csr, 3.0)) ++applicable;
  EXPECT_GE(applicable, 1);
}

TEST(BroBcsr, TrussGeneratorShape) {
  const index_t panels = 50, stories = 6;
  const bs::Csr csr = bs::generate_truss2d(panels, stories, 1);
  // 2 dofs per node, (panels + 1) * stories nodes.
  EXPECT_EQ(csr.rows, 2 * (panels + 1) * stories);
  EXPECT_EQ(csr.cols, csr.rows);
  EXPECT_GT(csr.nnz(), 0u);
  // Stiffness assembly: structurally symmetric, diagonal present, and the
  // jittered geometry stores no exact zeros.
  for (const auto v : csr.vals) EXPECT_NE(v, 0.0);
  std::set<std::pair<index_t, index_t>> entries;
  for (index_t r = 0; r < csr.rows; ++r)
    for (index_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p)
      entries.emplace(r, csr.col_idx[static_cast<std::size_t>(p)]);
  for (const auto& [r, c] : entries)
    EXPECT_TRUE(entries.count({c, r})) << "(" << r << ", " << c << ")";
  for (index_t r = 0; r < csr.rows; ++r) {
    bool diag = false;
    for (index_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p)
      if (csr.col_idx[static_cast<std::size_t>(p)] == r) diag = true;
    EXPECT_TRUE(diag) << "row " << r;
  }
}

TEST(BroBcsr, SliceHeightBoundaries) {
  // Block rows straddling the slice boundary must decode identically for
  // any slice height, including 1 (every block row its own slice).
  const bs::Csr csr = bs::generate_truss2d(20, 4, 41);
  const bc::BroBcsr ref = bc::BroBcsr::compress(csr);
  const auto x = random_x(csr.cols, 43);
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  ref.spmv(x, y_ref);
  for (const int h : {1, 3, 64, 1024}) {
    bc::BroBcsrOptions opts;
    opts.slice_height = h;
    const bc::BroBcsr a = bc::BroBcsr::compress(csr, opts);
    std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
    a.spmv(x, y);
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                std::bit_cast<std::uint64_t>(y_ref[i]))
          << "slice_height " << h << " row " << i;
    expect_exact_reconstruction(csr, a);
  }
}

TEST(BroBcsr, SuiteTestSetThreeIsBcsrTerritory) {
  // Every truss suite entry must pass applicability at benchmark scales —
  // the precondition for the block-bench A/B being meaningful.
  for (const auto& e : bs::suite_test_set(3)) {
    const bs::Csr csr = bs::generate_suite_matrix(e, 0.0625);
    EXPECT_TRUE(bc::bro_bcsr_applicable(csr, 3.0)) << e.name;
  }
}

namespace {

/// 4x4 dense tiles, four per block row, 64 columns apart; the first tile of
/// each block row lacks its bottom-right 2x2 quadrant. 2x2 covers it with
/// fill 1.0, but the cheapest cover is 4x4 at fill 15/16 < 0.95.
bs::Csr quadrant_hole_tiles() {
  bs::Coo coo;
  coo.rows = 256;
  coo.cols = 256;
  for (index_t br = 0; br < 64; ++br)
    for (index_t k = 0; k < 4; ++k)
      for (index_t i = 0; i < 4; ++i)
        for (index_t j = 0; j < 4; ++j)
          if (k != 0 || i < 2 || j < 2)
            coo.push(br * 4 + i, k * 64 + (br * 4) % 64 + j, 1.0);
  return bs::coo_to_csr(coo);
}

} // namespace

TEST(BroBcsr, FillPrefilterAgreesWithFullAnalysis) {
  int accepted = 0;
  for (const auto& c : bro::oracle::gate_cases()) {
    for (const double expand : {3.0, 1e30}) {
      const bool want = reference_applicable(c.csr, expand);
      EXPECT_EQ(bc::bro_bcsr_applicable(c.csr, expand), want) << c.name;
      accepted += want;
    }
  }
  EXPECT_GT(accepted, 0); // the truss suite passes, so both branches run
}

TEST(BroBcsr, FillPrefilterDefersWhenOnlyANonBestShapeClearsTheFloor) {
  const bs::Csr csr = quadrant_hole_tiles();
  const bc::BroBcsrOptions opts;
  const bc::BcsrAnalysis a = bc::analyze_bro_bcsr(csr, opts);
  ASSERT_GE(a.best, 0);
  EXPECT_LT(a.shapes[static_cast<std::size_t>(a.best)].fill, opts.min_fill);
  double best_fill = 0;
  for (const auto& s : a.shapes) best_fill = std::max(best_fill, s.fill);
  EXPECT_GE(best_fill, opts.min_fill); // the prefilter cannot reject it
  EXPECT_FALSE(reference_applicable(csr, 3.0));
  EXPECT_FALSE(bc::bro_bcsr_applicable(csr, 3.0));
}
