// Tests for sparse containers and conversions, built around the paper's
// running example matrix A (Section 2).
#include <gtest/gtest.h>

#include <vector>

#include "sparse/convert.h"
#include "sparse/stats.h"
#include "util/rng.h"

namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;

namespace {

// The 4x5 example matrix from Section 2 of the paper:
//   3 0 2 0 0
//   2 6 5 4 1
//   0 1 9 0 7
//   0 0 0 8 3
bs::Coo paper_matrix() {
  bs::Coo coo;
  coo.rows = 4;
  coo.cols = 5;
  const index_t r[] = {0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3};
  const index_t c[] = {0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4};
  const value_t v[] = {3, 2, 2, 6, 5, 4, 1, 1, 9, 7, 8, 3};
  for (int i = 0; i < 12; ++i) coo.push(r[i], c[i], v[i]);
  return coo;
}

bs::Csr random_csr(index_t rows, index_t cols, double fill, std::uint64_t seed) {
  bro::Rng rng(seed);
  bs::Coo coo;
  coo.rows = rows;
  coo.cols = cols;
  for (index_t r = 0; r < rows; ++r)
    for (index_t c = 0; c < cols; ++c)
      if (rng.uniform() < fill) coo.push(r, c, rng.uniform() * 2 - 1);
  return bs::coo_to_csr(coo);
}

} // namespace

TEST(Coo, PaperExampleIsCanonical) {
  const bs::Coo coo = paper_matrix();
  EXPECT_TRUE(coo.is_valid());
  EXPECT_TRUE(coo.is_canonical());
  EXPECT_EQ(coo.nnz(), 12u);
}

TEST(Coo, CanonicalizeSortsAndMergesDuplicates) {
  bs::Coo coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.push(1, 1, 5);
  coo.push(0, 0, 1);
  coo.push(1, 1, 7);
  coo.canonicalize();
  EXPECT_TRUE(coo.is_canonical());
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.vals[1], 12);
}

TEST(Coo, CanonicalizeDropZeros) {
  bs::Coo coo;
  coo.rows = 1;
  coo.cols = 2;
  coo.push(0, 0, 5);
  coo.push(0, 0, -5);
  coo.push(0, 1, 1);
  coo.canonicalize(/*drop_zeros=*/true);
  EXPECT_EQ(coo.nnz(), 1u);
  EXPECT_EQ(coo.col_idx[0], 1);
}

TEST(Coo, InvalidIndexDetected) {
  bs::Coo coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.push(2, 0, 1.0);
  EXPECT_FALSE(coo.is_valid());
}

TEST(Csr, RoundTripThroughCoo) {
  const bs::Csr csr = bs::coo_to_csr(paper_matrix());
  EXPECT_TRUE(csr.is_valid());
  EXPECT_EQ(csr.nnz(), 12u);
  EXPECT_EQ(csr.max_row_length(), 5);
  const bs::Coo back = bs::csr_to_coo(csr);
  const bs::Coo orig = paper_matrix();
  EXPECT_EQ(back.row_idx, orig.row_idx);
  EXPECT_EQ(back.col_idx, orig.col_idx);
  EXPECT_EQ(back.vals, orig.vals);
}

TEST(Csr, CanonicalCooMovedInIsNotCopied) {
  bs::Coo coo = paper_matrix();
  const bs::Csr copied = bs::coo_to_csr(coo);
  const index_t* cols = coo.col_idx.data();
  const value_t* vals = coo.vals.data();
  const bs::Csr moved = bs::coo_to_csr(std::move(coo));
  EXPECT_EQ(moved.col_idx.data(), cols); // the buffers changed hands
  EXPECT_EQ(moved.vals.data(), vals);
  EXPECT_EQ(moved.row_ptr, copied.row_ptr);
  EXPECT_EQ(moved.col_idx, copied.col_idx);
  EXPECT_EQ(moved.vals, copied.vals);
}

TEST(Csr, BuilderCanonicalizesEachRow) {
  bs::CsrBuilder b(2, 6, 5);
  b.push(4, 1.0);
  b.push(1, 2.0);
  b.push(4, 3.0); // duplicate of column 4, summed in arrival order
  b.end_row();
  b.push(0, 5.0);
  b.push(5, 6.0);
  b.end_row();
  const bs::Csr a = b.finish();
  EXPECT_TRUE(a.is_valid());
  EXPECT_EQ(a.row_ptr, (bro::util::UninitVector<index_t>{0, 2, 4}));
  EXPECT_EQ(a.col_idx, (bro::util::UninitVector<index_t>{1, 4, 0, 5}));
  EXPECT_EQ(a.vals, (bro::util::UninitVector<value_t>{2.0, 4.0, 5.0, 6.0}));
  bs::CsrBuilder short_one(2, 2);
  short_one.end_row();
  EXPECT_THROW(short_one.finish(), std::runtime_error);
}

TEST(Csr, ReferenceSpmvOnPaperMatrix) {
  const bs::Csr csr = bs::coo_to_csr(paper_matrix());
  const std::vector<value_t> x = {1, 2, 3, 4, 5};
  std::vector<value_t> y(4);
  bs::spmv_csr_reference(csr, x, y);
  EXPECT_DOUBLE_EQ(y[0], 3 * 1 + 2 * 3);
  EXPECT_DOUBLE_EQ(y[1], 2 * 1 + 6 * 2 + 5 * 3 + 4 * 4 + 1 * 5);
  EXPECT_DOUBLE_EQ(y[2], 1 * 2 + 9 * 3 + 7 * 5);
  EXPECT_DOUBLE_EQ(y[3], 8 * 4 + 3 * 5);
}

TEST(Ell, MatchesPaperLayout) {
  const bs::Csr csr = bs::coo_to_csr(paper_matrix());
  const bs::Ell ell = bs::csr_to_ell(csr);
  EXPECT_TRUE(ell.is_valid());
  EXPECT_EQ(ell.width, 5);
  // Row 0: cols {0, 2}, padded to width 5.
  EXPECT_EQ(ell.col_at(0, 0), 0);
  EXPECT_EQ(ell.col_at(0, 1), 2);
  EXPECT_EQ(ell.col_at(0, 2), bs::kPad);
  EXPECT_DOUBLE_EQ(ell.val_at(0, 1), 2.0);
  // Column-major invariant: entry (r=1, j=0) is adjacent to (r=0, j=0).
  EXPECT_EQ(ell.col_idx[1], 0);
}

TEST(Ell, RoundTripToCsr) {
  const bs::Csr csr = random_csr(50, 40, 0.1, 7);
  const bs::Csr back = bs::ell_to_csr(bs::csr_to_ell(csr));
  EXPECT_EQ(back.row_ptr, csr.row_ptr);
  EXPECT_EQ(back.col_idx, csr.col_idx);
  EXPECT_EQ(back.vals, csr.vals);
}

TEST(Ell, ExpansionGuard) {
  bs::Coo coo;
  coo.rows = 1000;
  coo.cols = 1000;
  for (index_t c = 0; c < 1000; ++c) coo.push(0, c, 1.0); // one dense row
  coo.push(5, 5, 1.0);
  const bs::Csr csr = bs::coo_to_csr(coo);
  EXPECT_THROW(bs::csr_to_ell(csr, /*max_expand=*/10.0), std::runtime_error);
}

TEST(EllR, RowLengthsRecorded) {
  const bs::Csr csr = bs::coo_to_csr(paper_matrix());
  const bs::EllR ellr = bs::csr_to_ellr(csr);
  EXPECT_TRUE(ellr.is_valid());
  EXPECT_EQ(ellr.row_length, (bro::util::UninitVector<index_t>{2, 5, 3, 2}));
}

TEST(Hyb, SplitHeuristicPaperExample) {
  // Row lengths of the paper matrix: {2, 5, 3, 2}; threshold = max(1, 4/3)=1.
  // Largest k with >= 1 rows of length >= k is 5... but the paper's
  // illustration picks k = 3. The heuristic is data-dependent; verify the
  // rule itself on a sharper distribution.
  std::vector<index_t> lens(90, 4);
  lens.resize(120, 64); // 30 of 120 rows (exactly 1/4 < 1/3) are long
  const index_t k = bs::hyb_split_width(lens);
  EXPECT_EQ(k, 4); // 40 rows >= 4 never happens: 120 rows >= 4 -> k >= 4
}

TEST(Hyb, SplitWidthRules) {
  // 2/3 of rows have length 3, 1/3 have length 10 -> k = 10 needs exactly
  // rows/3 rows, which meets the "at least" threshold.
  std::vector<index_t> lens;
  lens.insert(lens.end(), 20, 3);
  lens.insert(lens.end(), 10, 10);
  EXPECT_EQ(bs::hyb_split_width(lens), 10);
  // Make the long rows fewer than a third -> k falls back to 3.
  lens.assign(21, 3);
  lens.insert(lens.end(), 9, 10);
  EXPECT_EQ(bs::hyb_split_width(lens), 3);
}

TEST(Hyb, RoundTripAndFraction) {
  const bs::Csr csr = random_csr(60, 60, 0.08, 11);
  const bs::Hyb hyb = bs::csr_to_hyb(csr);
  EXPECT_EQ(hyb.nnz(), csr.nnz());
  const bs::Csr back = bs::hyb_to_csr(hyb);
  EXPECT_EQ(back.col_idx, csr.col_idx);
  EXPECT_EQ(back.vals, csr.vals);
  EXPECT_GE(hyb.ell_fraction(), 0.0);
  EXPECT_LE(hyb.ell_fraction(), 1.0);
}

TEST(Hyb, ForcedWidthZeroPutsEverythingInCoo) {
  const bs::Csr csr = bs::coo_to_csr(paper_matrix());
  const bs::Hyb hyb = bs::csr_to_hyb(csr, 0);
  EXPECT_EQ(hyb.coo.nnz(), csr.nnz());
  EXPECT_DOUBLE_EQ(hyb.ell_fraction(), 0.0);
}

TEST(Stats, PaperMatrix) {
  const bs::Csr csr = bs::coo_to_csr(paper_matrix());
  const bs::MatrixStats s = bs::compute_stats(csr);
  EXPECT_EQ(s.nnz, 12u);
  EXPECT_DOUBLE_EQ(s.mean_row_length, 3.0);
  EXPECT_EQ(s.max_row_length, 5);
  EXPECT_EQ(s.min_row_length, 2);
  EXPECT_NEAR(s.stddev_row_length, 1.224744871, 1e-6);
}

TEST(Stats, DimsString) {
  EXPECT_EQ(bs::dims_string(130228, 130228), "130k x 130k");
  EXPECT_EQ(bs::dims_string(1000005, 4284), "1M x 4k");
  EXPECT_EQ(bs::dims_string(500, 500), "500 x 500");
}

TEST(Convert, EmptyMatrix) {
  bs::Coo coo;
  coo.rows = 3;
  coo.cols = 3;
  const bs::Csr csr = bs::coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 0u);
  const bs::Ell ell = bs::csr_to_ell(csr);
  EXPECT_EQ(ell.width, 0);
  EXPECT_TRUE(ell.is_valid());
  const bs::Hyb hyb = bs::csr_to_hyb(csr);
  EXPECT_EQ(hyb.nnz(), 0u);
}
