// BRO-COO tests: interval structure, row-index round-trips, SpMV agreement
// and padding behaviour.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/bro_coo.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;

namespace {

std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> x(n);
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

void expect_spmv_matches(const bs::Csr& csr, const bc::BroCoo& bro) {
  const auto x = random_vector(static_cast<std::size_t>(csr.cols), 3);
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  std::vector<value_t> y_bro(static_cast<std::size_t>(csr.rows), 0.0);
  bs::spmv_csr_reference(csr, x, y_ref);
  bro.spmv_accumulate(x, y_bro);
  for (index_t r = 0; r < csr.rows; ++r)
    EXPECT_NEAR(y_bro[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)],
                1e-12 * (1.0 + std::abs(y_ref[static_cast<std::size_t>(r)])));
}

} // namespace

TEST(BroCoo, RowDecodeRoundTrip) {
  const bs::Csr csr = bs::generate_poisson2d(30, 30);
  const bs::Coo coo = bs::csr_to_coo(csr);
  const bc::BroCoo bro = bc::BroCoo::compress(coo);
  const auto rows = bro.decode_rows();
  ASSERT_GE(rows.size(), coo.nnz());
  for (std::size_t i = 0; i < coo.nnz(); ++i) EXPECT_EQ(rows[i], coo.row_idx[i]);
  // Padding repeats the final row index.
  for (std::size_t i = coo.nnz(); i < rows.size(); ++i)
    EXPECT_EQ(rows[i], coo.row_idx.back());
}

TEST(BroCoo, PaddedValuesAreZero) {
  bs::Coo coo;
  coo.rows = 10;
  coo.cols = 10;
  for (index_t i = 0; i < 10; ++i) coo.push(i, i, 2.0);
  const bc::BroCoo bro = bc::BroCoo::compress(coo);
  EXPECT_EQ(bro.nnz(), 10u);
  EXPECT_GT(bro.padded_nnz(), bro.nnz()); // one interval minimum
  EXPECT_EQ(bro.padded_nnz() % (32 * 64), 0u);
  for (std::size_t i = bro.nnz(); i < bro.padded_nnz(); ++i)
    EXPECT_EQ(bro.vals()[i], 0.0);
  expect_spmv_matches(bs::coo_to_csr(coo), bro);
}

TEST(BroCoo, PaddedStreamsHoldExactCapacity) {
  // A moved-in COO whose vectors are exactly full: padding them by
  // resize() alone would regrow each to about twice the entry count.
  bs::Coo coo = bs::csr_to_coo(bs::generate_poisson2d(40, 40));
  ASSERT_EQ(coo.col_idx.capacity(), coo.nnz());
  const bc::BroCoo bro = bc::BroCoo::compress(std::move(coo));
  ASSERT_GT(bro.padded_nnz(), bro.nnz());
  EXPECT_EQ(bro.col_idx().capacity(), bro.padded_nnz());
  EXPECT_EQ(bro.vals().capacity(), bro.padded_nnz());
}

TEST(BroCoo, SingleBitWidthPerInterval) {
  // A diagonal matrix: lane deltas are all 32 (stride w down a lane) except
  // the first per lane; all intervals should pick a width of 6 bits.
  bs::Coo coo;
  coo.rows = 4096;
  coo.cols = 4096;
  for (index_t i = 0; i < 4096; ++i) coo.push(i, i, 1.0);
  const bc::BroCoo bro = bc::BroCoo::compress(coo);
  ASSERT_EQ(bro.intervals().size(), 2u); // 4096 / (32*64)
  for (const auto& iv : bro.intervals()) EXPECT_EQ(iv.bits, 6);
  expect_spmv_matches(bs::coo_to_csr(coo), bro);
}

TEST(BroCoo, CompressionSavesSpaceOnSortedStreams) {
  const bs::Csr csr = bs::generate_poisson2d(64, 64);
  const bc::BroCoo bro = bc::BroCoo::compress(bs::csr_to_coo(csr));
  EXPECT_LT(bro.compressed_row_bytes(), bro.original_row_bytes());
}

TEST(BroCoo, EmptyMatrix) {
  bs::Coo coo;
  coo.rows = 5;
  coo.cols = 5;
  const bc::BroCoo bro = bc::BroCoo::compress(coo);
  EXPECT_EQ(bro.nnz(), 0u);
  EXPECT_TRUE(bro.intervals().empty());
  std::vector<value_t> x(5, 1.0), y(5, 0.0);
  bro.spmv_accumulate(x, y);
  for (const auto v : y) EXPECT_EQ(v, 0.0);
}

TEST(BroCoo, RequiresCanonicalOrder) {
  bs::Coo coo;
  coo.rows = 3;
  coo.cols = 3;
  coo.push(2, 0, 1.0);
  coo.push(0, 0, 1.0); // out of order
  EXPECT_THROW(bc::BroCoo::compress(coo), std::runtime_error);
}

TEST(BroCoo, AccumulatesIntoExistingY) {
  bs::Coo coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.push(0, 0, 3.0);
  const bc::BroCoo bro = bc::BroCoo::compress(coo);
  std::vector<value_t> x = {2.0, 0.0};
  std::vector<value_t> y = {10.0, 20.0};
  bro.spmv_accumulate(x, y);
  EXPECT_DOUBLE_EQ(y[0], 16.0);
  EXPECT_DOUBLE_EQ(y[1], 20.0);
}

// ---- parameterized sweep over interval shape and matrix structure ----

class BroCooProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BroCooProperty, RoundTripAndSpmv) {
  const auto [interval_cols, sym_len, kind] = GetParam();

  bs::Csr csr;
  switch (kind) {
    case 0: csr = bs::generate_poisson2d(25, 19); break;
    case 1: {
      bs::GenSpec spec;
      spec.rows = 1500;
      spec.cols = 1500;
      spec.mu = 5;
      spec.sigma = 4;
      spec.len_dist = bs::LenDist::kLogNormal;
      spec.seed = 12;
      csr = bs::generate(spec);
      break;
    }
    case 2: {
      // Long empty stretches: large row deltas between intervals.
      bs::Coo coo;
      coo.rows = 100000;
      coo.cols = 128;
      bro::Rng rng(4);
      index_t r = 0;
      for (int i = 0; i < 3000; ++i) {
        r += static_cast<index_t>(rng.below(60));
        if (r >= coo.rows) break;
        coo.push(r, static_cast<index_t>(rng.below(128)), 1.0);
      }
      coo.canonicalize();
      csr = bs::coo_to_csr(coo);
      break;
    }
    default: FAIL();
  }

  const bs::Coo coo = bs::csr_to_coo(csr);
  bc::BroCooOptions opts;
  opts.interval_cols = interval_cols;
  opts.sym_len = sym_len;
  const bc::BroCoo bro = bc::BroCoo::compress(coo, opts);

  const auto rows = bro.decode_rows();
  for (std::size_t i = 0; i < coo.nnz(); ++i)
    ASSERT_EQ(rows[i], coo.row_idx[i]) << "entry " << i;

  expect_spmv_matches(csr, bro);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BroCooProperty,
    ::testing::Combine(::testing::Values(1, 8, 64),    // interval_cols
                       ::testing::Values(32, 64),      // sym_len
                       ::testing::Values(0, 1, 2)));   // matrix kind
