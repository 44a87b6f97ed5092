// BRO-HYB tests: split consistency with HYB, SpMV agreement, and the
// Table 4 accounting (% BRO-ELL, η over all index data).
#include <gtest/gtest.h>

#include <vector>

#include "core/bro_hyb.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;

namespace {

bs::Csr skewed_matrix(std::uint64_t seed) {
  // Mostly short rows plus a handful of very long ones: the HYB sweet spot.
  bs::GenSpec spec;
  spec.rows = 3000;
  spec.cols = 3000;
  spec.mu = 8;
  spec.sigma = 3;
  spec.spike_rows = 12;
  spec.spike_len = 900;
  spec.seed = seed;
  return bs::generate(spec);
}

void expect_spmv_matches(const bs::Csr& csr, const bc::BroHyb& bro) {
  bro::Rng rng(31);
  std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  std::vector<value_t> y_bro(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y_ref);
  bro.spmv(x, y_bro);
  for (index_t r = 0; r < csr.rows; ++r)
    EXPECT_NEAR(y_bro[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)],
                1e-11 * (1.0 + std::abs(y_ref[static_cast<std::size_t>(r)])));
}

} // namespace

TEST(BroHyb, SplitMatchesHybHeuristic) {
  const bs::Csr csr = skewed_matrix(1);
  const bs::Hyb hyb = bs::csr_to_hyb(csr);
  const bc::BroHyb bro = bc::BroHyb::compress(csr);
  EXPECT_EQ(bro.split_width(), hyb.ell.width);
  EXPECT_NEAR(bro.ell_fraction(), hyb.ell_fraction(), 1e-12);
}

TEST(BroHyb, SpmvMatchesReference) {
  const bs::Csr csr = skewed_matrix(2);
  expect_spmv_matches(csr, bc::BroHyb::compress(csr));
}

TEST(BroHyb, CooPartHoldsExactCapacity) {
  // The overflow entries are gathered by push_back, so their capacity is
  // whatever growth left; the padded COO part must still hold exactly its
  // padded length.
  const bc::BroHyb bro = bc::BroHyb::compress(skewed_matrix(3));
  const bc::BroCoo& coo = bro.coo_part();
  ASSERT_GT(coo.nnz(), 0u);
  EXPECT_EQ(coo.col_idx().capacity(), coo.padded_nnz());
  EXPECT_EQ(coo.vals().capacity(), coo.padded_nnz());
}

TEST(BroHyb, ForcedWidthPropagates) {
  const bs::Csr csr = skewed_matrix(3);
  bc::BroHybOptions opts;
  opts.width_override = 4;
  const bc::BroHyb bro = bc::BroHyb::compress(csr, opts);
  EXPECT_EQ(bro.split_width(), 4);
  expect_spmv_matches(csr, bro);
}

TEST(BroHyb, AllCooWhenWidthZero) {
  const bs::Csr csr = skewed_matrix(4);
  bc::BroHybOptions opts;
  opts.width_override = 0;
  const bc::BroHyb bro = bc::BroHyb::compress(csr, opts);
  EXPECT_DOUBLE_EQ(bro.ell_fraction(), 0.0);
  EXPECT_EQ(bro.coo_part().nnz(), csr.nnz());
  expect_spmv_matches(csr, bro);
}

TEST(BroHyb, SavingsAccounting) {
  const bs::Csr csr = skewed_matrix(5);
  const bc::BroHyb bro = bc::BroHyb::compress(csr);
  // Original = ELL index + 2 arrays for the COO overflow.
  const std::size_t coo_nnz = bro.coo_part().nnz();
  EXPECT_EQ(bro.original_index_bytes(),
            bro.ell_part().original_index_bytes() + 8 * coo_nnz);
  // The COO column indices are counted uncompressed.
  EXPECT_GE(bro.compressed_index_bytes(), 4 * coo_nnz);
  EXPECT_LT(bro.compressed_index_bytes(), bro.original_index_bytes());
}

TEST(BroHyb, UniformMatrixIsAllEll) {
  const bs::Csr csr = bs::generate_poisson2d(40, 40);
  const bc::BroHyb bro = bc::BroHyb::compress(csr);
  EXPECT_GT(bro.ell_fraction(), 0.95);
  expect_spmv_matches(csr, bro);
}

TEST(BroHyb, EmptyMatrix) {
  bs::Csr csr;
  csr.rows = 4;
  csr.cols = 4;
  csr.row_ptr.assign(5, 0);
  const bc::BroHyb bro = bc::BroHyb::compress(csr);
  std::vector<value_t> x(4, 1.0), y(4, -1.0);
  bro.spmv(x, y);
  for (const auto v : y) EXPECT_EQ(v, 0.0);
}
