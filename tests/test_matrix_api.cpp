// Tests for the public bro::core::Matrix facade.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <vector>

#include "core/matrix.h"
#include "engine/plan.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace be = bro::engine;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;

namespace {

bs::Csr uniform_matrix() { return bs::generate_poisson2d(30, 30); }

/// y = A * x through a plan of the given format (default: auto-selected).
std::vector<value_t> planned_spmv(const bc::Matrix& m,
                                  const std::vector<value_t>& x,
                                  std::optional<bc::Format> f = std::nullopt) {
  be::SpmvPlan plan(std::make_shared<const bc::Matrix>(m), f);
  std::vector<value_t> y(static_cast<std::size_t>(m.rows()), -7.0);
  plan.execute(x, y);
  return y;
}

bs::Csr skewed_matrix() {
  bs::GenSpec spec;
  spec.rows = 1200;
  spec.cols = 1200;
  spec.mu = 6;
  spec.sigma = 2;
  spec.spike_rows = 4;
  spec.spike_len = 600;
  spec.seed = 21;
  return bs::generate(spec);
}

} // namespace

TEST(MatrixApi, FormatNames) {
  EXPECT_STREQ(bc::format_name(bc::Format::kBroEll), "BRO-ELL");
  EXPECT_STREQ(bc::format_name(bc::Format::kEllR), "ELLPACK-R");
  EXPECT_STREQ(bc::format_name(bc::Format::kHyb), "HYB");
}

TEST(MatrixApi, AutoFormatSelection) {
  const auto uniform = bc::Matrix::from_csr(uniform_matrix());
  EXPECT_EQ(uniform.auto_format(), bc::Format::kBroEll);
  const auto skewed = bc::Matrix::from_csr(skewed_matrix());
  EXPECT_EQ(skewed.auto_format(), bc::Format::kBroHyb);
}

TEST(MatrixApi, AllFormatsAgreeOnSpmv) {
  for (const auto& csr : {uniform_matrix(), skewed_matrix()}) {
    const auto m = bc::Matrix::from_csr(csr);
    bro::Rng rng(5);
    std::vector<value_t> x(static_cast<std::size_t>(m.cols()));
    for (auto& v : x) v = rng.uniform() * 2 - 1;
    const auto y_ref = planned_spmv(m, x, bc::Format::kCsr);

    for (const auto f :
         {bc::Format::kCoo, bc::Format::kEll, bc::Format::kEllR,
          bc::Format::kHyb, bc::Format::kBroEll, bc::Format::kBroCoo,
          bc::Format::kBroHyb}) {
      if (f == bc::Format::kEll || f == bc::Format::kEllR ||
          f == bc::Format::kBroEll) {
        // Skip padded formats for the spiked matrix (ELL expansion guard).
        if (m.auto_format() == bc::Format::kBroHyb) continue;
      }
      const auto y = planned_spmv(m, x, f);
      for (index_t r = 0; r < m.rows(); ++r)
        EXPECT_NEAR(y[static_cast<std::size_t>(r)],
                    y_ref[static_cast<std::size_t>(r)],
                    1e-11 * (1.0 + std::abs(y_ref[static_cast<std::size_t>(r)])))
            << bc::format_name(f) << " row " << r;
    }
  }
}

TEST(MatrixApi, DefaultSpmvUsesAutoFormat) {
  const auto m = bc::Matrix::from_csr(uniform_matrix());
  bro::Rng rng(6);
  std::vector<value_t> x(static_cast<std::size_t>(m.cols()));
  for (auto& v : x) v = rng.uniform();
  EXPECT_EQ(planned_spmv(m, x), planned_spmv(m, x, m.auto_format()));
}

TEST(MatrixApi, SavingsPositiveForStructuredMatrix) {
  const auto m = bc::Matrix::from_csr(uniform_matrix());
  EXPECT_GT(m.space_savings(), 0.3);
  const auto s = m.savings();
  EXPECT_GT(s.kappa(), 1.0);
  EXPECT_NEAR(s.eta(), 1.0 - 1.0 / s.kappa(), 1e-12);
}

TEST(MatrixApi, StatsExposed) {
  const auto m = bc::Matrix::from_csr(uniform_matrix());
  const auto s = m.stats();
  EXPECT_EQ(s.rows, 900);
  EXPECT_EQ(s.max_row_length, 5);
}

TEST(MatrixApi, FromFile) {
  const std::string path = ::testing::TempDir() + "/bro_matrix_api_test.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate real general\n"
        << "2 2 2\n"
        << "1 1 4.0\n"
        << "2 2 5.0\n";
  }
  const auto m = bc::Matrix::from_file(path);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.nnz(), 2u);
  std::vector<value_t> x = {1.0, 2.0};
  const auto y = planned_spmv(m, x);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  std::remove(path.c_str());
}

TEST(MatrixApi, RejectsInvalidCsr) {
  bs::Csr bad;
  bad.rows = 2;
  bad.cols = 2;
  bad.row_ptr = {0, 1, 1};
  bad.col_idx = {5}; // out of range
  bad.vals = {1.0};
  EXPECT_THROW(bc::Matrix::from_csr(std::move(bad)), std::runtime_error);
}
