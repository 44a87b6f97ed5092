// Whole-suite integration: every one of the 30 Table 2 stand-ins (at small
// scale) must round-trip through its BRO format and produce SpMV results
// identical to the CSR reference, through both the native and the simulated
// kernel paths. Parameterized so each matrix is its own test case.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "engine/plan.h"
#include "kernels/native_spmv.h"
#include "kernels/sim_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/suite.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace be = bro::engine;
namespace bk = bro::kernels;
namespace bs = bro::sparse;
namespace gs = bro::sim;
using bro::index_t;
using bro::value_t;

namespace {

constexpr double kScale = 1.0 / 32.0;

class SuiteMatrix : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const auto entry = bs::find_suite_entry(GetParam());
    ASSERT_TRUE(entry.has_value());
    entry_ = *entry;
    csr_ = bs::generate_suite_matrix(entry_, kScale);
    bro::Rng rng(13);
    x_.resize(static_cast<std::size_t>(csr_.cols));
    for (auto& v : x_) v = rng.uniform() * 2 - 1;
    y_ref_.resize(static_cast<std::size_t>(csr_.rows));
    bs::spmv_csr_reference(csr_, x_, y_ref_);
  }

  void expect_matches(const std::vector<value_t>& y, const char* what) const {
    ASSERT_EQ(y.size(), y_ref_.size());
    for (std::size_t r = 0; r < y.size(); ++r)
      ASSERT_NEAR(y[r], y_ref_[r], 1e-10 * (1.0 + std::abs(y_ref_[r])))
          << what << " row " << r;
  }

  bs::SuiteEntry entry_;
  bs::Csr csr_;
  std::vector<value_t> x_;
  std::vector<value_t> y_ref_;
};

} // namespace

TEST_P(SuiteMatrix, GeneratesValidStructure) {
  EXPECT_TRUE(csr_.is_valid());
  EXPECT_GT(csr_.nnz(), 0u);
}

TEST_P(SuiteMatrix, FacadeAutoFormatAgreesWithReference) {
  const auto m = std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(csr_));
  be::SpmvPlan plan(m);
  std::vector<value_t> y(static_cast<std::size_t>(csr_.rows));
  plan.execute(x_, y);
  expect_matches(y, bc::format_name(m->auto_format()));
}

TEST_P(SuiteMatrix, BroHybRoundTripAndNativeKernel) {
  const bc::BroHyb bro = bc::BroHyb::compress(csr_);
  EXPECT_EQ(bro.total_nnz(), csr_.nnz());
  const bk::SimdIsa isa = bk::active_simd_isa();
  std::vector<value_t> y(static_cast<std::size_t>(csr_.rows));
  std::vector<value_t> y_coo(y.size());
  std::vector<bk::BroCooCarry> carries(bro.coo_part().intervals().size());
  bk::native_spmv_bro_hyb(bro, bk::plan_bro_ell_kernels(bro.ell_part(), isa),
                          bk::plan_bro_coo_kernels(bro.coo_part(), isa), x_, y,
                          y_coo, carries);
  expect_matches(y, "native BRO-HYB");
}

TEST_P(SuiteMatrix, SimulatedBroHybAgrees) {
  const bc::BroHyb bro = bc::BroHyb::compress(csr_);
  const auto res = bk::sim_spmv_bro_hyb(gs::tesla_k20(), bro, x_);
  expect_matches(res.y, "sim BRO-HYB");
  EXPECT_GT(res.time.gflops, 0.0);
}

TEST_P(SuiteMatrix, CompressionNeverExpandsIndexData) {
  const bc::BroHyb bro = bc::BroHyb::compress(csr_);
  EXPECT_LE(bro.compressed_index_bytes(), bro.original_index_bytes());
}

namespace {

std::vector<std::string> all_suite_names() {
  std::vector<std::string> names;
  for (const auto& e : bs::suite_entries()) names.push_back(e.name);
  return names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllThirty, SuiteMatrix,
                         ::testing::ValuesIn(all_suite_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });
