// Cross-format equivalence battery: every representation of the same matrix
// must agree exactly on structure and numerically on SpMV, across a
// randomized sweep of shapes and densities. The format sweep is driven by
// the engine registry, so a newly registered format is covered with no test
// edit — both through the registry's sequential apply and through a planned
// native execute, on the plan's own representation.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/bro_csr.h"
#include "core/matrix.h"
#include "core/savings.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
#include "engine/simulate.h"
#include "gpusim/device.h"
#include "sparse/convert.h"
#include "sparse/mmio.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace be = bro::engine;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;

namespace {

bs::Csr random_matrix(index_t rows, index_t cols, double mu, double local,
                      std::uint64_t seed) {
  bs::GenSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.mu = mu;
  spec.sigma = mu / 3.0;
  spec.local_prob = local;
  spec.seed = seed;
  return bs::generate(spec);
}

} // namespace

class CrossFormat
    : public ::testing::TestWithParam<std::tuple<int, int, double, double>> {};

TEST_P(CrossFormat, StructureAndSpmvAgree) {
  const auto [rows, cols, mu, local] = GetParam();
  const bs::Csr csr = random_matrix(rows, cols, mu, local,
                                    static_cast<std::uint64_t>(rows * 31 + cols));

  // Structure equivalence through every conversion cycle.
  EXPECT_EQ(bs::coo_to_csr(bs::csr_to_coo(csr)).col_idx, csr.col_idx);
  EXPECT_EQ(bs::ell_to_csr(bs::csr_to_ell(csr)).col_idx, csr.col_idx);
  EXPECT_EQ(bs::hyb_to_csr(bs::csr_to_hyb(csr)).col_idx, csr.col_idx);
  EXPECT_EQ(bc::BroEll::compress(bs::csr_to_ell(csr)).decompress().col_idx,
            bs::csr_to_ell(csr).col_idx);
  EXPECT_EQ(bc::BroCsr::compress(csr).decompress().col_idx, csr.col_idx);

  // Numerical equivalence across every public SpMV path.
  bro::Rng rng(99);
  std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y_ref);

  const auto m = std::make_shared<bc::Matrix>(bc::Matrix::from_csr(csr));
  for (const auto& t : be::format_registry()) {
    be::SpmvPlan plan(m, t.format);

    // The sequential reference apply on the plan's representation.
    std::vector<value_t> y(y_ref.size(), -123.0);
    t.apply(plan.representation(), x, y);
    for (std::size_t r = 0; r < y.size(); ++r)
      ASSERT_NEAR(y[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])))
          << t.name << " row " << r;

    // Planned path: the native (OpenMP) kernel with plan-owned workspaces.
    std::vector<value_t> y_plan(y_ref.size(), -321.0);
    plan.execute(x, y_plan);
    for (std::size_t r = 0; r < y_plan.size(); ++r)
      ASSERT_NEAR(y_plan[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])))
          << t.name << " (plan) row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossFormat,
    ::testing::Values(std::tuple{257, 257, 6.0, 0.9},   // just over one slice
                      std::tuple{256, 256, 6.0, 0.9},   // exactly one slice
                      std::tuple{255, 511, 4.0, 0.2},   // rectangular, scattered
                      std::tuple{1030, 1030, 20.0, 0.95}, // several slices
                      std::tuple{64, 2048, 30.0, 0.5},  // wide
                      std::tuple{2048, 64, 9.0, 0.5})); // tall

// The adversarial battery (empty matrices, empty rows at slice boundaries,
// degenerate aspect ratios, maximum deltas, duplicate-heavy inputs) swept
// across every registered format: structural validation plus the reference,
// planned-native and simulator SpMV paths against the CSR reference.
TEST(CrossFormat, AdversarialSweepAcrossRegistry) {
  const auto dev = bro::sim::tesla_k20();
  for (const auto& c : bs::adversarial_suite(2013)) {
    SCOPED_TRACE(c.name);
    const auto m = std::make_shared<bc::Matrix>(bc::Matrix::from_csr(c.csr));
    const bs::Csr& csr = m->csr();

    bro::Rng rng(41);
    std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
    for (auto& v : x) v = rng.uniform() * 2 - 1;
    std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
    bs::spmv_csr_reference(csr, x, y_ref);

    for (const auto& t : be::format_registry()) {
      if (!t.applicable(csr, 3.0)) continue;
      SCOPED_TRACE(t.name);

      be::SpmvPlan plan(m, t.format);
      const void* rep = plan.representation();
      const auto issues = t.validate(rep, csr);
      EXPECT_TRUE(issues.empty())
          << (issues.empty() ? std::string() : issues.front());

      std::vector<value_t> y(y_ref.size(), -5.0);
      t.apply(rep, x, y);
      for (std::size_t r = 0; r < y.size(); ++r)
        ASSERT_NEAR(y[r], y_ref[r], 1e-10 * (1.0 + std::abs(y_ref[r])));

      std::vector<value_t> y_plan(y_ref.size(), -6.0);
      plan.execute(x, y_plan);
      for (std::size_t r = 0; r < y_plan.size(); ++r)
        ASSERT_NEAR(y_plan[r], y_ref[r], 1e-10 * (1.0 + std::abs(y_ref[r])));

      const auto y_sim = be::simulate(dev, t.format, rep, x).y;
      ASSERT_EQ(y_sim.size(), y_ref.size());
      for (std::size_t r = 0; r < y_sim.size(); ++r)
        ASSERT_NEAR(y_sim[r], y_ref[r], 1e-10 * (1.0 + std::abs(y_ref[r])));
    }
  }
}

// Near-index_t-max dimensions: x/y vectors of size cols are unallocatable,
// so only the structural/lossless validators run.
TEST(CrossFormat, HugeDimensionCasesValidateStructurally) {
  for (const auto& c : bs::adversarial_huge_cases(2013)) {
    SCOPED_TRACE(c.name);
    const auto m =
        std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(c.csr));
    for (const auto& t : be::format_registry()) {
      if (!t.applicable(m->csr(), 3.0)) continue;
      SCOPED_TRACE(t.name);
      const be::SpmvPlan plan(m, t.format);
      const auto issues = t.validate(plan.representation(), m->csr());
      EXPECT_TRUE(issues.empty())
          << (issues.empty() ? std::string() : issues.front());
    }
  }
}

TEST(CrossFormat, SavingsAccountingIsConsistent) {
  // eta and kappa must be mutually consistent and byte counts physical.
  const bs::Csr csr = random_matrix(900, 900, 12, 0.9, 3);
  const auto bro = bc::BroEll::compress(bs::csr_to_ell(csr));
  const auto s = bc::make_savings(bro.original_index_bytes(),
                                  bro.compressed_index_bytes());
  EXPECT_NEAR(s.kappa(), 1.0 / (1.0 - s.eta()), 1e-9); // kappa = 1/(1-eta)
  // Physical recount of the stream bytes.
  std::size_t streams = 0;
  for (const auto& sl : bro.slices())
    streams += sl.stream.byte_size() + sl.bit_alloc.size() + sizeof(index_t);
  EXPECT_EQ(streams, bro.compressed_index_bytes());
}

TEST(CrossFormat, MatrixMarketRoundTripThroughBro) {
  // mtx -> Matrix -> BRO-HYB -> spmv == direct reference (end-to-end path).
  const bs::Csr csr = random_matrix(300, 280, 5, 0.4, 8);
  std::ostringstream buf;
  bs::write_matrix_market(buf, bs::csr_to_coo(csr));
  std::istringstream in(buf.str());
  const bs::Csr back = bs::coo_to_csr(bs::read_matrix_market(in));
  EXPECT_EQ(back.col_idx, csr.col_idx);
  EXPECT_EQ(back.vals, csr.vals);
}
