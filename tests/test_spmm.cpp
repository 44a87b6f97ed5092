// Multi-vector (SpMM) kernel tests. The contract under test is bitwise:
// every column of native_spmm_* / SpmvPlan::execute_multi must equal the
// corresponding single-vector kernel run on that column exactly — the SpMM
// kernels replicate the single-vector accumulation order, so EXPECT_EQ on
// doubles is the right assertion, not a tolerance.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/format_registry.h"
#include "engine/plan.h"
#include "kernels/native_spmm.h"
#include "kernels/native_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bk = bro::kernels;
namespace bs = bro::sparse;
namespace bc = bro::core;
namespace be = bro::engine;
using bro::index_t;
using bro::value_t;

namespace {

std::vector<value_t> random_batch(index_t cols, int k,
                                  std::uint64_t seed = 99) {
  bro::Rng rng(seed);
  std::vector<value_t> x(static_cast<std::size_t>(cols) *
                         static_cast<std::size_t>(k));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

std::vector<value_t> column(const std::vector<value_t>& batch, index_t n,
                            int k, int j) {
  std::vector<value_t> out(static_cast<std::size_t>(n));
  for (std::size_t c = 0; c < out.size(); ++c)
    out[c] = batch[c * static_cast<std::size_t>(k) +
                   static_cast<std::size_t>(j)];
  return out;
}

/// Run every SpMM kernel on `csr` for this k and assert each column equals
/// the matching single-vector kernel bitwise.
void check_kernels(const bs::Csr& csr, int k) {
  SCOPED_TRACE("k = " + std::to_string(k));
  const auto x_batch = random_batch(csr.cols, k);
  const std::size_t rows = static_cast<std::size_t>(csr.rows);
  std::vector<value_t> y_batch(rows * static_cast<std::size_t>(k));
  std::vector<value_t> y_single(rows);

  const bs::Ell ell = bs::csr_to_ell(csr);
  const bc::BroEll bro_ell = bc::BroEll::compress(ell);
  const bc::BroCoo bro_coo = bc::BroCoo::compress(bs::csr_to_coo(csr));
  const auto ell_kernels =
      bk::plan_bro_ell_kernels(bro_ell, bk::active_simd_isa());
  const auto coo_kernels =
      bk::plan_bro_coo_kernels(bro_coo, bk::active_simd_isa());
  const std::size_t n = bro_coo.intervals().size();
  std::vector<bk::BroCooCarry> carries(n);
  std::vector<value_t> carry_sums(n * 2 * static_cast<std::size_t>(k));

  const auto run_single = [&](auto&& kernel) {
    for (int j = 0; j < k; ++j) {
      const auto xj = column(x_batch, csr.cols, k, j);
      kernel(xj, y_single);
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(y_batch[r * static_cast<std::size_t>(k) +
                          static_cast<std::size_t>(j)],
                  y_single[r])
            << "column " << j << " row " << r;
    }
  };

  bk::native_spmm_csr(csr, x_batch, y_batch, k);
  run_single([&](auto& xj, auto& yj) { bk::native_spmv_csr(csr, xj, yj); });

  bk::native_spmm_ell(ell, x_batch, y_batch, k);
  run_single([&](auto& xj, auto& yj) { bk::native_spmv_ell(ell, xj, yj); });

  bk::native_spmm_bro_ell(bro_ell, ell_kernels, x_batch, y_batch, k);
  run_single([&](auto& xj, auto& yj) {
    bk::native_spmv_bro_ell(bro_ell, ell_kernels, xj, yj);
  });

  bk::native_spmm_bro_coo(bro_coo, coo_kernels, x_batch, y_batch, k, carries,
                          carry_sums);
  run_single([&](auto& xj, auto& yj) {
    bk::native_spmv_bro_coo(bro_coo, coo_kernels, xj, yj, carries);
  });
}

void check_kernels_all_k(const bs::Csr& csr) {
  for (const int k : {1, 3, 8}) check_kernels(csr, k);
}

} // namespace

TEST(Spmm, PoissonGrid) { check_kernels_all_k(bs::generate_poisson2d(40, 31)); }

TEST(Spmm, RandomLocal) {
  bs::GenSpec spec;
  spec.rows = 1200;
  spec.cols = 1100;
  spec.mu = 10;
  spec.sigma = 5;
  spec.run = 3;
  spec.seed = 21;
  check_kernels_all_k(bs::generate(spec));
}

TEST(Spmm, EmptyRowsInterleaved) {
  bs::Coo coo;
  coo.rows = 500;
  coo.cols = 500;
  for (index_t r = 0; r < 500; r += 7) coo.push(r, (r * 13) % 500, 1.5);
  coo.canonicalize();
  check_kernels_all_k(bs::coo_to_csr(coo));
}

TEST(Spmm, LongRowAcrossIntervals) {
  // One long row spanning many BRO-COO intervals: the k-wide carry sums
  // must merge across interval boundaries exactly like the scalar carries.
  bs::Coo coo;
  coo.rows = 10;
  coo.cols = 6000;
  for (index_t c = 0; c < 6000; ++c) coo.push(4, c, 1.0);
  check_kernels_all_k(bs::coo_to_csr(coo));
}

TEST(Spmm, SingleRowSingleColumn) {
  bs::Coo coo;
  coo.rows = 1;
  coo.cols = 1;
  coo.push(0, 0, 2.5);
  check_kernels_all_k(bs::coo_to_csr(coo));
}

TEST(Spmm, RejectsBadShapes) {
  const bs::Csr csr = bs::generate_poisson2d(8, 8);
  std::vector<value_t> x(static_cast<std::size_t>(csr.cols) * 2);
  std::vector<value_t> y(static_cast<std::size_t>(csr.rows) * 2);
  EXPECT_THROW(bk::native_spmm_csr(csr, x, y, 0), std::runtime_error);
  EXPECT_THROW(bk::native_spmm_csr(csr, x, y, 3), std::runtime_error);
  std::vector<value_t> y_short(static_cast<std::size_t>(csr.rows) * 2 - 1);
  EXPECT_THROW(bk::native_spmm_csr(csr, x, y_short, 2), std::runtime_error);
}

// The planned path must be bitwise-identical per column for EVERY registered
// format — natively for CSR/ELL/BRO-ELL/BRO-COO/BRO-BCSR, through the
// gather/scatter
// fallback for the rest — and allocation-free after the first call.
TEST(Spmm, ExecuteMultiMatchesExecuteForAllFormats) {
  bs::GenSpec spec;
  spec.rows = 600;
  spec.cols = 550;
  spec.mu = 8;
  spec.sigma = 3;
  spec.seed = 33;
  auto matrix = std::make_shared<bc::Matrix>(
      bc::Matrix::from_csr(bs::generate(spec)));

  constexpr int k = 5;
  const auto x_batch = random_batch(matrix->cols(), k, 7);
  const std::size_t rows = static_cast<std::size_t>(matrix->rows());
  std::vector<value_t> y_batch(rows * k), y_single(rows);

  for (const auto& t : be::format_registry()) {
    SCOPED_TRACE(t.name);
    if (!t.applicable(matrix->csr(), 3.0)) continue;
    be::SpmvPlan plan(matrix, t.format);
    plan.execute_multi(x_batch, y_batch, k);
    const std::size_t allocs = plan.workspace_allocations();
    for (int j = 0; j < k; ++j) {
      const auto xj = column(x_batch, matrix->cols(), k, j);
      plan.execute(xj, y_single);
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(y_batch[r * k + static_cast<std::size_t>(j)], y_single[r])
            << "column " << j << " row " << r;
    }
    plan.execute_multi(x_batch, y_batch, k);
    EXPECT_EQ(plan.workspace_allocations(), allocs)
        << "second execute_multi grew the workspace";
  }
}

TEST(Spmm, ExecuteMultiRejectsBadShapes) {
  auto matrix = std::make_shared<bc::Matrix>(
      bc::Matrix::from_csr(bs::generate_poisson2d(6, 6)));
  be::SpmvPlan plan(matrix, bc::Format::kCsr);
  std::vector<value_t> x(static_cast<std::size_t>(matrix->cols()) * 2);
  std::vector<value_t> y(static_cast<std::size_t>(matrix->rows()) * 2);
  EXPECT_THROW(plan.execute_multi(x, y, 0), std::runtime_error);
  EXPECT_THROW(plan.execute_multi(x, y, 4), std::runtime_error);
}
