// Native (OpenMP) kernel tests: every registered host kernel, run through
// its plan, agrees with the CSR reference across matrix shapes, including
// the parallel BRO-COO carry handling and the COO row-range split.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
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

std::vector<value_t> random_x(index_t n, std::uint64_t seed = 55) {
  bro::Rng rng(seed);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

void expect_near(const std::vector<value_t>& y,
                 const std::vector<value_t>& y_ref, const char* what) {
  for (std::size_t r = 0; r < y.size(); ++r)
    ASSERT_NEAR(y[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])))
        << what << " row " << r;
}

/// Every registered format with an OpenMP host kernel that can hold the
/// matrix, through its plan, against the CSR reference. Returns the names
/// of the formats it ran.
std::vector<std::string> check_all(const bs::Csr& csr) {
  const auto x = random_x(csr.cols);
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y_ref);

  const auto m = std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(csr));
  std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
  std::vector<std::string> ran;
  for (const auto& t : be::format_registry()) {
    if (t.native == nullptr ||
        !t.applicable(csr, m->options().max_ell_expand))
      continue;
    be::SpmvPlan plan(m, t.format);
    plan.execute(x, y);
    expect_near(y, y_ref, t.name);
    ran.emplace_back(t.name);
  }
  return ran;
}

bool contains(const std::vector<std::string>& names, const char* name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

TEST(NativeKernels, PoissonGrid) {
  const auto ran = check_all(bs::generate_poisson2d(45, 37));
  EXPECT_TRUE(contains(ran, "BRO-ELL"));
  EXPECT_TRUE(contains(ran, "BRO-ANS"));
}

TEST(NativeKernels, TrussBlocks) {
  // Dense 2x2 dof blocks pass the BRO-BCSR gate.
  EXPECT_TRUE(contains(check_all(bs::generate_truss2d(40, 6, 7)), "BRO-BCSR"));
}

TEST(NativeKernels, RandomLocal) {
  bs::GenSpec spec;
  spec.rows = 3100;
  spec.cols = 3100;
  spec.mu = 11;
  spec.sigma = 4;
  spec.run = 3;
  spec.seed = 14;
  check_all(bs::generate(spec));
}

TEST(NativeKernels, ScatteredColumns) {
  bs::GenSpec spec;
  spec.rows = 900;
  spec.cols = 5000;
  spec.mu = 9;
  spec.sigma = 6;
  spec.local_prob = 0.1;
  spec.seed = 15;
  check_all(bs::generate(spec));
}

TEST(NativeKernels, EmptyRowsInterleaved) {
  bs::Coo coo;
  coo.rows = 700;
  coo.cols = 700;
  for (index_t r = 0; r < 700; r += 11) coo.push(r, (r * 7) % 700, 1.5);
  coo.canonicalize();
  check_all(bs::coo_to_csr(coo));
}

TEST(NativeKernels, SingleDenseRow) {
  bs::Coo coo;
  coo.rows = 400;
  coo.cols = 400;
  for (index_t c = 0; c < 400; ++c) coo.push(200, c, 0.5);
  for (index_t r = 0; r < 400; r += 3) coo.push(r, r, 2.0);
  coo.canonicalize();
  const bs::Csr csr = bs::coo_to_csr(coo);
  // ELL variants would expand 100x: the registry loop runs the COO/HYB
  // family only, BRO-HYB's overflow path included.
  const auto ran = check_all(csr);
  EXPECT_TRUE(contains(ran, "BRO-HYB"));
  EXPECT_FALSE(contains(ran, "BRO-ELL"));
}

TEST(NativeKernels, BroCooCarriesAcrossIntervalBoundaries) {
  // One long row spanning many intervals: every interval carries into the
  // same output row, stressing the carry-merge path.
  bs::Coo coo;
  coo.rows = 10;
  coo.cols = 9000;
  for (index_t c = 0; c < 9000; ++c) coo.push(4, c, 1.0);
  const bs::Csr csr = bs::coo_to_csr(coo);
  const auto x = random_x(csr.cols, 2);
  std::vector<value_t> y_ref(10);
  bs::spmv_csr_reference(csr, x, y_ref);
  be::SpmvPlan plan(
      std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(csr)),
      bc::Format::kBroCoo);
  std::vector<value_t> y(10);
  plan.execute(x, y);
  for (int r = 0; r < 10; ++r)
    ASSERT_NEAR(y[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)], 1e-9);
}

TEST(NativeKernels, CooEntryRangesAreRowCompleteAndCovering) {
  // A skewed matrix so entry-count balancing actually has to snap: a few
  // spike rows hold most of the non-zeros.
  bs::GenSpec spec;
  spec.rows = 400;
  spec.cols = 2000;
  spec.mu = 4;
  spec.spike_rows = 3;
  spec.spike_len = 800;
  spec.seed = 17;
  const bs::Coo coo = bs::csr_to_coo(bs::generate(spec));

  for (const int parts : {1, 2, 3, 8, 64}) {
    const auto ranges = bk::coo_thread_ranges(coo, parts);
    ASSERT_FALSE(ranges.empty());
    ASSERT_LE(ranges.size(), static_cast<std::size_t>(parts));
    // Disjoint, ordered, covering [0, nnz).
    ASSERT_EQ(ranges.front().lo, 0u);
    ASSERT_EQ(ranges.back().hi, coo.nnz());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      ASSERT_LT(ranges[i].lo, ranges[i].hi) << "empty part survived";
      if (i > 0) {
        ASSERT_EQ(ranges[i].lo, ranges[i - 1].hi);
      }
      // Row-complete: no row straddles a boundary.
      if (ranges[i].hi < coo.nnz()) {
        ASSERT_NE(coo.row_idx[ranges[i].hi - 1], coo.row_idx[ranges[i].hi])
            << "part " << i << " splits a row";
      }
    }
    // coo_entry_range is the same snap rule, part by part.
    std::size_t cursor = 0;
    for (int p = 0; p < parts; ++p) {
      const bk::CooRange r =
          bk::coo_entry_range(coo, static_cast<std::size_t>(p),
                              static_cast<std::size_t>(parts));
      ASSERT_EQ(r.lo, cursor) << "part " << p;
      ASSERT_LE(r.hi, coo.nnz());
      cursor = r.hi;
    }
    ASSERT_EQ(cursor, coo.nnz());
  }
}

TEST(NativeKernels, CooEntryRangeSnapsWholeRowIntoOnePart) {
  // All entries in a single row: however many parts are requested, the snap
  // rule must hand the entire row to the first part and leave the rest empty.
  bs::Coo coo;
  coo.rows = 5;
  coo.cols = 1000;
  for (index_t c = 0; c < 1000; ++c) coo.push(2, c, 0.5);
  coo.canonicalize();
  const auto ranges = bk::coo_thread_ranges(coo, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].lo, 0u);
  EXPECT_EQ(ranges[0].hi, coo.nnz());
  for (std::size_t p = 1; p < 8; ++p) {
    const bk::CooRange r = bk::coo_entry_range(coo, p, 8);
    EXPECT_EQ(r.lo, r.hi) << "part " << p << " should be empty";
  }
}

TEST(NativeKernels, HybParallelOverflowMatchesReference) {
  // Heavy spike rows push most entries into the HYB COO overflow; the
  // driver must agree with the reference at every split while accumulating
  // the overflow in parallel.
  bs::GenSpec spec;
  spec.rows = 600;
  spec.cols = 3000;
  spec.mu = 3;
  spec.spike_rows = 4;
  spec.spike_len = 1200;
  spec.seed = 23;
  const bs::Csr csr = bs::generate(spec);
  const bs::Hyb hyb = bs::csr_to_hyb(csr);
  ASSERT_GT(hyb.coo.nnz(), 0u);

  const auto x = random_x(csr.cols);
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y_ref);

  std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
  for (const int parts : {1, 4, 16}) {
    const auto ranges = bk::coo_thread_ranges(hyb.coo, parts);
    bk::native_spmv_hyb(hyb, ranges, x, y);
    for (std::size_t r = 0; r < y.size(); ++r)
      ASSERT_NEAR(y[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])))
          << "parts " << parts << " row " << r;
  }
}
