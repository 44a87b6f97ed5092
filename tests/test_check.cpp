// bro::check tests: the per-format invariant validators (clean
// representations pass, corrupted ones report specific violations, a
// mismatched reference is caught as a losslessness failure), the
// adversarial matrix battery, and the differential fuzz driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "check/differential.h"
#include "check/validate.h"
#include "core/matrix.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
#include "engine/simulate.h"
#include "gpusim/device.h"
#include "sparse/convert.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"

namespace bc = bro::core;
namespace be = bro::engine;
namespace bs = bro::sparse;
namespace ck = bro::check;
using bro::index_t;
using bro::value_t;

namespace {

bs::Csr sample_matrix(std::uint64_t seed = 11) {
  bs::GenSpec spec;
  spec.rows = 300;
  spec.cols = 280;
  spec.mu = 6;
  spec.sigma = 3;
  spec.seed = seed;
  return bs::generate(spec);
}

std::string joined(const ck::Issues& issues) {
  std::string out;
  for (const auto& i : issues) out += i + "; ";
  return out;
}

} // namespace

// ---- clean representations pass through the registry hook ----

TEST(Validate, EveryRegisteredFormatValidatesCleanMatrices) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const bs::Csr csr = sample_matrix(seed);
    const auto m =
        std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(csr));
    for (const auto& t : be::format_registry()) {
      if (!t.applicable(csr, 3.0)) continue;
      ASSERT_NE(t.validate, nullptr) << t.name;
      const be::SpmvPlan plan(m, t.format);
      const auto issues = t.validate(plan.representation(), csr);
      EXPECT_TRUE(issues.empty())
          << t.name << " (seed " << seed << "): " << joined(issues);
    }
  }
}

TEST(Validate, RegistryHooksAreFullyPopulated) {
  // Every registered format has a validator and a case in the simulator's
  // switch: simulate runs on each plan's representation and returns y. The
  // truss FEM stand-in is one matrix that every format can hold.
  const bs::Csr csr =
      bs::generate_suite_matrix(*bs::find_suite_entry("fem"), 0.02);
  const auto m = std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(csr));
  const std::vector<value_t> x(static_cast<std::size_t>(csr.cols), 1.0);
  for (const auto& t : be::format_registry()) {
    EXPECT_NE(t.validate, nullptr) << t.name;
    ASSERT_TRUE(t.applicable(csr, 3.0)) << t.name;
    const be::SpmvPlan plan(m, t.format);
    EXPECT_EQ(be::simulate(bro::sim::tesla_k20(), t.format,
                           plan.representation(), x)
                  .y.size(),
              static_cast<std::size_t>(csr.rows))
        << t.name;
  }
}

// ---- structural corruption is caught ----

TEST(Validate, CsrCatchesNonMonotoneRowPtr) {
  bs::Csr a = sample_matrix();
  ASSERT_TRUE(ck::validate_csr(a).empty());
  std::swap(a.row_ptr[2], a.row_ptr[5]);
  EXPECT_FALSE(ck::validate_csr(a).empty());
}

TEST(Validate, CsrCatchesOutOfRangeAndUnsortedColumns) {
  bs::Csr a = sample_matrix();
  bs::Csr bad_range = a;
  bad_range.col_idx[3] = a.cols + 7;
  EXPECT_FALSE(ck::validate_csr(bad_range).empty());

  bs::Csr unsorted = a;
  // Reverse one row's columns (first row with >= 2 entries).
  for (index_t r = 0; r < unsorted.rows; ++r) {
    if (unsorted.row_ptr[r + 1] - unsorted.row_ptr[r] >= 2) {
      std::reverse(unsorted.col_idx.begin() + unsorted.row_ptr[r],
                   unsorted.col_idx.begin() + unsorted.row_ptr[r + 1]);
      break;
    }
  }
  EXPECT_FALSE(ck::validate_csr(unsorted).empty());
}

TEST(Validate, CooCatchesNonCanonicalOrder) {
  const bs::Csr csr = sample_matrix();
  bs::Coo a = bs::csr_to_coo(csr);
  ASSERT_TRUE(ck::validate_coo(a, &csr).empty());
  std::swap(a.row_idx.front(), a.row_idx.back());
  std::swap(a.col_idx.front(), a.col_idx.back());
  std::swap(a.vals.front(), a.vals.back());
  EXPECT_FALSE(ck::validate_coo(a).empty());
}

TEST(Validate, EllCatchesDataAfterPadding) {
  const bs::Csr csr = sample_matrix();
  bs::Ell a = bs::csr_to_ell(csr);
  ASSERT_TRUE(ck::validate_ell(a, &csr).empty());
  // Find a padding slot and plant a column index behind it.
  bool planted = false;
  for (index_t r = 0; r < a.rows && !planted; ++r)
    for (index_t j = 0; j + 1 < a.width && !planted; ++j)
      if (a.col_at(r, j) == bs::kPad) {
        a.col_idx[static_cast<std::size_t>(j + 1) * a.rows + r] = 0;
        planted = true;
      }
  ASSERT_TRUE(planted) << "matrix has no interior padding slot";
  EXPECT_FALSE(ck::validate_ell(a).empty());
}

TEST(Validate, EllRCatchesWrongRowLength) {
  const bs::Csr csr = sample_matrix();
  bs::EllR a = bs::csr_to_ellr(csr);
  ASSERT_TRUE(ck::validate_ellr(a, &csr).empty());
  a.row_length[4] += 1;
  EXPECT_FALSE(ck::validate_ellr(a).empty());
}

TEST(Validate, HybCatchesOverflowIntoUnfilledRow) {
  const bs::Csr csr = sample_matrix();
  bs::Hyb a = bs::csr_to_hyb(csr);
  ASSERT_TRUE(ck::validate_hyb(a, &csr).empty());
  // Claim an overflow entry for a row whose ELL slots are not full.
  for (index_t r = 0; r < a.ell.rows; ++r) {
    if (a.ell.width > 0 && a.ell.col_at(r, a.ell.width - 1) == bs::kPad) {
      a.coo.push(r, 0, 1.0);
      a.coo.canonicalize();
      break;
    }
  }
  EXPECT_FALSE(ck::validate_hyb(a).empty());
}

TEST(Validate, ValueCorruptionCaughtAgainstReference) {
  const bs::Csr csr = sample_matrix();
  bs::Ell a = bs::csr_to_ell(csr);
  // Flip one stored value: structurally fine, numerically lossy.
  for (std::size_t i = 0; i < a.vals.size(); ++i)
    if (a.col_idx[i] != bs::kPad) {
      a.vals[i] += 1.0;
      break;
    }
  EXPECT_TRUE(ck::validate_ell(a).empty());
  EXPECT_FALSE(ck::validate_ell(a, &csr).empty());
}

// ---- lossless cross-checks: the BRO formats against a mismatched source ----

TEST(Validate, BroFormatsDetectMismatchedReference) {
  const bs::Csr good = sample_matrix(21);
  bs::Csr other = sample_matrix(21);
  other.vals[0] += 2.5; // same structure, different numbers

  const auto bro_ell = bc::BroEll::compress(bs::csr_to_ell(good));
  EXPECT_TRUE(ck::validate_bro_ell(bro_ell, &good).empty());
  EXPECT_FALSE(ck::validate_bro_ell(bro_ell, &other).empty());

  const auto bro_coo = bc::BroCoo::compress(bs::csr_to_coo(good));
  EXPECT_TRUE(ck::validate_bro_coo(bro_coo, &good).empty());
  const auto bro_csr = bc::BroCsr::compress(good);
  EXPECT_TRUE(ck::validate_bro_csr(bro_csr, &good).empty());
  EXPECT_FALSE(ck::validate_bro_csr(bro_csr, &other).empty());

  const auto bro_hyb = bc::BroHyb::compress(good);
  EXPECT_TRUE(ck::validate_bro_hyb(bro_hyb, &good).empty());
  EXPECT_FALSE(ck::validate_bro_hyb(bro_hyb, &other).empty());

  // A structurally different source must be flagged too.
  const bs::Csr shifted = sample_matrix(22);
  if (shifted.nnz() == good.nnz()) {
    EXPECT_FALSE(ck::validate_bro_ell(bro_ell, &shifted).empty());
  }
}

TEST(Validate, MessagesAreCappedOnMassCorruption) {
  bs::Csr a = sample_matrix();
  for (auto& c : a.col_idx) c = a.cols + 1; // every entry out of range
  const auto issues = ck::validate_csr(a);
  ASSERT_FALSE(issues.empty());
  EXPECT_LE(issues.size(), 20u); // capped, not one message per nnz
  EXPECT_NE(joined(issues).find("truncated"), std::string::npos);
}

// ---- the adversarial battery ----

TEST(Adversarial, SuiteCoversTheDegenerateShapes) {
  const auto suite = bs::adversarial_suite(1);
  std::set<std::string> names;
  for (const auto& c : suite) {
    EXPECT_TRUE(c.csr.is_valid()) << c.name;
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate name " << c.name;
  }
  for (const char* required :
       {"0x0-empty", "0xN-no-rows", "Nx0-no-cols", "1xN-single-dense-row",
        "Nx1-full-column", "single-dense-row", "max-delta-last-column",
        "duplicate-heavy-precanonical-coo", "empty-row-after-slice-boundary"})
    EXPECT_TRUE(names.count(required)) << "missing case " << required;
}

TEST(Adversarial, SuiteIsDeterministicPerSeed) {
  const auto a = bs::adversarial_suite(5);
  const auto b = bs::adversarial_suite(5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].csr.vals, b[i].csr.vals);
  }
}

TEST(Adversarial, HugeCasesApproachTheIndexLimit) {
  const auto huge = bs::adversarial_huge_cases(1);
  ASSERT_FALSE(huge.empty());
  for (const auto& c : huge) {
    EXPECT_TRUE(c.csr.is_valid()) << c.name;
    EXPECT_GT(c.csr.cols, index_t{1} << 30) << c.name;
  }
}

// ---- the differential fuzz driver ----

TEST(Fuzz, BoundedRunPassesAndCountsWork) {
  ck::FuzzOptions opts;
  opts.rounds = 3;
  opts.seed = 2013;
  const auto report = ck::run_fuzz(opts, nullptr);
  EXPECT_TRUE(report.ok()) << report.failures.size() << " failures, first: "
                           << (report.failures.empty()
                                   ? std::string()
                                   : report.failures.front().message);
  // The adversarial battery alone is > 10 matrices.
  EXPECT_GT(report.matrices, 10);
  EXPECT_GT(report.comparisons, 0u);
  EXPECT_GT(report.validations, 0u);
}

TEST(Fuzz, IsDeterministicPerSeed) {
  ck::FuzzOptions opts;
  opts.rounds = 2;
  opts.seed = 99;
  const auto a = ck::run_fuzz(opts, nullptr);
  const auto b = ck::run_fuzz(opts, nullptr);
  EXPECT_EQ(a.matrices, b.matrices);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.validations, b.validations);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(Fuzz, LogReportsEveryMatrix) {
  ck::FuzzOptions opts;
  opts.rounds = 1;
  opts.seed = 7;
  std::ostringstream log;
  const auto report = ck::run_fuzz(opts, &log);
  EXPECT_TRUE(report.ok());
  EXPECT_NE(log.str().find("adversarial:0x0-empty"), std::string::npos);
  EXPECT_NE(log.str().find("round-0"), std::string::npos);
  EXPECT_NE(log.str().find("0 failures"), std::string::npos);
}
