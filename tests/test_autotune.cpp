// Autotuner tests: the ranking must be complete, consistent with direct
// simulation, and pick sensible winners for characteristic matrix shapes.
#include <gtest/gtest.h>

#include <set>

#include "engine/autotune.h"
#include "engine/format_registry.h"
#include "kernels/sim_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"

namespace bk = bro::engine;
namespace bc = bro::core;
namespace bs = bro::sparse;
namespace gs = bro::sim;
using bro::index_t;

TEST(Autotune, RankingIsSortedAndComplete) {
  const bs::Csr csr = bs::generate_poisson2d(60, 60);
  const auto res = bk::autotune(csr, gs::tesla_k20());
  ASSERT_GE(res.ranking.size(), 7u);
  for (std::size_t i = 1; i < res.ranking.size(); ++i) {
    if (res.ranking[i].applicable) {
      EXPECT_LE(res.ranking[i].gflops, res.ranking[i - 1].gflops);
    }
  }
  // Every format appears exactly once.
  std::set<bc::Format> seen;
  for (const auto& e : res.ranking) EXPECT_TRUE(seen.insert(e.format).second);
}

TEST(Autotune, RegularMatrixPrefersCompressedFormat) {
  const auto entry = bs::find_suite_entry("cant");
  const bs::Csr csr = bs::generate_suite_matrix(*entry, 1.0 / 16.0);
  const auto res = bk::autotune(csr, gs::tesla_k20());
  // At this (small) launch size either BRO-ELL or the warp-per-row BRO-CSR
  // extension wins; both are compressed formats. BRO-ELL must beat plain
  // ELLPACK regardless.
  EXPECT_TRUE(res.best() == bc::Format::kBroEll ||
              res.best() == bc::Format::kBroCsr)
      << bc::format_name(res.best());
  double g_ell = 0, g_bro = 0;
  for (const auto& e : res.ranking) {
    if (e.format == bc::Format::kEll) g_ell = e.gflops;
    if (e.format == bc::Format::kBroEll) g_bro = e.gflops;
  }
  EXPECT_GT(g_bro, g_ell);
}

TEST(Autotune, SpikedMatrixExcludesEllFamily) {
  bs::GenSpec spec;
  spec.rows = 1500;
  spec.cols = 1500;
  spec.mu = 5;
  spec.sigma = 2;
  spec.spike_rows = 3;
  spec.spike_len = 1200;
  spec.seed = 6;
  const bs::Csr csr = bs::generate(spec);
  const auto res = bk::autotune(csr, gs::tesla_k20());
  for (const auto& e : res.ranking) {
    if (e.format == bc::Format::kEll || e.format == bc::Format::kEllR ||
        e.format == bc::Format::kBroEll)
      EXPECT_FALSE(e.applicable);
    else if (e.format == bc::Format::kBroBcsr)
      // A random spiked pattern has no block structure; the cover gate
      // (fill + byte-win) must keep BRO-BCSR out too.
      EXPECT_FALSE(e.applicable);
    else
      EXPECT_TRUE(e.applicable);
  }
  // The winner must be an applicable format.
  EXPECT_TRUE(res.ranking.front().applicable);
}

TEST(Autotune, PureDiagonalNeverPicksBcsr) {
  // A pure diagonal is the worst block cover: every r x c tile holds one
  // real entry, so the fill-adjusted cost model must reject every shape and
  // the tuner must never rank BRO-BCSR as applicable, let alone pick it.
  bs::Coo coo;
  coo.rows = 2048;
  coo.cols = 2048;
  for (index_t i = 0; i < 2048; ++i) coo.push(i, i, 1.0 + i * 0.001);
  coo.canonicalize();
  const bs::Csr csr = bs::coo_to_csr(coo);
  const auto res = bk::autotune(csr, gs::tesla_k20());
  for (const auto& e : res.ranking) {
    if (e.format == bc::Format::kBroBcsr) EXPECT_FALSE(e.applicable);
  }
  EXPECT_NE(res.best(), bc::Format::kBroBcsr);
  // Same conclusion at the registry auto-selection layer.
  EXPECT_NE(bk::auto_select(csr, 3.0), bc::Format::kBroBcsr);
}

TEST(Autotune, TrussFemAutoSelectsBcsr) {
  // The Test Set 3 truss assembly is the workload BRO-BCSR exists for: the
  // 2x2 dof cover must pass the applicability gate and, having the highest
  // auto-selection priority, win it.
  const auto entry = bs::find_suite_entry("fem");
  ASSERT_TRUE(entry.has_value());
  const bs::Csr csr = bs::generate_suite_matrix(*entry, 0.25);
  EXPECT_EQ(bk::auto_select(csr, 3.0), bc::Format::kBroBcsr);
  // And no paper-suite Test Set 1 matrix may ever make that choice.
  for (const auto& e : bs::suite_test_set(1)) {
    const bs::Csr m = bs::generate_suite_matrix(e, 1.0 / 8.0);
    EXPECT_NE(bk::auto_select(m, 3.0), bc::Format::kBroBcsr) << e.name;
  }
}

TEST(Autotune, CompressedFormatsReportSavings) {
  const bs::Csr csr = bs::generate_poisson2d(50, 50);
  const auto res = bk::autotune(csr, gs::tesla_c2070());
  for (const auto& e : res.ranking) {
    const auto& t = bk::traits(e.format);
    if (!t.rep_savings) {
      EXPECT_DOUBLE_EQ(e.eta, 0.0) << t.name;
    } else if (e.format == bc::Format::kBroCoo) {
      // BRO-COO pads the nnz stream to whole intervals, which can exceed
      // the bit savings on tiny matrices; the accounting must still be
      // sane (bounded, not wildly negative).
      EXPECT_GT(e.eta, -0.5);
    } else if (e.applicable) {
      EXPECT_GT(e.eta, 0.0) << t.name;
    }
  }
}

TEST(Autotune, DeterministicAcrossCalls) {
  const bs::Csr csr = bs::generate_poisson2d(40, 40);
  const auto a = bk::autotune(csr, gs::gtx680());
  const auto b = bk::autotune(csr, gs::gtx680());
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].format, b.ranking[i].format);
    EXPECT_DOUBLE_EQ(a.ranking[i].gflops, b.ranking[i].gflops);
  }
}

TEST(Autotune, DeviceMatchedOptionsSizeBroCooAndTheHybOverflow) {
  // Twenty spiked rows push ~20k entries past HYB's split width, so the
  // whole matrix and the overflow part each size their intervals
  // differently on a GTX680 (8 SMs) and a K20 (13 SMs).
  bs::GenSpec spec;
  spec.rows = 4000;
  spec.cols = 4000;
  spec.mu = 8;
  spec.sigma = 2;
  spec.spike_rows = 20;
  spec.spike_len = 1000;
  spec.seed = 24;
  const bs::Csr csr = bs::generate(spec);
  const std::size_t overflow_nnz = bs::csr_to_hyb(csr).coo.nnz();
  ASSERT_GT(overflow_nnz, 0u);
  const auto gtx = gs::gtx680(), k20 = gs::tesla_k20();
  ASSERT_NE(bro::kernels::bro_coo_options_for(csr.nnz(), gtx).interval_cols,
            bro::kernels::bro_coo_options_for(csr.nnz(), k20).interval_cols);
  ASSERT_NE(
      bro::kernels::bro_coo_options_for(overflow_nnz, gtx).interval_cols,
      bro::kernels::bro_coo_options_for(overflow_nnz, k20).interval_cols);

  // eta of f's representation built with BRO-COO options sized for `nnz`.
  const auto eta_built = [&](bc::Format f, std::size_t nnz,
                             const gs::DeviceSpec& dev) {
    bc::MatrixOptions opts;
    opts.coo = bro::kernels::bro_coo_options_for(nnz, dev);
    const auto& t = bk::traits(f);
    return t.rep_savings(t.make(bk::borrow_csr(csr), opts).get()).eta();
  };
  for (const auto& dev : {gtx, k20}) {
    SCOPED_TRACE(dev.name);
    const auto res = bk::autotune(csr, dev);
    EXPECT_EQ(res.entry(bc::Format::kBroCoo).eta,
              eta_built(bc::Format::kBroCoo, csr.nnz(), dev));
    EXPECT_EQ(res.entry(bc::Format::kBroHyb).eta,
              eta_built(bc::Format::kBroHyb, overflow_nnz, dev));
  }
}
