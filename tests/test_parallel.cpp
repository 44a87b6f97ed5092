// Parallel-correctness tests: force several OpenMP threads (the host here
// may have one core; logical races don't care) and verify the native
// kernels' partitioning and carry logic, plus simulator determinism.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "kernels/native_spmv.h"
#include "kernels/sim_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "util/rng.h"

namespace bk = bro::kernels;
namespace bc = bro::core;
namespace bs = bro::sparse;
namespace gs = bro::sim;
using bro::index_t;
using bro::value_t;

namespace {

struct ThreadGuard {
  ThreadGuard(int n) {
#ifdef _OPENMP
    prev = omp_get_max_threads();
    omp_set_num_threads(n);
#else
    (void)n;
    prev = 1;
#endif
  }
  ~ThreadGuard() {
#ifdef _OPENMP
    omp_set_num_threads(prev);
#endif
  }
  int prev;
};

std::vector<value_t> random_x(index_t n) {
  bro::Rng rng(67);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

} // namespace

class ParallelKernels : public ::testing::TestWithParam<int> {};

TEST_P(ParallelKernels, AllNativeKernelsAgree) {
  ThreadGuard guard(GetParam());

  bs::GenSpec spec;
  spec.rows = 2500;
  spec.cols = 2500;
  spec.mu = 13;
  spec.sigma = 6;
  spec.run = 2;
  spec.seed = 51;
  const bs::Csr csr = bs::generate(spec);
  const auto x = random_x(csr.cols);
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y_ref);

  std::vector<value_t> y(y_ref.size());
  const auto check = [&](const char* what) {
    for (std::size_t r = 0; r < y.size(); ++r)
      ASSERT_NEAR(y[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])))
          << what << " threads=" << GetParam() << " row " << r;
  };

  bk::native_spmv_csr(csr, x, y);
  check("csr");
  bk::native_spmv_coo(bs::csr_to_coo(csr), x, y);
  check("coo");
  bk::native_spmv_ell(bs::csr_to_ell(csr), x, y);
  check("ell");
  bk::native_spmv_bro_ell(bc::BroEll::compress(bs::csr_to_ell(csr)), x, y);
  check("bro_ell");
  bk::native_spmv_bro_coo(bc::BroCoo::compress(bs::csr_to_coo(csr)), x, y);
  check("bro_coo");
  bk::native_spmv_bro_hyb(bc::BroHyb::compress(csr), x, y);
  check("bro_hyb");
}

TEST_P(ParallelKernels, BroCooCarryUnderThreads) {
  ThreadGuard guard(GetParam());
  // Many intervals all contributing to few rows: worst case for carries.
  bs::Coo coo;
  coo.rows = 6;
  coo.cols = 20000;
  for (index_t c = 0; c < 20000; ++c) coo.push(c % 3, c, 1.0);
  coo.canonicalize();
  const bs::Csr csr = bs::coo_to_csr(coo);
  const auto x = random_x(csr.cols);
  std::vector<value_t> y_ref(6), y(6);
  bs::spmv_csr_reference(csr, x, y_ref);
  bk::native_spmv_bro_coo(bc::BroCoo::compress(bs::csr_to_coo(csr)), x, y);
  for (int r = 0; r < 6; ++r)
    ASSERT_NEAR(y[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelKernels,
                         ::testing::Values(1, 2, 4, 8));

TEST(SimDeterminism, IdenticalRunsIdenticalStats) {
  const bs::Csr csr = bs::generate_poisson2d(40, 40);
  const auto x = random_x(csr.cols);
  const auto bro = bc::BroEll::compress(bs::csr_to_ell(csr));
  const auto a = bk::sim_spmv_bro_ell(gs::gtx680(), bro, x);
  const auto b = bk::sim_spmv_bro_ell(gs::gtx680(), bro, x);
  EXPECT_EQ(a.stats.dram_bytes(), b.stats.dram_bytes());
  EXPECT_EQ(a.stats.mem_transactions, b.stats.mem_transactions);
  EXPECT_DOUBLE_EQ(a.time.seconds, b.time.seconds);
  EXPECT_EQ(a.y, b.y);
}

namespace {

/// write_bro_* bytes of every serializable BRO format built from `csr`.
std::vector<std::string> bro_bytes(const bs::Csr& csr) {
  bc::BroEllOptions eo;
  eo.slice_height = 7; // many slices, so the threads share the work
  bc::BroAnsOptions ao;
  ao.slice_height = 7;
  bc::BroBcsrOptions bo;
  bo.slice_height = 3;
  bc::BroHybOptions ho;
  ho.ell = eo;
  std::vector<std::string> out;
  const auto add = [&](auto write, const auto& m) {
    std::ostringstream s(std::ios::binary);
    write(s, m);
    out.push_back(s.str());
  };
  add(bc::write_bro_ell, bc::BroEll::compress(csr, csr.max_row_length(), eo));
  add(bc::write_bro_ans, bc::BroAns::compress(csr, csr.max_row_length(), ao));
  add(bc::write_bro_hyb, bc::BroHyb::compress(csr, ho));
  add(bc::write_bro_bcsr, bc::BroBcsr::compress(csr, bo));
  add(bc::write_bro_coo, bc::BroCoo::compress(bs::csr_to_coo(csr)));
  return out;
}

} // namespace

TEST(ParallelCompression, BytesDoNotDependOnThreadCount) {
  // Test Set 2 is left out: its padded BRO-ELL would dwarf the rest.
  for (const int set : {1, 3}) {
    for (const auto& e : bs::suite_test_set(set)) {
      const bs::Csr csr = bs::generate_suite_matrix(e, 0.02);
      std::vector<std::string> one, four;
      {
        ThreadGuard g(1);
        one = bro_bytes(csr);
      }
      {
        ThreadGuard g(4);
        four = bro_bytes(csr);
      }
      EXPECT_EQ(one, four) << e.name;
    }
  }
}
