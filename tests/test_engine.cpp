// Engine tests: the format registry (completeness, lookup, auto-selection)
// and the plan/execute split (correctness per format, allocation-free
// repeated apply, solver integration).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/matrix.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
#include "solver/cg.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace be = bro::engine;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;

namespace {

// A matrix with a few very long rows: not ELL-viable, and its BRO-HYB form
// has a non-empty COO overflow part, which exercises every plan workspace.
bs::Csr spiked_matrix() {
  bs::GenSpec spec;
  spec.rows = 800;
  spec.cols = 800;
  spec.mu = 5;
  spec.sigma = 2;
  spec.spike_rows = 3;
  spec.spike_len = 600;
  spec.seed = 17;
  return bs::generate(spec);
}

std::vector<value_t> reference_y(const bs::Csr& csr,
                                 const std::vector<value_t>& x) {
  std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y);
  return y;
}

std::vector<value_t> random_x(index_t cols, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

} // namespace

TEST(FormatRegistry, CoversEveryFormatInEnumOrder) {
  const auto& reg = be::format_registry();
  ASSERT_EQ(reg.size(), 11u);
  std::set<std::string> names;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(reg[i].format), i);
    EXPECT_TRUE(names.insert(reg[i].name).second)
        << "duplicate name " << reg[i].name;
    // Every entry must be able to hold a matrix and apply it.
    EXPECT_NE(reg[i].applicable, nullptr);
    EXPECT_NE(reg[i].apply, nullptr);
  }
}

TEST(FormatRegistry, TraitsAndNameLookupRoundTrip) {
  for (const auto& t : be::format_registry()) {
    EXPECT_EQ(&be::traits(t.format), &t);
    EXPECT_EQ(be::find_format(t.name), &t);
    EXPECT_STREQ(bc::format_name(t.format), t.name);
  }
  EXPECT_EQ(be::find_format("NO-SUCH-FORMAT"), nullptr);
  EXPECT_EQ(be::find_format(""), nullptr);
  EXPECT_EQ(be::format_names().size(), be::format_registry().size());
}

TEST(FormatRegistry, AutoSelectMatchesPaperHeuristic) {
  // Regular rows: BRO-ELL. Wild row-length variance: BRO-HYB.
  EXPECT_EQ(be::auto_select(bs::generate_poisson2d(30, 30), 3.0),
            bc::Format::kBroEll);
  EXPECT_EQ(be::auto_select(spiked_matrix(), 3.0), bc::Format::kBroHyb);

  // Empty matrix: nothing to compress; the CSR reference holds it.
  bs::Csr empty;
  empty.rows = 4;
  empty.cols = 4;
  empty.row_ptr.assign(5, 0);
  EXPECT_EQ(be::auto_select(empty, 3.0), bc::Format::kCsr);

  // The facade delegates to the same selection.
  EXPECT_EQ(bc::Matrix::from_csr(bs::generate_poisson2d(30, 30)).auto_format(),
            bc::Format::kBroEll);
}

TEST(SpmvPlan, EveryFormatMatchesCsrReference) {
  const bs::Csr csr = spiked_matrix();
  const auto x = random_x(csr.cols, 5);
  const auto y_ref = reference_y(csr, x);
  const auto m = std::make_shared<bc::Matrix>(bc::Matrix::from_csr(csr));

  for (const auto& t : be::format_registry()) {
    // The spiked matrix is not ELL-viable; padding it would expand nnz by
    // ~100x, so skip formats whose predicate rejects it.
    if (!t.applicable(csr, 3.0)) continue;
    be::SpmvPlan plan(m, t.format);
    EXPECT_EQ(plan.format(), t.format);
    EXPECT_EQ(&plan.format_traits(), &t);
    std::vector<value_t> y(y_ref.size(), -7.0);
    plan.execute(x, y);
    for (std::size_t r = 0; r < y.size(); ++r)
      ASSERT_NEAR(y[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])))
          << t.name << " row " << r;
  }
}

TEST(SpmvPlan, RepeatedExecuteDoesNotAllocate) {
  // The grid leaves BRO-HYB without an overflow part; the spikes give it
  // a large one.
  for (const bs::Csr& csr : {spiked_matrix(), bs::generate_poisson2d(20, 20)}) {
    const auto x = random_x(csr.cols, 6);
    const auto m = std::make_shared<bc::Matrix>(bc::Matrix::from_csr(csr));
    std::vector<value_t> y(static_cast<std::size_t>(csr.rows));

    for (const auto& t : be::format_registry()) {
      if (!t.applicable(csr, 3.0)) continue;
      be::SpmvPlan plan(m, t.format);
      // Construction pre-sizes every workspace the kernel will request.
      const std::size_t after_build = plan.workspace_allocations();
      for (int i = 0; i < 5; ++i) plan.execute(x, y);
      EXPECT_EQ(plan.workspace_allocations(), after_build)
          << t.name << ": execute() grew a plan workspace";
    }
  }
}

TEST(SpmvPlan, AutoFormatAndConvenienceBuilders) {
  const bs::Csr csr = bs::generate_poisson2d(25, 25);
  const auto x = random_x(csr.cols, 7);
  const auto y_ref = reference_y(csr, x);

  be::SpmvPlan plan = be::make_plan(bc::Matrix::from_csr(csr));
  EXPECT_EQ(plan.format(), bc::Format::kBroEll); // the auto-selection
  EXPECT_EQ(plan.rows(), csr.rows);
  EXPECT_EQ(plan.cols(), csr.cols);

  std::vector<value_t> y(y_ref.size());
  plan.execute(x, y);
  for (std::size_t r = 0; r < y.size(); ++r)
    ASSERT_NEAR(y[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])));

  const auto shared = be::make_shared_plan(bc::Matrix::from_csr(csr),
                                           bc::Format::kCoo);
  EXPECT_EQ(shared->format(), bc::Format::kCoo);
}

TEST(SpmvPlan, OperatorDrivesCgToConvergence) {
  const bs::Csr a = bs::generate_poisson2d(20, 20);
  const std::size_t n = static_cast<std::size_t>(a.rows);
  const std::vector<value_t> x_true(n, 1.0);
  const auto b = reference_y(a, x_true);

  const bro::solver::Operator op =
      be::plan_operator(be::make_shared_plan(bc::Matrix::from_csr(a)));
  std::vector<value_t> x(n, 0.0);
  const auto res = bro::solver::cg(op, b, x);
  EXPECT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], 1.0, 1e-6);
}

TEST(SpmvPlan, ChecksOperandSizes) {
  const auto m = std::make_shared<bc::Matrix>(
      bc::Matrix::from_csr(bs::generate_poisson2d(8, 8)));
  be::SpmvPlan plan(m, bc::Format::kCsr);
  std::vector<value_t> x(static_cast<std::size_t>(m->cols()));
  std::vector<value_t> y_short(static_cast<std::size_t>(m->rows()) - 1);
  EXPECT_THROW(plan.execute(x, y_short), std::exception);
}

// Host kernels decode 32-bit symbols only. Planning a representation at
// sym_len 64 fails where its kernels are chosen, with an error that names
// the setting; queries that build through `make` and run no kernel, such
// as Matrix::savings(), keep working at 64.
TEST(SpmvPlan, SymLen64IsRejectedWhereHostKernelsAreChosen) {
  bc::MatrixOptions opts;
  opts.ell.sym_len = 64;
  opts.coo.sym_len = 64;
  opts.ans.sym_len = 64;
  opts.bcsr.sym_len = 64;
  const auto m = std::make_shared<const bc::Matrix>(
      bc::Matrix::from_csr(bs::generate_truss2d(24, 4, 11), opts));
  for (const bc::Format f :
       {bc::Format::kBroEll, bc::Format::kBroCoo, bc::Format::kBroHyb,
        bc::Format::kBroAns, bc::Format::kBroBcsr}) {
    const std::string name = be::traits(f).name;
    try {
      be::SpmvPlan plan(m, f);
      ADD_FAILURE() << name << " planned at sym_len 64";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("sym_len"), std::string::npos)
          << name << ": " << e.what();
    }
  }
  // The parity oracle runs the same drivers with the generic choice: given
  // a 64-bit representation, every native_generic hook throws too.
  const auto x = random_x(m->cols(), 9);
  std::vector<value_t> y(static_cast<std::size_t>(m->rows()));
  int generic_hooks = 0;
  for (const auto& t : be::format_registry()) {
    if (t.native_generic == nullptr) continue;
    ++generic_hooks;
    const be::Representation rep =
        t.make(be::SharedCsr(m, &m->csr()), m->options());
    try {
      t.native_generic(rep.get(), x, y);
      ADD_FAILURE() << t.name << " ran its generic decoder at sym_len 64";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("sym_len"), std::string::npos)
          << t.name << ": " << e.what();
    }
  }
  EXPECT_EQ(generic_hooks, 5);
  const bc::Savings s = m->savings();
  EXPECT_GT(s.eta(), 0.0);
  EXPECT_LT(s.eta(), 1.0);
}

// ---- Workspace::coo_ranges cache keying ----
//
// The COO row-range split is cached inside the plan workspace. A workspace
// belongs to one plan and so to one immutable representation; the only key
// left is the thread count the split was made for.

#ifdef _OPENMP
TEST(Workspace, CooRangesRekeyOnThreadCountChange) {
  const int saved = omp_get_max_threads();
  be::Workspace ws;
  bro::sparse::Coo a = bs::csr_to_coo(bs::generate_poisson2d(12, 12));

  omp_set_num_threads(2);
  const auto two = ws.coo_ranges(a);
  EXPECT_LE(two.size(), 2u);
  EXPECT_EQ(two.back().hi, a.nnz());

  // A thread-count change invalidates the split: a 2-way split executed by
  // 4 threads leaves half of them idle; the reverse races on shared rows.
  omp_set_num_threads(4);
  const auto four = ws.coo_ranges(a);
  EXPECT_GT(four.size(), two.size());
  EXPECT_EQ(four.back().hi, a.nnz());

  omp_set_num_threads(saved);
}
#endif
