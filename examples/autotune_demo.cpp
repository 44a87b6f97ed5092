// autotune_demo: pick the best SpMV format for a matrix on each GPU, then
// show the compress -> serialize -> load -> solve pipeline end to end.
//
// Run:  ./build/examples/autotune_demo [suite-matrix|file.mtx] [scale]
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "engine/autotune.h"
#include "engine/plan.h"
#include "solver/bicgstab.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "sparse/mmio.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bro;

  const std::string name = argc > 1 ? argv[1] : "twotone";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.125;
  sparse::Csr m;
  if (const auto entry = sparse::find_suite_entry(name)) {
    m = sparse::generate_suite_matrix(*entry, scale);
  } else {
    m = sparse::coo_to_csr(sparse::read_matrix_market_file(name));
  }
  std::cout << "Matrix " << name << ": " << m.rows << " x " << m.cols << ", "
            << m.nnz() << " non-zeros\n\n";

  // 1. Tune per device.
  std::cout << "Best format per GPU (simulated):\n";
  Table t({"Device", "winner", "GFlop/s", "index savings"});
  for (const auto& dev : sim::all_devices()) {
    const auto res = engine::autotune(m, dev);
    const auto& best = res.ranking.front();
    t.add_row({dev.name, core::format_name(best.format),
               Table::fmt(best.gflops, 2), Table::pct(best.eta)});
  }
  t.print(std::cout);

  // 2. The deployment pipeline: compress once, persist, reload, solve.
  if (m.rows != m.cols) {
    std::cout << "\n(rectangular matrix: skipping the solver stage)\n";
    return 0;
  }
  sparse::make_diag_dominant(m, 2.0);
  const auto bro = core::BroHyb::compress(m);
  std::stringstream storage; // stands in for a .bro file on disk
  core::write_bro_hyb(storage, bro);
  std::cout << "\nSerialized BRO-HYB: " << storage.str().size()
            << " bytes (index data " << bro.compressed_index_bytes()
            << " B compressed from " << bro.original_index_bytes() << " B)\n";

  // Loading yields CSR; the plan rebuilds BRO-HYB from it, as the server
  // does with an upload.
  const solver::Operator op = engine::plan_operator(engine::make_shared_plan(
      core::Matrix::from_csr(core::read_bro_to_csr(storage)),
      core::Format::kBroHyb));
  const std::vector<value_t> x_true(static_cast<std::size_t>(m.rows), 1.0);
  std::vector<value_t> b(x_true.size());
  op(x_true, b);
  std::vector<value_t> x(x_true.size(), 0.0);
  solver::SolveOptions sopts;
  sopts.max_iterations = 3000;
  const auto res = solver::bicgstab(op, b, x, sopts);
  std::cout << "BiCGSTAB through the reloaded BRO-HYB plan: "
            << (res.converged ? "converged" : "FAILED") << " in "
            << res.iterations << " iterations (relative residual "
            << res.residual_norm << ")\n";
  return res.converged ? 0 : 1;
}
