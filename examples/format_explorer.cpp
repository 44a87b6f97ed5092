// format_explorer: given a matrix (a .mtx file or a named suite matrix),
// print its statistics, the space savings every BRO format achieves, and the
// simulated SpMV performance of every format on the three paper GPUs —
// a practical "which format should I use?" tool.
//
// Run:  ./build/examples/format_explorer cant
//       ./build/examples/format_explorer path/to/matrix.mtx [scale]
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "engine/autotune.h"
#include "sparse/convert.h"
#include "sparse/matgen/suite.h"
#include "sparse/mmio.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace bro;

  const std::string name = argc > 1 ? argv[1] : "cant";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.125;

  sparse::Csr csr;
  if (const auto entry = sparse::find_suite_entry(name)) {
    std::cout << "Suite matrix '" << name << "' at scale " << scale << "\n";
    csr = sparse::generate_suite_matrix(*entry, scale);
  } else {
    std::cout << "Matrix Market file " << name << "\n";
    csr = sparse::coo_to_csr(sparse::read_matrix_market_file(name));
  }
  const core::Matrix m = core::Matrix::from_csr(std::move(csr));

  const auto stats = m.stats();
  std::cout << "  " << m.rows() << " x " << m.cols() << ", " << m.nnz()
            << " non-zeros; row length mean " << stats.mean_row_length
            << ", sigma " << stats.stddev_row_length << ", max "
            << stats.max_row_length << "\n\n";

  const bool ell_viable = m.auto_format() == core::Format::kBroEll;
  std::cout << "Recommended format: " << core::format_name(m.auto_format())
            << (ell_viable ? " (regular rows)\n"
                           : " (row-length variance too high for ELLPACK)\n");

  const auto savings = m.savings();
  std::cout << "Index compression: " << savings.eta() * 100 << "% saved ("
            << savings.kappa() << "x)\n\n";

  // One row per cocktail format, one column per paper GPU: autotune's
  // simulated GFlop/s, kept in cocktail order rather than ranked.
  std::vector<engine::TuneResult> tuned;
  for (const auto& dev : sim::all_devices())
    tuned.push_back(engine::autotune(m.csr(), dev));
  Table t({"Format", "C2070 GFlop/s", "GTX680 GFlop/s", "K20 GFlop/s"});
  for (const core::Format f : engine::kCocktail) {
    std::vector<std::string> row = {core::format_name(f)};
    for (const auto& res : tuned) {
      const auto& e = res.entry(f);
      row.push_back(e.applicable ? Table::fmt(e.gflops, 2) : "-");
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  std::cout << "\n(Performance numbers are from the analytic GPU simulator "
               "described in DESIGN.md.)\n";
  return 0;
}
