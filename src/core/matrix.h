// bro::core::Matrix — the library's public facade.
//
// An immutable, validated CSR matrix plus the options its formats are built
// with. It holds no representation: each engine::SpmvPlan builds the one
// format it runs and owns it, so a Matrix is safe to share across threads
// and plans by construction. The auto-selection heuristic mirrors the
// paper's usage: matrices whose ELLPACK padding is modest use BRO-ELL,
// others BRO-HYB.
//
//   auto A = std::make_shared<const Matrix>(Matrix::from_file("matrix.mtx"));
//   engine::SpmvPlan plan(A);          // auto-selected BRO format
//   plan.execute(x, y);                // y = A * x
//   engine::SpmvPlan ell(A, Format::kEll); // explicit baseline
//   double eta = A->space_savings();   // index-data compression achieved
#pragma once

#include <string>

#include "core/bro_ans.h"
#include "core/bro_bcsr.h"
#include "core/bro_coo.h"
#include "core/bro_csr.h"
#include "core/bro_ell.h"
#include "core/bro_hyb.h"
#include "core/savings.h"
#include "sparse/convert.h"
#include "sparse/stats.h"

namespace bro::core {

enum class Format {
  kCsr,
  kCoo,
  kEll,
  kEllR,
  kHyb,
  kBroEll,
  kBroCoo,
  kBroHyb,
  kBroCsr,  // extension format (see core/bro_csr.h)
  kBroAns,  // extension format (see core/bro_ans.h)
  kBroBcsr, // blocked format (see core/bro_bcsr.h)
};

/// Human-readable format name ("BRO-ELL", ...). Backed by the engine's
/// format registry (engine/format_registry.h), as are auto-selection and
/// savings below — linking against bro_engine is required to use the
/// format-generic surface of this facade.
const char* format_name(Format f);

struct MatrixOptions {
  BroEllOptions ell;
  BroCooOptions coo;
  BroAnsOptions ans;
  BroBcsrOptions bcsr;
  /// ELLPACK is considered viable when rows*k <= max_ell_expand * nnz.
  double max_ell_expand = 3.0;
};

class Matrix {
 public:
  static Matrix from_csr(sparse::Csr csr, MatrixOptions opts = {});
  static Matrix from_coo(sparse::Coo coo, MatrixOptions opts = {});
  static Matrix from_file(const std::string& mtx_path,
                          MatrixOptions opts = {});

  index_t rows() const { return csr_.rows; }
  index_t cols() const { return csr_.cols; }
  std::size_t nnz() const { return csr_.nnz(); }
  const sparse::Csr& csr() const { return csr_; }
  const MatrixOptions& options() const { return opts_; }
  sparse::MatrixStats stats() const { return sparse::compute_stats(csr_); }

  /// The format auto-selection heuristic (what a plan defaults to).
  Format auto_format() const;

  /// Index-data space savings achieved by the auto-selected BRO format. A
  /// one-shot query: builds that representation, measures it, drops it.
  Savings savings() const;
  double space_savings() const { return savings().eta(); }

 private:
  explicit Matrix(sparse::Csr csr, MatrixOptions opts);

  sparse::Csr csr_;
  MatrixOptions opts_;
};

} // namespace bro::core
