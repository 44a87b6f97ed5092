// bro::core::Matrix — the library's public facade.
//
// Wraps a sparse matrix and lazily materializes any storage format on
// demand, with an auto-selection heuristic mirroring the paper's usage:
// matrices whose ELLPACK padding is modest use BRO-ELL, others BRO-HYB.
//
//   auto A = Matrix::from_file("matrix.mtx");
//   std::vector<double> y(A.rows());
//   A.spmv(x, y);                      // auto-selected BRO format
//   A.spmv(x, y, Format::kEll);        // explicit baseline
//   double eta = A.space_savings();    // index-data compression achieved
#pragma once

#include <memory>
#include <optional>
#include <span>
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
/// format registry (engine/format_registry.h), as are spmv dispatch and
/// auto-selection below — linking against bro_engine is required to use
/// the format-generic surface of this facade.
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
  sparse::MatrixStats stats() const { return sparse::compute_stats(csr_); }

  /// The format auto-selection heuristic (also what spmv() defaults to).
  Format auto_format() const;

  /// y = A * x using the given format (default: auto-selected BRO format).
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;
  void spmv(std::span<const value_t> x, std::span<value_t> y,
            Format format) const;

  /// Index-data space savings achieved by the auto-selected BRO format.
  Savings savings() const;
  double space_savings() const { return savings().eta(); }

  // Lazily-built representations (cached; cheap to call repeatedly).
  const sparse::Ell& ell() const;
  const sparse::EllR& ellr() const;
  const sparse::Coo& coo() const;
  const sparse::Hyb& hyb() const;
  const BroEll& bro_ell() const;
  const BroCoo& bro_coo() const;
  const BroHyb& bro_hyb() const;
  const BroCsr& bro_csr() const;
  const BroAns& bro_ans() const;
  const BroBcsr& bro_bcsr() const;

 private:
  explicit Matrix(sparse::Csr csr, MatrixOptions opts);

  sparse::Csr csr_;
  MatrixOptions opts_;

  // Caches. mutable: building a view does not change the observable matrix.
  mutable std::optional<sparse::Ell> ell_;
  mutable std::optional<sparse::EllR> ellr_;
  mutable std::optional<sparse::Coo> coo_;
  mutable std::optional<sparse::Hyb> hyb_;
  mutable std::optional<BroEll> bro_ell_;
  mutable std::optional<BroCoo> bro_coo_;
  mutable std::optional<BroHyb> bro_hyb_;
  mutable std::optional<BroCsr> bro_csr_;
  mutable std::optional<BroAns> bro_ans_;
  mutable std::optional<BroBcsr> bro_bcsr_;
};

} // namespace bro::core
