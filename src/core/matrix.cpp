#include "core/matrix.h"

#include <utility>

#include "sparse/mmio.h"
#include "util/error.h"

// format_name, auto_format and savings are defined in
// src/engine/facade.cpp: they dispatch through the engine's format
// registry, the library's single format-dispatch site.

namespace bro::core {

Matrix::Matrix(sparse::Csr csr, MatrixOptions opts)
    : csr_(std::move(csr)), opts_(opts) {
  BRO_CHECK_MSG(csr_.is_valid(), "matrix is structurally invalid");
}

Matrix Matrix::from_csr(sparse::Csr csr, MatrixOptions opts) {
  return Matrix(std::move(csr), opts);
}

Matrix Matrix::from_coo(sparse::Coo coo, MatrixOptions opts) {
  return Matrix(sparse::coo_to_csr(std::move(coo)), opts);
}

Matrix Matrix::from_file(const std::string& mtx_path, MatrixOptions opts) {
  return from_coo(sparse::read_matrix_market_file(mtx_path), opts);
}

} // namespace bro::core
