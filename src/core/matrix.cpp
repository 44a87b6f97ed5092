#include "core/matrix.h"

#include <utility>

#include "sparse/mmio.h"
#include "util/error.h"

// format_name, auto_format, spmv and savings are defined in
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

const sparse::Ell& Matrix::ell() const {
  if (!ell_) ell_ = sparse::csr_to_ell(csr_);
  return *ell_;
}

const sparse::EllR& Matrix::ellr() const {
  if (!ellr_) ellr_ = sparse::csr_to_ellr(csr_);
  return *ellr_;
}

const sparse::Coo& Matrix::coo() const {
  if (!coo_) coo_ = sparse::csr_to_coo(csr_);
  return *coo_;
}

const sparse::Hyb& Matrix::hyb() const {
  if (!hyb_) hyb_ = sparse::csr_to_hyb(csr_);
  return *hyb_;
}

const BroEll& Matrix::bro_ell() const {
  if (!bro_ell_)
    bro_ell_ = BroEll::compress(csr_, csr_.max_row_length(), opts_.ell);
  return *bro_ell_;
}

const BroCoo& Matrix::bro_coo() const {
  if (!bro_coo_) bro_coo_ = BroCoo::compress(coo(), opts_.coo);
  return *bro_coo_;
}

const BroAns& Matrix::bro_ans() const {
  if (!bro_ans_)
    bro_ans_ = BroAns::compress(csr_, csr_.max_row_length(), opts_.ans);
  return *bro_ans_;
}

const BroBcsr& Matrix::bro_bcsr() const {
  if (!bro_bcsr_) bro_bcsr_ = BroBcsr::compress(csr_, opts_.bcsr);
  return *bro_bcsr_;
}

const BroCsr& Matrix::bro_csr() const {
  if (!bro_csr_) bro_csr_ = BroCsr::compress(csr_);
  return *bro_csr_;
}

const BroHyb& Matrix::bro_hyb() const {
  if (!bro_hyb_) {
    BroHybOptions o;
    o.ell = opts_.ell;
    o.coo = opts_.coo;
    bro_hyb_ = BroHyb::compress(csr_, o);
  }
  return *bro_hyb_;
}

} // namespace bro::core
