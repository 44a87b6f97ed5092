// cg_poisson: the paper's motivating use case (§1) — an iterative solver
// whose inner kernel is SpMV. Solves a 2-D Poisson problem with Conjugate
// Gradient, once through the CSR reference operator and once through the
// BRO-ELL compressed operator, and reports that both converge identically
// while BRO-ELL moves far fewer index bytes per iteration.
//
// Run:  ./build/examples/cg_poisson [grid_side]
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "core/matrix.h"
#include "engine/plan.h"
#include "solver/cg.h"
#include "sparse/matgen/generators.h"
#include "sparse/spmv.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace bro;

  const index_t side = argc > 1 ? std::atoi(argv[1]) : 256;
  const sparse::Csr a_csr = sparse::generate_poisson2d(side, side);
  const auto a = std::make_shared<core::Matrix>(core::Matrix::from_csr(a_csr));
  const std::size_t n = static_cast<std::size_t>(a->rows());

  std::cout << "2-D Poisson, " << side << " x " << side << " grid ("
            << a->nnz() << " non-zeros)\n";

  // Right-hand side for the known solution x* = 1.
  const std::vector<value_t> x_true(n, 1.0);
  std::vector<value_t> b(n);
  sparse::spmv_csr_reference(a->csr(), x_true, b);

  solver::SolveOptions opts;
  opts.max_iterations = 4000;
  opts.tolerance = 1e-10;

  bool converged = true;
  const auto solve_with = [&](core::Format fmt, const char* label) {
    std::vector<value_t> x(n, 0.0);
    // One plan per format: conversion and workspace sizing happen here,
    // so every CG iteration's apply is allocation-free.
    const solver::Operator op =
        engine::plan_operator(std::make_shared<engine::SpmvPlan>(a, fmt));
    Timer t;
    const auto res = solver::cg(op, b, x, opts);
    const double secs = t.seconds();
    converged = converged && res.converged;
    double err = 0;
    for (std::size_t i = 0; i < n; ++i) err = std::max(err, std::abs(x[i] - 1.0));
    std::cout << "  " << label << ": "
              << (res.converged ? "converged" : "NOT converged") << " in "
              << res.iterations << " iterations, " << secs << " s, ||x-x*||_inf = "
              << err << '\n';
    return res.iterations;
  };

  std::cout << "Solving A x = b with CG through two SpMV backends:\n";
  const int it_csr = solve_with(core::Format::kCsr, "CSR reference");
  const int it_bro = solve_with(core::Format::kBroEll, "BRO-ELL      ");

  const auto savings = a->savings();
  std::cout << "\nSame Krylov trajectory (" << it_csr << " vs " << it_bro
            << " iterations); BRO-ELL reads "
            << savings.compressed_bytes << " B of index data per SpMV instead "
            << "of " << savings.original_bytes << " B ("
            << savings.eta() * 100 << "% saved) — the memory-traffic saving "
            << "the paper converts into GPU speedup.\n";
  return converged ? 0 : 1;
}
