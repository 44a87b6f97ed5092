// OpenMP-parallel host SpMM (multi-vector SpMV) kernels.
//
// The serving layer folds k right-hand sides into one pass over the matrix:
// every index decoded (or delta-unpacked, for the BRO formats) feeds k FMAs
// instead of one, so the per-index cost — Algorithm 1's bit unpacking for
// BRO-ELL/BRO-COO, the sentinel test for ELLPACK, the row_ptr walk for CSR —
// is amortized over the batch, the same bits-per-flop win the paper gets
// from compression, now per batch.
//
// The BRO drivers run the same plan-time kernel choices as the
// single-vector drivers (native_spmv.h): the BroEllKernel / BroCooKernel
// tables from plan_bro_{ell,coo}_kernels, or the BroBcsrKernel from
// select_bro_bcsr_kernel (bro_bcsr_decode.h). Like those, each driver calls
// check_host_sym_len first.
//
// Layout: the k vectors are interleaved. X[c*k + j] is element c of
// right-hand side j, Y[r*k + j] element r of result j, so one decoded column
// index addresses k contiguous x values.
//
// Contract: each kernel accumulates every Y element in exactly the order the
// corresponding single-vector kernel in native_spmv.h accumulates it, so
// with k = 1 — and column-by-column for any k — results are bitwise equal to
// k independent native_spmv_* calls. The differential fuzz driver asserts
// this exactly (no tolerance).
#pragma once

#include <span>

#include "core/bro_coo.h"
#include "core/bro_ell.h"
#include "kernels/native_spmv.h"
#include "sparse/csr.h"
#include "sparse/ell.h"

namespace bro::kernels {

/// Y = A * X for k interleaved right-hand sides (X: cols*k, Y: rows*k).
void native_spmm_csr(const sparse::Csr& a, std::span<const value_t> x,
                     std::span<value_t> y, int k);

void native_spmm_ell(const sparse::Ell& a, std::span<const value_t> x,
                     std::span<value_t> y, int k);

/// BRO-ELL over per-slice kernel choices (aligned with slices()).
void native_spmm_bro_ell(const core::BroEll& a,
                         std::span<const BroEllKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         int k);

/// BRO-COO over per-interval kernel choices (aligned with intervals()) with
/// caller-owned scratch: `carries` records each interval's first/last row
/// (>= intervals() entries; the scalar sum fields are unused here),
/// `carry_sums` holds the k-wide partial sums for those two rows, laid out
/// as [interval * 2k .. interval * 2k + k) for the first row and
/// [interval * 2k + k .. (interval + 1) * 2k) for the last.
void native_spmm_bro_coo(const core::BroCoo& a,
                         std::span<const BroCooKernel> kernels,
                         std::span<const value_t> x, std::span<value_t> y,
                         int k, std::span<BroCooCarry> carries,
                         std::span<value_t> carry_sums);

} // namespace bro::kernels
