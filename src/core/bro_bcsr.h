// BRO-BCSR: blocked bit-representation-optimized storage.
//
// FEM-structured matrices carry dense r-by-c micro-blocks (one per coupled
// dof pair). BRO-BCSR covers the CSR pattern with such blocks, keeps ONE
// delta-encoded bit-packed index per block (dividing index bits per nnz by
// r*c relative to BRO-ELL) and stores each block's values as a contiguous
// row-major r*c tile, which makes the FP accumulate vectorizable with plain
// unaligned loads — the part no other BRO format can vectorize.
//
// Layout: block rows are sliced exactly like BRO-ELL rows (per-slice-column
// bit allocation, sym_len-padded row streams, multiplexed), reusing
// BroEllSlice / RowStreamDecoder / bits:: verbatim with "row" meaning "block
// row" and "column index" meaning "block column index". Value tiles are laid
// out per slice: tile (t, j) of a slice lives at
//   vals[slice_val_offset(s) + (t * num_col + j) * r * c]
// in row-major order; ELL padding tiles (delta sentinel 0) stay zero-filled.
// Block covers are exact: fill-in entries are explicit zeros, no nnz is
// dropped, so decompression reproduces the source values bit-for-bit.
//
// Bitwise-FP contract (DESIGN.md §12): every SpMV path — sequential
// reference, scalar/SSE4/AVX2 kernels, SpMM columns — accumulates row r
// through BcsrLaneAcc below: 8 partial sums indexed by (column & 7),
// entries added in ascending column order as a separate multiply and add,
// reduced by a fixed pairwise tree, and normalized with a trailing + 0.0
// so a fill-in-induced -0.0 cannot leak. Because every candidate block
// width divides 8, a block's columns occupy one aligned lane group, which
// is what the SIMD kernels exploit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/bro_ell.h"
#include "sparse/csr.h"

namespace bro::core {

struct BroBcsrOptions {
  // Forced block shape; 0 = choose per matrix by the savings model.
  // block_cols must divide 8 (lane-group alignment), block_rows <= 8.
  int block_rows = 0;
  int block_cols = 0;
  // Block rows per slice. Smaller than BRO-ELL's 256-row slices: num_col is
  // per-slice, so shorter slices confine a long block row's padding tiles
  // to 64 neighbours instead of 256 — on FEM assemblies with a few heavy
  // rows (tower nodes) that difference is most of the format's space cost.
  int slice_height = 64;
  int sym_len = 32;       // bits per load during decompression (32 or 64)
  // Minimum fraction of stored tile entries that are structural nonzeros
  // for the format to be auto-selected (applicability floor). FEM
  // assemblies cover at exactly 1.0 — every coupled dof pair stores a
  // fully dense node block — while run-structured matrices (long row
  // runs, not 2-D coupling) leave partial blocks at run boundaries and
  // top out around 0.92 across generator scales, so 0.95 separates true
  // block structure from runs structurally, independent of matrix size.
  double min_fill = 0.95;
};

/// Candidate shapes tried by the block-detection pass.
inline constexpr std::array<std::pair<int, int>, 4> kBcsrCandidateShapes{
    {{2, 2}, {4, 4}, {8, 1}, {1, 8}}};

/// Cover statistics for one candidate shape.
struct BcsrShapeStats {
  int br = 0, bc = 0;
  std::size_t blocks = 0;      // nonempty blocks in the cover
  std::size_t value_slots = 0; // tile entries incl. slice-ELL padding tiles
  std::size_t index_bits = 0;  // packed block-index stream + header bits
  double fill = 0;             // nnz / (blocks * br * bc)
  // index bytes plus a stored double per value slot beyond nnz: explicit-
  // zero fill is charged against the index-bit savings, so shapes that
  // mostly pad lose to the baseline.
  std::size_t cost_bytes = 0;
};

/// Result of the block-detection pass: every candidate shape's cover stats
/// plus the unblocked BRO-ELL-style baseline they are charged against.
struct BcsrAnalysis {
  std::vector<BcsrShapeStats> shapes; // kBcsrCandidateShapes order
  int best = -1;                      // argmin cost_bytes (-1 iff rows == 0)
  std::size_t ell_value_slots = 0;    // rows * max_row_len
  std::size_t ell_index_bits = 0;     // unblocked delta stream + header bits
};

/// Greedy exact r x c cover of every candidate shape with fill-in
/// accounting; shared by applicability, compression and the tune hook.
BcsrAnalysis analyze_bro_bcsr(const sparse::Csr& csr,
                              const BroBcsrOptions& opts = {});

/// Savings-model applicability: the best shape must clear the fill floor,
/// stay within the ELL expansion bound, and beat the unblocked index cost
/// by a clear margin (so marginally-blocked matrices keep BRO-ELL). A
/// block count, parallel over 8-row chunks and exact at any thread count,
/// rejects first when no candidate shape can reach the fill floor. It
/// counts in rounds and stops as soon as an upper bound on every shape's
/// fill (blocks so far plus the entries left packed into full blocks)
/// falls below the floor, usually within the first rounds; only matrices
/// that pass it pay for analyze_bro_bcsr.
bool bro_bcsr_applicable(const sparse::Csr& csr, double max_ell_expand,
                         const BroBcsrOptions& opts = {});

/// 8-lane accumulator implementing the bitwise-FP contract (header comment).
struct BcsrLaneAcc {
  value_t lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  void add(index_t col, value_t a, value_t xv) {
    const value_t p = a * xv;
    lane[col & 7] += p;
  }

  value_t reduce() const {
    return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
            ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
           0.0;
  }
};

class BroBcsr {
 public:
  static BroBcsr compress(const sparse::Csr& csr, BroBcsrOptions opts = {});

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  int block_r() const { return br_; }
  int block_c() const { return bc_; }
  index_t block_rows() const { return block_rows_; }
  index_t ell_width() const { return ell_width_; }
  std::size_t nnz() const { return nnz_; }
  const BroBcsrOptions& options() const { return opts_; }

  /// Block-row index slices; first_row/height count BLOCK rows and num_col
  /// counts blocks per block row.
  const std::vector<BroEllSlice>& slices() const { return slices_; }

  std::span<const value_t> vals() const { return vals_; }
  std::size_t slice_val_offset(std::size_t si) const { return val_off_[si]; }
  std::size_t value_slots() const { return vals_.size(); }

  /// Decode the block-column indices of one block row (verification path).
  std::vector<index_t> decode_block_row(index_t brow) const;

  /// y = A * x, sequentially, under the bitwise-FP contract. This is the
  /// reference every kernel must match bit-for-bit.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// Exact reconstruction including explicit fill-in zeros (validation and
  /// tests; a .bro stream loads through core::read_bro_to_csr instead).
  sparse::Csr to_csr() const;

  /// Index bytes (streams + per-slice headers) plus the fill charge: a
  /// stored double per tile value slot beyond nnz. Using the charged figure
  /// here makes eta fill-adjusted everywhere savings are reported or
  /// ranked.
  std::size_t compressed_index_bytes() const;

  /// Actual heap bytes of the index data as stored (no fill charge — tile
  /// memory is accounted by resident value bytes).
  std::size_t resident_index_bytes() const { return slice_index_bytes(slices_); }

  /// Baseline ELLPACK index size of the source (rows * max_row_len * 4),
  /// identical to BRO-ELL's baseline so etas are comparable.
  std::size_t original_index_bytes() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  int br_ = 1;
  int bc_ = 1;
  index_t block_rows_ = 0;
  index_t ell_width_ = 0; // source max row length (savings baseline)
  std::size_t nnz_ = 0;
  BroBcsrOptions opts_;
  std::vector<BroEllSlice> slices_;
  std::vector<std::size_t> val_off_; // per-slice offset into vals_
  util::UninitVector<value_t> vals_; // row-major r*c tiles
};

} // namespace bro::core
