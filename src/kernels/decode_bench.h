// Decode-throughput microbenchmark support: synthetic BRO symbol streams and
// a single-pass decode driver over the scalar decoder variants —
// width-specialized and runtime-width (generic), both over packed storage —
// plus each SIMD ISA's checksum kernel. Shared by bench_decode_throughput
// (the google-benchmark binary) and `brospmv bench --decode` (the
// self-timed table) so both report the same inner loops.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bits/mux.h"
#include "core/bro_ans.h"
#include "core/bro_bcsr.h"
#include "kernels/cpu_features.h"

namespace bro::kernels {

/// One synthetic decode workload: `lanes` lanes of `deltas_per_lane` deltas,
/// every delta `width` bits, multiplexed into 32-bit symbols exactly like a
/// BRO-ELL slice / BRO-COO interval stream.
struct DecodeBenchCase {
  int width = 1;
  std::size_t lanes = 0;
  std::size_t deltas_per_lane = 0;
  bits::MuxedStream stream;
  std::vector<std::uint8_t> widths; // per-column widths (all == width), the
                                    // form the SIMD checksum kernels take
};

DecodeBenchCase make_decode_bench_case(int width, std::size_t lanes,
                                       std::size_t deltas_per_lane,
                                       std::uint64_t seed);

enum class DecodeVariant {
  kSpecialized, // width-templated kernel, packed storage (dispatch choice)
  kGeneric,     // runtime-width kernel, packed storage
};

/// One full decode pass over every lane. Returns the sum of all decoded
/// deltas — consumed by the caller so the loop cannot be optimized away, and
/// identical across variants (the parity check the throughput numbers rest
/// on). For widths above kMaxSpecializedDecodeWidth the kSpecialized variant
/// runs the generic kernel, mirroring what the dispatcher would select.
std::uint64_t decode_pass(const DecodeBenchCase& c, DecodeVariant variant);

/// One full decode pass through `isa`'s lockstep SIMD checksum kernel.
/// Returns the same checksum as decode_pass (bitwise — the parity contract).
/// Requires simd_isa_runnable(isa) and isa != kScalar.
std::uint64_t simd_decode_pass(const DecodeBenchCase& c, SimdIsa isa);

inline std::size_t decode_pass_deltas(const DecodeBenchCase& c) {
  return c.lanes * c.deltas_per_lane;
}

/// Self-timed sweep (steady_clock, >= min_seconds_per_cell per measurement)
/// reporting decode throughput in giga-deltas per second for each variant.
/// The per-ISA SIMD columns are NaN (rendered "n/a" by Table::fmt) when the
/// ISA is not runnable on this host/binary.
struct DecodeThroughputRow {
  int width = 0;
  double specialized_gdps = 0;
  double generic_gdps = 0;
  double sse4_gdps = std::numeric_limits<double>::quiet_NaN();
  double avx2_gdps = std::numeric_limits<double>::quiet_NaN();
};

std::vector<DecodeThroughputRow> decode_throughput_sweep(
    std::size_t lanes, std::size_t deltas_per_lane,
    double min_seconds_per_cell);

/// Scalar-vs-SIMD decode A/B over real BRO-ELL compressions of the matgen
/// suite (Test Set 1): per matrix, one pass decodes every slice of the
/// compressed index stream. The scalar side is exactly what PR 4's dispatch
/// ran (width-specialized kernel for uniform slices <=
/// kMaxSpecializedDecodeWidth, runtime-width generic otherwise); the SIMD
/// side is `isa`'s lockstep checksum kernel. Measurements alternate
/// scalar/SIMD rounds and keep each side's best throughput (CPU-time
/// minima), the same protocol as the PR 4 decode experiments.
struct EllSuiteDecodeRow {
  std::string matrix;
  std::size_t deltas = 0; // deltas decoded per pass (incl. padding slots)
  double scalar_gdps = 0;
  double simd_gdps = 0;
};

std::vector<EllSuiteDecodeRow> ell_suite_decode_sweep(
    SimdIsa isa, double scale, double min_seconds_per_cell);

/// Entropy-coding A/B over BRO-ELL vs BRO-ANS compressions of the matgen
/// suite (Test Set 1): per matrix, index space savings (eta) of both formats
/// and full-stream decode throughput of each format's dispatched decode path
/// planned at `isa` (what execute() would run with that ISA active — the
/// scalar 4-chain fallback when the ISA has no ANS kernel).
/// Both sides decode the identical delta sequence (checked bitwise via the
/// checksum before timing).
struct EntropySuiteRow {
  std::string matrix;
  std::size_t deltas = 0; // deltas decoded per pass (incl. padding slots)
  double ell_eta = 0;     // BRO-ELL index space savings
  double ans_eta = 0;     // BRO-ANS index space savings
  double ell_gdps = 0;    // BRO-ELL decode throughput
  double ans_gdps = 0;    // BRO-ANS decode throughput
};

std::vector<EntropySuiteRow> entropy_suite_sweep(SimdIsa isa, double scale,
                                                 double min_seconds_per_cell);

/// Blocked A/B over the truss-FEM workload (matgen suite Test Set 3): per
/// matrix, fill-adjusted index space savings of BRO-ELL and BRO-BCSR (both
/// charged a stored double per value slot beyond nnz, so padding — ELL's
/// row-length variance or BCSR's explicit-zero fill — costs the same on
/// either side) and index decode throughput of each format's dispatched
/// decode path at `isa`, in matrix rows per second. Decode throughput is
/// the gate metric: both formats decompress the identical row structure,
/// and BRO-BCSR's one-index-per-block stream decodes ~block_r*block_c
/// fewer symbols per matrix row. End-to-end SpMV rows/s ride along as
/// informational columns, and the BRO-BCSR SpMV side is pinned bitwise:
/// the `isa` kernels must reproduce the scalar 8-lane reference exactly
/// before any timing is trusted.
struct BlockSuiteRow {
  std::string matrix;
  index_t rows = 0;
  std::size_t nnz = 0;
  int shape_r = 0;     // chosen block shape
  int shape_c = 0;
  double fill = 0;     // nnz / stored BCSR value slots (padding included)
  double ell_eta = 0;  // fill-adjusted BRO-ELL savings
  double bcsr_eta = 0; // fill-adjusted BRO-BCSR savings
  double ell_rps = 0;  // BRO-ELL index decode, matrix rows/s at `isa`
  double bcsr_rps = 0; // BRO-BCSR index decode, matrix rows/s at `isa`
  double ell_spmv_rps = 0;  // BRO-ELL SpMV rows/s at `isa` (informational)
  double bcsr_spmv_rps = 0; // BRO-BCSR SpMV rows/s at `isa` (informational)
};

std::vector<BlockSuiteRow> block_suite_sweep(SimdIsa isa, double scale,
                                             double min_seconds_per_cell);

/// BRO-ANS full-stream decode workload for the microbenchmark rows: a
/// synthetic FEM-like matrix (aligned blocks — the structure class BRO-ANS
/// is built for), plus the sequential reference decoder's checksum that
/// every timed pass is checked against.
struct AnsDecodeBenchCase {
  std::shared_ptr<const core::BroAns> coded;
  std::size_t deltas = 0;   // padded deltas decoded per pass
  std::uint64_t expect = 0; // sequential reference checksum
};

AnsDecodeBenchCase make_ans_decode_bench_case(index_t rows,
                                              std::uint64_t seed);

/// One decode-checksum pass over every slice through the kernel dispatch
/// would select at `isa`: the ISA's vector kernel when its table has one,
/// else the baseline interleaved scalar chains. Returns the checksum (must
/// equal c.expect — the parity contract).
std::uint64_t ans_decode_pass(const AnsDecodeBenchCase& c, SimdIsa isa);

/// BRO-BCSR block-index decode workload for the microbenchmark rows: a
/// truss-FEM assembly (the structure class the blocked format is built
/// for), plus the scalar dispatch path's checksum
/// that every timed pass is checked against. `deltas` counts block
/// indices (incl. slice padding) — the whole point of the format is that
/// this is ~block-area smaller than the matrix's nnz.
struct BcsrDecodeBenchCase {
  std::shared_ptr<const core::BroBcsr> coded;
  std::size_t deltas = 0;   // block indices decoded per pass
  std::uint64_t expect = 0; // scalar dispatch-path checksum
};

BcsrDecodeBenchCase make_bcsr_decode_bench_case(index_t panels,
                                                std::uint64_t seed);

/// One decode-checksum pass over the block-index slices through the decode
/// path dispatch selects at `isa` — identical machinery to BRO-ELL decode
/// (the slices share the layout), so A/B against `decode-*` rows is fair.
std::uint64_t bcsr_decode_pass(const BcsrDecodeBenchCase& c, SimdIsa isa);

} // namespace bro::kernels
