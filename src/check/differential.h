// bro::check differential fuzz driver.
//
// One round = one matrix (adversarial battery first, then seeded random
// shapes) swept across every registered format. For each applicable format
// the fuzzer builds one SpmvPlan, and every hook below runs on that plan's
// representation (nothing is rebuilt per hook):
//
//   1. runs the registry's validate hook (structural + lossless invariants),
//   2. compares the sequential reference apply against the CSR reference,
//   3. executes the plan twice — results must match the reference and the
//      second execute must not grow the workspace,
//   4. compares the GPU-simulator kernel's numerical result (sim_apply),
//   5. runs the multi-vector path: execute_multi(X, Y, k) must match k
//      single-vector execute() calls column-by-column *bitwise* (the SpMM
//      kernels replicate the single-vector accumulation order exactly),
//      and a second execute_multi must not grow the workspace,
//   6. for formats with a serialize hook, serializes the representation and
//      decodes the bytes with core::read_bro_to_csr: the result must equal
//      the source CSR *bitwise*. Always on; it runs for validate-only
//      matrices too.
//
// All randomness flows from one seed, so a failing (seed, round) pair is a
// complete reproducer. Exposed via `brospmv fuzz --rounds N --seed S` and a
// bounded ctest entry (tools/check_fuzz.sh).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "util/types.h"

namespace bro::check {

struct FuzzOptions {
  int rounds = 50;             // random matrices after the adversarial battery
  std::uint64_t seed = 2013;
  double eps = 1e-10;          // |y - ref| <= eps * (1 + |ref|)
  bool simulate = true;        // include the simulator-kernel path
  sim::DeviceSpec device = sim::tesla_k20();
  double max_ell_expand = 3.0; // the ELL applicability rule's bound
  int spmm_k = 3;              // right-hand sides in the SpMM sweep (0: off)
  // Compare the dispatched (width-specialized) native kernel against the
  // runtime-width generic decoder *bitwise* for formats that register a
  // native_generic hook.
  bool decode_check = true;
  // When SIMD kernels are active (active_simd_isa() != scalar), rebuild the
  // plan with dispatch forced to the scalar kernels and compare every
  // planned execute *bitwise* against the SIMD result. No-op on hosts or
  // builds without a SIMD backend.
  bool simd_check = true;
  // Matrices with rows or cols beyond this run the validate hook only: an
  // x vector of near-index_t-max size is not allocatable.
  index_t max_spmv_dim = index_t{1} << 24;
};

struct FuzzFailure {
  std::string matrix; // generated name, reproducible from (seed, round)
  std::string format; // canonical registry name
  std::string path;   // "validate" | "apply" | "plan" | "sim" | "spmm" |
                      // "decode" | "simd" | "ingest" | "build"
  std::string message;
};

struct FuzzReport {
  int matrices = 0;
  std::size_t comparisons = 0; // vector and .bro round-trip comparisons
  std::size_t validations = 0; // validate-hook invocations
  std::size_t skipped = 0;     // (matrix, format) pairs ruled inapplicable
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// Run the sweep; `log` (may be null) receives one progress line per matrix
/// and one line per failure.
FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream* log = nullptr);

} // namespace bro::check
