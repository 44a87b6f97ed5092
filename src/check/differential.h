// bro::check differential fuzz driver.
//
// One round = one matrix (adversarial battery first, then seeded random
// shapes) swept across every applicable registered format. Each format
// builds one SpmvPlan, and every check runs on its representation:
//
//   1. the registry's validate hook (structural + lossless invariants),
//   2. the reference apply, then two plan executes (the second must not
//      grow the workspace), against the CSR reference to 1e-10 (1 + |ref|),
//   3. *bitwise*: the generic decoder (native_generic) and, when SIMD
//      kernels are active, a forced-scalar execute against the plan's y,
//   4. the GPU-simulator kernel (engine::simulate on a K20) against the
//      reference,
//   5. *bitwise*: each column of execute_multi(X, Y, 3) against a
//      single-vector execute (a second execute_multi must not allocate),
//   6. *bitwise*: the serialized bytes through core::read_bro_to_csr
//      against the source CSR.
//
// Matrices beyond 2^24 rows or columns (x is not allocatable) run steps 1
// and 6 only. All randomness flows from one seed, so a failing (seed,
// round) pair is a complete reproducer. Exposed via `brospmv fuzz --rounds
// N --seed S` and a bounded ctest entry (tools/check_fuzz.sh).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>


namespace bro::check {

struct FuzzOptions {
  int rounds = 50; // random matrices after the adversarial battery
  std::uint64_t seed = 2013;
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
