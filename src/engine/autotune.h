// Format auto-tuning: run the analytic simulator over every applicable
// registered format for a given matrix/device pair and rank them by
// estimated SpMV throughput (the clSpMV "cocktail" idea from the paper's
// related work, §5, with the simulator standing in for on-device trials).
// Candidate enumeration is the format registry — a format registered there
// is automatically tuned.
#pragma once

#include <vector>

#include "engine/format_registry.h"
#include "gpusim/device.h"

namespace bro::engine {

struct TuneEntry {
  core::Format format;
  double gflops = 0;      // simulated throughput
  double eta = 0;         // index space savings (0 for uncompressed)
  bool applicable = true; // false if the format cannot hold the matrix
};

struct TuneResult {
  std::vector<TuneEntry> ranking; // applicable formats, best first
  core::Format best() const { return ranking.front().format; }
};

struct TuneOptions {
  /// ELLPACK-family formats are skipped when rows*k > max_ell_expand * nnz.
  double max_ell_expand = 3.0;
  /// Evaluate extension formats as well (BRO-CSR; not part of the paper).
  bool include_extensions = true;
};

/// Evaluate every registered tunable format on `dev` and rank by simulated
/// GFlop/s. Each candidate builds its own device-matched representation
/// from the CSR and drops it once simulated.
TuneResult autotune(const sparse::Csr& csr, const sim::DeviceSpec& dev,
                    const TuneOptions& opts = {});

} // namespace bro::engine
