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

/// Evaluate every registered tunable format on `dev` and rank by simulated
/// GFlop/s. Each candidate builds its own device-matched representation
/// from the CSR and drops it once simulated. Applicability uses the default
/// core::MatrixOptions ELL-expansion bound.
TuneResult autotune(const sparse::Csr& csr, const sim::DeviceSpec& dev);

} // namespace bro::engine
