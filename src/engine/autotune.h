// Format auto-tuning: run the analytic simulator over every applicable
// cocktail format for a given matrix/device pair and rank them by
// estimated SpMV throughput (the clSpMV "cocktail" idea from the paper's
// related work, §5, with the simulator standing in for on-device trials).
// Each candidate is built by its registry make hook and run through
// engine::simulate.
#pragma once

#include <array>
#include <vector>

#include "engine/format_registry.h"
#include "gpusim/device.h"

namespace bro::engine {

/// The cocktail, in registry order: every registered format but two. CSR
/// is the host reference (its simulator baselines live in
/// bench_baselines_csr); BRO-ANS rebuilds its symbol model per matrix, so
/// it leaves no device-dependent knob to sweep.
inline constexpr std::array<core::Format, 9> kCocktail = {
    core::Format::kCoo,    core::Format::kEll,    core::Format::kEllR,
    core::Format::kHyb,    core::Format::kBroEll, core::Format::kBroCoo,
    core::Format::kBroHyb, core::Format::kBroCsr, core::Format::kBroBcsr};

struct TuneEntry {
  core::Format format;
  double gflops = 0;      // simulated throughput
  double eta = 0;         // index space savings (0 for uncompressed)
  bool applicable = true; // false if the format cannot hold the matrix
};

struct TuneResult {
  std::vector<TuneEntry> ranking; // applicable formats, best first
  core::Format best() const { return ranking.front().format; }
  /// The entry of cocktail format `f`.
  const TuneEntry& entry(core::Format f) const;
};

/// Evaluate every cocktail format on `dev` and rank by simulated GFlop/s.
/// Each candidate's make hook builds a device-matched representation from
/// the CSR, dropped once simulated: BRO-COO sizes its intervals so the warp
/// count fills `dev` for the matrix's nnz (kernels::bro_coo_options_for),
/// BRO-HYB does the same for the nnz of its overflow part, and every other
/// format gets the default options. Applicability uses the default
/// core::MatrixOptions ELL-expansion bound.
TuneResult autotune(const sparse::Csr& csr, const sim::DeviceSpec& dev);

} // namespace bro::engine
