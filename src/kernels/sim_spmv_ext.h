// Simulator kernels for the registered formats beyond the paper: BRO-CSR
// (warp per row, DESIGN.md §5), BRO-ANS (entropy-coded deltas, §10) and
// BRO-BCSR (bit-packed block-column indices, §12).
#pragma once

#include "core/bro_ans.h"
#include "core/bro_bcsr.h"
#include "core/bro_csr.h"
#include "kernels/sim_spmv.h"

namespace bro::kernels {

/// Warp-per-row BRO-CSR: lanes extract 32 consecutive deltas in parallel
/// from the row's packed stream and rebuild columns with an inclusive scan.
SimResult sim_spmv_bro_csr(const sim::DeviceSpec& dev, const core::BroCsr& a,
                           std::span<const value_t> x);

/// Thread-per-row BRO-ANS: like the BRO-ELL kernel, but the per-symbol bit
/// count is state-dependent, so stream refills diverge across the warp (each
/// lane issues its own load when its buffer runs dry) and every symbol costs
/// an extra decode-table lookup served from shared memory.
SimResult sim_spmv_bro_ans(const sim::DeviceSpec& dev, const core::BroAns& a,
                           std::span<const value_t> x);

/// Thread-per-block-row BRO-BCSR: index decode as in the BRO-ELL kernel but
/// over block columns (1/(r*c) of the symbol traffic), then r*c value loads
/// and FMAs per decoded block — fill-in zeros execute like real entries, so
/// the estimate inherently charges the cover's overhead. x reads go through
/// the texture path, one per block column of the tile.
SimResult sim_spmv_bro_bcsr(const sim::DeviceSpec& dev, const core::BroBcsr& a,
                            std::span<const value_t> x);

} // namespace bro::kernels
