// The GPU simulator's dispatch site, beside the host registry
// (engine/format_registry.h): one switch from a registered format to its
// simulator kernel. It lives in bro_simulate, above the engine, so the
// serving stack never links the simulator.
#pragma once

#include <span>

#include "core/matrix.h"
#include "gpusim/device.h"
#include "kernels/sim_spmv.h"

namespace bro::engine {

/// Runs `format`'s simulator kernel on `rep`: the object that format's make
/// hook built, or the CSR itself for CSR (as SpmvPlan::representation()
/// gives them). The result carries the numerical y and the modelled time.
kernels::SimResult simulate(const sim::DeviceSpec& dev, core::Format format,
                            const void* rep, std::span<const value_t> x);

} // namespace bro::engine
