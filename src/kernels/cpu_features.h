// Runtime ISA detection and SIMD-backend selection for the BRO decode
// kernels.
//
// The library is built without -march=native: every translation unit targets
// the baseline ABI except the two per-ISA kernel-table TUs (simd_sse4.cpp,
// simd_avx2.cpp), which are compiled with exactly their own target flag.
// Which of those tables actually runs is decided here, once, at run time:
// the hardware probe (cpu_features), the link-time availability check
// (simd_isa_compiled — the per-ISA TUs collapse to stubs when the
// toolchain cannot target x86) and the BRO_SIMD env override meet in
// active_simd_isa(), which plan-time kernel selection consults. One binary
// therefore stays portable across CI runners and user machines while still
// using the widest vectors the host offers.
#pragma once

#include <optional>
#include <string_view>

namespace bro::kernels {

/// The SIMD instruction sets the decode backend is built for, in strictly
/// increasing capability order (resolution clamps a request downward, so the
/// enum order is load-bearing).
enum class SimdIsa : int {
  kScalar = 0, // baseline-ABI kernels from bro_decode.h
  kSse4 = 1,   // 128-bit lanes (4 x u32)
  kAvx2 = 2,   // 256-bit lanes (8 x u32)
};

/// "scalar", "sse4" or "avx2".
const char* simd_isa_name(SimdIsa isa);

/// Inverse of simd_isa_name; nullopt for anything unknown (callers treat an
/// unparsable BRO_SIMD as unset rather than failing).
std::optional<SimdIsa> parse_simd_isa(std::string_view name);

/// What the host CPU reports. Probed once and cached.
struct CpuFeatures {
  bool sse4 = false;
  bool avx2 = false;
};
CpuFeatures cpu_features();

/// Whether the kernel table for `isa` was compiled into this binary (false
/// on toolchains that cannot target the ISA; kScalar is always available).
bool simd_isa_compiled(SimdIsa isa);

/// Whether this process can actually execute the kernel table for `isa`:
/// compiled in AND supported by the host CPU (kScalar always is). This is
/// the gate tests and benches use before forcing an ISA.
bool simd_isa_runnable(SimdIsa isa);

/// The widest ISA that is both supported by the host and compiled in.
SimdIsa best_simd_isa();

/// The BRO_SIMD environment override, read and parsed once per process:
/// nullopt when unset or unparsable. simd_env_raw() returns the raw value
/// (nullptr when unset) so diagnostics can show what was actually typed.
std::optional<SimdIsa> simd_env_override();
const char* simd_env_raw();

/// The resolution rule, exposed pure for tests: an explicit request is
/// honored but clamped to `best` (asking for AVX2 on an SSE4-only host gets
/// SSE4, never an illegal-instruction fault); no request takes `best`.
SimdIsa resolve_simd_isa(std::optional<SimdIsa> request, SimdIsa best);

/// The ISA plan-time kernel selection uses right now: a ScopedSimdIsa
/// override if one is live, else the BRO_SIMD request, else best_simd_isa()
/// — always clamped to what this host and binary can run.
SimdIsa active_simd_isa();

/// RAII override of active_simd_isa() — the A/B seam the differential
/// fuzzer's SIMD sweep and the ISA-sweep tests use to force a dispatch
/// choice mid-process. Process-global (a relaxed atomic), nests by
/// save/restore, and is not meant for use while another thread is planning.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa);
  ~ScopedSimdIsa();
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;

 private:
  int prev_;
};

} // namespace bro::kernels
