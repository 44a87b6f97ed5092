#include "kernels/cpu_features.h"

#include <atomic>
#include <cstdlib>

#include "kernels/bro_decode_simd.h"

namespace bro::kernels {

namespace {

// ScopedSimdIsa's save/restore slot: -1 = no override live. Relaxed is
// enough — the override is a test/debug seam, not a synchronization point.
std::atomic<int> g_forced_isa{-1};

} // namespace

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kSse4: return "sse4";
    case SimdIsa::kAvx2: return "avx2";
  }
  return "unknown";
}

std::optional<SimdIsa> parse_simd_isa(std::string_view name) {
  if (name == "scalar") return SimdIsa::kScalar;
  if (name == "sse4") return SimdIsa::kSse4;
  if (name == "avx2") return SimdIsa::kAvx2;
  return std::nullopt;
}

CpuFeatures cpu_features() {
#if defined(__x86_64__) || defined(__i386__)
  static const CpuFeatures features = [] {
    CpuFeatures f;
    f.sse4 = __builtin_cpu_supports("sse4.2") != 0;
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    return f;
  }();
  return features;
#else
  return CpuFeatures{};
#endif
}

bool simd_isa_compiled(SimdIsa isa) {
  return isa == SimdIsa::kScalar || simd_kernels(isa) != nullptr;
}

const SimdKernels* simd_kernels(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar: return nullptr;
    case SimdIsa::kSse4: return detail::kSimdKernelsSse4;
    case SimdIsa::kAvx2: return detail::kSimdKernelsAvx2;
  }
  return nullptr;
}

bool simd_isa_runnable(SimdIsa isa) {
  if (isa == SimdIsa::kScalar) return true;
  if (!simd_isa_compiled(isa)) return false;
  const CpuFeatures f = cpu_features();
  return isa == SimdIsa::kSse4 ? f.sse4 : f.avx2;
}

SimdIsa best_simd_isa() {
  static const SimdIsa best = [] {
    const CpuFeatures f = cpu_features();
    if (f.avx2 && simd_isa_compiled(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
    if (f.sse4 && simd_isa_compiled(SimdIsa::kSse4)) return SimdIsa::kSse4;
    return SimdIsa::kScalar;
  }();
  return best;
}

const char* simd_env_raw() {
  static const char* const raw = std::getenv("BRO_SIMD");
  return raw;
}

std::optional<SimdIsa> simd_env_override() {
  static const std::optional<SimdIsa> parsed = [] {
    const char* raw = simd_env_raw();
    return raw ? parse_simd_isa(raw) : std::nullopt;
  }();
  return parsed;
}

SimdIsa resolve_simd_isa(std::optional<SimdIsa> request, SimdIsa best) {
  if (!request) return best;
  return static_cast<int>(*request) < static_cast<int>(best) ? *request : best;
}

SimdIsa active_simd_isa() {
  const int forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced >= 0)
    return resolve_simd_isa(static_cast<SimdIsa>(forced), best_simd_isa());
  return resolve_simd_isa(simd_env_override(), best_simd_isa());
}

ScopedSimdIsa::ScopedSimdIsa(SimdIsa isa)
    : prev_(g_forced_isa.exchange(static_cast<int>(isa),
                                  std::memory_order_relaxed)) {}

ScopedSimdIsa::~ScopedSimdIsa() {
  g_forced_isa.store(prev_, std::memory_order_relaxed);
}

} // namespace bro::kernels
