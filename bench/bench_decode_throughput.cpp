// Decode-throughput microbenchmark (google-benchmark): pure symbol-stream
// unpack speed per delta bit width, no values or x gather, for the decoder
// variants the width-specialization and SIMD work compare:
//
//   spec    width-templated kernel over packed MuxedStream storage (what the
//           plan's dispatch table selects for uniform-width slices/intervals)
//   gen     runtime-width kernel over packed storage (the dispatch fallback)
//   sse4   lockstep SIMD checksum kernel, 128-bit lanes (when runnable)
//   avx2    lockstep SIMD checksum kernel, 256-bit lanes (when runnable)
//
// Reported counter: deltas decoded per second. The same inner loops back
// `brospmv bench --decode`, which cross-checks all variants for bitwise
// parity before timing.
//
// Before the registered benchmarks run, the binary prints the BRO-ELL suite
// decode A/B (scalar dispatch path vs the active SIMD ISA over real matgen
// compressions, CPU-time minima) with its geomean speedup — the number the
// SIMD PR's perf claim is gated on. BRO_SUITE_AB=0 skips it; BRO_SCALE
// (default 0.125 here) sets the suite matrix scale.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "kernels/decode_bench.h"
#include "util/env.h"
#include "util/table.h"

namespace {

using namespace bro;

constexpr std::size_t kLanes = 64;
constexpr std::size_t kDeltasPerLane = 16384;

void BM_Decode(benchmark::State& state, kernels::DecodeVariant variant,
               int sym_len) {
  const int width = static_cast<int>(state.range(0));
  const auto c = kernels::make_decode_bench_case(
      width, sym_len, kLanes, kDeltasPerLane,
      0x5eed0000u + static_cast<unsigned>(width));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += kernels::decode_pass(c, variant);
    benchmark::DoNotOptimize(sink);
  }
  state.counters["deltas/s"] = benchmark::Counter(
      static_cast<double>(kernels::decode_pass_deltas(c)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void BM_DecodeSimd(benchmark::State& state, kernels::SimdIsa isa,
                   int sym_len) {
  const int width = static_cast<int>(state.range(0));
  const auto c = kernels::make_decode_bench_case(
      width, sym_len, kLanes, kDeltasPerLane,
      0x5eed0000u + static_cast<unsigned>(width));
  if (kernels::simd_decode_pass(c, isa) !=
      kernels::decode_pass(c, kernels::DecodeVariant::kGeneric)) {
    state.SkipWithError("SIMD decode disagrees with scalar");
    return;
  }
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += kernels::simd_decode_pass(c, isa);
    benchmark::DoNotOptimize(sink);
  }
  state.counters["deltas/s"] = benchmark::Counter(
      static_cast<double>(kernels::decode_pass_deltas(c)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

/// BRO-ANS entropy decode through the path dispatch would select at `isa`
/// (the table's vector kernel when present for the width, else the
/// interleaved scalar chains). One synthetic FEM-like matrix per sym_len,
/// checksum checked against the sequential reference before timing.
void BM_AnsDecode(benchmark::State& state, kernels::SimdIsa isa,
                  int sym_len) {
  const auto c = kernels::make_ans_decode_bench_case(
      sym_len, 4096, 0xa45eed00u + static_cast<unsigned>(sym_len));
  if (kernels::ans_decode_pass(c, isa) != c.expect) {
    state.SkipWithError("BRO-ANS decode disagrees with sequential reference");
    return;
  }
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += kernels::ans_decode_pass(c, isa);
    benchmark::DoNotOptimize(sink);
  }
  state.counters["deltas/s"] = benchmark::Counter(
      static_cast<double>(c.deltas) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

/// BRO-BCSR block-index decode through the path dispatch would select at
/// `isa` — the same slice machinery the decode-* rows time, fed the
/// one-index-per-block stream of a truss-FEM compression. Checksum checked
/// against the scalar dispatch path before timing.
void BM_BcsrDecode(benchmark::State& state, kernels::SimdIsa isa,
                   int sym_len) {
  const auto c = kernels::make_bcsr_decode_bench_case(
      sym_len, /*panels=*/2000, 0xbc5eed00u + static_cast<unsigned>(sym_len));
  if (kernels::bcsr_decode_pass(c, isa) != c.expect) {
    state.SkipWithError("BRO-BCSR decode disagrees with scalar dispatch");
    return;
  }
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += kernels::bcsr_decode_pass(c, isa);
    benchmark::DoNotOptimize(sink);
  }
  state.counters["deltas/s"] = benchmark::Counter(
      static_cast<double>(c.deltas) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

/// The BRO-ELL suite scalar-vs-SIMD A/B, printed once before the registered
/// benchmarks so every perf-smoke artifact's log carries the geomean.
void print_suite_ab() {
  if (env_long("BRO_SUITE_AB", 1) == 0) return;
  const kernels::SimdIsa isa = kernels::active_simd_isa();
  if (isa == kernels::SimdIsa::kScalar) {
    std::cout << "suite decode A/B skipped: no SIMD ISA active on this "
                 "host/binary\n\n";
    return;
  }
  const double scale = env_double("BRO_SCALE", 0.125);
  const auto rows = kernels::ell_suite_decode_sweep(isa, scale, 0.02);
  std::cout << "BRO-ELL suite decode throughput (Gdeltas/s), scalar vs "
            << kernels::simd_isa_name(isa) << ", scale " << scale << ":\n";
  Table t({"Matrix", "scalar", kernels::simd_isa_name(isa), "speedup"});
  double log_sum = 0;
  for (const auto& r : rows) {
    const double speedup = r.simd_gdps / r.scalar_gdps;
    log_sum += std::log(speedup);
    t.add_row({r.matrix, Table::fmt(r.scalar_gdps, 3),
               Table::fmt(r.simd_gdps, 3), Table::fmt(speedup, 2) + "x"});
  }
  t.print(std::cout);
  if (!rows.empty())
    std::cout << "geomean speedup: "
              << Table::fmt(
                     std::exp(log_sum / static_cast<double>(rows.size())), 2)
              << "x over " << rows.size() << " matrices\n";
  std::cout << '\n';
}

} // namespace

int main(int argc, char** argv) {
  static constexpr int kWidths[] = {1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32};
  static constexpr struct {
    const char* name;
    kernels::DecodeVariant variant;
  } kVariants[] = {
      {"spec", kernels::DecodeVariant::kSpecialized},
      {"gen", kernels::DecodeVariant::kGeneric},
  };
  for (const int sym_len : {32, 64}) {
    for (const auto& v : kVariants) {
      auto* b = benchmark::RegisterBenchmark(
          ("decode-" + std::string(v.name) + "/sym" + std::to_string(sym_len))
              .c_str(),
          BM_Decode, v.variant, sym_len);
      for (const int w : kWidths) b->Arg(w);
    }
    for (const kernels::SimdIsa isa :
         {kernels::SimdIsa::kSse4, kernels::SimdIsa::kAvx2}) {
      if (!kernels::simd_isa_runnable(isa)) continue;
      auto* b = benchmark::RegisterBenchmark(
          ("decode-" + std::string(kernels::simd_isa_name(isa)) + "/sym" +
           std::to_string(sym_len))
              .c_str(),
          BM_DecodeSimd, isa, sym_len);
      for (const int w : kWidths) b->Arg(w);
    }
    for (const kernels::SimdIsa isa :
         {kernels::SimdIsa::kScalar, kernels::SimdIsa::kSse4,
          kernels::SimdIsa::kAvx2}) {
      if (!kernels::simd_isa_runnable(isa)) continue;
      // SSE4 has no BRO-ANS kernel: its row would time the scalar chains
      // a second time.
      if (isa != kernels::SimdIsa::kSse4)
        benchmark::RegisterBenchmark(
            ("ans-decode-" + std::string(kernels::simd_isa_name(isa)) +
             "/sym" + std::to_string(sym_len))
                .c_str(),
            BM_AnsDecode, isa, sym_len);
      benchmark::RegisterBenchmark(
          ("bcsr-decode-" + std::string(kernels::simd_isa_name(isa)) +
           "/sym" + std::to_string(sym_len))
              .c_str(),
          BM_BcsrDecode, isa, sym_len);
    }
  }
  print_suite_ab();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
