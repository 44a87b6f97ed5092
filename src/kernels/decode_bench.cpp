#include "kernels/decode_bench.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <utility>
#include <vector>

#include "bits/bit_string.h"
#include "bits/bitwidth.h"
#include "core/bro_ans.h"
#include "core/bro_bcsr.h"
#include "core/bro_ell.h"
#include "core/savings.h"
#include "kernels/bro_ans_decode.h"
#include "kernels/bro_bcsr_decode.h"
#include "kernels/bro_decode.h"
#include "kernels/bro_decode_simd.h"
#include "kernels/native_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "util/error.h"

namespace bro::kernels {

namespace {

using ChecksumFn = std::uint64_t (*)(const std::uint32_t* stream,
                                     std::size_t stride, std::size_t lane,
                                     std::size_t count, int runtime_b);

template <std::size_t... Ws>
constexpr auto checksum_table(std::index_sequence<Ws...>) {
  return std::array<ChecksumFn, sizeof...(Ws)>{
      &detail::decode_lane_checksum<static_cast<int>(Ws)>...};
}

using Widths = std::make_index_sequence<kMaxSpecializedDecodeWidth + 1>;
constexpr auto kChecksum = checksum_table(Widths{});

/// The table for a SIMD ISA the caller is about to run.
const SimdKernels& runnable_kernels(SimdIsa isa) {
  const SimdKernels* t = simd_kernels(isa);
  BRO_CHECK_MSG(t != nullptr && simd_isa_runnable(isa),
                "SIMD ISA " << simd_isa_name(isa)
                            << " is not runnable in this process");
  return *t;
}

} // namespace

DecodeBenchCase make_decode_bench_case(int width, std::size_t lanes,
                                       std::size_t deltas_per_lane,
                                       std::uint64_t seed) {
  BRO_CHECK_MSG(width >= 0 && width <= 32, "width must be in [0, 32]");

  DecodeBenchCase c;
  c.width = width;
  c.lanes = lanes;
  c.deltas_per_lane = deltas_per_lane;

  // Deterministic splitmix-style generator: the bench must not depend on
  // std::random_device and must reproduce across runs.
  std::uint64_t state = seed;
  const auto next_rand = [&state]() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  std::vector<bits::BitString> rows(lanes);
  for (auto& bs : rows) {
    for (std::size_t i = 0; i < deltas_per_lane; ++i)
      bs.append(next_rand() & bits::max_value_for_bits(width), width);
    bs.pad_to_multiple(detail::kSym);
  }
  c.stream = bits::MuxedStream::interleave(rows, detail::kSym);
  c.widths.assign(deltas_per_lane, static_cast<std::uint8_t>(width));
  return c;
}

std::uint64_t simd_decode_pass(const DecodeBenchCase& c, SimdIsa isa) {
  return runnable_kernels(isa).checksum(c.stream.data<std::uint32_t>(),
                                         c.lanes, c.widths.data(),
                                         c.deltas_per_lane);
}

std::uint64_t decode_pass(const DecodeBenchCase& c, DecodeVariant variant) {
  // Widths above kMaxSpecializedDecodeWidth take the generic kernel for
  // kSpecialized too, as the dispatcher would.
  const ChecksumFn fn =
      variant == DecodeVariant::kSpecialized &&
              c.width <= kMaxSpecializedDecodeWidth
          ? kChecksum[static_cast<std::size_t>(c.width)]
          : &detail::decode_lane_checksum<detail::kGenericWidth>;
  const std::uint32_t* stream = c.stream.data<std::uint32_t>();
  const std::size_t stride = c.stream.height();
  std::uint64_t sum = 0;
  for (std::size_t lane = 0; lane < c.lanes; ++lane)
    sum += fn(stream, stride, lane, c.deltas_per_lane, c.width);
  return sum;
}

namespace {

/// Self-timed throughput of one decode pass `pass` known to return `expect`:
/// doubling pass counts until a measurement spans min_seconds, reported in
/// giga-deltas per second.
template <typename PassFn>
double time_pass(std::size_t deltas, std::uint64_t expect, PassFn&& pass,
                 double min_seconds) {
  using clock = std::chrono::steady_clock;
  std::size_t passes = 1;
  for (;;) {
    const auto t0 = clock::now();
    std::uint64_t sink = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      sink += pass();
      // The pass only reads memory, so without this clobber the compiler
      // is entitled to hoist the call out of the loop and time nothing.
#if defined(__GNUC__) || defined(__clang__)
      asm volatile("" ::: "memory");
#endif
    }
    const double secs = std::chrono::duration<double>(clock::now() - t0).count();
    BRO_CHECK(sink == expect * passes); // keeps `sink` live
    if (secs >= min_seconds || passes > (std::size_t{1} << 30))
      return static_cast<double>(deltas) * static_cast<double>(passes) /
             (secs * 1e9);
    passes *= 2;
  }
}

double time_variant(const DecodeBenchCase& c, DecodeVariant variant,
                    double min_seconds) {
  // Parity first: all variants must agree before we trust the numbers.
  const std::uint64_t expect = decode_pass(c, DecodeVariant::kGeneric);
  BRO_CHECK_MSG(decode_pass(c, variant) == expect,
                "decode variants disagree at width " << c.width);
  return time_pass(
      decode_pass_deltas(c), expect, [&] { return decode_pass(c, variant); },
      min_seconds);
}

double time_simd(const DecodeBenchCase& c, SimdIsa isa, double min_seconds) {
  const std::uint64_t expect = decode_pass(c, DecodeVariant::kGeneric);
  BRO_CHECK_MSG(simd_decode_pass(c, isa) == expect,
                simd_isa_name(isa) << " decode disagrees with scalar at width "
                                   << c.width);
  return time_pass(
      decode_pass_deltas(c), expect, [&] { return simd_decode_pass(c, isa); },
      min_seconds);
}

} // namespace

std::vector<DecodeThroughputRow> decode_throughput_sweep(
    std::size_t lanes, std::size_t deltas_per_lane,
    double min_seconds_per_cell) {
  static constexpr int kWidths[] = {1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32};
  std::vector<DecodeThroughputRow> rows;
  rows.reserve(std::size(kWidths));
  for (const int w : kWidths) {
    const DecodeBenchCase c =
        make_decode_bench_case(w, lanes, deltas_per_lane,
                               /*seed=*/0x5eed0000u + static_cast<unsigned>(w));
    DecodeThroughputRow row;
    row.width = w;
    row.specialized_gdps =
        time_variant(c, DecodeVariant::kSpecialized, min_seconds_per_cell);
    row.generic_gdps =
        time_variant(c, DecodeVariant::kGeneric, min_seconds_per_cell);
    if (simd_isa_runnable(SimdIsa::kSse4))
      row.sse4_gdps = time_simd(c, SimdIsa::kSse4, min_seconds_per_cell);
    if (simd_isa_runnable(SimdIsa::kAvx2))
      row.avx2_gdps = time_simd(c, SimdIsa::kAvx2, min_seconds_per_cell);
    rows.push_back(row);
  }
  return rows;
}

namespace {

/// Scalar decode checksum over a span of BRO-ELL-layout index slices,
/// taking exactly the decode path PR 4's dispatch selected: the
/// width-specialized kernel when the slice's bit allocation is uniform and
/// within kMaxSpecializedDecodeWidth, the runtime-width generic decoder
/// otherwise. Span-based so BRO-BCSR — whose block-index slices are the
/// same BroEllSlice layout — times the identical decode machinery.
std::uint64_t scalar_slices_checksum(
    std::span<const core::BroEllSlice> slices) {
  std::uint64_t sum = 0;
  for (const auto& s : slices) {
    if (s.height <= 0 || s.num_col <= 0) continue;
    const std::uint32_t* stream = s.stream.data<std::uint32_t>();
    const std::size_t h = static_cast<std::size_t>(s.height);
    const std::size_t cols = static_cast<std::size_t>(s.num_col);
    const std::uint8_t* alloc = s.bit_alloc.data();
    int uniform = alloc[0];
    for (std::size_t c = 1; c < cols; ++c)
      if (alloc[c] != uniform) { uniform = -1; break; }
    if (uniform >= 0 && uniform <= kMaxSpecializedDecodeWidth) {
      const ChecksumFn fn = kChecksum[static_cast<std::size_t>(uniform)];
      for (std::size_t lane = 0; lane < h; ++lane)
        sum += fn(stream, h, lane, cols, uniform);
    } else {
      for (std::size_t lane = 0; lane < h; ++lane) {
        detail::LaneDecoder<detail::kGenericWidth> dec(stream, h, lane);
        for (std::size_t c = 0; c < cols; ++c) sum += dec.next(alloc[c]);
      }
    }
  }
  return sum;
}

std::uint64_t simd_slices_checksum(std::span<const core::BroEllSlice> slices,
                                   const SimdKernels& set) {
  std::uint64_t sum = 0;
  for (const auto& s : slices) {
    if (s.height <= 0 || s.num_col <= 0) continue;
    sum += set.checksum(s.stream.data<std::uint32_t>(),
                        static_cast<std::size_t>(s.height),
                        s.bit_alloc.data(),
                        static_cast<std::size_t>(s.num_col));
  }
  return sum;
}

std::uint64_t scalar_ell_checksum(const core::BroEll& a) {
  return scalar_slices_checksum(a.slices());
}

std::uint64_t simd_ell_checksum(const core::BroEll& a,
                                const SimdKernels& set) {
  return simd_slices_checksum(a.slices(), set);
}

} // namespace

std::vector<EllSuiteDecodeRow> ell_suite_decode_sweep(
    SimdIsa isa, double scale, double min_seconds_per_cell) {
  const SimdKernels& set = runnable_kernels(isa);

  std::vector<EllSuiteDecodeRow> rows;
  for (const auto& entry : sparse::suite_test_set(1)) {
    const auto csr = std::make_shared<const sparse::Csr>(
        sparse::generate_suite_matrix(entry, scale));
    const core::BroEll bro =
        core::BroEll::compress(csr, csr->max_row_length());

    EllSuiteDecodeRow row;
    row.matrix = entry.name;
    for (const auto& s : bro.slices())
      row.deltas += static_cast<std::size_t>(s.height) *
                    static_cast<std::size_t>(s.num_col);
    if (row.deltas == 0) continue;

    const std::uint64_t expect = scalar_ell_checksum(bro);
    BRO_CHECK_MSG(simd_ell_checksum(bro, set) == expect,
                  simd_isa_name(isa) << " decode disagrees with scalar on "
                                     << entry.name);

    // Alternate the two sides and keep each one's best throughput: the
    // CPU-time-minima protocol the repo's experiments use, so a scheduling
    // hiccup on one round cannot masquerade as a SIMD speedup.
    for (int round = 0; round < 3; ++round) {
      row.scalar_gdps = std::max(
          row.scalar_gdps,
          time_pass(row.deltas, expect,
                    [&] { return scalar_ell_checksum(bro); },
                    min_seconds_per_cell));
      row.simd_gdps = std::max(
          row.simd_gdps,
          time_pass(row.deltas, expect,
                    [&] { return simd_ell_checksum(bro, set); },
                    min_seconds_per_cell));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

std::uint64_t ans_suite_checksum(const core::BroAns& a) {
  std::uint64_t sum = 0;
  for (const auto& s : a.slices()) {
    if (s.height <= 0 || s.num_col <= 0) continue;
    sum += detail::ans_decode_checksum(a, s);
  }
  return sum;
}

} // namespace

std::vector<EntropySuiteRow> entropy_suite_sweep(
    SimdIsa isa, double scale, double min_seconds_per_cell) {
  std::vector<EntropySuiteRow> rows;
  for (const auto& entry : sparse::suite_test_set(1)) {
    const sparse::Csr csr = sparse::generate_suite_matrix(entry, scale);
    const sparse::Ell ell = sparse::csr_to_ell(csr);
    const core::BroEll fixed = core::BroEll::compress(csr, ell.width);
    const core::BroAns coded = core::BroAns::compress(ell);

    EntropySuiteRow row;
    row.matrix = entry.name;
    for (const auto& s : fixed.slices())
      row.deltas += static_cast<std::size_t>(s.height) *
                    static_cast<std::size_t>(s.num_col);
    if (row.deltas == 0) continue;
    row.ell_eta = core::make_savings(fixed.original_index_bytes(),
                                     fixed.compressed_index_bytes())
                      .eta();
    row.ans_eta = core::make_savings(coded.original_index_bytes(),
                                     coded.compressed_index_bytes())
                      .eta();

    // Both formats slice the same ELLPACK with the same default height, so
    // they decode the identical padded delta sequence — pin that bitwise
    // before trusting the relative timings.
    BRO_CHECK_MSG(ans_suite_checksum(coded) == scalar_ell_checksum(fixed),
                  "BRO-ANS decode disagrees with BRO-ELL on " << entry.name);

    // Time each format's dispatched SpMV slice kernels at `isa` — what
    // execute() actually runs with that ISA active — over the full matrix,
    // single-threaded. Both formats accumulate per row in column order over
    // the same padded delta sequence, so the output vectors must match
    // bitwise; fold y's bit pattern into the pass checksum to pin that
    // every pass.
    const auto ell_kernels = plan_bro_ell_kernels(fixed, isa);
    const BroAnsKernel ans_kernel = select_bro_ans_kernel(coded, isa);
    std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 + static_cast<value_t>(i % 16) * 0.0625;
    std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
    const auto fold_y = [&y] {
      std::uint64_t h = 0;
      for (const value_t v : y) h += std::bit_cast<std::uint64_t>(v);
      return h;
    };
    const auto ell_pass = [&] {
      const auto& slices = fixed.slices();
      for (std::size_t si = 0; si < slices.size(); ++si)
        ell_kernels[si].spmv(fixed, slices[si], x, y);
      return fold_y();
    };
    const auto ans_pass = [&] {
      const auto& slices = coded.slices();
      for (std::size_t si = 0; si < slices.size(); ++si)
        ans_kernel.spmv(coded, slices[si], x, y);
      return fold_y();
    };
    const std::uint64_t expect = ell_pass();
    BRO_CHECK_MSG(ans_pass() == expect,
                  "BRO-ANS SpMV differs bitwise from BRO-ELL on "
                      << entry.name);

    for (int round = 0; round < 3; ++round) {
      row.ell_gdps =
          std::max(row.ell_gdps, time_pass(row.deltas, expect, ell_pass,
                                           min_seconds_per_cell));
      row.ans_gdps =
          std::max(row.ans_gdps, time_pass(row.deltas, expect, ans_pass,
                                           min_seconds_per_cell));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<BlockSuiteRow> block_suite_sweep(SimdIsa isa, double scale,
                                             double min_seconds_per_cell) {
  std::vector<BlockSuiteRow> rows;
  for (const auto& entry : sparse::suite_test_set(3)) {
    const sparse::Csr csr = sparse::generate_suite_matrix(entry, scale);
    const core::BroEll ell = core::BroEll::compress(csr, csr.max_row_length());
    const core::BroBcsr bcsr = core::BroBcsr::compress(csr);

    BlockSuiteRow row;
    row.matrix = entry.name;
    row.rows = csr.rows;
    row.nnz = csr.nnz();
    row.shape_r = bcsr.block_r();
    row.shape_c = bcsr.block_c();
    row.fill = bcsr.value_slots() == 0
                   ? 0.0
                   : static_cast<double>(bcsr.nnz()) /
                         static_cast<double>(bcsr.value_slots());

    // Fill-adjusted etas: BRO-BCSR's compressed_index_bytes() already
    // charges its explicit-zero fill; charge BRO-ELL's value padding the
    // same way so the comparison prices total stored bytes, not just index
    // bits. Both originals are rows * max_row_len * 4, so the etas share a
    // baseline.
    std::size_t ell_slots = 0;
    for (const auto& s : ell.slices())
      ell_slots += static_cast<std::size_t>(s.height) *
                   static_cast<std::size_t>(s.num_col);
    const std::size_t ell_pad =
        ell_slots > csr.nnz() ? ell_slots - csr.nnz() : 0;
    row.ell_eta = core::make_savings(ell.original_index_bytes(),
                                     ell.compressed_index_bytes() +
                                         sizeof(value_t) * ell_pad)
                      .eta();
    row.bcsr_eta = core::make_savings(bcsr.original_index_bytes(),
                                      bcsr.compressed_index_bytes())
                       .eta();

    std::vector<value_t> x(static_cast<std::size_t>(csr.cols));
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 1.0 + static_cast<value_t>(i % 16) * 0.0625;
    std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
    const auto fold_y = [&y] {
      std::uint64_t h = 0;
      for (const value_t v : y) h += std::bit_cast<std::uint64_t>(v);
      return h;
    };

    const auto ell_kernels = plan_bro_ell_kernels(ell, isa);
    const auto ell_pass = [&] {
      const auto& slices = ell.slices();
      for (std::size_t si = 0; si < slices.size(); ++si)
        ell_kernels[si].spmv(ell, slices[si], x, y);
      return fold_y();
    };

    const BroBcsrKernel bcsr_scalar =
        select_bro_bcsr_kernel(bcsr, SimdIsa::kScalar);
    const BroBcsrKernel bcsr_kernel = select_bro_bcsr_kernel(bcsr, isa);
    const auto bcsr_pass_with = [&](const BroBcsrKernel& k) {
      for (std::size_t si = 0; si < bcsr.slices().size(); ++si)
        k.spmv(bcsr, si, x, y);
      return fold_y();
    };

    // Pin the tentpole contract before timing: the `isa` kernels must
    // reproduce the scalar 8-lane reference bit-for-bit.
    const std::uint64_t bcsr_expect = bcsr_pass_with(bcsr_scalar);
    BRO_CHECK_MSG(bcsr_pass_with(bcsr_kernel) == bcsr_expect,
                  simd_isa_name(isa)
                      << " BRO-BCSR SpMV differs bitwise from scalar on "
                      << entry.name);
    const std::uint64_t ell_expect = ell_pass();

    // Gate metric: index decode throughput through the dispatched decode
    // path at `isa`. BCSR block-index slices share BRO-ELL's layout, so
    // both sides run the identical decode machinery — the difference is
    // purely how many symbols each format stores per matrix row.
    const SimdKernels* set = simd_kernels(isa);
    const auto ell_decode = [&] {
      return set ? simd_slices_checksum(ell.slices(), *set)
                 : scalar_slices_checksum(ell.slices());
    };
    const auto bcsr_decode = [&] {
      return set ? simd_slices_checksum(bcsr.slices(), *set)
                 : scalar_slices_checksum(bcsr.slices());
    };
    const std::uint64_t ell_decode_expect =
        scalar_slices_checksum(ell.slices());
    const std::uint64_t bcsr_decode_expect =
        scalar_slices_checksum(bcsr.slices());
    BRO_CHECK_MSG(ell_decode() == ell_decode_expect,
                  simd_isa_name(isa)
                      << " BRO-ELL decode disagrees with scalar on "
                      << entry.name);
    BRO_CHECK_MSG(bcsr_decode() == bcsr_decode_expect,
                  simd_isa_name(isa)
                      << " BRO-BCSR decode disagrees with scalar on "
                      << entry.name);

    // Alternate sides and keep CPU-time minima (max throughput), the same
    // protocol as the other suite sweeps. time_pass reports giga-units/s,
    // so feed it matrix rows and rescale to rows/s.
    const auto nrows = static_cast<std::size_t>(csr.rows);
    for (int round = 0; round < 3; ++round) {
      row.ell_rps = std::max(
          row.ell_rps, 1e9 * time_pass(nrows, ell_decode_expect, ell_decode,
                                       min_seconds_per_cell));
      row.bcsr_rps = std::max(
          row.bcsr_rps, 1e9 * time_pass(nrows, bcsr_decode_expect,
                                        bcsr_decode, min_seconds_per_cell));
      row.ell_spmv_rps = std::max(
          row.ell_spmv_rps,
          1e9 * time_pass(nrows, ell_expect, ell_pass, min_seconds_per_cell));
      row.bcsr_spmv_rps = std::max(
          row.bcsr_spmv_rps,
          1e9 * time_pass(nrows, bcsr_expect,
                          [&] { return bcsr_pass_with(bcsr_kernel); },
                          min_seconds_per_cell));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

AnsDecodeBenchCase make_ans_decode_bench_case(index_t nrows,
                                              std::uint64_t seed) {
  sparse::GenSpec spec;
  spec.rows = nrows;
  spec.cols = nrows;
  spec.mu = 24.0;
  spec.sigma = 4.0;
  spec.aligned_blocks = true;
  spec.run = 4;
  spec.seed = seed;
  const sparse::Ell ell = sparse::csr_to_ell(sparse::generate(spec));
  AnsDecodeBenchCase c;
  c.coded = std::make_shared<const core::BroAns>(core::BroAns::compress(ell));
  for (const auto& s : c.coded->slices())
    c.deltas += static_cast<std::size_t>(s.height) *
                static_cast<std::size_t>(s.num_col);
  c.expect = ans_suite_checksum(*c.coded);
  return c;
}

std::uint64_t ans_decode_pass(const AnsDecodeBenchCase& c, SimdIsa isa) {
  const core::BroAns& a = *c.coded;
  const SimdKernels* t = simd_kernels(isa);
  const auto vec = t ? t->ans_checksum : nullptr;
  std::uint64_t sum = 0;
  for (const auto& s : a.slices()) {
    if (s.height <= 0 || s.num_col <= 0) continue;
    sum += vec ? vec(a, s) : detail::ans_decode_checksum(a, s);
  }
  return sum;
}

BcsrDecodeBenchCase make_bcsr_decode_bench_case(index_t panels,
                                                std::uint64_t seed) {
  const sparse::Csr csr = sparse::generate_truss2d(panels, /*stories=*/6,
                                                   seed);
  BcsrDecodeBenchCase c;
  c.coded =
      std::make_shared<const core::BroBcsr>(core::BroBcsr::compress(csr));
  for (const auto& s : c.coded->slices())
    c.deltas += static_cast<std::size_t>(s.height) *
                static_cast<std::size_t>(s.num_col);
  c.expect = scalar_slices_checksum(c.coded->slices());
  return c;
}

std::uint64_t bcsr_decode_pass(const BcsrDecodeBenchCase& c, SimdIsa isa) {
  const core::BroBcsr& a = *c.coded;
  if (isa == SimdIsa::kScalar) return scalar_slices_checksum(a.slices());
  const SimdKernels* t = simd_kernels(isa);
  BRO_CHECK_MSG(t != nullptr, "no SIMD kernel table for "
                                  << simd_isa_name(isa));
  return simd_slices_checksum(a.slices(), *t);
}

} // namespace bro::kernels
