// BRO-ANS tests: tANS table construction and row coder round-trips, the
// compress/decompress pipeline against its ELLPACK source, SpMV agreement
// with the CSR reference, host-kernel bitwise parity, serialization, and
// the space-savings claim against BRO-ELL on structured matrices.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <tuple>
#include <vector>

#include "bits/ans.h"
#include "check/validate.h"
#include "core/bro_ans.h"
#include "core/bro_ell.h"
#include "core/serialize.h"
#include "kernels/bro_decode_simd.h"
#include "kernels/cpu_features.h"
#include "kernels/native_spmv.h"
#include "sparse/convert.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "util/rng.h"

namespace bb = bro::bits;
namespace bc = bro::core;
namespace bk = bro::kernels;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;

namespace {

bs::Csr paper_matrix_csr() {
  bs::Coo coo;
  coo.rows = 4;
  coo.cols = 5;
  const index_t r[] = {0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3};
  const index_t c[] = {0, 2, 0, 1, 2, 3, 4, 1, 2, 4, 3, 4};
  const value_t v[] = {3, 2, 2, 6, 5, 4, 1, 1, 9, 7, 8, 3};
  for (int i = 0; i < 12; ++i) coo.push(r[i], c[i], v[i]);
  return bs::coo_to_csr(coo);
}

std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  bro::Rng rng(seed);
  std::vector<value_t> x(n);
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

void expect_spmv_matches(const bs::Csr& csr, const bc::BroAns& bro,
                         std::uint64_t seed = 99) {
  const auto x = random_vector(static_cast<std::size_t>(csr.cols), seed);
  std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
  std::vector<value_t> y_bro(static_cast<std::size_t>(csr.rows));
  bs::spmv_csr_reference(csr, x, y_ref);
  bro.spmv(x, y_bro);
  for (index_t r = 0; r < csr.rows; ++r)
    EXPECT_NEAR(y_bro[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)],
                1e-12 * (1.0 + std::abs(y_ref[static_cast<std::size_t>(r)])))
        << "row " << r;
}

std::vector<std::uint32_t> round_trip(const bb::AnsTable& table,
                                      const std::vector<std::uint32_t>& in) {
  bro::bits::BitString bits;
  std::vector<bb::AnsEncSym> scratch;
  bb::ans_encode_row(table, in, scratch, bits);
  return bb::ans_decode_row(table, bits, in.size());
}

/// Every ISA the parity sweeps can actually force on this host/binary:
/// scalar always, each SIMD set when compiled in and supported by the CPU.
std::vector<bk::SimdIsa> host_isas() {
  std::vector<bk::SimdIsa> isas = {bk::SimdIsa::kScalar};
  for (const bk::SimdIsa isa : {bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2})
    if (bk::simd_isa_runnable(isa)) isas.push_back(isa);
  return isas;
}

void expect_bitwise(const std::vector<value_t>& got,
                    const std::vector<value_t>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < want.size(); ++r)
    ASSERT_EQ(std::memcmp(&got[r], &want[r], sizeof(value_t)), 0)
        << what << " diverges at row " << r << ": " << got[r] << " vs "
        << want[r];
}

} // namespace

// ---- tANS table and row coder ----

TEST(AnsTable, NormalizedFrequenciesSumToTableSize) {
  std::vector<std::uint64_t> hist(bb::AnsTable::kNumClasses, 0);
  hist[0] = 1000;
  hist[1] = 500;
  hist[3] = 17;
  hist[12] = 1;
  for (int tl = bb::AnsTable::kMinTableLog; tl <= bb::AnsTable::kMaxTableLog;
       ++tl) {
    const auto table = bb::AnsTable::from_histogram(hist, tl);
    std::uint64_t sum = 0;
    for (const auto f : table.freqs()) sum += f;
    EXPECT_EQ(sum, table.size()) << "table_log " << tl;
    // Every present class keeps a non-zero slot, absent classes get none.
    for (std::size_t s = 0; s < hist.size(); ++s)
      EXPECT_EQ(table.freq(static_cast<int>(s)) > 0, hist[s] > 0)
          << "class " << s;
  }
}

TEST(AnsTable, EmptyHistogramStillBuilds) {
  const std::vector<std::uint64_t> hist(bb::AnsTable::kNumClasses, 0);
  const auto table = bb::AnsTable::from_histogram(hist, 8);
  // Degenerate model: all mass on the padding class so streams of nothing
  // but padding (empty slices) stay codable.
  EXPECT_EQ(table.freq(0), table.size());
  const std::vector<std::uint32_t> zeros(7, 0);
  EXPECT_EQ(round_trip(table, zeros), zeros);
}

TEST(AnsRowCoder, RoundTripsMixedDeltas) {
  std::vector<std::uint64_t> hist(bb::AnsTable::kNumClasses, 0);
  const std::vector<std::uint32_t> deltas = {1, 5, 0,  17, 1,    1,
                                             0, 3, 96, 2,  40000, 1};
  for (const auto d : deltas) ++hist[static_cast<std::size_t>(
      bb::ans_class_of(d))];
  const auto table = bb::AnsTable::from_histogram(hist, 9);
  EXPECT_EQ(round_trip(table, deltas), deltas);
}

TEST(AnsRowCoder, RoundTripsExtremeWidthsAndSkew) {
  // One near-max-width delta amid a sea of 1s: the normalized frequency of
  // the wide class is clamped to 1 slot, the worst case for state renorm.
  std::vector<std::uint32_t> deltas(300, 1);
  deltas[7] = 0x7fffffffu;  // 31-bit class
  deltas[100] = 0xffffffffu; // 32-bit class
  deltas[200] = 0;           // padding amid the row
  std::vector<std::uint64_t> hist(bb::AnsTable::kNumClasses, 0);
  for (const auto d : deltas)
    ++hist[static_cast<std::size_t>(bb::ans_class_of(d))];
  for (int tl : {bb::AnsTable::kMinTableLog, 10, bb::AnsTable::kMaxTableLog}) {
    const auto table = bb::AnsTable::from_histogram(hist, tl);
    EXPECT_EQ(round_trip(table, deltas), deltas) << "table_log " << tl;
  }
}

TEST(AnsRowCoder, SingleClassDegeneratesToNearZeroBits) {
  // All deltas in one class: the ANS state never renormalizes beyond the
  // mantissa bits, so the stream is ~mantissa-only. 512 deltas of class 1
  // (mantissa 0 bits) must fit in little more than the initial state.
  std::vector<std::uint64_t> hist(bb::AnsTable::kNumClasses, 0);
  hist[1] = 512;
  const auto table = bb::AnsTable::from_histogram(hist, 10);
  const std::vector<std::uint32_t> deltas(512, 1);
  bro::bits::BitString bits;
  std::vector<bb::AnsEncSym> scratch;
  bb::ans_encode_row(table, deltas, scratch, bits);
  EXPECT_LE(bits.size_bits(), 64u); // initial state + slack, not 512 bits
  EXPECT_EQ(bb::ans_decode_row(table, bits, deltas.size()), deltas);
}

// ---- compression pipeline ----

TEST(BroAns, PaperExampleRoundTrip) {
  const bs::Csr csr = paper_matrix_csr();
  const bs::Ell ell = bs::csr_to_ell(csr);
  bc::BroAnsOptions opts;
  opts.slice_height = 2;
  const bc::BroAns bro = bc::BroAns::compress(ell, opts);
  EXPECT_EQ(bro.rows(), 4);
  EXPECT_EQ(bro.cols(), 5);
  EXPECT_EQ(bro.slices().size(), 2u);
  const bs::Ell out = bro.decompress();
  EXPECT_EQ(out.col_idx, ell.col_idx);
  EXPECT_EQ(out.vals, ell.vals);
  expect_spmv_matches(csr, bro);
}

TEST(BroAns, EmptyAndSingleRowMatrices) {
  bs::Csr empty;
  empty.rows = 3;
  empty.cols = 4;
  empty.row_ptr.assign(4, 0);
  const bc::BroAns bro = bc::BroAns::compress(bs::csr_to_ell(empty));
  EXPECT_EQ(bro.width(), 0);
  std::vector<value_t> y(3, 42);
  bro.spmv(std::vector<value_t>(4, 1.0), y);
  for (const auto v : y) EXPECT_EQ(v, 0);

  bs::Coo coo;
  coo.rows = 1;
  coo.cols = 6;
  coo.push(0, 5, 2.5);
  const bs::Csr one = bs::coo_to_csr(coo);
  const bc::BroAns bro1 = bc::BroAns::compress(bs::csr_to_ell(one));
  expect_spmv_matches(one, bro1);
}

class BroAnsProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(BroAnsProperty, RoundTripAndSpmv) {
  const auto [h, sym_len, table_log, kind] = GetParam();

  bs::Csr csr;
  switch (kind) {
    case 0: csr = bs::generate_poisson2d(20, 21); break;
    case 1: {
      bs::GenSpec spec;
      spec.rows = 777;
      spec.cols = 900;
      spec.mu = 12;
      spec.sigma = 6;
      spec.local_prob = 0.5;
      spec.seed = 5;
      csr = bs::generate(spec);
      break;
    }
    case 2: {
      bs::GenSpec spec;
      spec.rows = 300;
      spec.cols = 64;
      spec.mu = 30;
      spec.sigma = 15;
      spec.local_prob = 0.0; // dense-ish rows, wild deltas
      spec.seed = 6;
      csr = bs::generate(spec);
      break;
    }
    case 3: csr = bs::generate_dense(65, 33); break;
    default: FAIL();
  }

  const bs::Ell ell = bs::csr_to_ell(csr);
  bc::BroAnsOptions opts;
  opts.slice_height = h;
  opts.sym_len = sym_len;
  opts.table_log = table_log;
  const bc::BroAns bro = bc::BroAns::compress(ell, opts);

  const bs::Ell out = bro.decompress();
  ASSERT_EQ(out.col_idx, ell.col_idx);
  ASSERT_EQ(out.vals, ell.vals);
  expect_spmv_matches(csr, bro);
  EXPECT_TRUE(bro::check::validate_bro_ans(bro, &csr).empty());

  // Host kernels decode 32-bit symbols only; at 64 they refuse the
  // representation. At 32, multi-chain and (when available) SIMD dispatch
  // must be bitwise identical to the single-chain sequential baseline.
  if (sym_len != 32) {
    EXPECT_THROW(bk::select_bro_ans_kernel(bro, bk::active_simd_isa()),
                 std::runtime_error);
    return;
  }
  const auto x = random_vector(static_cast<std::size_t>(csr.cols), 31);
  std::vector<value_t> y_gen(static_cast<std::size_t>(csr.rows));
  std::vector<value_t> y_plan(static_cast<std::size_t>(csr.rows));
  bk::native_spmv_bro_ans(bro, bk::generic_bro_ans_kernel(), x, y_gen);
  bk::native_spmv_bro_ans(
      bro, bk::select_bro_ans_kernel(bro, bk::active_simd_isa()), x, y_plan);
  EXPECT_EQ(y_gen, y_plan);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BroAnsProperty,
    ::testing::Combine(::testing::Values(2, 64, 256),
                       ::testing::Values(32, 64),
                       ::testing::Values(7, 10),
                       ::testing::Values(0, 1, 2, 3)));

// ---- serialization ----

TEST(BroAnsSerialize, StreamRoundTripIsExact) {
  const bs::Csr csr = bs::generate_poisson2d(17, 19);
  bc::BroAnsOptions opts;
  opts.slice_height = 16;
  const bc::BroAns bro = bc::BroAns::compress(bs::csr_to_ell(csr), opts);

  std::stringstream buf;
  bc::write_bro_ans(buf, bro);
  bc::Format fmt{};
  const bs::Csr back = bc::read_bro_to_csr(buf, &fmt);
  EXPECT_EQ(fmt, bc::Format::kBroAns);
  EXPECT_EQ(back.row_ptr, csr.row_ptr);
  EXPECT_EQ(back.col_idx, csr.col_idx);
  EXPECT_EQ(back.vals, csr.vals);

  // Recompressed from the loaded CSR, the format is the one written.
  const bc::BroAns again = bc::BroAns::compress(bs::csr_to_ell(back), opts);
  EXPECT_EQ(again.table().freqs(), bro.table().freqs());
  EXPECT_EQ(again.vals(), bro.vals());
  expect_spmv_matches(csr, again);
  EXPECT_TRUE(bro::check::validate_bro_ans(again, &csr).empty());
}

TEST(BroAnsSerialize, RejectsCorruptStream) {
  const bs::Csr csr = bs::generate_poisson2d(5, 5);
  const bc::BroAns bro = bc::BroAns::compress(bs::csr_to_ell(csr));
  std::stringstream buf;
  bc::write_bro_ans(buf, bro);
  std::string bytes = buf.str();
  bytes[0] ^= 0x5a; // clobber the magic
  std::stringstream bad(bytes);
  EXPECT_THROW(bc::read_bro_to_csr(bad), std::runtime_error);
}

// ---- space savings ----

TEST(BroAnsSavings, BeatsFixedWidthOnStructuredMatrices) {
  // Aligned-block FEM-style structure: per-column deltas concentrate in a
  // couple of bit-width classes, exactly where entropy coding pulls ahead
  // of BRO-ELL's per-column fixed widths.
  bs::GenSpec spec;
  spec.rows = 2000;
  spec.cols = 2000;
  spec.mu = 14;
  spec.sigma = 3;
  spec.aligned_blocks = true;
  spec.run = 4;
  spec.seed = 11;
  const bs::Csr csr = bs::generate(spec);
  const bs::Ell ell = bs::csr_to_ell(csr);
  const bc::BroAns ans = bc::BroAns::compress(ell);
  const bc::BroEll ref = bc::BroEll::compress(ell);
  EXPECT_LT(ans.compressed_index_bytes(), ref.compressed_index_bytes());
  EXPECT_LT(ans.compressed_index_bytes(), ans.original_index_bytes());
  EXPECT_LE(ans.compressed_index_bytes(), ans.resident_index_bytes());
}

// ---- SIMD dispatch parity ----

/// Selection reads the ISA's SimdKernels table: only AVX2 carries a BRO-ANS
/// kernel. Every other request — SSE4 included — gets the scalar 4-chain
/// kernel, tagged kScalar. Selection only reads the table, so every ISA is
/// checked whether or not this host can run it.
TEST(AnsSimdParity, SelectionTagsAndScalarFallback) {
  const auto bro =
      bc::BroAns::compress(bs::csr_to_ell(bs::generate_poisson2d(12, 13)));
  const bk::BroAnsKernel scalar =
      bk::select_bro_ans_kernel(bro, bk::SimdIsa::kScalar);
  ASSERT_NE(scalar.spmv, nullptr);
  for (const bk::SimdIsa isa :
       {bk::SimdIsa::kScalar, bk::SimdIsa::kSse4, bk::SimdIsa::kAvx2}) {
    const bk::BroAnsKernel k = bk::select_bro_ans_kernel(bro, isa);
    const bool vec =
        isa == bk::SimdIsa::kAvx2 && bk::simd_isa_compiled(isa);
    EXPECT_EQ(k.isa, vec ? isa : bk::SimdIsa::kScalar)
        << bk::simd_isa_name(isa);
    EXPECT_EQ(k.spmv, vec ? bk::simd_kernels(isa)->ans_spmv : scalar.spmv)
        << bk::simd_isa_name(isa);
  }
}

/// The adversarial battery swept across every host ISA and the table_log
/// extremes: the driver over the selected kernel must reproduce it over the
/// single-chain sequential decoder bit for bit. Compressions
/// are ISA-independent, so each config is built once and only the kernel
/// calls sweep the forced ISA — the shape of test_decode_dispatch's
/// AdversarialParity.
TEST(AnsSimdParity, AdversarialSweepAcrossIsasAndTableLogs) {
  const auto isas = host_isas();
  for (auto& adversarial : bs::adversarial_suite(5)) {
    const bs::Csr& csr = adversarial.csr;
    if (csr.nnz() == 0 || csr.rows == 0) continue;
    // ELLPACK blows up on spike shapes; gate like the registry does.
    const double expand = static_cast<double>(csr.rows) *
                          static_cast<double>(csr.max_row_length());
    if (expand > 3.0 * static_cast<double>(csr.nnz())) continue;
    const bs::Ell ell = bs::csr_to_ell(csr);
    const auto x = random_vector(static_cast<std::size_t>(csr.cols), 31);
    std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
    std::vector<value_t> y_gen(static_cast<std::size_t>(csr.rows));

    for (const int table_log :
         {bb::AnsTable::kMinTableLog, 10, bb::AnsTable::kMaxTableLog}) {
      bc::BroAnsOptions opts;
      opts.table_log = table_log;
      opts.slice_height = 64; // several full lane groups + partial tails
      const bc::BroAns bro = bc::BroAns::compress(ell, opts);
      bk::native_spmv_bro_ans(bro, bk::generic_bro_ans_kernel(), x, y_gen);

      for (const bk::SimdIsa isa : isas) {
        bk::native_spmv_bro_ans(bro, bk::select_bro_ans_kernel(bro, isa), x,
                                y);
        expect_bitwise(y, y_gen, adversarial.name.c_str());
      }
    }
  }
}

// ---- 64-bit streams ----

/// Wide deltas at the largest table make per-symbol reads of up to
/// mantissa + renorm ~ 34 bits, so consecutive symbols drain a 64-bit
/// window fast enough that nearly every read splices bits across a slot
/// boundary. The core's sequential decoder must round-trip such a stream
/// exactly; host kernels refuse it (they decode 32-bit symbols only).
TEST(BroAnsDecode, EagerRefillSpliceAtSymLen64) {
  bs::Coo coo;
  coo.rows = 24; // three lane groups, every chain hits the wide deltas
  coo.cols = 1 << 20;
  bro::Rng rng(0xeefe11);
  for (index_t r = 0; r < coo.rows; ++r) {
    index_t col = static_cast<index_t>(rng.next() % 64);
    for (int j = 0; j < 48 && col < coo.cols; ++j) {
      coo.push(r, col, rng.uniform() * 2 - 1);
      // Alternate near-maximal jumps (19-bit mantissas) with tiny local
      // steps so renorm counts swing across the whole [0, table_log] range.
      const index_t jump = (j % 2 == 0)
                               ? (coo.cols >> 6) +
                                     static_cast<index_t>(rng.next() % 1024)
                               : 1 + static_cast<index_t>(rng.next() % 3);
      col += jump;
    }
  }
  const bs::Csr csr = bs::coo_to_csr(coo);
  const bs::Ell ell = bs::csr_to_ell(csr);

  bc::BroAnsOptions opts;
  opts.sym_len = 64;
  opts.table_log = bb::AnsTable::kMaxTableLog;
  opts.slice_height = 8;
  const bc::BroAns bro = bc::BroAns::compress(ell, opts);

  const bs::Ell out = bro.decompress();
  ASSERT_EQ(out.col_idx, ell.col_idx);
  ASSERT_EQ(out.vals, ell.vals);
  EXPECT_TRUE(bro::check::validate_bro_ans(bro, &csr).empty());

  expect_spmv_matches(csr, bro, 7);
  std::vector<value_t> y(static_cast<std::size_t>(csr.rows));
  EXPECT_THROW(bk::native_spmv_bro_ans(
                   bro, bk::generic_bro_ans_kernel(),
                   random_vector(static_cast<std::size_t>(csr.cols), 7), y),
               std::runtime_error);
}

/// The driver requires x and y to match the matrix shape exactly, like
/// every other driver: a longer y would otherwise leave its tail unwritten.
TEST(BroAnsDecode, DriverRejectsMismatchedVectors) {
  const bs::Csr csr = bs::generate_poisson2d(9, 7);
  const auto bro = bc::BroAns::compress(bs::csr_to_ell(csr));
  const bk::BroAnsKernel k =
      bk::select_bro_ans_kernel(bro, bk::active_simd_isa());
  const auto cols = static_cast<std::size_t>(csr.cols);
  const auto rows = static_cast<std::size_t>(csr.rows);
  std::vector<value_t> y(rows);
  bk::native_spmv_bro_ans(bro, k, random_vector(cols, 3), y);
  std::vector<value_t> y_long(rows + 1);
  EXPECT_THROW(bk::native_spmv_bro_ans(bro, k, random_vector(cols, 3), y_long),
               std::runtime_error);
  EXPECT_THROW(bk::native_spmv_bro_ans(bro, k, random_vector(cols + 1, 3), y),
               std::runtime_error);
}
