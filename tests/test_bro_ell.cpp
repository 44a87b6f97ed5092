// BRO-ELL tests: the Fig. 1 pipeline on the paper's example matrix,
// compress/decompress round-trips, SpMV agreement with the CSR reference,
// parameterized sweeps over slice height / sym_len / structure, and the
// slice packer of every BRO format checked field by field against the
// reference packer (per-row BitString + MuxedStream::interleave).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bits/ans.h"
#include "bits/bitwidth.h"
#include "bits/delta.h"
#include "core/bro_ans.h"
#include "core/bro_bcsr.h"
#include "core/bro_ell.h"
#include "core/bro_hyb.h"
#include "core/serialize.h"
#include "sparse/convert.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "util/rng.h"

namespace bb = bro::bits;
namespace bc = bro::core;
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

void expect_spmv_matches(const bs::Csr& csr, const bc::BroEll& bro,
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

} // namespace

TEST(BroEll, PaperExampleSliceStructure) {
  // h = 2 as in Fig. 1: two slices of two rows each.
  const bs::Ell ell = bs::csr_to_ell(paper_matrix_csr());
  bc::BroEllOptions opts;
  opts.slice_height = 2;
  const bc::BroEll bro = bc::BroEll::compress(ell, opts);

  ASSERT_EQ(bro.slices().size(), 2u);
  const auto& s0 = bro.slices()[0];
  const auto& s1 = bro.slices()[1];
  // Slice 0 holds rows {0,1}: lengths 2 and 5 -> num_col = 5.
  EXPECT_EQ(s0.num_col, 5);
  // Slice 1 holds rows {2,3}: lengths 3 and 2 -> num_col = 3.
  EXPECT_EQ(s1.num_col, 3);

  // Fig. 1 delta table for slice 0 (1-based gaps): row0 = [1,2,0,0,0],
  // row1 = [1,1,1,1,1] -> per-column max bit widths [1,2,1,1,1].
  EXPECT_EQ(s0.bit_alloc,
            (std::vector<std::uint8_t>{1, 2, 1, 1, 1}));
  // Slice 1: row2 = [2,1,2], row3 = [4,1,0] -> widths [3,1,2].
  EXPECT_EQ(s1.bit_alloc, (std::vector<std::uint8_t>{3, 1, 2}));
}

TEST(BroEll, PaperExampleRoundTrip) {
  const bs::Csr csr = paper_matrix_csr();
  const bs::Ell ell = bs::csr_to_ell(csr);
  for (const int h : {1, 2, 3, 4, 256}) {
    bc::BroEllOptions opts;
    opts.slice_height = h;
    const bc::BroEll bro = bc::BroEll::compress(ell, opts);
    const bs::Ell back = bro.decompress();
    EXPECT_EQ(back.col_idx, ell.col_idx) << "h=" << h;
    EXPECT_EQ(back.vals, ell.vals) << "h=" << h;
  }
}

TEST(BroEll, PaperExampleSpmv) {
  const bs::Csr csr = paper_matrix_csr();
  bc::BroEllOptions opts;
  opts.slice_height = 2;
  const bc::BroEll bro = bc::BroEll::compress(bs::csr_to_ell(csr), opts);
  const std::vector<value_t> x = {1, 2, 3, 4, 5};
  std::vector<value_t> y(4);
  bro.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 9);
  EXPECT_DOUBLE_EQ(y[1], 50);
  EXPECT_DOUBLE_EQ(y[2], 64);
  EXPECT_DOUBLE_EQ(y[3], 47);
}

TEST(BroEll, DecodeRowMatchesEll) {
  const bs::Csr csr = bs::generate_poisson2d(13, 17);
  const bs::Ell ell = bs::csr_to_ell(csr);
  const bc::BroEll bro = bc::BroEll::compress(ell);
  for (index_t r = 0; r < csr.rows; ++r) {
    const auto cols = bro.decode_row(r);
    ASSERT_EQ(static_cast<index_t>(cols.size()), csr.row_length(r));
    const auto expect = csr.row_cols(r);
    for (std::size_t j = 0; j < cols.size(); ++j) EXPECT_EQ(cols[j], expect[j]);
  }
}

TEST(BroEll, CompressionShrinksIndexData) {
  const bs::Csr csr = bs::generate_poisson2d(64, 64);
  const bc::BroEll bro = bc::BroEll::compress(bs::csr_to_ell(csr));
  EXPECT_LT(bro.compressed_index_bytes(), bro.original_index_bytes() / 2);
}

TEST(BroEll, LastColumnBitWidthCanUseFullRange) {
  // A delta of nearly 2^31 must survive the packer (32-bit width values).
  bs::Coo coo;
  coo.rows = 1;
  coo.cols = 2'000'000'000;
  coo.push(0, 0, 1.0);
  coo.push(0, 1'999'999'999, 2.0);
  const bs::Ell ell = bs::csr_to_ell(bs::coo_to_csr(coo));
  const bc::BroEll bro = bc::BroEll::compress(ell);
  EXPECT_EQ(bro.decode_row(0), (std::vector<index_t>{0, 1'999'999'999}));
}

TEST(BroEll, EmptyMatrix) {
  bs::Ell ell;
  ell.rows = 0;
  ell.cols = 0;
  ell.width = 0;
  const bc::BroEll bro = bc::BroEll::compress(ell);
  EXPECT_TRUE(bro.slices().empty());
  EXPECT_EQ(bro.compressed_index_bytes(), 0u);
}

TEST(BroEll, MatrixWithEmptyRows) {
  bs::Coo coo;
  coo.rows = 600; // spans three slices of 256 with many all-zero rows
  coo.cols = 600;
  for (index_t r = 0; r < 600; r += 7) coo.push(r, r, 1.0);
  const bs::Csr csr = bs::coo_to_csr(coo);
  const bc::BroEll bro = bc::BroEll::compress(bs::csr_to_ell(csr));
  expect_spmv_matches(csr, bro);
}

TEST(BroEll, EmptySliceAtTail) {
  // Rows 256..511 have no entries at all: slice 1 has num_col = 0.
  bs::Coo coo;
  coo.rows = 512;
  coo.cols = 512;
  for (index_t r = 0; r < 256; ++r) coo.push(r, r, 1.0);
  const bs::Csr csr = bs::coo_to_csr(coo);
  const bc::BroEll bro = bc::BroEll::compress(bs::csr_to_ell(csr));
  ASSERT_EQ(bro.slices().size(), 2u);
  EXPECT_EQ(bro.slices()[1].num_col, 0);
  expect_spmv_matches(csr, bro);
}

TEST(BroEll, RejectsBadOptions) {
  const bs::Ell ell = bs::csr_to_ell(paper_matrix_csr());
  bc::BroEllOptions opts;
  opts.sym_len = 16;
  EXPECT_THROW(bc::BroEll::compress(ell, opts), std::runtime_error);
  opts.sym_len = 32;
  opts.slice_height = 0;
  EXPECT_THROW(bc::BroEll::compress(ell, opts), std::runtime_error);
}

// ---- parameterized property sweep: (slice_height, sym_len, matrix kind) ----

class BroEllProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BroEllProperty, RoundTripAndSpmv) {
  const auto [h, sym_len, kind] = GetParam();

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
  bc::BroEllOptions opts;
  opts.slice_height = h;
  opts.sym_len = sym_len;
  const bc::BroEll bro = bc::BroEll::compress(ell, opts);

  // Round trip is exact.
  const bs::Ell back = bro.decompress();
  EXPECT_EQ(back.col_idx, ell.col_idx);

  // SpMV agrees with the reference.
  expect_spmv_matches(csr, bro, 17);

  // Accounting invariant: compressed stream bits match the bit allocation.
  for (const auto& s : bro.slices()) {
    std::size_t row_bits = 0;
    for (const auto b : s.bit_alloc) row_bits += b;
    row_bits += static_cast<std::size_t>(s.pad_bits);
    if (s.num_col > 0) {
      EXPECT_EQ(row_bits % static_cast<std::size_t>(sym_len), 0u);
      EXPECT_EQ(s.stream.symbols_per_row(),
                row_bits / static_cast<std::size_t>(sym_len));
      EXPECT_EQ(s.stream.height(), static_cast<std::size_t>(s.height));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BroEllProperty,
    ::testing::Combine(::testing::Values(1, 32, 256, 1000), // slice height
                       ::testing::Values(32, 64),           // sym_len
                       ::testing::Values(0, 1, 2, 3)));     // matrix kind

// ---- reference packer: the slice packer checked against the original ----

namespace {

using IndexRows = std::vector<std::vector<index_t>>;

/// The original slice packer, kept as the oracle: one delta vector and one
/// BitString per row, per-column maximum widths, then interleave.
bc::BroEllSlice reference_slice(index_t first_row, const IndexRows& rows,
                                int sym_len, int forced_bit_width) {
  bc::BroEllSlice slice;
  slice.first_row = first_row;
  slice.height = static_cast<index_t>(rows.size());
  std::vector<std::vector<std::uint32_t>> deltas;
  for (const auto& r : rows) {
    deltas.push_back(bb::delta_encode_row(r));
    slice.num_col = std::max(slice.num_col, static_cast<index_t>(r.size()));
  }
  for (index_t c = 0; c < slice.num_col; ++c) {
    int b = std::max(1, forced_bit_width);
    for (const auto& d : deltas)
      if (static_cast<std::size_t>(c) < d.size())
        b = std::max(b, bb::bit_width_of(d[static_cast<std::size_t>(c)]));
    slice.bit_alloc.push_back(static_cast<std::uint8_t>(b));
  }
  std::vector<bb::BitString> streams(rows.size());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    for (index_t c = 0; c < slice.num_col; ++c) {
      const auto j = static_cast<std::size_t>(c);
      streams[t].append(j < deltas[t].size() ? deltas[t][j] : bb::kInvalidDelta,
                        slice.bit_alloc[j]);
    }
    slice.pad_bits = streams[t].pad_to_multiple(sym_len);
  }
  slice.stream = slice.num_col > 0
                     ? bb::MuxedStream::interleave(streams, sym_len)
                     : bb::MuxedStream(sym_len, rows.size(), 0);
  return slice;
}

std::vector<bc::BroEllSlice> reference_slices(const IndexRows& rows, int h,
                                              int sym_len, int forced) {
  std::vector<bc::BroEllSlice> out;
  for (std::size_t first = 0; first < rows.size(); first += h) {
    const IndexRows slice_rows(
        rows.begin() + static_cast<std::ptrdiff_t>(first),
        rows.begin() + static_cast<std::ptrdiff_t>(
                           std::min(rows.size(), first + h)));
    out.push_back(reference_slice(static_cast<index_t>(first), slice_rows,
                                  sym_len, forced));
  }
  return out;
}

/// Each row's leading columns up to its first padding slot.
IndexRows ell_rows(const bs::Ell& ell) {
  IndexRows rows(static_cast<std::size_t>(ell.rows));
  for (index_t r = 0; r < ell.rows; ++r)
    for (index_t j = 0; j < ell.width && ell.col_at(r, j) != bs::kPad; ++j)
      rows[static_cast<std::size_t>(r)].push_back(ell.col_at(r, j));
  return rows;
}

/// The block-column list of every block row, from a set per block row
/// (independent of the library's cursor merge).
IndexRows block_rows(const bs::Csr& csr, int br, int bc) {
  IndexRows rows(static_cast<std::size_t>((csr.rows + br - 1) / br));
  for (std::size_t b = 0; b < rows.size(); ++b) {
    std::set<index_t> cols;
    for (index_t r = static_cast<index_t>(b) * br;
         r < std::min<index_t>(csr.rows, static_cast<index_t>(b + 1) * br); ++r)
      for (const index_t c : csr.row_cols(r)) cols.insert(c / bc);
    rows[b].assign(cols.begin(), cols.end());
  }
  return rows;
}

void expect_same_stream(const bb::MuxedStream& got, const bb::MuxedStream& want,
                        const std::string& ctx) {
  ASSERT_EQ(got.sym_len(), want.sym_len()) << ctx;
  ASSERT_EQ(got.height(), want.height()) << ctx;
  ASSERT_EQ(got.symbols_per_row(), want.symbols_per_row()) << ctx;
  for (std::size_t i = 0; i < want.total_symbols(); ++i)
    ASSERT_EQ(got[i], want[i]) << ctx << " slot " << i;
}

void expect_same_slices(const std::vector<bc::BroEllSlice>& got,
                        const std::vector<bc::BroEllSlice>& want,
                        const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t s = 0; s < want.size(); ++s) {
    const std::string at = ctx + " slice " + std::to_string(s);
    EXPECT_EQ(got[s].first_row, want[s].first_row) << at;
    EXPECT_EQ(got[s].height, want[s].height) << at;
    EXPECT_EQ(got[s].num_col, want[s].num_col) << at;
    EXPECT_EQ(got[s].bit_alloc, want[s].bit_alloc) << at;
    EXPECT_EQ(got[s].pad_bits, want[s].pad_bits) << at;
    expect_same_stream(got[s].stream, want[s].stream, at);
  }
}

/// The original BRO-ANS coder over ELLPACK rows: one class histogram, then
/// per lane group one BitString per row padded to the group's longest.
void expect_ans_matches_reference(const bc::BroAns& got, const bs::Ell& ell,
                                  const bc::BroAnsOptions& opts,
                                  const std::string& ctx) {
  const IndexRows rows = ell_rows(ell);
  const int h = opts.slice_height;
  std::vector<std::vector<std::uint32_t>> deltas(rows.size());
  std::vector<std::uint64_t> histogram(bb::AnsTable::kNumClasses, 0);
  for (std::size_t first = 0; first < rows.size(); first += h) {
    const std::size_t end = std::min(rows.size(), first + h);
    std::size_t num_col = 0;
    for (std::size_t r = first; r < end; ++r)
      num_col = std::max(num_col, rows[r].size());
    for (std::size_t r = first; r < end; ++r) {
      deltas[r] = bb::delta_encode_row(rows[r]);
      deltas[r].resize(num_col, bb::kInvalidDelta);
      for (const std::uint32_t d : deltas[r])
        ++histogram[static_cast<std::size_t>(bb::ans_class_of(d))];
    }
  }
  const auto table = bb::AnsTable::from_histogram(histogram, opts.table_log);
  ASSERT_EQ(got.table().freqs(), table.freqs()) << ctx;
  ASSERT_EQ(got.slices().size(), (rows.size() + h - 1) / h) << ctx;
  std::vector<bb::AnsEncSym> scratch;
  for (const bc::BroAnsSlice& slice : got.slices()) {
    for (index_t g = 0; g < bc::ans_num_groups(slice.height); ++g) {
      const index_t gw = bc::ans_group_width(slice.height, g);
      std::vector<bb::BitString> streams(static_cast<std::size_t>(gw));
      std::size_t max_bits = 0;
      for (index_t j = 0; j < gw; ++j) {
        const index_t t = g * bc::kAnsLaneGroup + j;
        const auto& d = deltas[static_cast<std::size_t>(slice.first_row + t)];
        ASSERT_EQ(d.size(), static_cast<std::size_t>(slice.num_col)) << ctx;
        if (d.empty()) continue;
        EXPECT_EQ(slice.init_states[static_cast<std::size_t>(t)],
                  bb::ans_encode_row_split(table, d, scratch,
                                           streams[static_cast<std::size_t>(j)]))
            << ctx;
        max_bits = std::max(max_bits, streams[static_cast<std::size_t>(j)].size_bits());
      }
      for (auto& bs : streams)
        while (bs.size_bits() < max_bits) bs.append(0, 1);
      for (auto& bs : streams) bs.pad_to_multiple(opts.sym_len);
      expect_same_stream(
          slice.groups[static_cast<std::size_t>(g)],
          slice.num_col > 0
              ? bb::MuxedStream::interleave(streams, opts.sym_len)
              : bb::MuxedStream(opts.sym_len, static_cast<std::size_t>(gw), 0),
          ctx + " group " + std::to_string(g));
    }
  }
}

std::string coo_bytes(const bc::BroCoo& coo) {
  std::ostringstream out(std::ios::binary);
  bc::write_bro_coo(out, coo);
  return out.str();
}

/// Bitwise equality of two value arrays (+0.0 and -0.0 differ).
template <typename A, typename B>
bool same_bits(const A& a, const B& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0);
}

/// The adversarial battery plus the Test Set 1 stand-ins, scaled down.
std::vector<bs::AdversarialCase> packer_cases() {
  std::vector<bs::AdversarialCase> out = bs::adversarial_suite(3);
  for (const auto& e : bs::suite_test_set(1))
    out.push_back({e.name, bs::generate_suite_matrix(e, 0.01)});
  return out;
}

} // namespace

TEST(SlicePacker, EveryFormatMatchesTheReferencePacker) {
  for (const auto& c : packer_cases()) {
    const bs::Ell ell = bs::csr_to_ell(c.csr);
    for (const int h : {1, 7, 256}) {
      for (const int sym_len : {32, 64}) {
        for (const int forced : {0, 20}) {
          const std::string ctx = c.name + " h=" + std::to_string(h) +
                                  " sym=" + std::to_string(sym_len) +
                                  " forced=" + std::to_string(forced);
          bc::BroEllOptions eo;
          eo.slice_height = h;
          eo.sym_len = sym_len;
          eo.forced_bit_width = forced;

          const auto bro = bc::BroEll::compress(c.csr, ell.width, eo);
          expect_same_slices(bro.slices(),
                             reference_slices(ell_rows(ell), h, sym_len, forced),
                             "BRO-ELL " + ctx);
          EXPECT_TRUE(same_bits(bc::ell_values(bro.csr(), bro.width()), ell.vals))
              << ctx;

          for (const index_t width : {index_t{-1}, index_t{3}}) {
            bc::BroHybOptions ho;
            ho.ell = eo;
            ho.width_override = width;
            const auto hyb = bc::BroHyb::compress(c.csr, ho);
            const bs::Hyb ref = bs::csr_to_hyb(c.csr, width);
            const std::string hctx =
                "BRO-HYB width=" + std::to_string(width) + " " + ctx;
            expect_same_slices(
                hyb.ell_part().slices(),
                reference_slices(ell_rows(ref.ell), h, sym_len, forced), hctx);
            EXPECT_TRUE(same_bits(bc::ell_values(hyb.ell_part().csr(),
                                                 hyb.split_width()),
                                  ref.ell.vals))
                << hctx;
            EXPECT_EQ(hyb.split_width(), ref.ell.width) << hctx;
            EXPECT_EQ(coo_bytes(hyb.coo_part()),
                      coo_bytes(bc::BroCoo::compress(ref.coo, ho.coo)))
                << hctx;
          }
          if (forced != 0) continue; // ANS and BCSR have no width floor

          bc::BroAnsOptions ao;
          ao.slice_height = h;
          ao.sym_len = sym_len;
          const auto ans = bc::BroAns::compress(c.csr, ell.width, ao);
          expect_ans_matches_reference(ans, ell, ao, "BRO-ANS " + ctx);
          EXPECT_TRUE(same_bits(ans.vals(), ell.vals)) << ctx;

          bc::BroBcsrOptions bo;
          bo.slice_height = h;
          bo.sym_len = sym_len;
          const auto bcsr = bc::BroBcsr::compress(c.csr, bo);
          expect_same_slices(
              bcsr.slices(),
              reference_slices(block_rows(c.csr, bcsr.block_r(), bcsr.block_c()),
                               h, sym_len, 0),
              "BRO-BCSR " + ctx);
        }
      }
    }
  }
}

TEST(SlicePacker, EllAdapterEqualsCsrSource) {
  const bs::Csr csr = bs::generate_poisson2d(23, 19);
  const bs::Ell ell = bs::csr_to_ell(csr);
  const auto a = bc::BroEll::compress(ell);
  const auto b = bc::BroEll::compress(csr, ell.width);
  expect_same_slices(a.slices(), b.slices(), "adapter");
  EXPECT_EQ(bc::ell_values(a.csr(), a.width()),
            bc::ell_values(b.csr(), b.width()));
}

TEST(SlicePacker, RejectsUnsortedRows) {
  bs::Csr csr = bs::generate_poisson2d(8, 8);
  std::swap(csr.col_idx[5], csr.col_idx[6]); // one row out of order
  EXPECT_THROW(bc::BroEll::compress(csr, csr.max_row_length()),
               std::runtime_error);
  EXPECT_THROW(bc::BroAns::compress(csr, csr.max_row_length()),
               std::runtime_error);
}
