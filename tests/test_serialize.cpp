// The one .bro reader, read_bro_to_csr: every format's stream decodes to
// its source CSR bitwise, hand-built rows canonicalize, BRO-BCSR drops its
// fill, and corrupted streams fail as typed errors: bad headers, truncation
// at every prefix, count fields stomped to just under the sanity bound,
// interior padding. The SerializeFailure tests read through the
// std::istream overload, the Ingest tests mostly through the span one.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <sstream>
#include <vector>

#include "core/serialize.h"
#include "engine/format_registry.h"
#include "sparse/convert.h"
#include "sparse/matgen/adversarial.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace bc = bro::core;
namespace be = bro::engine;
namespace bs = bro::sparse;
using bro::index_t;
using bro::value_t;
using Bytes = std::vector<std::uint8_t>;

namespace {

/// Bitwise CSR equality (values compared by representation, so -0.0 and
/// NaN payloads count too).
void expect_same_csr(const bs::Csr& got, const bs::Csr& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col_idx, want.col_idx);
  ASSERT_EQ(got.vals.size(), want.vals.size());
  if (!got.vals.empty()) {
    EXPECT_EQ(std::memcmp(got.vals.data(), want.vals.data(),
                          got.vals.size() * sizeof(value_t)),
              0);
  }
}

Bytes serialize(const be::FormatTraits& t, const bs::Csr& csr) {
  std::ostringstream out(std::ios::binary);
  t.serialize(out, t.make(be::borrow_csr(csr), bc::MatrixOptions{}).get());
  const std::string s = out.str();
  return Bytes(s.begin(), s.end());
}

std::vector<const be::FormatTraits*> serializable_formats() {
  std::vector<const be::FormatTraits*> out;
  for (const auto& t : be::format_registry())
    if (t.serialize) out.push_back(&t);
  return out;
}

/// The message of the error the std::istream read_bro_to_csr throws on
/// `bytes`, or "" with a test failure when it accepts them.
std::string stream_error(const Bytes& bytes) {
  std::istringstream in(std::string(bytes.begin(), bytes.end()));
  try {
    bc::read_bro_to_csr(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "a corrupt stream was accepted";
  return {};
}

/// The ingest sweep's matrices: the adversarial battery plus three Test
/// Set 1 stand-ins and one Test Set 2 stand-in (a BRO-HYB with a real COO
/// part), scaled down.
std::vector<bs::AdversarialCase> ingest_cases() {
  std::vector<bs::AdversarialCase> out = bs::adversarial_suite(3);
  const auto set1 = bs::suite_test_set(1);
  for (std::size_t i = 0; i < 3 && i < set1.size(); ++i)
    out.push_back({set1[i].name, bs::generate_suite_matrix(set1[i], 0.02)});
  const auto set2 = bs::suite_test_set(2);
  out.push_back({set2.front().name,
                 bs::generate_suite_matrix(set2.front(), 0.02)});
  return out;
}

/// A small matrix every serializable format holds: 2x2 dense blocks down
/// the diagonal plus a few long rows that spill into BRO-HYB's COO part.
bs::Csr small_matrix() {
  bro::Rng rng(17);
  bs::Coo coo;
  coo.rows = 40;
  coo.cols = 40;
  for (index_t r = 0; r < 40; ++r)
    for (index_t c = r & ~1; c < (r & ~1) + 2; ++c)
      coo.push(r, c, rng.uniform() + 0.5);
  for (index_t c = 0; c < 40; c += 3) coo.push(7, c, rng.uniform() + 0.5);
  coo.canonicalize();
  return bs::coo_to_csr(coo);
}

/// Walks a serialized stream with the documented layout (an oracle
/// independent of the reader) and records where each u64 element-count
/// field sits, and where the first row stream's slots start.
class LayoutWalker {
 public:
  explicit LayoutWalker(const Bytes& bytes) : r_(bytes) {
    skip(8);
    const auto tag = r_.get<std::uint8_t>();
    switch (tag) {
      case 1: ell_body(); break;
      case 2: coo_body(); break;
      case 3: skip(12); count(); ell_body(); coo_body(); break; // ell_nnz
      case 4:
        skip(12);
        array(4); // row_ptr
        array(1); // bits per row
        array(4); // row symbol pointers
        array(8); // values
        count();  // size_bits
        array(8); // words
        break;
      case 5: ans_body(); break;
      case 6: skip(52); ell_slices(); array(8); break;
      default: ADD_FAILURE() << "unknown tag " << int(tag);
    }
    EXPECT_TRUE(r_.done()) << "walker and stream disagree on the layout";
  }

  const std::vector<std::size_t>& counts() const { return counts_; }
  std::size_t first_slots() const { return first_slots_; }
  /// Where the (first) ELL-style body's value array starts: its count.
  std::size_t ell_values() const { return ell_values_; }

 private:
  std::uint64_t count() {
    counts_.push_back(r_.position());
    return r_.get<std::uint64_t>();
  }
  void skip(std::size_t n) { r_.get_span(n); }
  void array(std::size_t elem) { skip(count() * elem); }
  void mux() {
    skip(4);
    const auto h = count();
    const auto spr = count();
    if (first_slots_ == 0) first_slots_ = r_.position();
    skip(h * spr * 8);
  }
  void ell_slices() {
    for (auto n = count(); n > 0; --n) {
      skip(16);
      array(1);
      mux();
    }
  }
  void ell_body() {
    skip(20);
    ell_slices();
    ell_values_ = r_.position();
    array(8);
  }
  void ans_body() {
    skip(28);
    array(2); // frequency table
    for (auto n = count(); n > 0; --n) {
      skip(12);
      array(2); // initial states
      for (auto g = count(); g > 0; --g) mux();
    }
    array(8);
  }
  void coo_body() {
    skip(8);
    count(); // nnz
    skip(12);
    for (auto n = count(); n > 0; --n) {
      skip(8);
      mux();
    }
    array(4);
    array(8);
  }

  bro::ByteReader r_;
  std::vector<std::size_t> counts_;
  std::size_t first_slots_ = 0;
  std::size_t ell_values_ = 0;
};

} // namespace

// ---- failure injection through the std::istream reader ----

TEST(SerializeFailure, BadMagic) {
  for (const auto* t : serializable_formats()) {
    SCOPED_TRACE(t->name);
    Bytes bad = serialize(*t, small_matrix());
    bad[0] ^= 0x5a;
    EXPECT_NE(stream_error(bad).find("bad magic"), std::string::npos);
  }
  const std::string junk = "this is not a bro file at all, not even close";
  EXPECT_NE(stream_error(Bytes(junk.begin(), junk.end())).find("bad magic"),
            std::string::npos);
}

TEST(SerializeFailure, BadVersion) {
  for (const auto* t : serializable_formats()) {
    SCOPED_TRACE(t->name);
    Bytes bad = serialize(*t, small_matrix());
    bad[4] = 2; // version 2
    EXPECT_NE(stream_error(bad).find("unsupported BRO stream version"),
              std::string::npos);
  }
}

TEST(SerializeFailure, WrongTag) {
  // Tags 1-6 are the six formats; 0 and 7 name none.
  for (const auto* t : serializable_formats()) {
    SCOPED_TRACE(t->name);
    for (const std::uint8_t tag : {0, 7}) {
      Bytes bad = serialize(*t, small_matrix());
      bad[8] = tag;
      EXPECT_NE(stream_error(bad).find("unknown format tag " +
                                       std::to_string(tag)),
                std::string::npos);
    }
  }
}

TEST(SerializeFailure, Truncated) {
  for (const auto* t : serializable_formats()) {
    SCOPED_TRACE(t->name);
    const Bytes full = serialize(*t, small_matrix());
    for (const double frac : {0.3, 0.7, 0.95}) {
      const auto n = static_cast<std::ptrdiff_t>(full.size() * frac);
      EXPECT_FALSE(stream_error(Bytes(full.begin(), full.begin() + n)).empty())
          << frac;
    }
  }
}

TEST(SerializeFailure, CorruptedSizeField) {
  // Stomp the slice count (offset: magic 4 + version 4 + tag 1 + rows/cols/
  // width 12 + options 8 = 29) with an absurd value.
  Bytes bad = serialize(be::traits(bc::Format::kBroEll), small_matrix());
  for (int i = 0; i < 8; ++i) bad[29 + i] = 0xff;
  EXPECT_NE(stream_error(bad).find("implausible element count"),
            std::string::npos);
}

// ---- one-pass ingest: .bro bytes straight to CSR ----

TEST(Ingest, EveryFormatDecodesToTheSourceCsrBitwise) {
  const auto formats = serializable_formats();
  ASSERT_GE(formats.size(), 6u);
  for (const auto& c : ingest_cases()) {
    for (const auto* t : formats) {
      if (!t->applicable(c.csr, 3.0)) continue;
      SCOPED_TRACE(c.name + " / " + t->name);
      const Bytes bytes = serialize(*t, c.csr);

      bc::Format fmt{};
      expect_same_csr(bc::read_bro_to_csr(bytes, &fmt), c.csr);
      EXPECT_EQ(fmt, t->format);

      // The stream adapter parses the same bytes and stops right after the
      // object, leaving whatever follows it unread.
      std::stringstream in(std::string(bytes.begin(), bytes.end()) + "tail",
                           std::ios::in | std::ios::binary);
      expect_same_csr(bc::read_bro_to_csr(in), c.csr);
      std::string rest;
      in >> rest;
      EXPECT_EQ(rest, "tail");
    }
  }
}

TEST(Ingest, EllValueBlocksAreThePaddedEllpackArray) {
  // BRO-ELL and BRO-HYB keep no value array of their own, but their
  // streams still carry ELLPACK's: rows x width, column-major, +0.0 in
  // every padding slot.
  std::vector<bs::AdversarialCase> cases = bs::adversarial_suite(5);
  for (const int set : {1, 2, 3})
    for (const auto& e : bs::suite_test_set(set))
      cases.push_back({e.name, bs::generate_suite_matrix(e, 0.01)});
  for (const auto& c : cases) {
    for (const bc::Format f : {bc::Format::kBroEll, bc::Format::kBroHyb}) {
      const be::FormatTraits& t = be::traits(f);
      if (!t.applicable(c.csr, 3.0)) continue;
      SCOPED_TRACE(c.name + " / " + t.name);
      const Bytes bytes = serialize(t, c.csr);
      const bro::util::UninitVector<value_t> want =
          f == bc::Format::kBroEll ? bs::csr_to_ell(c.csr).vals
                                   : bs::csr_to_hyb(c.csr).ell.vals;
      const std::size_t at = LayoutWalker(bytes).ell_values();
      std::uint64_t n = 0;
      std::memcpy(&n, bytes.data() + at, sizeof(n));
      ASSERT_EQ(n, want.size());
      EXPECT_TRUE(want.empty() ||
                  std::memcmp(bytes.data() + at + sizeof(n), want.data(),
                              want.size() * sizeof(value_t)) == 0);
    }
  }
}

TEST(Ingest, HandBuiltCooRowsCanonicalizeLikeCooToCsr) {
  // A BRO-COO stream no writer emits: two lanes whose entries interleave
  // rows (stream order 0,0,1,0,2,1,2,2), with unsorted and duplicate
  // columns inside rows. The ingest must land on exactly the CSR that
  // coo_to_csr makes of the same triples.
  const std::vector<index_t> rows = {0, 0, 1, 0, 2, 1, 2, 2};
  const std::vector<index_t> cols = {5, 2, 3, 5, 4, 1, 4, 0};
  const std::vector<value_t> vals = {0.1, 0.2, 0.3, 0.7, 1.5, -2.0, 0.25, 9.0};

  bro::ByteWriter w;
  w.put<std::uint32_t>(0x53'4F'52'42);
  w.put<std::uint32_t>(1);
  w.put<std::uint8_t>(2); // BRO-COO
  w.put<index_t>(3);      // rows
  w.put<index_t>(6);      // cols
  w.put<std::uint64_t>(rows.size());
  w.put<std::int32_t>(2); // warp_size
  w.put<std::int32_t>(4); // interval_cols
  w.put<std::int32_t>(32);
  w.put<std::uint64_t>(1); // one interval
  w.put<index_t>(0);       // start_row
  w.put<std::int32_t>(1);  // one bit per row delta
  w.put<std::int32_t>(32);
  w.put<std::uint64_t>(2); // lanes
  w.put<std::uint64_t>(1); // symbols per lane
  // Entry c*2 + j sits at position c of lane j: lane 0 holds rows 0,1,2,2
  // (deltas 0,1,1,0) and lane 1 rows 0,0,1,2 (deltas 0,0,1,1), MSB first.
  w.put<std::uint64_t>(0b0110ull << 28);
  w.put<std::uint64_t>(0b0011ull << 28);
  w.put_array<index_t>(cols);
  w.put_array<value_t>(vals);

  bs::Coo coo;
  coo.rows = 3;
  coo.cols = 6;
  for (std::size_t i = 0; i < rows.size(); ++i)
    coo.push(rows[i], cols[i], vals[i]);
  const bs::Csr want = bs::coo_to_csr(coo);
  ASSERT_EQ(want.nnz(), 6u); // (0,5) and (2,4) merged
  expect_same_csr(bc::read_bro_to_csr(w.bytes()), want);
}

TEST(Ingest, EveryPrefixOfEveryFormatThrows) {
  const bs::Csr csr = small_matrix();
  for (const auto* t : serializable_formats()) {
    SCOPED_TRACE(t->name);
    const Bytes bytes = serialize(*t, csr);
    expect_same_csr(bc::read_bro_to_csr(bytes), csr);
    for (std::size_t n = 0; n < bytes.size(); ++n)
      EXPECT_THROW(
          bc::read_bro_to_csr(std::span<const std::uint8_t>(bytes.data(), n)),
          std::runtime_error)
          << "prefix of " << n << " / " << bytes.size() << " bytes";
    // The stream adapter reports the same truncation.
    std::istringstream cut(std::string(bytes.begin(), bytes.end() - 1));
    EXPECT_THROW(bc::read_bro_to_csr(cut), std::runtime_error);
    // A span must hold exactly one object.
    Bytes longer = bytes;
    longer.push_back(0);
    EXPECT_THROW(bc::read_bro_to_csr(longer), std::runtime_error);
  }
}

TEST(Ingest, CountFieldsAreBoundedByTheBytesLeft) {
  // Every element count just under the sanity bound: each one must fail as
  // a typed error before it sizes an allocation (a std::bad_alloc or an
  // OOM kill would fail this test).
  constexpr std::uint64_t kStomp = bro::ByteReader::kSaneCount - 1;
  const bs::Csr csr = small_matrix();
  for (const auto* t : serializable_formats()) {
    SCOPED_TRACE(t->name);
    const Bytes bytes = serialize(*t, csr);
    const LayoutWalker layout(bytes);
    ASSERT_GE(layout.counts().size(), 4u);
    for (const std::size_t off : layout.counts()) {
      Bytes bad = bytes;
      std::memcpy(bad.data() + off, &kStomp, sizeof(kStomp));
      EXPECT_THROW(bc::read_bro_to_csr(bad), std::runtime_error)
          << "count at byte " << off;
    }
  }
}

TEST(Ingest, InteriorPaddingIsRejected) {
  // Row 0 holds columns {1, 4}: deltas 2 then 3. Clearing the first delta
  // makes it a padding slot followed by a real delta, which the format's
  // own SpMV and a packed CSR would read differently.
  bs::Coo coo;
  coo.rows = 4;
  coo.cols = 8;
  const index_t r[] = {0, 0, 1, 2, 2, 2, 3};
  const index_t c[] = {1, 4, 2, 0, 5, 7, 6};
  for (int i = 0; i < 7; ++i) coo.push(r[i], c[i], 1.0 + i);
  const bs::Csr csr = bs::coo_to_csr(coo);

  bc::BroHybOptions hyb_opts;
  hyb_opts.width_override = 2; // row 2's third entry goes to the COO part
  // With 2x2 blocks, block row 0 (rows 0 and 1) holds block columns
  // {0, 1, 2}: deltas 1, 1, 1. Clearing the first leaves a stream whose
  // SpMV reads tile 1 for block column 0, while counting only real blocks
  // would read tile 0.
  bc::BroBcsrOptions bcsr_opts;
  bcsr_opts.block_rows = 2;
  bcsr_opts.block_cols = 2;
  std::stringstream ell_out, hyb_out, bcsr_out;
  const auto ell = bc::BroEll::compress(bs::csr_to_ell(csr));
  const auto bcsr = bc::BroBcsr::compress(csr, bcsr_opts);
  bc::write_bro_ell(ell_out, ell);
  bc::write_bro_hyb(hyb_out, bc::BroHyb::compress(csr, hyb_opts));
  bc::write_bro_bcsr(bcsr_out, bcsr);
  const int ell_width = ell.slices()[0].bit_alloc[0];
  const int bcsr_width = bcsr.slices()[0].bit_alloc[0];

  for (const auto& [out, first_width] :
       {std::pair{&ell_out, ell_width}, std::pair{&hyb_out, ell_width},
        std::pair{&bcsr_out, bcsr_width}}) {
    const std::string s = out->str();
    Bytes bytes(s.begin(), s.end());
    SCOPED_TRACE("tag " + std::to_string(bytes[8]));
    expect_same_csr(bc::read_bro_to_csr(bytes), csr);
    // Slot 0 is symbol 0 of (block) row 0; its top bits hold the first
    // delta.
    const std::size_t off = LayoutWalker(bytes).first_slots();
    std::uint64_t slot;
    std::memcpy(&slot, bytes.data() + off, sizeof(slot));
    slot &= ~(((1ull << first_width) - 1) << (32 - first_width));
    std::memcpy(bytes.data() + off, &slot, sizeof(slot));
    EXPECT_THROW(bc::read_bro_to_csr(bytes), std::runtime_error);
  }
}

TEST(Ingest, BcsrDropsItsFillAndStoredZeros) {
  // 2x2 blocks over a 4x6 matrix. Block (0, 0) is full but stores 0.0 at
  // (0, 1) and -0.0 at (1, 0); block (1, 1) holds three entries and one
  // fill slot; block (0, 2) holds one entry. The ingest cannot tell a
  // stored zero from fill: it drops exactly those two entries and the
  // fill, keeping every other value, a NaN included, bit for bit.
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  bs::Coo coo;
  coo.rows = 4;
  coo.cols = 6;
  coo.push(0, 0, 1.5);
  coo.push(0, 1, 0.0);
  coo.push(1, 0, -0.0);
  coo.push(1, 1, 2.5);
  coo.push(0, 5, nan);
  coo.push(2, 2, 3.0);
  coo.push(2, 3, -4.0);
  coo.push(3, 3, 5.0);
  const bs::Csr src = bs::coo_to_csr(coo);
  ASSERT_EQ(src.nnz(), 8u);
  coo.canonicalize(/*drop_zeros=*/true);
  const bs::Csr want = bs::coo_to_csr(coo);
  ASSERT_EQ(want.nnz(), 6u);

  bc::BroBcsrOptions opts;
  opts.block_rows = 2;
  opts.block_cols = 2;
  const auto bcsr = bc::BroBcsr::compress(src, opts);
  // Block row 0 holds two blocks and block row 1 one plus a padding tile:
  // four 2x2 tiles.
  ASSERT_EQ(bcsr.value_slots(), 16u);
  std::stringstream out;
  bc::write_bro_bcsr(out, bcsr);
  const std::string s = out.str();
  expect_same_csr(bc::read_bro_to_csr(Bytes(s.begin(), s.end())), want);
}
