// Parallel-correctness tests: force several OpenMP threads (the host here
// may have one core; logical races don't care) and verify the native
// kernels' partitioning and carry logic, simulator determinism, that plan
// set-up (compressed bytes, ELL value arrays, the BRO-BCSR gate) and the
// .bro -> CSR ingest do not depend on the thread count, and that the
// ingest's lockstep slice decoder matches the per-row one.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bcsr_gate_reference.h"
#include "core/matrix.h"
#include "core/serialize.h"
#include "engine/format_registry.h"
#include "engine/plan.h"
#include "kernels/sim_spmv.h"
#include "reorder/permutation.h"
#include "sparse/convert.h"
#include "sparse/matgen/generators.h"
#include "sparse/matgen/suite.h"
#include "util/rng.h"

namespace bk = bro::kernels;
namespace bc = bro::core;
namespace be = bro::engine;
namespace bs = bro::sparse;
namespace gs = bro::sim;
using bro::index_t;
using bro::value_t;

namespace {

struct ThreadGuard {
  ThreadGuard(int n) {
#ifdef _OPENMP
    prev = omp_get_max_threads();
    omp_set_num_threads(n);
#else
    (void)n;
    prev = 1;
#endif
  }
  ~ThreadGuard() {
#ifdef _OPENMP
    omp_set_num_threads(prev);
#endif
  }
  int prev;
};

std::vector<value_t> random_x(index_t n) {
  bro::Rng rng(67);
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

} // namespace

class ParallelKernels : public ::testing::TestWithParam<int> {};

TEST_P(ParallelKernels, AllNativeKernelsAgree) {
  ThreadGuard guard(GetParam());

  bs::GenSpec spec;
  spec.rows = 2500;
  spec.cols = 2500;
  spec.mu = 13;
  spec.sigma = 6;
  spec.run = 2;
  spec.seed = 51;
  // The truss's dense 2x2 blocks pass the BRO-BCSR gate; the generated
  // matrix covers every other host kernel.
  std::vector<std::string> ran;
  for (const bs::Csr& csr :
       {bs::generate(spec), bs::generate_truss2d(40, 6, 7)}) {
    const auto x = random_x(csr.cols);
    std::vector<value_t> y_ref(static_cast<std::size_t>(csr.rows));
    bs::spmv_csr_reference(csr, x, y_ref);

    // Every registered host kernel that can hold the matrix, through its
    // plan (built under this thread count, so the COO splits follow it).
    std::vector<value_t> y(y_ref.size());
    const auto m =
        std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(csr));
    for (const auto& t : be::format_registry()) {
      if (t.native == nullptr ||
          !t.applicable(csr, m->options().max_ell_expand))
        continue;
      be::SpmvPlan plan(m, t.format);
      plan.execute(x, y);
      ran.emplace_back(t.name);
      for (std::size_t r = 0; r < y.size(); ++r)
        ASSERT_NEAR(y[r], y_ref[r], 1e-11 * (1.0 + std::abs(y_ref[r])))
            << t.name << " threads=" << GetParam() << " row " << r;
    }
  }
  for (const auto& t : be::format_registry()) {
    if (t.native == nullptr) continue;
    EXPECT_NE(std::find(ran.begin(), ran.end(), t.name), ran.end())
        << t.name << " never ran";
  }
}

TEST_P(ParallelKernels, BroCooCarryUnderThreads) {
  ThreadGuard guard(GetParam());
  // Many intervals all contributing to few rows: worst case for carries.
  bs::Coo coo;
  coo.rows = 6;
  coo.cols = 20000;
  for (index_t c = 0; c < 20000; ++c) coo.push(c % 3, c, 1.0);
  coo.canonicalize();
  const bs::Csr csr = bs::coo_to_csr(coo);
  const auto x = random_x(csr.cols);
  std::vector<value_t> y_ref(6), y(6);
  bs::spmv_csr_reference(csr, x, y_ref);
  be::SpmvPlan plan(
      std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(csr)),
      bc::Format::kBroCoo);
  plan.execute(x, y);
  for (int r = 0; r < 6; ++r)
    ASSERT_NEAR(y[static_cast<std::size_t>(r)],
                y_ref[static_cast<std::size_t>(r)], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelKernels,
                         ::testing::Values(1, 2, 4, 8));

TEST(SimDeterminism, IdenticalRunsIdenticalStats) {
  const bs::Csr csr = bs::generate_poisson2d(40, 40);
  const auto x = random_x(csr.cols);
  const auto bro = bc::BroEll::compress(bs::csr_to_ell(csr));
  const auto a = bk::sim_spmv_bro_ell(gs::gtx680(), bro, x);
  const auto b = bk::sim_spmv_bro_ell(gs::gtx680(), bro, x);
  EXPECT_EQ(a.stats.dram_bytes(), b.stats.dram_bytes());
  EXPECT_EQ(a.stats.mem_transactions, b.stats.mem_transactions);
  EXPECT_DOUBLE_EQ(a.time.seconds, b.time.seconds);
  EXPECT_EQ(a.y, b.y);
}

namespace {

/// write_bro_* bytes of every serializable BRO format built from `csr`
/// with `sym_len`-bit stream symbols.
std::vector<std::string> bro_bytes(const bs::Csr& csr, int sym_len = 32) {
  bc::BroEllOptions eo;
  eo.slice_height = 7; // many slices, so the threads share the work
  eo.sym_len = sym_len;
  bc::BroAnsOptions ao;
  ao.slice_height = 7;
  ao.sym_len = sym_len;
  bc::BroBcsrOptions bo;
  bo.slice_height = 3;
  bo.sym_len = sym_len;
  bc::BroCooOptions co;
  co.sym_len = sym_len;
  bc::BroCsrOptions so;
  so.sym_len = sym_len;
  bc::BroHybOptions ho;
  ho.ell = eo;
  ho.coo = co;
  std::vector<std::string> out;
  const auto add = [&](auto write, const auto& m) {
    std::ostringstream s(std::ios::binary);
    write(s, m);
    out.push_back(s.str());
  };
  add(bc::write_bro_ell, bc::BroEll::compress(csr, csr.max_row_length(), eo));
  add(bc::write_bro_ans, bc::BroAns::compress(csr, csr.max_row_length(), ao));
  add(bc::write_bro_hyb, bc::BroHyb::compress(csr, ho));
  add(bc::write_bro_bcsr, bc::BroBcsr::compress(csr, bo));
  add(bc::write_bro_coo, bc::BroCoo::compress(bs::csr_to_coo(csr), co));
  add(bc::write_bro_csr, bc::BroCsr::compress(csr, so));
  return out;
}

} // namespace

TEST(ParallelCompression, BytesDoNotDependOnThreadCount) {
  // Test Set 2 is left out: its padded BRO-ELL would dwarf the rest.
  for (const int set : {1, 3}) {
    for (const auto& e : bs::suite_test_set(set)) {
      const bs::Csr csr = bs::generate_suite_matrix(e, 0.02);
      std::vector<std::string> one, four;
      {
        ThreadGuard g(1);
        one = bro_bytes(csr);
      }
      {
        ThreadGuard g(4);
        four = bro_bytes(csr);
      }
      EXPECT_EQ(one, four) << e.name;
    }
  }
}

namespace {

/// `rows` rows of 0..max_len entries in 64 columns (every `empty_every`-th
/// row empty when it is positive), with nonzero values.
bs::Csr ragged_rows(index_t rows, index_t max_len, index_t empty_every,
                    std::uint64_t seed) {
  bro::Rng rng(seed);
  bs::Csr csr;
  csr.rows = rows;
  csr.cols = 64;
  csr.row_ptr.push_back(0);
  for (index_t r = 0; r < rows; ++r) {
    const auto len =
        empty_every > 0 && r % empty_every == 0
            ? 0
            : static_cast<index_t>(rng.below(static_cast<std::uint64_t>(max_len) + 1));
    index_t col = static_cast<index_t>(rng.below(4));
    for (index_t j = 0; j < len; ++j) {
      csr.col_idx.push_back(col);
      csr.vals.push_back(1.0 + rng.uniform());
      col += 1 + static_cast<index_t>(rng.below(3));
    }
    csr.row_ptr.push_back(static_cast<index_t>(csr.col_idx.size()));
  }
  return csr;
}

/// ELLPACK's value array written the obvious way: +0.0 everywhere, then
/// each row's leading min(length, width) values.
std::vector<value_t> naive_ell_values(const bs::Csr& csr, index_t width) {
  const auto m = static_cast<std::size_t>(csr.rows);
  std::vector<value_t> vals(m * static_cast<std::size_t>(width), +0.0);
  for (index_t r = 0; r < csr.rows; ++r)
    for (index_t j = 0; j < std::min(csr.row_length(r), width); ++j)
      vals[static_cast<std::size_t>(j) * m + static_cast<std::size_t>(r)] =
          csr.row_vals(r)[static_cast<std::size_t>(j)];
  return vals;
}

/// Freed heap blocks of the given byte sizes, every byte 0xFF (a NaN as a
/// value, -1 as an index), for the next allocations of those sizes to
/// reuse: an array built in one that leaves a slot unwritten reads it back
/// as garbage, not as zero. A live guard block behind each keeps the
/// allocator from merging it with its neighbours or into the top of the
/// heap; blocks this small stay below the mmap threshold.
class HeapPoison {
 public:
  explicit HeapPoison(std::initializer_list<std::size_t> sizes) {
    void* blocks[kMaxBlocks] = {};
    std::size_t n = 0;
    for (const std::size_t bytes : sizes) {
      if (bytes == 0 || n == kMaxBlocks) continue;
      EXPECT_LE(bytes, 64u * 1024) << "above the mmap threshold";
      blocks[n] = std::malloc(bytes);
      guards_[n] = std::malloc(sizeof(value_t));
      // Volatile stores: a plain memset before free() is a dead store the
      // compiler may drop.
      auto* b = static_cast<volatile unsigned char*>(blocks[n]);
      for (std::size_t i = 0; i < bytes; ++i) b[i] = 0xFF;
      ++n;
    }
    for (std::size_t i = 0; i < n; ++i) std::free(blocks[i]);
  }
  ~HeapPoison() {
    for (void* g : guards_) std::free(g);
  }
  HeapPoison(const HeapPoison&) = delete;
  HeapPoison& operator=(const HeapPoison&) = delete;

 private:
  static constexpr std::size_t kMaxBlocks = 4;
  void* guards_[kMaxBlocks] = {};
};

template <typename A, typename B>
bool same_bits(const A& a, const B& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0);
}

} // namespace

TEST(ParallelCompression, EveryEllValueSlotIsWritten) {
  struct Shape {
    const char* name;
    bs::Csr csr;
    index_t width;
  };
  const bs::Csr odd = ragged_rows(1003, 6, 0, 71);
  const bs::Csr holes = ragged_rows(700, 5, 3, 72);
  const bs::Csr short_rows = ragged_rows(900, 4, 0, 73);
  const std::vector<Shape> shapes = {
      {"rows not a multiple of the tile", odd, odd.max_row_length()},
      {"rows cut at the width", odd, 3},
      {"empty rows", holes, holes.max_row_length()},
      {"width 0", short_rows, 0},
      {"width beyond every row", short_rows, short_rows.max_row_length() + 4},
  };
  for (const Shape& sh : shapes) {
    // Below the mmap threshold (~64 KiB of values), so HeapPoison works.
    const std::size_t n = static_cast<std::size_t>(sh.csr.rows) *
                          static_cast<std::size_t>(sh.width);
    ASSERT_LE(n * sizeof(value_t), 64u * 1024) << sh.name;
    const std::vector<value_t> want = naive_ell_values(sh.csr, sh.width);
    for (const int threads : {1, 4}) {
      ThreadGuard g(threads);
      for (const int h : {256, 7}) {
        const std::string ctx = std::string(sh.name) +
                                " threads=" + std::to_string(threads) +
                                " h=" + std::to_string(h);
        bc::BroEllOptions eo;
        eo.slice_height = h;
        bc::BroAnsOptions ao;
        ao.slice_height = h;
        bc::BroHybOptions ho;
        ho.ell = eo;
        ho.width_override = sh.width;

        {
          const HeapPoison poison({n * sizeof(value_t)});
          EXPECT_TRUE(same_bits(bc::ell_values(sh.csr, sh.width), want))
              << "ell_values " << ctx;
        }
        // BRO-ELL and BRO-HYB keep no value array: their writers emit
        // ell_values of the source CSR at the representation's width.
        {
          const bc::BroEll bro = bc::BroEll::compress(sh.csr, sh.width, eo);
          const HeapPoison poison({n * sizeof(value_t)});
          EXPECT_TRUE(same_bits(bc::ell_values(bro.csr(), bro.width()), want))
              << "BRO-ELL " << ctx;
        }
        {
          const HeapPoison poison({n * sizeof(value_t)});
          EXPECT_TRUE(same_bits(
              bc::BroAns::compress(sh.csr, sh.width, ao).vals(), want))
              << "BRO-ANS " << ctx;
        }
        const bc::BroHyb hyb = bc::BroHyb::compress(sh.csr, ho);
        EXPECT_EQ(hyb.split_width(), sh.width) << ctx;
        const HeapPoison poison({n * sizeof(value_t)});
        EXPECT_TRUE(same_bits(
            bc::ell_values(hyb.ell_part().csr(), hyb.split_width()), want))
            << "BRO-HYB " << ctx;
      }
    }
  }
}

namespace {

/// The first `rows` rows of `csr`, all its columns kept.
bs::Csr leading_rows(const bs::Csr& csr, index_t rows) {
  bs::Csr out;
  out.rows = rows;
  out.cols = csr.cols;
  out.row_ptr.assign(csr.row_ptr.begin(), csr.row_ptr.begin() + rows + 1);
  const auto nnz = static_cast<std::size_t>(out.row_ptr.back());
  out.col_idx.assign(csr.col_idx.begin(), csr.col_idx.begin() + nnz);
  out.vals.assign(csr.vals.begin(), csr.vals.begin() + nnz);
  return out;
}

/// A truss stand-in cut to a row count that is not a multiple of 8, the
/// prefilter's chunk height.
bs::Csr truss_with_ragged_chunk() {
  const bs::Csr truss =
      bs::generate_suite_matrix(bs::suite_test_set(3).front(), 0.0625);
  return leading_rows(truss, truss.rows / 8 * 8 - 3);
}

} // namespace

TEST(ParallelGate, VerdictsDoNotDependOnThreadCount) {
  std::vector<bs::AdversarialCase> cases = bro::oracle::gate_cases();
  cases.push_back({"truss, rows % 8 == 5", truss_with_ragged_chunk()});
  ASSERT_EQ(cases.back().csr.rows % 8, 5);
  ASSERT_TRUE(bro::oracle::reference_applicable(cases.back().csr, 3.0));
  for (const auto& c : cases) {
    const auto first = be::auto_select(c.csr, 3.0);
    for (const int threads : {1, 2, 4}) {
      ThreadGuard g(threads);
      for (const double expand : {3.0, 1e30})
        EXPECT_EQ(bc::bro_bcsr_applicable(c.csr, expand),
                  bro::oracle::reference_applicable(c.csr, expand))
            << c.name << " threads=" << threads << " expand=" << expand;
      EXPECT_EQ(be::auto_select(c.csr, 3.0), first)
          << c.name << " threads=" << threads;
    }
  }
}

namespace {

/// Rows of a matrix for the prefilter's early exit, built segment by
/// segment: `scattered` rows hold one entry each, every one in its own
/// block of every candidate shape; `dense` rows (a multiple of 8, starting
/// on a multiple of 8) hold three dense 8x8 blocks per 8-row group, which
/// every candidate shape covers at fill 1.
struct Segment {
  bool dense;
  index_t rows;
};

bs::Csr segmented(const std::vector<Segment>& segments) {
  bs::Csr csr;
  for (const Segment& s : segments) csr.rows += s.rows;
  csr.cols = 8 * (csr.rows + 3);
  csr.row_ptr.push_back(0);
  index_t r = 0;
  for (const Segment& s : segments)
    for (index_t end = r + s.rows; r < end; ++r) {
      if (s.dense)
        for (index_t block = r / 8; block < r / 8 + 3; ++block)
          for (index_t c = 8 * block; c < 8 * block + 8; ++c)
            csr.col_idx.push_back(c);
      else
        csr.col_idx.push_back(8 * r);
      csr.row_ptr.push_back(static_cast<index_t>(csr.col_idx.size()));
    }
  csr.vals.assign(csr.col_idx.size(), 1.0);
  return csr;
}

/// The highest cover fill over the candidate shapes, by the full analysis.
double best_fill(const bs::Csr& csr) {
  double best = 0;
  for (const auto& s : bc::analyze_bro_bcsr(csr).shapes)
    best = std::max(best, s.fill);
  return best;
}

} // namespace

TEST(ParallelGate, EarlyExitAgreesWithFullAnalysis) {
  // Fill of the best (2x2) cover is (s + D) / (4s + D) for s scattered and
  // D dense entries. Each case sits near the 0.95 floor, so a bound that
  // undercounts what is left would reject a matrix the analysis accepts.
  struct Case {
    const char* name;
    std::vector<Segment> segments;
    double fill;
  };
  const std::vector<Case> cases = {
      {"scattered prefix, then dense blocks", {{false, 400}, {true, 1048}},
       0.9551},
      {"dense blocks, then a scattered tail", {{true, 1024}, {false, 486}},
       0.9450},
      {"fill 0.96, rows % 8 == 5",
       {{false, 176}, {true, 1024}, {false, 173}}, 0.9597},
      {"fill 0.94, rows % 8 == 5",
       {{false, 264}, {true, 1024}, {false, 269}}, 0.9401},
  };
  for (const auto& c : cases) {
    const bs::Csr csr = segmented(c.segments);
    ASSERT_TRUE(csr.is_valid()) << c.name;
    EXPECT_NEAR(best_fill(csr), c.fill, 1e-4) << c.name;
    const bool want = bro::oracle::reference_applicable(csr, 3.0);
    EXPECT_EQ(want, c.fill > 0.95) << c.name;
    const auto first = be::auto_select(csr, 3.0);
    for (const int threads : {1, 2, 4}) {
      ThreadGuard g(threads);
      for (const double expand : {3.0, 1e30})
        EXPECT_EQ(bc::bro_bcsr_applicable(csr, expand),
                  bro::oracle::reference_applicable(csr, expand))
            << c.name << " threads=" << threads << " expand=" << expand;
      EXPECT_EQ(be::auto_select(csr, 3.0), first)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(ParallelGate, OutOfRangeColumnDefersToFullAnalysis) {
  // One column just past the matrix, in the last row: the prefilter must
  // neither index its stamps with it nor reject, and the full analysis
  // decides. One case the gate would accept, one it rejects.
  std::vector<bs::Csr> cases = {
      truss_with_ragged_chunk(),
      bs::generate_suite_matrix(bs::suite_test_set(1).front(), 0.02)};
  for (bs::Csr& csr : cases) {
    ASSERT_GT(csr.row_length(csr.rows - 1), 0);
    csr.col_idx.back() = csr.cols;
    ASSERT_FALSE(csr.is_valid());
    const bool want = bro::oracle::reference_applicable(csr, 3.0);
    for (const int threads : {1, 2, 4}) {
      ThreadGuard g(threads);
      EXPECT_EQ(bc::bro_bcsr_applicable(csr, 3.0), want)
          << csr.rows << " rows, threads=" << threads;
    }
  }
}

// ---- the .bro -> CSR ingest: slice-parallel tiles ----

namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Bitwise CSR equality (values compared by representation).
bool same_csr(const bs::Csr& a, const bs::Csr& b) {
  return a.rows == b.rows && a.cols == b.cols && a.row_ptr == b.row_ptr &&
         a.col_idx == b.col_idx && same_bits(a.vals, b.vals);
}

/// Serialized bytes of every format with a serialize hook, built through
/// the registry at `sym_len` where applicable, plus, when `small_slices`,
/// bro_bytes' streams, so the ingest runs over many tiles.
std::vector<std::pair<std::string, Bytes>> ingest_streams(const bs::Csr& csr,
                                                          bool small_slices,
                                                          int sym_len) {
  bc::MatrixOptions opts;
  opts.ell.sym_len = sym_len;
  opts.coo.sym_len = sym_len;
  opts.ans.sym_len = sym_len;
  opts.bcsr.sym_len = sym_len;
  std::vector<std::pair<std::string, Bytes>> out;
  for (const auto& t : be::format_registry()) {
    if (!t.serialize || !t.applicable(csr, 3.0)) continue;
    std::ostringstream s(std::ios::binary);
    t.serialize(s, t.make(be::borrow_csr(csr), opts).get());
    out.emplace_back(t.name, to_bytes(s.str()));
  }
  if (small_slices)
    for (const std::string& s : bro_bytes(csr, sym_len))
      out.emplace_back("small slices, tag " + std::to_string(int(s[8])),
                       to_bytes(s));
  return out;
}

/// Byte offset of the first mux slot of the last slice of a BRO-ELL body
/// that starts at `body` (the rows field) in a stream of `m`.
std::size_t last_slice_slots(const bc::BroEll& m, std::size_t body) {
  std::size_t off = body + 3 * 4 + 2 * 4 + 8; // dims, options, slice count
  const auto& slices = m.slices();
  for (std::size_t s = 0; s < slices.size(); ++s) {
    off += 4 * 4 + 8 + slices[s].bit_alloc.size() + 4 + 8 + 8;
    if (s + 1 < slices.size()) off += 8 * slices[s].stream.total_symbols();
  }
  return off;
}

} // namespace

TEST(ParallelIngest, CsrDoesNotDependOnThreadCount) {
  // The adversarial battery and every third stand-in of each test set, at
  // both symbol lengths: host kernels decode 32-bit symbols only, but the
  // ingest is runtime-generic, so 64-bit files and uploads still load.
  // Test Set 2 gets no small-slice streams: its padded BRO-ELL would dwarf
  // the rest (the registry builds it as BRO-HYB instead).
  struct Case {
    bs::AdversarialCase c;
    bool small_slices;
  };
  std::vector<Case> cases;
  for (auto& c : bs::adversarial_suite(3)) cases.push_back({std::move(c), true});
  for (const int set : {1, 2, 3}) {
    const auto entries = bs::suite_test_set(set);
    for (std::size_t i = 0; i < entries.size(); i += 3)
      cases.push_back(
          {{entries[i].name, bs::generate_suite_matrix(entries[i], 0.02)},
           set != 2});
  }
  for (const auto& [c, small_slices] : cases) {
    for (const int sym_len : {32, 64}) {
      for (const auto& [name, bytes] :
           ingest_streams(c.csr, small_slices, sym_len)) {
        for (const int threads : {1, 2, 4}) {
          ThreadGuard g(threads);
          const std::string ctx = c.name + " / " + name + " sym_len=" +
                                  std::to_string(sym_len) +
                                  " threads=" + std::to_string(threads);
          try {
            EXPECT_TRUE(same_csr(bc::read_bro_to_csr(bytes), c.csr)) << ctx;
          } catch (const std::exception& e) {
            ADD_FAILURE() << ctx << ": " << e.what();
          }
        }
      }
    }
  }
}

TEST(ParallelIngest, HybCooDuplicateOfAnEllColumnMergesAndCompacts) {
  // Every row holds 4 entries; rows 17 and 30 hold 7, so with the ELL
  // width forced to 4 their last 3 spill into the COO part. Slices are 7
  // rows high, so both rows sit past the first slice. A hand-built stream
  // points one COO entry of row 17 at the column its ELL part holds first:
  // that row must merge the two, and every later row shift down by one.
  bro::Rng rng(97);
  bs::Coo coo;
  coo.rows = 40;
  coo.cols = 64;
  for (index_t r = 0; r < 40; ++r) {
    const index_t len = r == 17 || r == 30 ? 7 : 4;
    for (index_t j = 0; j < len; ++j)
      coo.push(r, (r + 5 * j) % 64, rng.uniform() + 0.5);
  }
  coo.canonicalize();
  const bs::Csr csr = bs::coo_to_csr(coo);
  bc::BroHybOptions ho;
  ho.ell.slice_height = 7;
  ho.width_override = 4;
  const bc::BroHyb hyb = bc::BroHyb::compress(csr, ho);
  ASSERT_EQ(hyb.coo_part().nnz(), 6u);

  // The COO body ends with its col_idx array, then its value array.
  std::ostringstream s(std::ios::binary);
  bc::write_bro_hyb(s, hyb);
  Bytes bytes = to_bytes(s.str());
  const std::size_t n = hyb.coo_part().padded_nnz();
  const std::size_t cols_at = bytes.size() - (8 + 8 * n) - 4 * n;
  const auto coo_rows = hyb.coo_part().decode_rows();
  ASSERT_EQ(coo_rows[0], 17);
  const index_t dup = csr.row_cols(17)[0];
  std::memcpy(bytes.data() + cols_at, &dup, sizeof(dup));

  // The same triples in the same arrival order (ELL part, then COO part).
  bs::Coo want_coo;
  want_coo.rows = csr.rows;
  want_coo.cols = csr.cols;
  for (index_t r = 0; r < csr.rows; ++r)
    for (index_t e = csr.row_ptr[r]; e < csr.row_ptr[r + 1]; ++e)
      want_coo.push(r, e == csr.row_ptr[17] + 4 ? dup : csr.col_idx[e],
                    csr.vals[e]);
  const bs::Csr want = bs::coo_to_csr(want_coo);
  ASSERT_EQ(want.nnz(), csr.nnz() - 1);
  for (const int threads : {1, 4}) {
    ThreadGuard g(threads);
    EXPECT_TRUE(same_csr(bc::read_bro_to_csr(bytes), want))
        << "threads=" << threads;
  }
}

TEST(ParallelIngest, CorruptLastSliceThrowsAtFourThreads) {
  // 46 rows in slices of 7: the last slice holds rows 42..45, whose first
  // columns (642..645) give the slice's first column a 10-bit width. An
  // all-ones first field in row 42 then decodes to column 1022, past the
  // 1000 columns; a zero one is padding before two real deltas.
  bro::Rng rng(23);
  bs::Coo coo;
  coo.rows = 46;
  coo.cols = 1000;
  for (index_t r = 0; r < 46; ++r) {
    const index_t first = r < 42 ? r % 5 : 600 + r;
    for (const index_t c : {first, index_t(first + 100), index_t(999 - r)})
      coo.push(r, c, rng.uniform() + 0.5);
  }
  coo.canonicalize();
  const bs::Csr csr = bs::coo_to_csr(coo);

  bc::BroEllOptions eo;
  eo.slice_height = 7;
  const bc::BroEll ell = bc::BroEll::compress(csr, csr.max_row_length(), eo);
  bc::BroHybOptions ho;
  ho.ell = eo;
  ho.width_override = 2;
  const bc::BroHyb hyb = bc::BroHyb::compress(csr, ho);
  std::ostringstream ell_out(std::ios::binary), hyb_out(std::ios::binary);
  bc::write_bro_ell(ell_out, ell);
  bc::write_bro_hyb(hyb_out, hyb);
  // BRO-ELL's body follows the 9-byte header; BRO-HYB's ELL body follows
  // the header, rows, cols, split_width and ell_nnz.
  const struct {
    const char* name;
    Bytes bytes;
    std::size_t slots;
    int width;
  } streams[] = {
      {"BRO-ELL", to_bytes(ell_out.str()), last_slice_slots(ell, 9),
       ell.slices().back().bit_alloc[0]},
      {"BRO-HYB", to_bytes(hyb_out.str()),
       last_slice_slots(hyb.ell_part(), 9 + 12 + 8),
       hyb.ell_part().slices().back().bit_alloc[0]},
  };
  ThreadGuard g(4);
  for (const auto& st : streams) {
    SCOPED_TRACE(st.name);
    ASSERT_TRUE(same_csr(bc::read_bro_to_csr(st.bytes), csr));
    ASSERT_EQ(st.width, 10);
    // Slot 0 of the last slice is symbol 0 of row 42 (a u64 on the wire);
    // its top `width` bits of 32 hold the first delta.
    const std::uint64_t field = ((1ull << st.width) - 1) << (32 - st.width);
    for (const bool ones : {true, false}) {
      Bytes bad = st.bytes;
      std::uint64_t slot;
      std::memcpy(&slot, bad.data() + st.slots, sizeof(slot));
      slot = ones ? slot | field : slot & ~field;
      std::memcpy(bad.data() + st.slots, &slot, sizeof(slot));
      EXPECT_THROW(bc::read_bro_to_csr(bad), std::runtime_error)
          << (ones ? "column past the matrix" : "interior padding");
    }
  }
}

TEST(LockstepDecoder, MatchesRowStreamDecoderOnRandomWidths) {
  bro::Rng rng(2013);
  for (const int sym_len : {32, 64}) {
    for (int round = 0; round < 20; ++round) {
      const std::size_t h = 1 + rng.below(19);
      // Random widths in [1, 32], one in four chosen to drain the buffer
      // exactly (b == rb) whenever the level allows it.
      std::vector<int> widths;
      int rb = 0, exact = 0;
      std::size_t total = 0;
      for (int c = 0; c < 60; ++c) {
        int b = 1 + static_cast<int>(rng.below(32));
        if (rng.below(4) == 0 && rb >= 1 && rb <= 32) b = rb;
        exact += b == rb;
        rb = b <= rb ? rb - b : sym_len - (b - rb);
        widths.push_back(b);
        total += static_cast<std::size_t>(b);
      }
      ASSERT_GT(exact, 0);
      const std::size_t spr = (total + sym_len - 1) / sym_len;
      bro::bits::MuxedStream stream(sym_len, h, spr);
      std::vector<std::vector<std::uint32_t>> want(h);
      for (std::size_t t = 0; t < h; ++t) {
        bro::bits::MuxRowWriter w(stream, t);
        for (const int b : widths) {
          const auto v = static_cast<std::uint32_t>(
              rng.next() & bro::bits::max_value_for_bits(b));
          want[t].push_back(v);
          w.append(v, b);
        }
        w.finish();
      }

      bc::LockstepDecoder lock(stream, sym_len);
      std::vector<bc::RowStreamDecoder> rows;
      for (std::size_t t = 0; t < h; ++t)
        rows.emplace_back(stream, static_cast<index_t>(t), sym_len);
      std::vector<std::uint32_t> got(h);
      for (std::size_t c = 0; c < widths.size(); ++c) {
        lock.next(widths[c], got.data());
        for (std::size_t t = 0; t < h; ++t) {
          ASSERT_EQ(got[t], rows[t].next(widths[c]))
              << "sym_len " << sym_len << " column " << c << " lane " << t;
          ASSERT_EQ(got[t], want[t][c]);
        }
      }
      for (const auto& r : rows)
        EXPECT_EQ(lock.symbols_loaded(), r.symbols_loaded());
      EXPECT_EQ(static_cast<std::size_t>(lock.symbols_loaded()), spr);
      // One more full-width field needs a symbol the rows do not have.
      EXPECT_THROW(
          {
            for (int k = 0; k <= sym_len / 32; ++k) lock.next(32, got.data());
          },
          std::runtime_error);
    }
  }
}

// ---- every array type of the core is written before it is read ----
//
// CSR, COO and BRO-COO arrays are allocated unzeroed (util::UninitVector).
// Each builder below runs over poisoned heap blocks of its output's sizes
// at 1 and 4 threads, and its arrays must match, bitwise, a reference
// built with plain std::vectors.

namespace {

/// A CSR in plain std::vectors: the reference side of the comparisons.
struct PlainCsr {
  index_t rows = 0, cols = 0;
  std::vector<index_t> row_ptr, col_idx;
  std::vector<value_t> vals;
};

PlainCsr plain(const bs::Csr& a) {
  return {a.rows, a.cols,
          std::vector<index_t>(a.row_ptr.begin(), a.row_ptr.end()),
          std::vector<index_t>(a.col_idx.begin(), a.col_idx.end()),
          std::vector<value_t>(a.vals.begin(), a.vals.end())};
}

template <typename A, typename B>
bool same_ints(const A& a, const B& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool same_csr(const bs::Csr& a, const PlainCsr& b) {
  return a.rows == b.rows && a.cols == b.cols &&
         same_ints(a.row_ptr, b.row_ptr) && same_ints(a.col_idx, b.col_idx) &&
         same_bits(a.vals, b.vals);
}

/// Poisoned blocks the size of each of `want`'s arrays.
struct CsrPoison {
  explicit CsrPoison(const PlainCsr& want)
      : poison({want.row_ptr.size() * sizeof(index_t),
                want.col_idx.size() * sizeof(index_t),
                want.vals.size() * sizeof(value_t)}) {}
  HeapPoison poison;
};

/// Entries of `csr` in a shuffled order, with every fifth one followed by
/// a duplicate of its coordinate: a COO that is not canonical.
bs::Coo shuffled_with_duplicates(const bs::Csr& csr, std::uint64_t seed) {
  bs::Coo coo;
  coo.rows = csr.rows;
  coo.cols = csr.cols;
  for (index_t r = 0; r < csr.rows; ++r)
    for (index_t p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p) {
      coo.push(r, csr.col_idx[p], csr.vals[p]);
      if (p % 5 == 0) coo.push(r, csr.col_idx[p], 0.25);
    }
  bro::Rng rng(seed);
  for (std::size_t i = coo.nnz(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    std::swap(coo.row_idx[i - 1], coo.row_idx[j]);
    std::swap(coo.col_idx[i - 1], coo.col_idx[j]);
    std::swap(coo.vals[i - 1], coo.vals[j]);
  }
  return coo;
}

/// canonicalize_row's rule, written out: each row's entries stably sorted
/// by column, duplicates summed in arrival order.
PlainCsr naive_coo_to_csr(const bs::Coo& coo) {
  std::vector<std::vector<std::pair<index_t, value_t>>> rows(
      static_cast<std::size_t>(coo.rows));
  for (std::size_t i = 0; i < coo.nnz(); ++i)
    rows[static_cast<std::size_t>(coo.row_idx[i])].emplace_back(coo.col_idx[i],
                                                                coo.vals[i]);
  PlainCsr out{coo.rows, coo.cols, {0}, {}, {}};
  for (auto& row : rows) {
    std::stable_sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0 && row[k].first == row[k - 1].first) {
        out.vals.back() += row[k].second;
      } else {
        out.col_idx.push_back(row[k].first);
        out.vals.push_back(row[k].second);
      }
    }
    out.row_ptr.push_back(static_cast<index_t>(out.col_idx.size()));
  }
  return out;
}

} // namespace

TEST(HeapPoison, IngestWritesEveryCsrSlot) {
  const bs::Csr csr = ragged_rows(700, 9, 4, 81);
  const PlainCsr want = plain(csr);
  // Every serializable tag.
  for (const std::string& bytes : bro_bytes(csr)) {
    const Bytes in = to_bytes(bytes);
    for (const int threads : {1, 4}) {
      ThreadGuard g(threads);
      const CsrPoison poison(want);
      EXPECT_TRUE(same_csr(bc::read_bro_to_csr(in), want))
          << "tag " << int(in[8]) << " threads=" << threads;
    }
  }
}

TEST(HeapPoison, CooToCsrWritesEveryCsrSlot) {
  const bs::Coo coo = shuffled_with_duplicates(ragged_rows(600, 8, 5, 82), 9);
  const PlainCsr want = naive_coo_to_csr(coo);
  for (const int threads : {1, 4}) {
    ThreadGuard g(threads);
    {
      // Sized for every entry, then cut to the merged row lengths.
      const HeapPoison poison({coo.nnz() * sizeof(index_t),
                               coo.nnz() * sizeof(value_t)});
      EXPECT_TRUE(same_csr(bs::coo_to_csr(coo), want))
          << "unsorted, threads=" << threads;
    }
    // Canonical input keeps (or, moved in, takes over) its own arrays.
    bs::Coo canonical = bs::csr_to_coo(bs::coo_to_csr(coo));
    const CsrPoison poison(want);
    EXPECT_TRUE(same_csr(bs::coo_to_csr(std::move(canonical)), want))
        << "canonical, threads=" << threads;
  }
}

TEST(HeapPoison, CanonicalizeAndBroCooWriteEverySlot) {
  const bs::Coo coo = shuffled_with_duplicates(ragged_rows(600, 8, 5, 83), 10);
  const PlainCsr csr = naive_coo_to_csr(coo);
  std::vector<index_t> rows;
  for (index_t r = 0; r < csr.rows; ++r)
    rows.insert(rows.end(),
                static_cast<std::size_t>(csr.row_ptr[r + 1] - csr.row_ptr[r]),
                r);
  for (const int threads : {1, 4}) {
    ThreadGuard g(threads);
    bs::Coo canon = coo;
    {
      const HeapPoison poison({coo.nnz() * sizeof(index_t),
                               coo.nnz() * sizeof(value_t)});
      canon.canonicalize();
    }
    EXPECT_TRUE(same_ints(canon.row_idx, rows) &&
                same_ints(canon.col_idx, csr.col_idx) &&
                same_bits(canon.vals, csr.vals))
        << "Coo::canonicalize threads=" << threads;

    // BRO-COO pads the moved-in arrays to whole intervals: the last
    // coordinate again, with value +0.0.
    bc::BroCooOptions opts;
    opts.warp_size = 8;
    opts.interval_cols = 16;
    const std::size_t padded = bc::BroCoo::padded_length(rows.size(), opts);
    std::vector<index_t> want_rows = rows, want_cols = csr.col_idx;
    std::vector<value_t> want_vals = csr.vals;
    want_rows.resize(padded, rows.back());
    want_cols.resize(padded, csr.col_idx.back());
    want_vals.resize(padded, 0.0);
    const bc::BroCoo bro = [&] {
      const HeapPoison poison({padded * sizeof(index_t),
                               padded * sizeof(index_t),
                               padded * sizeof(value_t)});
      return bc::BroCoo::compress(std::move(canon), opts);
    }();
    const HeapPoison poison({padded * sizeof(index_t)});
    EXPECT_TRUE(same_ints(bro.decode_rows(), want_rows) &&
                same_ints(bro.col_idx(), want_cols) &&
                same_bits(bro.vals(), want_vals))
        << "BroCoo::compress threads=" << threads;
  }
}

TEST(HeapPoison, GeneratorsAndPermuteRowsWriteEverySlot) {
  const auto entry = bs::suite_test_set(1).front();
  const PlainCsr suite = plain(bs::generate_suite_matrix(entry, 0.002));
  const PlainCsr poisson = plain(bs::generate_poisson2d(40, 30));
  const bs::Csr src = ragged_rows(500, 9, 6, 84);
  std::vector<index_t> perm(static_cast<std::size_t>(src.rows));
  for (std::size_t i = 0; i < perm.size(); ++i)
    perm[i] = static_cast<index_t>((i * 7 + 3) % perm.size());
  PlainCsr permuted{src.rows, src.cols, {0}, {}, {}};
  for (const index_t r : perm) {
    const auto cols = src.row_cols(r);
    const auto vals = src.row_vals(r);
    permuted.col_idx.insert(permuted.col_idx.end(), cols.begin(), cols.end());
    permuted.vals.insert(permuted.vals.end(), vals.begin(), vals.end());
    permuted.row_ptr.push_back(static_cast<index_t>(permuted.col_idx.size()));
  }
  for (const int threads : {1, 4}) {
    ThreadGuard g(threads);
    {
      const CsrPoison poison(suite);
      EXPECT_TRUE(same_csr(bs::generate_suite_matrix(entry, 0.002), suite))
          << entry.name << " threads=" << threads;
    }
    {
      const CsrPoison poison(poisson);
      EXPECT_TRUE(same_csr(bs::generate_poisson2d(40, 30), poisson))
          << "poisson2d threads=" << threads;
    }
    const CsrPoison poison(permuted);
    EXPECT_TRUE(same_csr(bro::reorder::permute_rows(src, perm), permuted))
        << "permute_rows threads=" << threads;
  }
}

// ---- Csr::is_valid over row tiles ----

namespace {

/// The validity rule, one row after another: row pointers monotone from 0
/// to nnz, columns in range and strictly increasing within each row.
bool serial_is_valid(const bs::Csr& a) {
  if (a.row_ptr.size() != static_cast<std::size_t>(a.rows) + 1 ||
      a.row_ptr.front() != 0 ||
      static_cast<std::size_t>(a.row_ptr.back()) != a.nnz() ||
      a.col_idx.size() != a.vals.size())
    return false;
  for (index_t r = 0; r < a.rows; ++r) {
    if (a.row_ptr[r + 1] < a.row_ptr[r] ||
        static_cast<std::size_t>(a.row_ptr[r + 1]) > a.nnz())
      return false;
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      if (a.col_idx[p] < 0 || a.col_idx[p] >= a.cols) return false;
      if (p > a.row_ptr[r] && a.col_idx[p] <= a.col_idx[p - 1]) return false;
    }
  }
  return true;
}

/// `csr` with one fault in its last row (`csr` must end in a row of at
/// least two entries).
std::vector<std::pair<std::string, bs::Csr>> last_row_faults(
    const bs::Csr& csr) {
  std::vector<std::pair<std::string, bs::Csr>> out;
  const auto add = [&](const char* what, auto&& mutate) {
    bs::Csr bad = csr;
    mutate(bad);
    out.emplace_back(what, std::move(bad));
  };
  add("unsorted columns", [](bs::Csr& a) {
    std::swap(a.col_idx[a.nnz() - 1], a.col_idx[a.nnz() - 2]);
  });
  add("duplicate column",
      [](bs::Csr& a) { a.col_idx[a.nnz() - 1] = a.col_idx[a.nnz() - 2]; });
  add("column past the matrix", [](bs::Csr& a) { a.col_idx.back() = a.cols; });
  add("negative column", [](bs::Csr& a) { a.col_idx[a.nnz() - 2] = -1; });
  add("non-monotone row_ptr", [](bs::Csr& a) {
    a.row_ptr[static_cast<std::size_t>(a.rows) - 1] =
        a.row_ptr[static_cast<std::size_t>(a.rows) - 2] - 1;
  });
  return out;
}

} // namespace

TEST(ParallelValidity, VerdictsMatchTheSerialRule) {
  std::vector<std::pair<std::string, bs::Csr>> cases;
  for (auto& c : bs::adversarial_suite(5)) cases.emplace_back(c.name, c.csr);
  for (auto& c : bs::adversarial_huge_cases(5))
    cases.emplace_back(c.name, c.csr);
  // 10000 rows: three tiles, the last one partial.
  const bs::Csr grid = bs::generate_poisson2d(100, 100);
  cases.emplace_back("poisson 100x100", grid);
  for (auto& [what, bad] : last_row_faults(grid))
    cases.emplace_back("poisson 100x100, " + what, std::move(bad));
  for (const auto& c : bs::adversarial_suite(5))
    if (c.csr.rows >= 2 && c.csr.row_length(c.csr.rows - 1) >= 2)
      for (auto& [what, bad] : last_row_faults(c.csr))
        cases.emplace_back(c.name + ", " + what, std::move(bad));
  int invalid = 0;
  for (const auto& [name, csr] : cases) {
    const bool want = serial_is_valid(csr);
    invalid += !want;
    for (const int threads : {1, 2, 4}) {
      ThreadGuard g(threads);
      EXPECT_EQ(csr.is_valid(), want) << name << " threads=" << threads;
    }
  }
  EXPECT_GE(invalid, 5);
}
