// Plan memory ownership: a plan owns what it runs. Measured as glibc's
// in-use heap bytes (mallinfo2 after malloc_trim) on the pwtk stand-in at
// scale 0.25 (~2.9 M non-zeros), for every registered format that applies:
//   - building a plan retains its representation bytes (within 5 %);
//   - destroying the plan returns the heap to its pre-build size (1 MB);
//   - so does a server evicting or removing a registered matrix's plan
//     while the matrix stays referenced, so the plan byte budget, which
//     charges representation bytes, bounds the memory eviction frees;
//   - BRO-ELL and BRO-HYB plans hold no value copy: their ELL part reads
//     the matrix's CSR.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/format_registry.h"
#include "engine/plan.h"
#include "serve/server.h"
#include "sparse/matgen/suite.h"

namespace bc = bro::core;
namespace be = bro::engine;
namespace bs = bro::sparse;
namespace bv = bro::serve;
using bro::value_t;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true; // the sanitizer's allocator replaces glibc's
#else
constexpr bool kSanitized = false;
#endif

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

/// Bytes of live heap allocations, small and mmapped.
std::int64_t heap_in_use() {
  ::malloc_trim(0);
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

std::shared_ptr<const bc::Matrix> pwtk() {
  static const auto m = std::make_shared<const bc::Matrix>(bc::Matrix::from_csr(
      bs::generate_suite_matrix(*bs::find_suite_entry("pwtk"), 0.25)));
  return m;
}

/// The formats a plan of pwtk can use, after one warm-up execute so the
/// OpenMP pool and one-time tables exist before anything is measured.
std::vector<const be::FormatTraits*> applicable_formats() {
  const auto m = pwtk();
  std::vector<const be::FormatTraits*> out;
  for (const auto& t : be::format_registry())
    if (t.applicable(m->csr(), m->options().max_ell_expand)) out.push_back(&t);
  be::SpmvPlan warm(m, bc::Format::kCsr);
  std::vector<value_t> x(static_cast<std::size_t>(m->cols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(m->rows()));
  warm.execute(x, y);
  return out;
}

/// Retained bytes must match the plan's representation bytes within 5 %
/// (and 1 MB of workspace for the CSR plan, which has no representation).
void expect_retains_representation(std::int64_t retained,
                                   std::size_t rep_bytes) {
  const auto rep = static_cast<double>(rep_bytes);
  EXPECT_NEAR(static_cast<double>(retained), rep,
              std::max(0.05 * rep, static_cast<double>(kMiB)));
}

} // namespace

TEST(PlanMemory, DestroyingAPlanFreesItsRepresentation) {
  if (kSanitized) GTEST_SKIP() << "mallinfo2 does not see sanitizer heaps";
  const auto m = pwtk();
  for (const be::FormatTraits* t : applicable_formats()) {
    SCOPED_TRACE(t->name);
    const std::int64_t before = heap_in_use();
    {
      const be::SpmvPlan plan(m, t->format);
      expect_retains_representation(heap_in_use() - before,
                                    plan.representation_bytes());
    }
    EXPECT_LT(std::abs(heap_in_use() - before), kMiB);
  }
}

TEST(PlanMemory, BroEllPlansOwnOnlyTheirIndex) {
  // BRO-ELL and BRO-HYB read the ELL values from the matrix's CSR in
  // place, so a plan's representation bytes are its index bytes (plus
  // BRO-HYB's COO overflow arrays) and no copy of the CSR is made.
  const auto m = pwtk();
  const be::SpmvPlan ell(m, bc::Format::kBroEll);
  const auto& bro = *static_cast<const bc::BroEll*>(ell.representation());
  EXPECT_EQ(&bro.csr(), &m->csr());
  EXPECT_EQ(ell.representation_bytes(), bc::slice_index_bytes(bro.slices()));

  const be::SpmvPlan hyb(m, bc::Format::kBroHyb);
  const auto& h = *static_cast<const bc::BroHyb*>(hyb.representation());
  EXPECT_EQ(&h.ell_part().csr(), &m->csr());
  EXPECT_EQ(hyb.representation_bytes(),
            bc::slice_index_bytes(h.ell_part().slices()) +
                h.coo_part().resident_row_bytes() +
                h.coo_part().padded_nnz() * (sizeof(bro::index_t) +
                                             sizeof(value_t)));
}

TEST(PlanMemory, EvictionFreesTheRepresentation) {
  if (kSanitized) GTEST_SKIP() << "mallinfo2 does not see sanitizer heaps";
  const auto m = pwtk();
  const std::vector<value_t> x(static_cast<std::size_t>(m->cols()), 1.0);
  for (const be::FormatTraits* t : applicable_formats()) {
    SCOPED_TRACE(t->name);
    // A 1-byte budget holds only the most recent plan.
    bv::ServerOptions opts;
    opts.threads = 0;
    opts.cache_bytes = 1;
    opts.format = t->format;
    bv::SpmvServer server(opts);
    server.add_matrix("pwtk", m);
    server.add_matrix("other", m);
    const auto serve = [&](const std::string& id) {
      auto f = server.submit(id, x);
      server.drain();
      f.get();
    };
    const std::int64_t before = heap_in_use();
    serve("pwtk");
    const std::size_t rep_bytes = server.metrics().cache.resident_bytes;
    expect_retains_representation(heap_in_use() - before, rep_bytes);
    // Another registration's plan evicts this one (when it has bytes to
    // free); the matrix stays referenced and one plan stays held.
    serve("other");
    EXPECT_EQ(server.metrics().cache.evictions, rep_bytes > 0 ? 1u : 0u);
    expect_retains_representation(heap_in_use() - before, rep_bytes);
    // Removing the registrations drops the last plan.
    server.remove_matrix("pwtk");
    server.remove_matrix("other");
    EXPECT_EQ(server.metrics().cache.resident_bytes, 0u);
    EXPECT_LT(std::abs(heap_in_use() - before), kMiB);
  }
}
